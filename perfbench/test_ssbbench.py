"""Self-tests of the SSB serving benchmark, at a tiny size.

Run from the repository root with ``python -m pytest perfbench -q``.  The
seed below was not used while the benchmark was tuned.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import run as bench
from ssbbench import workloads
from ssbbench.layers import LAYER_TABLE
from ssbbench.report import GATED, end_to_end
from ssbbench.spans import SpanRecorder, current_attributes
from ssbbench.workloads import WORKLOADS

SEED = 424242
TINY_SF = 0.002
TINY_UNITS = {"ssb-serve": 2, "ssb-allpim": 2, "ssb-churn": 8}


def tiny(name: str, units: int | None = None):
    """The workload at SF 0.002 with a few timed units at ``--seconds 0``."""
    return replace(WORKLOADS[name], scale_factor=TINY_SF,
                   min_units=units or TINY_UNITS[name])


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


def tiny_run(name: str, trace: bool = False):
    return workloads.run(tiny(name), SEED, seconds=0, trace=trace)


def run_main(monkeypatch, name: str, units: int, trace: int) -> int:
    """``run.main`` on the tiny workload, as the benchmark command runs it."""
    monkeypatch.setattr(bench, "WORKLOADS", {name: tiny(name, units)})
    return bench.main([
        "--workload", name, "--seed", str(SEED), "--seconds", "0",
        "--trace", str(trace),
    ])


def modelled(result) -> dict:
    """What must repeat exactly for the same seed and code."""
    e2e = end_to_end(result)
    return {
        "sim": [e2e[name].value for name in
                ("sim_time_s", "sim_energy_j", "sim_max_writes_per_row")],
        "error_rate": e2e["error_rate"].value,
        "attempted": result.attempted,
        "kinds": [op.kind for op in result.ops],
        "warmup_passes": result.warmup_passes,
        "compactions": result.compactions,
    }


def benchmark_json() -> dict:
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_modelled_outputs_and_counts(name):
    first, second = tiny_run(name), tiny_run(name)
    assert first.failed == 0, first.errors
    assert modelled(first) == modelled(second)


def test_tracing_leaves_modelled_outputs_unchanged():
    assert modelled(tiny_run("ssb-churn")) == modelled(
        tiny_run("ssb-churn", trace=True)
    )


def test_churn_compacts_and_exercises_every_statement():
    result = tiny_run("ssb-churn")
    assert result.compactions >= 1
    for kind in ("insert", "delete", "update", "compact", "query"):
        assert result.timed(kind), kind


@pytest.mark.parametrize("trace", [0, 1])
def test_every_benchmark_metric_is_printed_with_its_unit(capsys, monkeypatch,
                                                         trace):
    code = run_main(monkeypatch, "ssb-churn", 4, trace)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        printed = {line.split()[0] for line in lines[:-1]}
        assert set(end_to_end(tiny_run("ssb-churn"))) <= printed


def test_benchmark_json_matches_the_benchmark():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(GATED)
    assert [m["name"] for m in spec["per_layer"]] == [m.name for m in LAYER_TABLE]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_traced_run_restores_every_wrapped_attribute():
    before = current_attributes()
    result = tiny_run("ssb-serve", trace=True)
    assert result.recorder.spans
    after = current_attributes()
    assert all(a is b for a, b in zip(before, after))


def test_wrappers_are_restored_when_the_block_raises():
    before = current_attributes()
    with pytest.raises(RuntimeError), SpanRecorder().installed():
        raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, current_attributes()))


def test_wrong_rows_fail_the_run(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "_reference", lambda relation, query: {})
    code = run_main(monkeypatch, "ssb-serve", 1, 0)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
