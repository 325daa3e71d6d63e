"""SSB serving benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ssb-serve --seed 1 --seconds 14 --trace 0

Replays seeded SSB traffic through ``repro.service.QueryService`` (see
``ssbbench/workloads.py``), checks every result, prints a report with every
end-to-end metric by name, unit and sample count, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics ``BENCHMARK.json`` bounds; ``--trace 1``
reports every per-layer metric from a run with the layer entry points
wrapped, and writes its spans as JSONL under ``perfbench/out/``, next to
a per-run result file with every metric and operation.  Exits 1 on any
failed operation or wrong result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

from repro.experiments.emit import git_revision  # noqa: E402
from ssbbench import report  # noqa: E402
from ssbbench.layers import LAYER_TABLE  # noqa: E402
from ssbbench.workloads import WORKLOADS, run  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(metric: report.Metric) -> str:
    if metric.value is None:
        return f"n/a ({metric.note})"
    text = f"{metric.value:.6g} {metric.unit}"
    if metric.samples is not None:
        text += f"  (n={metric.samples})"
    if metric.note:
        text += f"  [{metric.note}]"
    return text


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    provenance = {
        **result.provenance,
        "trace": args.trace,
        "git_revision": git_revision() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "warmup_passes": result.warmup_passes,
        "warmup_converged": result.warmup_converged,
        "compactions": result.compactions,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for error in result.errors[:20]:
        print("FAILED " + error.strip().replace("\n", " | "))

    OUT.mkdir(exist_ok=True)
    if args.trace:
        values, unreached = report.per_layer(result)
        units = {metric.name: metric.unit for metric in LAYER_TABLE}
        for name, value in values.items():
            print(f"{name:<34} {value:.6g} {units[name]}")
        print("unreached on this workload: " + (", ".join(unreached) or "none"))
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        }
        reported = {**metrics, "unreached": unreached}
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        result.recorder.write_jsonl(spans)
        print(f"spans: {len(result.recorder.spans)} written to {spans}")
    else:
        e2e = report.end_to_end(result)
        every = {**e2e, **report.raw_walls(result)}
        for name, metric in every.items():
            print(f"{name:<24} {_fmt(metric)}")
        reported = {name: dataclasses.asdict(m) for name, m in every.items()}
        metrics = {
            name: {"value": e2e[name].value, "unit": e2e[name].unit}
            for name in report.GATED
        }
    correct = result.failed == 0
    detail = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({
        "provenance": provenance,
        "metrics": reported,
        "ops": [dataclasses.asdict(op) for op in result.ops],
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
