"""Turns a :class:`~ssbbench.workloads.RunResult` into named metrics.

Host times are calibrated walls (see ``workloads.SpeedProbe``);
``raw_walls`` gives the main ones as measured.

``end_to_end`` gives all sixteen end-to-end metrics (``None`` where a
metric does not apply to the workload, e.g. INSERT percentiles on a
read-only workload); ``GATED`` are the ones ``BENCHMARK.json`` bounds — the
metrics every workload reports and that are never zero.  ``per_layer``
gives every metric of :data:`~ssbbench.layers.LAYER_TABLE` from the traced
run, and ``unreached`` names the layer metrics a workload never reaches.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass

import numpy as np

from ssbbench.layers import LAYER_TABLE, SETUP_SPANS

#: End-to-end metrics in ``BENCHMARK.json``, in order.
GATED = (
    "setup_s", "cold_pass_s", "ops_per_s", "query_p50_ms", "query_p90_ms",
    "peak_rss_mb", "sim_time_s", "sim_energy_j", "sim_max_writes_per_row",
)

#: A percentile is reported only with at least this many samples, so that
#: at least ten lie beyond a p90.
MIN_PERCENTILE_SAMPLES = 100


@dataclass(frozen=True)
class Metric:
    value: float | None
    unit: str
    samples: int | None = None
    note: str = ""


def _rate(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentiles(result, kind: str, label: str) -> dict[str, Metric]:
    walls = [op.wall_s * 1e3 for op in result.timed(kind)]
    if not walls:
        note = f"no {label} in this workload"
        return {
            f"{kind}_p50_ms": Metric(None, "ms", 0, note),
            f"{kind}_p90_ms": Metric(None, "ms", 0, note),
        }
    p50, p90 = np.percentile(walls, [50, 90])
    p90_note = (
        "" if len(walls) >= MIN_PERCENTILE_SAMPLES
        else f"fewer than {MIN_PERCENTILE_SAMPLES} samples"
    )
    return {
        f"{kind}_p50_ms": Metric(float(p50), "ms", len(walls)),
        f"{kind}_p90_ms": Metric(float(p90), "ms", len(walls), p90_note),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(result) -> dict[str, Metric]:
    """All sixteen end-to-end metrics of an untraced run."""
    ops = result.ops
    wall = sum(op.wall_s for op in ops)
    metrics = {
        "setup_s": Metric(statistics.median(result.setup_s), "s",
                          len(result.setup_s), "median of the set-ups"),
        "cold_pass_s": Metric(result.cold_pass_s, "s"),
        "ops_per_s": Metric(_rate(len(ops), wall), "ops/s", len(ops)),
    }
    metrics.update(_percentiles(result, "query", "query"))
    metrics.update(_percentiles(result, "insert", "INSERT"))
    metrics.update(_percentiles(result, "delete", "DELETE"))
    metrics.update(_percentiles(result, "update", "UPDATE"))
    metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB")
    metrics["sim_time_s"] = Metric(sum(op.sim_time_s for op in ops), "s_modelled")
    metrics["sim_energy_j"] = Metric(
        sum(op.sim_energy_j for op in ops), "J_modelled"
    )
    metrics["sim_max_writes_per_row"] = Metric(
        result.max_writes_per_row, "writes"
    )
    metrics["error_rate"] = Metric(
        _rate(result.failed, result.attempted), "fraction", result.attempted
    )
    return metrics


def _ops_per_s(ops) -> float:
    return _rate(len(ops), sum(op.wall_s for op in ops))


def raw_walls(result) -> dict[str, Metric]:
    """The main host times as measured, before speed calibration."""
    queries = [op.raw_wall_s * 1e3 for op in result.timed("query")]
    p50, p90 = np.percentile(queries, [50, 90]) if queries else (0.0, 0.0)
    return {
        "raw.setup_s": Metric(statistics.median(result.raw_setup_s), "s"),
        "raw.ops_per_s": Metric(_rate(
            len(result.ops), sum(op.raw_wall_s for op in result.ops)
        ), "ops/s"),
        "raw.query_p50_ms": Metric(float(p50), "ms", len(queries)),
        "raw.query_p90_ms": Metric(float(p90), "ms", len(queries)),
    }


def per_layer(result) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric of a traced run, and the unreached ones."""
    recorder, counters = result.recorder, result.counters
    factors = result.op_factors
    self_s, calls = recorder.layer_totals(
        {op: factors[op] for op in result.traced_ops}
    )
    setup_self, setup_calls = recorder.layer_totals(
        {op: factors[op] for op in result.setup_ops}
    )
    repeats = len(result.setup_s)
    counted = {
        "service.cache.hit_rate": (
            _rate(counters.cache_hits, counters.cache_hits + counters.cache_misses),
            counters.cache_hits + counters.cache_misses,
        ),
        "service.cache.misses": (counters.cache_misses, None),
        "service.cache.evictions": (counters.cache_evictions, None),
        "planner.host_routed_share": (
            _rate(counters.host_routed, counters.queries), counters.queries
        ),
        "planner.crossbars_scanned_share": (
            _rate(counters.crossbars_scanned, counters.crossbars_total),
            counters.crossbars_total,
        ),
        "planner.zonemap.entries_checked": (counters.entries_checked, None),
        "planner.candidates.hit_rate": (
            _rate(counters.candidate_hits, counters.candidate_lookups),
            counters.candidate_lookups,
        ),
        "planner.adaptive.rebuilds": (counters.adaptive_rebuilds, None),
        "core.pim_subgroups": (counters.pim_subgroups, None),
        "pim.batch_kernel.hit_rate": (
            _rate(counters.batch_hits, counters.batch_lookups),
            counters.batch_lookups,
        ),
        "pim.charge.calls": (
            recorder.counts["pim.charge"], recorder.counts["pim.charge"]
        ),
        "db.dml.rows_written": (
            counters.rows_written,
            len(result.timed("insert")) + len(result.timed("delete"))
            + len(result.timed("update")),
        ),
        "trace.coverage": (recorder.coverage(result.traced_ops), 1),
        "trace.overhead": (
            _rate(_ops_per_s(result.timed(traced=False)),
                  _ops_per_s(result.timed(traced=True))) - 1,
            len(result.timed(traced=True)),
        ),
    }
    values: dict[str, float] = {}
    unreached: list[str] = []
    for metric in LAYER_TABLE:
        if metric.name in counted:
            value, reach = counted[metric.name]
        else:
            span, suffix = metric.name.rsplit(".", 1)
            if span in SETUP_SPANS:
                value = setup_self.get(span, 0.0) * 1e3 / repeats
                reach = setup_calls[span]
            elif suffix == "ms":
                value, reach = self_s.get(span, 0.0) * 1e3, calls[span]
            else:
                value = reach = calls[span]
        values[metric.name] = value
        if reach == 0:
            unreached.append(metric.name)
    return values, unreached
