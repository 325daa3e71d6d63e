"""The layer entry points the traced run wraps, and the per-layer metrics.

Each :class:`WrapPoint` names one attribute *where its caller looks it up*:
a module global that another module imported by name is patched in the
importing module (``repro.service.service.execute_host_scan``), a method
on its class, and a function imported lazily inside a function body on the
module it is imported from.  Several entry points may feed one span name
(``db.compile`` covers the three program compilers).

``LAYER_TABLE`` records, for every per-layer metric, which end-to-end
metric it should move and on which workload; ``README.md`` renders it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WrapPoint:
    """One attribute to wrap: ``owner`` is ``None`` for a module global."""

    module: str
    owner: str | None
    attr: str
    span: str
    #: ``"timed"`` records a span; ``"counted"`` only counts calls (for the
    #: hot modelled-charge accumulators, whose timing would be all overhead).
    kind: str = "timed"


WRAP_POINTS: tuple[WrapPoint, ...] = (
    # ssb / db setup
    WrapPoint("repro.ssb", None, "generate", "ssb.generate"),
    WrapPoint("repro.ssb", None, "build_ssb_prejoined", "ssb.prejoin"),
    WrapPoint("repro.db.storage", "StoredRelation", "__init__", "db.storage.load"),
    # service
    WrapPoint("repro.service.service", "QueryService", "execute", "service.query"),
    # planner
    WrapPoint("repro.planner.planner", "CostPlanner", "route", "planner.route"),
    WrapPoint("repro.planner.planner", "RelationStatistics", "plan", "planner.plan"),
    WrapPoint("repro.planner.planner", "RelationStatistics", "observe_execution",
              "planner.feedback"),
    WrapPoint("repro.service.service", None, "execute_host_scan", "planner.host_scan"),
    # core
    WrapPoint("repro.core.executor", "PimQueryEngine", "execute", "core.engine"),
    WrapPoint("repro.core.stages", "FilterStage", "run", "core.filter"),
    WrapPoint("repro.core.stages", "AggregationStage", "aggregate_all", "core.aggregate"),
    WrapPoint("repro.core.executor", None, "estimate_subgroups", "core.sampling"),
    WrapPoint("repro.core.groupby", "GroupByPlanner", "plan", "core.groupby_plan"),
    WrapPoint("repro.core.batched", None, "run_group_by_batched", "core.groupby_batched"),
    # db compile
    WrapPoint("repro.core.stages", None, "compile_predicate", "db.compile"),
    WrapPoint("repro.core.stages", None, "compile_group_predicate", "db.compile"),
    WrapPoint("repro.core.stages", None, "compile_group_combine", "db.compile"),
    WrapPoint("repro.db.update", None, "compile_predicate", "db.compile"),
    # pim
    WrapPoint("repro.pim.ir", None, "lower_program", "pim.lower"),
    WrapPoint("repro.core.batched", None, "lower_program_batch", "pim.lower"),
    WrapPoint("repro.pim.fused", None, "compile_dag", "pim.kernel_build"),
    WrapPoint("repro.core.batched", None, "compile_batch", "pim.kernel_build"),
    WrapPoint("repro.pim.fused", "FusedKernel", "run", "pim.kernel"),
    WrapPoint("repro.pim.fused", "BatchKernel", "run", "pim.kernel"),
    WrapPoint("repro.pim.controller", "PimExecutor", "run_program", "pim.program"),
    WrapPoint("repro.pim.controller", "PimExecutor", "run_program_pruned", "pim.program"),
    WrapPoint("repro.pim.controller", "PimExecutor", "aggregate_with_circuit",
              "pim.agg_circuit"),
    WrapPoint("repro.pim.controller", "PimExecutor", "charge_aggregation_circuit",
              "pim.agg_circuit"),
    WrapPoint("repro.pim.stats", "PimStats", "add_time", "pim.charge", "counted"),
    WrapPoint("repro.pim.stats", "PimStats", "add_energy", "pim.charge", "counted"),
    # storage decode
    WrapPoint("repro.db.storage", "StoredRelation", "decode_column", "db.decode"),
    WrapPoint("repro.pim.packed", "PackedCrossbarBank", "read_field_all",
              "pim.read_field_all"),
    # host
    WrapPoint("repro.core.executor", None, "host_group_aggregate", "host.group_aggregate"),
    WrapPoint("repro.host.aggregator", None, "host_group_aggregate", "host.group_aggregate"),
    # dml
    WrapPoint("repro.db.dml", None, "execute_insert", "db.dml.insert"),
    WrapPoint("repro.db.dml", None, "execute_delete", "db.dml.delete"),
    WrapPoint("repro.db.update", None, "execute_update", "db.dml.update"),
    WrapPoint("repro.db.dml", None, "execute_compaction", "db.dml.compaction"),
)

#: Spans opened during set-up; their metrics are per set-up, not per timed
#: phase.
SETUP_SPANS = ("ssb.generate", "ssb.prejoin", "db.storage.load")

#: The span whose self time is the service's orchestration residual and
#: whose wall ``trace.coverage`` divides the named layers below it by.
ROOT_SPAN = "service.query"


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric of the traced run."""

    name: str
    unit: str
    better: str
    #: Which end-to-end metric it should move, on which workload.
    moves: str


def _ms(span: str, moves: str) -> LayerMetric:
    return LayerMetric(f"{span}.ms", "ms", "lower", moves)


def _calls(span: str, moves: str) -> LayerMetric:
    return LayerMetric(f"{span}.calls", "count", "lower", moves)


_SETUP = "setup_s on all workloads"
_SERVICE = "query_p90_ms, ops_per_s on ssb-allpim"
_PLANNER = ("query_p50_ms on ssb-serve; query_p50_ms on ssb-churn, where "
            "epoch bumps lower the candidate hit rate")
_CORE = "query_p90_ms on ssb-allpim"
_COMPILE = ("query_p90_ms, ops_per_s on ssb-allpim; cold_pass_s on ssb-serve; "
            "no move on ssb-serve warm")
_PIM = "query_p90_ms, ops_per_s on ssb-allpim"
_DECODE = ("query_p50_ms, ops_per_s on ssb-serve; a decode cache's write cost "
           "shows in insert/delete/update percentiles on ssb-churn")
_HOST = "query_p50_ms on ssb-serve"
_DML = "insert/delete/update percentiles, ops_per_s on ssb-churn"

LAYER_TABLE: tuple[LayerMetric, ...] = (
    _ms("ssb.generate", _SETUP),
    _ms("ssb.prejoin", _SETUP),
    _ms("db.storage.load", _SETUP),
    _calls("service.query", _SERVICE),
    _ms("service.query", _SERVICE),
    LayerMetric("service.cache.hit_rate", "fraction", "higher", _SERVICE),
    LayerMetric("service.cache.misses", "count", "lower", _SERVICE),
    LayerMetric("service.cache.evictions", "count", "lower",
                _SERVICE + "; expect 0 in ssb-serve's timed phase"),
    _ms("planner.route", _PLANNER),
    _ms("planner.plan", _PLANNER),
    _ms("planner.feedback", _PLANNER),
    _calls("planner.host_scan", _PLANNER),
    _ms("planner.host_scan", _PLANNER),
    LayerMetric("planner.host_routed_share", "fraction", "higher", _PLANNER),
    LayerMetric("planner.crossbars_scanned_share", "fraction", "lower", _PLANNER),
    LayerMetric("planner.zonemap.entries_checked", "count", "lower", _PLANNER),
    LayerMetric("planner.candidates.hit_rate", "fraction", "higher", _PLANNER),
    LayerMetric("planner.adaptive.rebuilds", "count", "lower", _PLANNER),
    _ms("core.engine", _CORE),
    _ms("core.filter", _CORE),
    _ms("core.aggregate", _CORE),
    _ms("core.sampling", _CORE),
    _ms("core.groupby_plan", _CORE),
    _ms("core.groupby_batched", _CORE),
    LayerMetric("core.pim_subgroups", "count", "lower", _CORE),
    _calls("db.compile", _COMPILE),
    _ms("db.compile", _COMPILE),
    _calls("pim.lower", _PIM),
    _ms("pim.lower", _PIM),
    _ms("pim.kernel_build", _PIM),
    LayerMetric("pim.batch_kernel.hit_rate", "fraction", "higher", _PIM),
    _ms("pim.kernel", _PIM),
    _calls("pim.program", _PIM),
    _ms("pim.program", _PIM),
    _ms("pim.agg_circuit", _PIM),
    _calls("pim.charge", _PIM),
    _calls("db.decode", _DECODE),
    _ms("db.decode", _DECODE),
    _calls("pim.read_field_all", _DECODE),
    _ms("pim.read_field_all", _DECODE),
    _ms("host.group_aggregate", _HOST),
    _ms("db.dml.insert", _DML),
    _ms("db.dml.delete", _DML),
    _ms("db.dml.update", _DML),
    _calls("db.dml.compaction", _DML),
    _ms("db.dml.compaction", _DML),
    LayerMetric("db.dml.rows_written", "count", "lower", _DML),
    LayerMetric("trace.coverage", "fraction", "higher", "-"),
    LayerMetric("trace.overhead", "fraction", "lower", "-"),
)
