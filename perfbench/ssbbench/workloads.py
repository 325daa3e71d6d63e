"""The three SSB serving workloads and the closed-loop client that runs them.

One client thread issues one operation at a time (a closed loop) through
the public ``QueryService`` — plus ``repro.db.update.execute_update`` for
UPDATE, which the service has no entry point for.  A run is a fixed, seeded
operation sequence:

1. **set-up** ``SETUP_REPEATS`` times (generate, pre-join, crossbar load,
   register); the last one is kept and the median is ``setup_s``.  The SSB
   database is a fixed fixture (``DATASET_SEED``); ``--seed`` drives the
   traffic: template orders, DML ranges, values and copied rows;
2. the **cold pass**: all 13 SSB templates once, in a seeded order, with
   empty caches;
3. **warm-up passes** until every template's route (host scan or PIM) and
   ``pim_subgroups`` repeat between two consecutive warm-up passes (the
   cold pass is not compared: routes can flip only once the adaptive loop
   has fed back, e.g. Q3.1 on the third pass of ssb-serve);
4. the **timed phase**: ``Workload.timed_units(seconds)`` units, a unit
   being one pass of the 13 templates (static workloads) or one DML round
   (ssb-churn).  ``--seconds`` is converted into units with a constant
   nominal unit cost, never from a measurement, so the same seed and
   ``--seconds`` always give the same sequence — and identical modelled
   outputs and counts.

Every query result is checked against ``reference_group_aggregate`` over
the live relation, computed outside the timed region; every DML statement
is checked against the live-row count it must leave behind.
"""

from __future__ import annotations

import gc
import math
import os
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import ssb
from repro.config import DEFAULT_CONFIG
from repro.core.batched import batch_kernel_cache_info
from repro.db import storage, update
from repro.db.query import Comparison, evaluate_predicate, reference_group_aggregate
from repro.experiments.common import PAPER_SCALE_FACTOR
from repro.experiments.engine_wallclock import _all_pim_cost_model
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule
from repro.service import QueryService
from repro.ssb import ALL_QUERIES, QUERY_ORDER
from repro.ssb.datagen import LINEORDERS_PER_SF
from repro.ssb.prejoined import max_aggregated_width, two_xb_partitions
from ssbbench.spans import SpanRecorder

#: Median :meth:`SpeedProbe.measure` time on the reference 2-core host.
PROBE_NOMINAL_S = 4.1e-3

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Warm-up gives up (and says so in the report) after this many passes.
MAX_WARMUP_PASSES = 8

#: Generator seed of the SSB database every workload serves.  Fixing the
#: data keeps each workload's routes, and so its work, the same across
#: traffic seeds; a seeded database moves the fitted cost model's routing
#: and with it ssb-serve's modelled energy by +-25% between seeds.
DATASET_SEED = 42

#: ssb-churn round shape.  Deletes remove ``DELETE_KEYS`` consecutive order
#: keys (about four rows each), inserts copy ``INSERT_BATCH`` live rows, so
#: tombstones accumulate and ``compact(threshold=COMPACTION_THRESHOLD)``
#: fires every twenty-odd rounds.  Each round runs the next
#: ``QUERIES_PER_ROUND`` templates of a stream of seeded permutations, and
#: the round count is a multiple of ``ROUND_MULTIPLE`` so every template
#: runs equally often.
DELETE_KEYS = 20
UPDATE_KEYS = 20
INSERT_BATCH = 24
COMPACTION_THRESHOLD = 0.02
QUERIES_PER_ROUND = 2
ROUND_MULTIPLE = 13
DISCOUNT_VALUES = 11


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: data, layout, cost model and run length."""

    name: str
    why: str
    scale_factor: float
    two_xb: bool = False
    all_pim: bool = False
    churn: bool = False
    #: Fewest timed units: enough for 100 samples of every percentile.
    min_units: int = 8
    #: Wall of one timed unit on the reference 2-core host; converts
    #: ``--seconds`` into a unit count.
    nominal_unit_s: float = 3.0

    def timed_units(self, seconds: float) -> int:
        units = max(self.min_units, math.ceil(seconds / self.nominal_unit_s))
        if self.churn:
            units = ROUND_MULTIPLE * math.ceil(units / ROUND_MULTIPLE)
        return units


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "ssb-serve",
            "the path the service runs: fitted cost model, planner on, "
            "ProgramCache(512) holds every program, so field decode, then "
            "batched group-by charge replay, dominate the warm passes",
            scale_factor=0.05, nominal_unit_s=2.9,
        ),
        Workload(
            "ssb-allpim",
            "the paper's PIM-resident GROUP-BY: an all-PIM cost model whose "
            "subgroup programs overflow ProgramCache(512), so compilation, "
            "charge replay and DAG lowering dominate",
            scale_factor=0.01, all_pim=True, nominal_unit_s=3.9,
        ),
        Workload(
            "ssb-churn",
            "DELETE, INSERT, UPDATE and compaction beside queries on a two-xb "
            "relation: write paths and the read-side caches they invalidate",
            scale_factor=0.01, two_xb=True, churn=True,
            min_units=104, nominal_unit_s=0.14,
        ),
    )
}


class SpeedProbe:
    """Scales host wall times to the reference host's nominal speed.

    On a shared host the CPU speed available to one process drifts by
    +-25% over seconds, far more than the changes the benchmark must
    resolve.  A fixed few-millisecond probe (an interpreter loop plus a
    NumPy pass, the program's own mix) runs after every operation; an
    operation's calibrated wall is its measured wall times
    ``PROBE_NOMINAL_S`` over the mean probe time just before and just
    after it.  The raw wall is kept next to it.
    """

    def __init__(self) -> None:
        self._data = np.arange(200_000, dtype=np.uint64)
        self._last = self.measure()

    def measure(self) -> float:
        start = perf_counter()
        total = 0
        for value in range(60_000):
            total += value
        mixed = (self._data * np.uint64(3)) ^ (self._data >> np.uint64(2))
        int(mixed.sum())
        return perf_counter() - start

    def factor(self) -> float:
        """Speed factor of the interval since the previous call."""
        now = self.measure()
        factor = PROBE_NOMINAL_S / ((self._last + now) / 2)
        self._last = now
        return factor


# --------------------------------------------------------------------- set-up
@dataclass
class Setup:
    """A registered relation ready to serve."""

    service: QueryService
    stored: storage.StoredRelation
    rows: int
    timing_scale: float
    seconds: float


def build(workload: Workload) -> Setup:
    """Generate, pre-join, load and register; timed up to the first query."""
    start = perf_counter()
    dataset = ssb.generate(scale_factor=workload.scale_factor, seed=DATASET_SEED)
    prejoined = ssb.build_ssb_prejoined(dataset.database)
    stored = storage.StoredRelation(
        prejoined, PimModule(DEFAULT_CONFIG), label=workload.name,
        partitions=two_xb_partitions(prejoined) if workload.two_xb else None,
        aggregation_width=max_aggregated_width(prejoined),
        reserve_bulk_aggregation=False,
    )
    timing_scale = LINEORDERS_PER_SF * PAPER_SCALE_FACTOR / len(prejoined)
    service = QueryService()
    service.register(
        workload.name, stored,
        cost_model=_all_pim_cost_model() if workload.all_pim else None,
        timing_scale=timing_scale,
    )
    return Setup(service, stored, len(prejoined), timing_scale,
                 perf_counter() - start)


# --------------------------------------------------------------------- result
@dataclass
class Op:
    """One timed operation."""

    kind: str
    #: Calibrated wall (see :class:`SpeedProbe`) and the raw measurement.
    wall_s: float
    raw_wall_s: float
    sim_time_s: float = 0.0
    sim_energy_j: float = 0.0
    traced: bool = False
    #: The template name of a query; empty for DML.
    label: str = ""


@dataclass
class TracedCounters:
    """Counter deltas and execution facts summed over the traced units."""

    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    candidate_hits: int = 0
    candidate_lookups: int = 0
    entries_checked: int = 0
    adaptive_rebuilds: int = 0
    batch_hits: int = 0
    batch_lookups: int = 0
    queries: int = 0
    host_routed: int = 0
    crossbars_scanned: int = 0
    crossbars_total: int = 0
    pim_subgroups: int = 0
    rows_written: int = 0


@dataclass
class RunResult:
    """Everything one run measured."""

    provenance: dict
    #: Calibrated and raw set-up walls, one per repeat.
    setup_s: list[float]
    raw_setup_s: list[float]
    cold_pass_s: float = 0.0
    #: Most writes any crossbar row took during the timed phase.
    max_writes_per_row: int = 0
    warmup_passes: int = 0
    warmup_converged: bool = False
    ops: list[Op] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    compactions: int = 0
    recorder: SpanRecorder | None = None
    traced_ops: set[str] = field(default_factory=set)
    setup_ops: set[str] = field(default_factory=set)
    #: Speed factor of every traced operation and set-up, by span op id.
    op_factors: dict[str, float] = field(default_factory=dict)
    counters: TracedCounters = field(default_factory=TracedCounters)

    def timed(self, kind: str | None = None, traced: bool | None = None) -> list[Op]:
        return [
            op for op in self.ops
            if (kind is None or op.kind == kind)
            and (traced is None or op.traced == traced)
        ]


# --------------------------------------------------------------------- client
def _reference(relation, query) -> dict:
    mask = evaluate_predicate(query.predicate, relation)
    return reference_group_aggregate(relation, mask, query.group_by, query.aggregates)


def _live_matches(stored, predicate) -> int:
    mask = evaluate_predicate(predicate, stored.relation) & stored.valid_mask(0)
    return int(mask.sum())


class Client:
    """Issues one workload's operation sequence on one client thread."""

    def __init__(self, workload: Workload, setup: Setup, seed: int,
                 result: RunResult, recorder: SpanRecorder | None,
                 probe: SpeedProbe) -> None:
        self.workload = workload
        self.service = setup.service
        self.stored = setup.stored
        self.name = workload.name
        self.result = result
        self.recorder = recorder
        self.probe = probe
        self.rng = np.random.default_rng(seed)
        self._schedule: list[str] = []
        self.max_orderkey = int(self.stored.relation.column("lo_orderkey").max())
        self.references: dict[str, dict] = {}
        if not workload.churn:
            live = self.stored.live_relation()
            self.references = {
                name: _reference(live, ALL_QUERIES[name]) for name in QUERY_ORDER
            }
        self._traced = False
        self._op_index = 0

    # ------------------------------------------------------------ plumbing
    def _fail(self, message: str) -> None:
        self.result.failed += 1
        self.result.errors.append(message)

    def _call(self, kind: str, fn):
        """Run one operation; returns ``(value or None, (wall, raw wall))``.

        While traced, spans opened inside the operation carry its id and
        spans opened by the checks between operations carry none.
        """
        self.result.attempted += 1
        op_id = f"timed/{self._op_index}"
        self._op_index += 1
        if self._traced:
            self.recorder.op = op_id
            self.result.traced_ops.add(op_id)
        start = perf_counter()
        try:
            value = fn()
        except Exception:  # noqa: BLE001 - a failed operation is a data point
            value = None
            self._fail(f"{kind}: {traceback.format_exc(limit=3)}")
        raw = perf_counter() - start
        factor = self.probe.factor()
        if self._traced:
            self.recorder.op = ""
            self.result.op_factors[op_id] = factor
        return value, (raw * factor, raw)

    def _record(self, kind: str, walls: tuple[float, float], stats,
                timed: bool, label: str = "") -> None:
        if not timed:
            return
        self.result.ops.append(Op(
            kind, *walls,
            stats.total_time_s if stats is not None else 0.0,
            stats.total_energy_j if stats is not None else 0.0,
            self._traced, label,
        ))

    # ------------------------------------------------------------- queries
    def query(self, name: str, expected: dict, timed: bool):
        """Execute one template; returns ``(execution or None, wall)``."""
        execution, walls = self._call(
            "query", lambda: self.service.execute(ALL_QUERIES[name])
        )
        self._record("query", walls, execution.stats if execution else None,
                     timed, name)
        if execution is None:
            return None, walls[0]
        if execution.rows != expected:
            self._fail(f"query {name}: wrong rows")
        if self._traced:
            counters = self.result.counters
            counters.queries += 1
            counters.host_routed += int(_host_routed(execution))
            counters.crossbars_scanned += execution.crossbars_scanned
            counters.crossbars_total += execution.crossbars_total
            counters.pim_subgroups += execution.pim_subgroups
        return execution, walls[0]

    def template_pass(self, timed: bool) -> tuple[float, tuple]:
        """All 13 templates in a seeded order; ``(wall, route signature)``."""
        order = self._shuffled()
        references = self.references
        if self.workload.churn:
            live = self.stored.live_relation()
            references = {name: _reference(live, ALL_QUERIES[name]) for name in order}
        total = 0.0
        routes = {}
        for name in order:
            execution, wall = self.query(name, references[name], timed)
            total += wall
            routes[name] = (
                None if execution is None
                else (_host_routed(execution), execution.pim_subgroups)
            )
        return total, tuple(sorted(routes.items()))

    def _shuffled(self) -> list[str]:
        return [QUERY_ORDER[i] for i in self.rng.permutation(len(QUERY_ORDER))]

    # ----------------------------------------------------------------- DML
    def churn_round(self) -> None:
        """DELETE, INSERT, UPDATE, compaction check and two templates."""
        rng, stored, service = self.rng, self.stored, self.service
        low = int(rng.integers(1, self.max_orderkey + 1))
        delete = Comparison("lo_orderkey", "between", low=low,
                            high=low + DELETE_KEYS)
        live_before = stored.live_count
        doomed = _live_matches(stored, delete)
        outcome, walls = self._call("delete", lambda: service.delete(delete))
        self._record("delete", walls, outcome.stats if outcome else None, True)
        if outcome is not None and (
            outcome.result.records_deleted != doomed
            or service.dml_stats().live_rows != live_before - doomed
        ):
            self._fail(f"delete {delete}: live count mismatch")
        if outcome is not None and self._traced:
            self.result.counters.rows_written += outcome.result.records_deleted

        live_slots = np.flatnonzero(stored.valid_mask(0))
        picks = live_slots[rng.integers(0, len(live_slots), INSERT_BATCH)]
        records = stored.relation.records(int(i) for i in picks)
        live_before = stored.live_count
        outcome, walls = self._call("insert", lambda: service.insert(records))
        self._record("insert", walls, outcome.stats if outcome else None, True)
        if outcome is not None and (
            outcome.result.records_inserted != INSERT_BATCH
            or service.dml_stats().live_rows != live_before + INSERT_BATCH
        ):
            self._fail("insert: live count mismatch")
        if outcome is not None and self._traced:
            self.result.counters.rows_written += outcome.result.records_inserted

        low = int(rng.integers(1, self.max_orderkey + 1))
        predicate = Comparison("lo_orderkey", "between", low=low,
                               high=low + UPDATE_KEYS)
        assignments = {"lo_discount": int(rng.integers(0, DISCOUNT_VALUES))}
        executor = PimExecutor(self.service.engine(self.name).config)
        matches = _live_matches(stored, predicate)
        live_before = stored.live_count
        outcome, walls = self._call(
            "update",
            lambda: update.execute_update(stored, predicate, assignments, executor),
        )
        self._record("update", walls, executor.stats if outcome else None, True)
        if outcome is not None and (
            outcome.records_updated != matches
            or service.dml_stats().live_rows != live_before
        ):
            self._fail(f"update {predicate}: row count mismatch")
        if outcome is not None and self._traced:
            self.result.counters.rows_written += outcome.records_updated

        live_before = stored.live_count
        outcome, walls = self._call(
            "compact",
            lambda: service.compact(threshold=COMPACTION_THRESHOLD),
        )
        self._record("compact", walls, outcome.stats if outcome else None, True)
        if outcome is not None:
            performed = bool(outcome.result.performed)
            self.result.compactions += int(performed)
            dml = service.dml_stats()
            if dml.live_rows != live_before or (performed and dml.tombstones):
                self._fail("compaction: live count mismatch")
            if performed and self._traced:
                self.result.counters.rows_written += outcome.result.records_moved

        live = stored.live_relation()
        for _ in range(QUERIES_PER_ROUND):
            if not self._schedule:
                self._schedule = self._shuffled()
            name = self._schedule.pop()
            self.query(name, _reference(live, ALL_QUERIES[name]), True)

    def unit(self) -> None:
        if self.workload.churn:
            self.churn_round()
        else:
            self.template_pass(timed=True)

    # --------------------------------------------------------------- trace
    def traced_unit(self) -> None:
        """One unit with every wrap point patched and counters diffed."""
        service = self.service
        cache, candidates = service.cache_stats(), service.candidate_cache_stats()
        adaptive, batch = service.adaptive_stats(), batch_kernel_cache_info()
        self._traced = True
        try:
            with self.recorder.installed():
                self.unit()
        finally:
            self._traced = False
        cache = service.cache_stats() - cache
        candidates = service.candidate_cache_stats() - candidates
        rebuilds = service.adaptive_stats().rebuilds - adaptive.rebuilds
        batch_after = batch_kernel_cache_info()
        counters = self.result.counters
        counters.cache_hits += cache.hits
        counters.cache_misses += cache.misses
        counters.cache_evictions += cache.evictions
        counters.candidate_hits += candidates.hits
        counters.candidate_lookups += candidates.lookups
        counters.entries_checked += candidates.entries_checked
        counters.adaptive_rebuilds += rebuilds
        counters.batch_hits += batch_after.hits - batch.hits
        counters.batch_lookups += (
            batch_after.hits + batch_after.misses - batch.hits - batch.misses
        )


def _host_routed(execution) -> bool:
    return execution.label.endswith("/host-scan")


def _provenance(workload: Workload, setup: Setup, seed: int, units: int,
                seconds: float) -> dict:
    service, stored = setup.service, setup.stored
    return {
        "workload": workload.name,
        "seed": seed,
        "dataset_seed": DATASET_SEED,
        "scale_factor": workload.scale_factor,
        "rows": setup.rows,
        "pages": stored.pages,
        "slots": stored.record_capacity,
        "layout": "two-xb" if workload.two_xb else "one-xb",
        "cost_model": "all-pim" if workload.all_pim else "fitted",
        "timing_scale": setup.timing_scale,
        "program_cache_capacity": service.cache_stats().capacity,
        "candidate_cache_capacity": service.candidate_cache_stats().capacity,
        "scatter_pool_width": service.pool.max_workers,
        "cpu_count": os.cpu_count(),
        "seconds": seconds,
        "timed_units": units,
        "setup_repeats": SETUP_REPEATS,
    }


def _row_writes(service: QueryService) -> list[np.ndarray]:
    """Cumulative per-row write counters of every partition's crossbars."""
    return [p.writes for p in service.wear_report().partitions]


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    """Run one workload for ``Workload.timed_units(seconds)`` units.

    With ``trace`` the set-ups and every odd timed unit run with the wrap
    points patched; the even units run unpatched, and the two halves give
    ``trace.overhead``.  The untraced run patches nothing.
    """
    units = workload.timed_units(seconds)
    recorder = SpanRecorder() if trace else None
    probe = SpeedProbe()
    setup_s: list[float] = []
    raw_setup_s: list[float] = []
    op_factors: dict[str, float] = {}
    setup = None
    for repeat in range(SETUP_REPEATS):
        if setup is not None:
            setup.service.close()
            setup = None
            gc.collect()
            probe.factor()
        patch = nullcontext()
        if recorder is not None:
            recorder.op = f"setup/{repeat}"
            patch = recorder.installed()
        with patch:
            setup = build(workload)
        factor = probe.factor()
        if recorder is not None:
            op_factors[recorder.op] = factor
        setup_s.append(setup.seconds * factor)
        raw_setup_s.append(setup.seconds)
    result = RunResult(
        provenance=_provenance(workload, setup, seed, units, seconds),
        setup_s=setup_s, raw_setup_s=raw_setup_s, recorder=recorder,
        setup_ops=set(op_factors), op_factors=op_factors,
    )
    if recorder is not None:
        recorder.counts.clear()       # counted calls cover the timed phase
    try:
        client = Client(workload, setup, seed, result, recorder, probe)
        result.cold_pass_s, _ = client.template_pass(timed=False)
        previous = None
        for passes in range(1, MAX_WARMUP_PASSES + 1):
            _, routes = client.template_pass(timed=False)
            result.warmup_passes = passes
            if routes == previous:
                result.warmup_converged = True
                break
            previous = routes
        writes_before = _row_writes(setup.service)
        for index in range(units):
            if recorder is not None and index % 2 == 1:
                client.traced_unit()
            else:
                client.unit()
        result.max_writes_per_row = max(
            int((after - before).max())
            for before, after in zip(writes_before, _row_writes(setup.service),
                                     strict=True)
        )
    finally:
        setup.service.close()
    return result
