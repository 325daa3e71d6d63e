"""The batched group-by execution strategy: lockstep parity and plumbing.

The batched strategy (``execution="batched"``, the default) evaluates every
PIM-resident subgroup of a GROUP-BY through one multi-output fused kernel
per vertical partition, does the functional work (partials, stored bits,
dirty marks, wear) once per query and replays only the per-subgroup
charges, in the reference order.  The contract is total: identical result
rows, bit-identical :class:`PimStats` (full dataclass equality — float
order, power-sample order, request rounding), identical wear counters,
identical non-scratch stored columns and identical column dirty marks.  A
hypothesis property test drives random data, selectivities, subgroup
counts (K=1 and K=4), pruning, and one- vs two-partition layouts through
batched and per-subgroup dispatch in lock step on both backends, and a
query-sequence test checks the same after each of three queries on one
store; deterministic tests pin the multi-remote fold path, the zone-map
invariant, the one-write-per-column property, the nested-safe scatter
pool, the structural whole-plan memo key, the pre-scatter empty-shard
skip, and the lifetime of the batch-kernel memo.
"""

import dataclasses
import gc
import re
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core import batched
from repro.core.executor import PimQueryEngine
from repro.core.latency_model import (
    GroupByCostModel,
    HostGbLatencyModel,
    PimGbLatencyModel,
)
from repro.core.parallel import ScatterPool
from repro.db.query import Aggregate, And, Comparison, Query
from repro.db.relation import Relation
from repro.db.schema import Schema, dict_attribute, int_attribute
from repro.db.storage import StoredRelation
from repro.pim.logic import ProgramBuilder
from repro.pim.module import PimModule
from repro.pim.stats import PimStats
from repro.sharding import ShardedQueryEngine, ShardedStoredRelation

CITIES = ["LYON", "OSLO", "PERTH", "QUITO"]
REGIONS = ["NORTH", "SOUTH"]

STRATEGIES = ("batched", "dispatch")
BACKENDS = ("packed", "bool")


def all_pim_cost_model() -> GroupByCostModel:
    """Route every subgroup to PIM so the batched kernels actually run."""
    return GroupByCostModel(
        HostGbLatencyModel({2: 1.0}, {2: 1.0}),      # host absurdly expensive
        PimGbLatencyModel({2: 0.0}, {2: 0.0}),       # PIM free
    )


def _relation(seed: int, num_cities: int, records: int = 384) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema("batch", [
        int_attribute("key", 10, source="fact"),
        int_attribute("value", 8, source="fact"),
        dict_attribute("city", CITIES, source="dim"),
        dict_attribute("region", REGIONS, source="dim"),
    ])
    return Relation(schema, {
        "key": np.sort(rng.integers(0, 1 << 10, records).astype(np.uint64)),
        "value": rng.integers(0, 1 << 8, records).astype(np.uint64),
        "city": rng.integers(0, num_cities, records).astype(np.uint64),
        "region": rng.integers(0, len(REGIONS), records).astype(np.uint64),
    })


def _execute(relation, queries, backend, strategy, pruning, partitions):
    """Run ``queries`` in turn on one store; per query its execution and the
    stored state it leaves."""
    config = DEFAULT_CONFIG.with_backend(backend).with_execution(strategy)
    stored = StoredRelation(
        relation, PimModule(config), label="batch",
        partitions=partitions, aggregation_width=22,
    )
    engine = PimQueryEngine(
        stored, config=config, cost_model=all_pim_cost_model(),
        vectorized=False, pruning=pruning,
    )
    return [(engine.execute(query), _stored_state(stored)) for query in queries]


def _stored_state(stored):
    """Per partition: wear, every non-scratch column's bits, dirty marks."""
    state = []
    for layout, allocation, dirty in zip(
        stored.layouts, stored.allocations, stored._column_dirty
    ):
        bank = allocation.bank
        scratch = set(layout.scratch_columns)
        kept = [c for c in range(layout.columns) if c not in scratch]
        if bank.backend == "packed":
            columns = bank.words[:, kept]
        else:
            columns = bank.bits[:, :, kept]
        state.append((
            bank.wear_snapshot(),
            columns.copy(),
            {column: mask.copy() for column, mask in dirty.items()},
        ))
    return state


def _assert_same_state(ours, theirs):
    for (wear, columns, dirty), (wear_, columns_, dirty_) in zip(ours, theirs):
        assert np.array_equal(wear, wear_)
        assert np.array_equal(columns, columns_)
        assert dirty.keys() == dirty_.keys()
        for column, mask in dirty.items():
            assert np.array_equal(mask, dirty_[column]), column


def _assert_lockstep(relation, queries, pruning, partitions):
    """batched == dispatch on both backends after every query of a sequence
    on one store: rows, full stats, wear, non-scratch stored columns and
    column dirty marks."""
    runs = {}
    for backend in BACKENDS:
        for strategy in STRATEGIES:
            runs[backend, strategy] = _execute(
                relation, queries, backend, strategy, pruning, partitions
            )
    for backend in BACKENDS:
        for (batched, state), (dispatch, dispatch_state) in zip(
            runs[backend, "batched"], runs[backend, "dispatch"]
        ):
            assert batched.rows == dispatch.rows
            assert batched.pim_subgroups == dispatch.pim_subgroups
            # Every subgroup went through the PIM kernels (the forced plan).
            assert batched.pim_subgroups == batched.total_subgroups
            # Full dataclass equality: per-phase floats, energy components,
            # counters, power-sample order, wear maxima.
            assert batched.stats == dispatch.stats
            _assert_same_state(state, dispatch_state)
    for (packed, _), (boolean, _) in zip(
        runs["packed", "batched"], runs["bool", "batched"]
    ):
        assert packed.rows == boolean.rows
        assert packed.stats == boolean.stats


GROUP_QUERY = Query(
    "grouped", None,
    (Aggregate("sum", "value"), Aggregate("count"), Aggregate("min", "value")),
    group_by=("city",),
)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31),
    threshold=st.integers(0, 1 << 10),
    num_cities=st.sampled_from([1, 4]),      # K=1 and K=4 subgroups
    pruning=st.booleans(),
    split=st.booleans(),                     # one vs two vertical partitions
)
def test_batched_lockstep_with_dispatch(seed, threshold, num_cities, pruning, split):
    """Random data/selectivity: batched == per-subgroup dispatch, bit for bit."""
    relation = _relation(seed, num_cities, records=3000)
    query = Query(
        "grouped", Comparison("key", "<", threshold),
        GROUP_QUERY.aggregates, group_by=("city",),
    )
    partitions = [["key", "value"], ["city", "region"]] if split else None
    _assert_lockstep(relation, [query], pruning, partitions)


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("pruning", [False, True])
@pytest.mark.parametrize("split", [False, True])
def test_batched_lockstep_over_a_query_sequence(seed, pruning, split):
    """Later queries start from the dirty marks and bits earlier ones left,
    so the first subgroup's stale clear sees a non-trivial state.  The
    sorted keys span three crossbars, so the three predicates prune to
    different candidate sets."""
    relation = _relation(seed, num_cities=4, records=3000)
    queries = [
        Query(
            "grouped", Comparison("key", "<", threshold),
            GROUP_QUERY.aggregates, group_by=("city",),
        )
        for threshold in (900, 200, 600)
    ]
    partitions = [["key", "value"], ["city", "region"]] if split else None
    _assert_lockstep(relation, queries, pruning, partitions)


@pytest.mark.parametrize("pruning", [False, True])
def test_batched_lockstep_multi_remote_fold(pruning):
    """Two remote partitions: the batched equality-fold replay is bit-exact."""
    relation = _relation(seed=11, num_cities=4, records=3000)
    query = Query(
        "folded",
        And((Comparison("key", "<", 700), Comparison("key", ">=", 40))),
        (Aggregate("sum", "value"), Aggregate("max", "value")),
        group_by=("city", "region"),
    )
    partitions = [["key", "value"], ["city"], ["region"]]
    _assert_lockstep(relation, [query], pruning, partitions)


def _batched_engine(relation, pruning, partitions=None):
    config = DEFAULT_CONFIG.with_execution("batched")
    stored = StoredRelation(
        relation, PimModule(config), label="batch",
        partitions=partitions, aggregation_width=22,
    )
    return PimQueryEngine(
        stored, config=config, cost_model=all_pim_cost_model(),
        vectorized=True, pruning=pruning,
    )


@pytest.mark.parametrize("kernel_ignores_pruning", [False, True])
def test_batched_raises_when_bits_fall_outside_the_candidates(
    monkeypatch, kernel_ignores_pruning
):
    """A crossbar the zone maps dropped although it holds selected rows
    breaks the conservative-statistics invariant: the batched group-by
    refuses to run rather than silently losing rows.  The dropped crossbar
    keeps filter bits; with the kernel also evaluating every crossbar, the
    subgroup masks land on it too."""
    original = batched.run_group_by_batched

    def corrupted(engine, query, primary, mask, keys, executor, read_model,
                  prune=None):
        candidates = [np.array(c, dtype=bool) for c in prune.candidates]
        hit = np.flatnonzero(mask)[0] // engine.stored.rows_per_crossbar
        candidates[primary][hit] = False
        prune = dataclasses.replace(prune, candidates=candidates)
        return original(engine, query, primary, mask, keys, executor,
                        read_model, prune=prune)

    monkeypatch.setattr(batched, "run_group_by_batched", corrupted)
    if kernel_ignores_pruning:
        monkeypatch.setattr(
            batched, "_candidate_idx",
            lambda prune, partition: None if prune is None else np.arange(
                len(prune.candidates[partition])
            ),
        )
    engine = _batched_engine(_relation(seed=6, num_cities=4), pruning=True)
    query = Query(
        "grouped", Comparison("key", "<", 300),
        GROUP_QUERY.aggregates, group_by=("city",),
    )
    with pytest.raises(RuntimeError, match="conservative-maintenance invariant"):
        engine.execute(query)


@pytest.mark.parametrize("pruning", [False, True])
@pytest.mark.parametrize("split", [False, True])
def test_batched_writes_each_column_once_whatever_the_subgroup_count(
    monkeypatch, pruning, split
):
    """The group-by's bit-column writes do not grow with the subgroups."""
    calls = {"inside": False, "writes": 0}
    write = StoredRelation.write_bit_column
    original = batched.run_group_by_batched

    def counting_write(self, *args, **kwargs):
        calls["writes"] += calls["inside"]
        return write(self, *args, **kwargs)

    def inside(*args, **kwargs):
        calls["inside"] = True
        try:
            return original(*args, **kwargs)
        finally:
            calls["inside"] = False

    monkeypatch.setattr(StoredRelation, "write_bit_column", counting_write)
    monkeypatch.setattr(batched, "run_group_by_batched", inside)
    partitions = [["key", "value"], ["city", "region"]] if split else None
    query = Query(
        "grouped", Comparison("key", "<", 800),
        GROUP_QUERY.aggregates, group_by=("city",),
    )
    writes = {}
    for num_cities in (1, 4):
        engine = _batched_engine(
            _relation(seed=8, num_cities=num_cities), pruning, partitions
        )
        calls["writes"] = 0
        execution = engine.execute(query)
        assert execution.pim_subgroups == num_cities
        writes[num_cities] = calls["writes"]
    assert writes[1] == writes[4] > 0


def test_batched_is_the_default_and_gated_on_the_circuit(monkeypatch):
    """The default config batches; without the aggregation circuit the
    engine falls back to the reference loop — and stays bit-exact."""
    monkeypatch.delenv("REPRO_EXECUTION", raising=False)
    from repro.config import default_execution

    assert default_execution() == "batched"
    relation = _relation(seed=5, num_cities=4)
    executions = {}
    for strategy in STRATEGIES:
        config = DEFAULT_CONFIG.with_execution(strategy)
        config = config.without_aggregation_circuit()
        stored = StoredRelation(
            relation, PimModule(config), label="nocircuit", aggregation_width=22
        )
        engine = PimQueryEngine(
            stored, config=config, cost_model=all_pim_cost_model(),
            vectorized=False,
        )
        executions[strategy] = engine.execute(GROUP_QUERY)
    assert executions["batched"].rows == executions["dispatch"].rows
    assert executions["batched"].stats == executions["dispatch"].stats


def test_fused_is_not_an_execution_strategy(monkeypatch):
    """Only the fast path and the oracle are selectable."""
    from repro.config import SystemConfig, default_execution

    choices = re.escape("('batched', 'dispatch')")
    monkeypatch.setenv("REPRO_EXECUTION", "fused")
    with pytest.raises(ValueError, match=rf"REPRO_EXECUTION='fused'.*{choices}"):
        default_execution()
    with pytest.raises(ValueError, match=rf"execution='fused'.*{choices}"):
        SystemConfig(execution="fused")


# --------------------------------------------------------------- scatter pool
def test_scatter_pool_nested_map_runs_inline():
    """A map issued from a pool worker runs on that worker's own thread, so
    one pool can serve both the shard scatter and the per-partition kernels
    without deadlocking on its own slots."""
    with ScatterPool(2) as pool:
        def outer(_):
            worker = threading.current_thread().name
            inner = pool.map(
                lambda _: threading.current_thread().name, [0, 1, 2]
            )
            return worker, inner

        for worker, inner in pool.map(outer, [0, 1]):
            assert all(name == worker for name in inner)


def test_scatter_pool_single_worker_runs_inline_and_ordered():
    with ScatterPool(1) as pool:
        assert pool.parallel is False
        assert pool.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]
        assert pool._executor is None        # never spun up a thread
    with ScatterPool(3) as pool:
        assert pool.map(lambda x: x * x, list(range(8))) == [
            x * x for x in range(8)
        ]


# ------------------------------------------------------- whole-plan memo key
def test_plan_memo_keys_on_structural_predicate_form():
    """Structurally equal predicates built separately share one memo entry:
    the second request replays the plan without re-walking the zone maps."""
    relation = _relation(seed=9, num_cities=4)
    config = DEFAULT_CONFIG
    stored = StoredRelation(
        relation, PimModule(config), label="memo", aggregation_width=22
    )
    engine = PimQueryEngine(stored, config=config, pruning=True)
    statistics = engine.stored.statistics
    a = Comparison("key", "<", 512)
    b = Comparison("city", "==", "OSLO")
    first = statistics.plan(
        And((a, b)), stored.partition_attributes,
        config.pim.crossbars_per_page,
    )
    assert first.entries_checked > 0
    # Fresh objects, conjuncts reordered: same structural normal form.
    replay = statistics.plan(
        And((Comparison("city", "==", "OSLO"), Comparison("key", "<", 512))),
        stored.partition_attributes, config.pim.crossbars_per_page,
    )
    assert replay.entries_checked == 0
    for ours, theirs in zip(replay.candidates, first.candidates):
        assert np.array_equal(ours, theirs)


def test_plan_peek_defers_billing_to_the_next_request():
    relation = _relation(seed=10, num_cities=4)
    config = DEFAULT_CONFIG
    stored = StoredRelation(
        relation, PimModule(config), label="peek", aggregation_width=22
    )
    engine = PimQueryEngine(stored, config=config, pruning=True)
    statistics = engine.stored.statistics
    predicate = Comparison("key", "<", 256)
    peeked = statistics.plan(
        predicate, stored.partition_attributes,
        config.pim.crossbars_per_page, peek=True,
    )
    assert peeked.entries_checked > 0
    billed = statistics.plan(
        predicate, stored.partition_attributes, config.pim.crossbars_per_page
    )
    # The peek consumed nothing; the engine's own request pays the walk once.
    assert billed.entries_checked == peeked.entries_checked
    replay = statistics.plan(
        predicate, stored.partition_attributes, config.pim.crossbars_per_page
    )
    assert replay.entries_checked == 0


# ------------------------------------------------- pre-scatter empty shards
def test_prescatter_skips_provably_empty_shards():
    """Shards whose zone maps rule the predicate out are flagged before the
    scatter (so they never occupy a pool slot) and the merged execution is
    unchanged: bit-exact rows, zero crossbars scanned on the empty shards."""
    relation = _relation(seed=12, num_cities=4, records=512)
    engines = {}
    for pruning in (False, True):
        sharded = ShardedStoredRelation(
            relation, PimModule(DEFAULT_CONFIG), shards=4,
            label=f"pre{pruning}", aggregation_width=22,
            reserve_bulk_aggregation=False,
        )
        engines[pruning] = ShardedQueryEngine(
            sharded, label=f"pre{pruning}", vectorized=True, pruning=pruning,
        )
    # keys are sorted, so a low-key predicate empties the upper shards.
    query = Query(
        "low", Comparison("key", "<", 40),
        (Aggregate("sum", "value"), Aggregate("count")), group_by=("city",),
    )
    flags = engines[True]._prescatter_empty(query)
    assert flags[0] is False and any(flags[1:])
    assert engines[False]._prescatter_empty(query) == [False] * 4
    pruned = engines[True].execute(query)
    unpruned = engines[False].execute(query)
    assert pruned.rows == unpruned.rows
    assert pruned.shards_skipped == sum(flags)
    for flagged, execution in zip(flags, pruned.shard_executions):
        if flagged:
            assert execution.crossbars_scanned == 0


# ------------------------------------------------------------- stats totals
def test_stats_totals_breakdown_tracks_every_field():
    stats = PimStats()
    stats.add_time("filter", 0.25)
    stats.add_energy("logic", 1.5)
    stats.logic_ops = 7
    stats.add_power_sample("filter", 0.25, 3.0)
    totals = stats.totals()
    assert totals["time:filter"] == 0.25
    assert totals["energy:logic"] == 1.5
    assert totals["logic_ops"] == 7.0
    assert totals["peak_chip_power_w"] == 3.0
    other = stats.copy()
    assert other.totals() == totals
    other.add_time("filter", 1e-9)
    assert other.totals() != totals


# ------------------------------------------------------- batch-kernel memo
def _eq_program(value: int):
    builder = ProgramBuilder(range(8, 16))
    match = builder.eq_const((0, 1, 2), value)
    builder.store(match, 4)
    builder.free(match)
    return builder.build(result_column=4)


def test_batch_kernel_memo_lives_only_as_long_as_its_programs():
    """The memo hits on the same program objects and never pins them."""
    programs = tuple(_eq_program(value) for value in (1, 5, 6))
    before = batched.batch_kernel_cache_info()
    kernel = batched._compile_group_batch(programs, ())
    assert batched._compile_group_batch(programs, ()) is kernel
    after = batched.batch_kernel_cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert after.currsize == before.currsize + 1

    key = (tuple(map(id, programs)), ())
    refs = [weakref.ref(program) for program in programs]
    del programs
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert key not in batched._batch_kernels
    assert batched.batch_kernel_cache_info().currsize == before.currsize


def test_batch_kernel_memo_evicts_when_any_program_dies():
    """One dead program evicts the entry; its surviving programs stay free."""
    survivor, doomed = _eq_program(2), _eq_program(3)
    batched._compile_group_batch((survivor, doomed), ())
    key = ((id(survivor), id(doomed)), ())
    assert key in batched._batch_kernels
    del doomed
    gc.collect()
    assert key not in batched._batch_kernels
    ref = weakref.ref(survivor)
    del survivor
    gc.collect()
    assert ref() is None
