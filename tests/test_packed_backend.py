"""Bit-exactness of the packed crossbar backend against the boolean reference.

The packed backend (:mod:`repro.pim.packed`) stores each column as row-packed
uint64 words and must be indistinguishable from the byte-per-bit
:class:`~repro.pim.crossbar.CrossbarBank`: identical stored bits, decoded
fields, wear counters, error behaviour — and, because stats are charged from
program metadata only, identical :class:`~repro.pim.stats.PimStats` for every
query execution.  This module locks all of that in:

* a hypothesis property test drives random programs (NOR / init / field IO /
  row copies / broadcast writes / masked and fused-kernel writes, with field
  reads interleaved) against both backends in lock step, which exercises the
  packed bank's decode cache on first reads, hits and invalidation by every
  write primitive;
* unit tests pin the decode cache's promises: decodes are read-only, a
  field read only once is not retained, and a write is seen by the next
  read;
* the 13 SSB queries run on both backends at K=1 and sharded K=4 and must
  produce bit-identical rows and bit-identical stats (the gate-level NOR
  path for a representative subset in the default tier, the full sweep
  behind the ``slow`` marker).
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.storage import StoredRelation
from repro.pim.crossbar import CrossbarBank
from repro.pim.module import PimModule
from repro.pim.packed import PackedCrossbarBank, make_bank
from repro.pim.stats import PimStats
from repro.sharding import ShardedQueryEngine, ShardedStoredRelation
from repro.ssb import ALL_QUERIES, QUERY_ORDER
from repro.ssb.prejoined import max_aggregated_width

ROWS = 70          # crosses the 64-row word boundary
COLUMNS = 48
COUNT = 2

#: The fields the lockstep ``read`` op decodes: few enough that reads repeat
#: (cache hits), wide enough that every random write lands in one of them,
#: and overlapping so one write invalidates two cached fields.
READ_FIELDS = ((0, 24), (24, 24), (16, 16))

#: Queries exercising the three execution shapes (scalar aggregate,
#: pim-gb/host-gb mix, multi-attribute GROUP-BY) in the default tier.
REPRESENTATIVE = ("Q1.1", "Q2.1", "Q4.1")


# --------------------------------------------------------------- equality
def assert_banks_equal(a, b) -> None:
    """Both backends hold the same cells and the same wear counters."""
    assert (a.count, a.rows, a.columns) == (b.count, b.rows, b.columns)
    for column in range(a.columns):
        assert np.array_equal(a.read_column(column), b.read_column(column)), (
            f"column {column} differs"
        )
    assert np.array_equal(a.writes_per_row, b.writes_per_row)


def assert_stats_identical(a: PimStats, b: PimStats) -> None:
    """Bit-identical modelled statistics (times, energies, counters, power)."""
    # Granular asserts first for readable failure diagnostics ...
    assert dict(a.time_by_phase) == dict(b.time_by_phase)
    assert dict(a.energy_by_component) == dict(b.energy_by_component)
    assert a.logic_ops == b.logic_ops
    assert a.bits_read == b.bits_read
    assert a.bits_written == b.bits_written
    assert a.max_writes_per_row == b.max_writes_per_row
    assert a.power_samples == b.power_samples
    # ... then the dataclass equality, which also covers any field the
    # enumeration above does not know about.
    assert a == b


# ------------------------------------------------------- random program ops
def _apply(op, bank):
    """Apply one op; a ``read`` op returns the decoded field."""
    kind = op[0]
    if kind == "read":
        return bank.read_field_all(op[1], op[2])
    if kind == "nor":
        bank.nor_columns(op[1], op[2])
    elif kind == "nor_at":
        bank.nor_columns_at(op[1], op[2], op[3])
    elif kind == "init":
        bank.set_column(op[1], op[2])
    elif kind == "init_at":
        bank.set_column_at(op[1], op[2], op[3])
    elif kind == "kernel_write":
        bank.kernel_write(op[1], bank.kernel_from_bool(op[2]), op[3])
    elif kind == "write_field":
        bank.write_field(op[1], op[2], op[3], op[4], op[5])
    elif kind == "write_field_column":
        bank.write_field_column(op[1], op[2], op[3])
    elif kind == "write_bool_column":
        bank.write_bool_column(op[1], op[2])
    elif kind == "copy_row_pairs":
        bank.copy_row_pairs(op[1], op[2], op[3], op[4], op[5])
    elif kind == "write_field_rows":
        bank.write_field_rows(op[1], op[2], op[3], op[4])
    elif kind == "write_field_row":
        bank.write_field_row(op[1], op[2], op[3], op[4])
    else:  # pragma: no cover - defensive
        raise AssertionError(kind)
    return None


@st.composite
def bank_ops(draw):
    column = st.integers(0, COLUMNS - 1)
    row = st.integers(0, ROWS - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    # Reads make up about a third of the ops, so a write often falls
    # between two reads of a field the bank has cached.
    kind = draw(st.sampled_from(["read"] * 5 + [
        "nor", "nor_at", "init", "init_at", "kernel_write",
        "write_field", "write_field_column", "write_bool_column",
        "copy_row_pairs", "write_field_rows", "write_field_row",
    ]))
    if kind == "read":
        return ("read", *draw(st.sampled_from(READ_FIELDS)))
    xbars = np.sort(rng.permutation(COUNT)[: draw(st.integers(0, COUNT))])
    if kind == "nor":
        srcs = tuple(draw(st.lists(column, min_size=1, max_size=2)))
        return ("nor", draw(column), srcs)
    if kind == "nor_at":
        srcs = tuple(draw(st.lists(column, min_size=1, max_size=2)))
        return ("nor_at", draw(column), srcs, xbars)
    if kind == "init":
        return ("init", draw(column), draw(st.booleans()))
    if kind == "init_at":
        return ("init_at", draw(column), draw(st.booleans()), xbars)
    if kind == "kernel_write":
        if draw(st.booleans()):
            xbars = None
        targets = COUNT if xbars is None else xbars.size
        values = rng.integers(0, 2, (targets, ROWS)).astype(bool)
        return ("kernel_write", draw(column), values, xbars)
    width = draw(st.integers(1, 12))
    offset = draw(st.integers(0, COLUMNS - width))
    if kind == "write_field":
        value = draw(st.integers(0, (1 << width) - 1))
        return ("write_field", draw(st.integers(0, COUNT - 1)), draw(row),
                offset, width, value)
    if kind == "write_field_column":
        values = rng.integers(0, 1 << width, (COUNT, ROWS)).astype(np.uint64)
        return ("write_field_column", offset, width, values)
    if kind == "write_bool_column":
        values = rng.integers(0, 2, (COUNT, ROWS)).astype(bool)
        return ("write_bool_column", draw(column), values)
    if kind == "copy_row_pairs":
        pairs = draw(st.integers(1, ROWS // 2))
        rows = rng.permutation(ROWS)[: 2 * pairs]
        dst_offset = draw(st.integers(0, COLUMNS - width))
        return ("copy_row_pairs", rows[:pairs], rows[pairs:],
                offset, dst_offset, width)
    if kind == "write_field_rows":
        n = draw(st.integers(0, ROWS))
        value = draw(st.integers(0, (1 << width) - 1))
        return ("write_field_rows", rng.permutation(ROWS)[:n], offset, width, value)
    values = rng.integers(0, 1 << width, COUNT).astype(np.uint64)
    return ("write_field_row", draw(row), offset, width, values)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(bank_ops(), min_size=1, max_size=20),
       probe=st.integers(0, 2 ** 31))
def test_random_programs_bit_exact_across_backends(ops, probe):
    """Random op sequences leave both backends in bit-identical states.

    Every ``read`` op compares the decoded field at that point of the
    sequence, so cached packed decodes are checked against the uncached
    boolean reference after every kind of write.
    """
    ref = CrossbarBank(COUNT, ROWS, COLUMNS)
    packed = PackedCrossbarBank(COUNT, ROWS, COLUMNS)
    for op in ops:
        expected = _apply(op, ref)
        decoded = _apply(op, packed)
        if op[0] == "read":
            assert np.array_equal(decoded, expected), op
    assert_banks_equal(ref, packed)
    rng = np.random.default_rng(probe)
    for _ in range(4):
        width = int(rng.integers(1, 13))
        offset = int(rng.integers(0, COLUMNS - width + 1))
        assert np.array_equal(
            ref.read_field_all(offset, width), packed.read_field_all(offset, width)
        )
        xbar, row = int(rng.integers(COUNT)), int(rng.integers(ROWS))
        assert ref.read_field(xbar, row, offset, width) == \
            packed.read_field(xbar, row, offset, width)


# ------------------------------------------------------------- decode cache
def _filled_bank() -> tuple[CrossbarBank, PackedCrossbarBank]:
    values = np.random.default_rng(3).integers(0, 256, (COUNT, ROWS))
    banks = CrossbarBank(COUNT, ROWS, COLUMNS), PackedCrossbarBank(COUNT, ROWS, COLUMNS)
    for bank in banks:
        bank.write_field_column(8, 8, values.astype(np.uint64))
    return banks


def test_cached_decode_is_read_only():
    _, bank = _filled_bank()
    first = bank.read_field_all(8, 8)
    cached = bank.read_field_all(8, 8)
    assert cached is first                          # still held: decoded once
    assert bank.read_field_all(8, 8) is cached      # served from the cache
    for values in (cached, cached.reshape(-1)):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1


def test_field_read_once_then_overwritten_is_not_retained():
    ref, bank = _filled_bank()
    once = weakref.ref(bank.read_field_all(8, 8))
    gc.collect()
    assert once() is None                            # one read keeps nothing
    bank.read_field_all(8, 8)
    retained = weakref.ref(bank.read_field_all(8, 8))
    gc.collect()
    assert retained() is not None                    # a re-read is kept
    for target in (ref, bank):
        target.write_field_column(8, 8, np.zeros((COUNT, ROWS), dtype=np.uint64))
    fresh = bank.read_field_all(8, 8)                # read once since the write
    gc.collect()
    assert retained() is None
    assert np.array_equal(fresh, ref.read_field_all(8, 8))


ONES = np.ones((COUNT, ROWS), dtype=bool)

#: One op per write primitive, each setting bits of the all-zero field
#: ``(8, 8)``; field ``(30, 8)`` holds all ones as a copy source.
WRITES_INTO_FIELD = {
    "write_field": ("write_field", 1, 65, 11, 1, 1),       # one row, one column
    "write_field_column": ("write_field_column", 8, 8, ONES.astype(np.uint64)),
    "write_bool_column": ("write_bool_column", 10, ONES),
    "copy_row_pairs": ("copy_row_pairs", np.array([0]), np.array([5]), 30, 8, 8),
    "write_field_rows": ("write_field_rows", np.array([3, 66]), 8, 8, 255),
    "write_field_row": ("write_field_row", 2, 8, 8, np.array([1, 255], dtype=np.uint64)),
    "nor": ("nor", 10, (0,)),
    "nor_at": ("nor_at", 10, (0,), np.array([1])),
    "init": ("init", 10, True),
    "init_at": ("init_at", 10, True, np.array([0])),
    "kernel_write": ("kernel_write", 10, ONES[:1], np.array([1])),
}


@pytest.mark.parametrize("kind", sorted(WRITES_INTO_FIELD))
def test_cached_field_sees_every_write_primitive(kind):
    """A write into one of a cached field's columns shows on the next read."""
    ref, bank = CrossbarBank(COUNT, ROWS, COLUMNS), PackedCrossbarBank(COUNT, ROWS, COLUMNS)
    for target in (ref, bank):
        target.write_field_column(30, 8, np.full((COUNT, ROWS), 255, dtype=np.uint64))
    bank.read_field_all(8, 8)
    cached = bank.read_field_all(8, 8)               # retained from here on
    assert not cached.any()
    for target in (ref, bank):
        _apply(WRITES_INTO_FIELD[kind], target)
    after = bank.read_field_all(8, 8)
    assert after.any()
    assert np.array_equal(after, ref.read_field_all(8, 8))


# ------------------------------------------------------------- unit checks
def test_padding_rows_stay_zero():
    """Bits beyond ``rows`` in the last packed word never leak into results."""
    bank = PackedCrossbarBank(1, 70, 8)
    bank.set_column(0, True)
    bank.nor_columns(1, (2,))   # NOR of zeros -> all ones
    assert bank.words[0, 0, 1] == np.uint64((1 << 6) - 1)
    assert bank.words[0, 1, 1] == np.uint64((1 << 6) - 1)
    assert bank.read_column(0).sum() == 70
    assert bank.read_field_all(0, 2).shape == (1, 70)


def test_validation_parity_with_reference():
    """Both backends raise the same errors on the same bad inputs."""
    for bank in (CrossbarBank(1, 8, 16), PackedCrossbarBank(1, 8, 16)):
        with pytest.raises(ValueError):
            bank.write_field(0, 0, offset=0, width=4, value=16)
        # Out-of-range rows fail loudly before any mutation (the packed
        # word arithmetic would otherwise silently target padding bits).
        for row in (8, -1):
            with pytest.raises(ValueError):
                bank.write_field(0, row, offset=0, width=4, value=1)
            with pytest.raises(ValueError):
                bank.read_field(0, row, offset=0, width=4)
            with pytest.raises(ValueError):
                bank.write_field_rows(np.array([0, row]), 0, 4, 1)
            with pytest.raises(ValueError):
                bank.write_field_row(row, 0, 4, np.array([1], dtype=np.uint64))
        assert bank.max_writes_since() == 0  # nothing was written
        with pytest.raises(ValueError):
            bank.write_field(0, 0, offset=14, width=4, value=1)
        with pytest.raises(ValueError):
            bank.read_field_all(0, 0)
        with pytest.raises(ValueError):
            bank.nor_columns(0, ())
        with pytest.raises(ValueError):
            bank.read_column(16)
        with pytest.raises(ValueError):
            bank.write_bool_column(3, np.zeros((2, 8), dtype=bool))
        with pytest.raises(ValueError):
            bank.write_field_row(0, 0, 4, np.array([16], dtype=np.uint64))
        with pytest.raises(ValueError):
            bank.copy_row_pairs(np.array([0]), np.array([1, 2]), 0, 8, 4)
    with pytest.raises(ValueError):
        PackedCrossbarBank(0, 8, 16)
    with pytest.raises(ValueError):
        make_bank("sparse", 1, 8, 16)


def test_make_bank_selects_backend():
    assert isinstance(make_bank("packed", 1, 8, 16), PackedCrossbarBank)
    assert isinstance(make_bank("bool", 1, 8, 16), CrossbarBank)
    assert make_bank(DEFAULT_CONFIG.backend, 1, 8, 16).backend == DEFAULT_CONFIG.backend


def test_module_allocates_configured_backend():
    packed_module = PimModule(DEFAULT_CONFIG.with_backend("packed"))
    bool_module = PimModule(DEFAULT_CONFIG.with_backend("bool"))
    assert isinstance(
        packed_module.allocate_pages(1, "a").bank, PackedCrossbarBank
    )
    assert isinstance(bool_module.allocate_pages(1, "a").bank, CrossbarBank)


# -------------------------------------------------------- SSB query parity
def _one_xb_engine(prejoined, backend, vectorized):
    config = DEFAULT_CONFIG.with_backend(backend)
    module = PimModule(config)
    stored = StoredRelation(
        prejoined, module, label="one_xb",
        aggregation_width=max_aggregated_width(prejoined),
        reserve_bulk_aggregation=False,
    )
    return PimQueryEngine(
        stored, label="one_xb", timing_scale=100.0, vectorized=vectorized
    )


@pytest.fixture(scope="module")
def parity_engines(ssb_prejoined):
    """Gate-level one-xb engines on both backends (module-scoped)."""
    return {
        backend: _one_xb_engine(ssb_prejoined, backend, vectorized=False)
        for backend in ("bool", "packed")
    }


def _assert_query_parity(engines, query_name):
    query = ALL_QUERIES[query_name]
    reference = engines["bool"].execute(query)
    candidate = engines["packed"].execute(query)
    assert candidate.rows == reference.rows, query_name
    assert candidate.selectivity == reference.selectivity
    assert candidate.max_writes_per_row == reference.max_writes_per_row
    assert_stats_identical(candidate.stats, reference.stats)


@pytest.mark.parametrize("query_name", REPRESENTATIVE)
def test_ssb_gate_level_parity_representative(parity_engines, query_name):
    """Gate-level NOR execution: identical rows and stats on both backends."""
    _assert_query_parity(parity_engines, query_name)


@pytest.mark.slow
@pytest.mark.parametrize(
    "query_name", [q for q in QUERY_ORDER if q not in REPRESENTATIVE]
)
def test_ssb_gate_level_parity_full_sweep(parity_engines, query_name):
    """The remaining SSB queries, gate level on both backends."""
    _assert_query_parity(parity_engines, query_name)


@pytest.fixture(scope="module")
def sharded_parity_engines(ssb_prejoined):
    """Vectorized K=4 scatter-gather engines on both backends."""
    width = max_aggregated_width(ssb_prejoined)
    engines = {}
    for backend in ("bool", "packed"):
        module = PimModule(DEFAULT_CONFIG.with_backend(backend))
        sharded = ShardedStoredRelation(
            ssb_prejoined, module, shards=4, label=f"parity-{backend}",
            aggregation_width=width, reserve_bulk_aggregation=False,
        )
        engines[backend] = ShardedQueryEngine(
            sharded, label=f"parity-{backend}", timing_scale=100.0,
            vectorized=True,
        )
    return engines


def test_backend_speed_experiment_smoke(tmp_path):
    """The backend-speed experiment: equivalence gates and JSON artifact."""
    import json

    from repro.experiments import backend_speed

    results = backend_speed.run_backend_speed(
        scale_factor=0.002, with_service=False
    )
    assert results.bit_exact
    assert results.stats_identical
    assert results.speedup > 1.0      # the real >=5x gate lives in benchmarks
    assert "Q1.1" in backend_speed.render(results)
    path = tmp_path / "BENCH_backend.json"
    backend_speed.write_artifact(results, path)
    record = json.loads(path.read_text())
    assert record["bit_exact"] is True
    assert record["stats_identical"] is True
    assert len(record["queries"]) == len(QUERY_ORDER)


@pytest.mark.parametrize("query_name", QUERY_ORDER)
def test_ssb_sharded_parity_k4(sharded_parity_engines, query_name):
    """All 13 SSB queries sharded K=4: identical rows and stats per backend."""
    query = ALL_QUERIES[query_name]
    reference = sharded_parity_engines["bool"].execute(query)
    candidate = sharded_parity_engines["packed"].execute(query)
    assert candidate.rows == reference.rows, query_name
    assert_stats_identical(candidate.stats, reference.stats)
    for cand_shard, ref_shard in zip(
        candidate.shard_executions, reference.shard_executions
    ):
        assert_stats_identical(cand_shard.stats, ref_shard.stats)
