"""Property-based tests of the arithmetic circuits and reductions (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pim.arithmetic import (
    BulkAggregationPlan,
    aggregate_members,
    aggregate_reference,
    build_ripple_add,
    build_subtract,
)
from repro.pim.crossbar import CrossbarBank
from repro.pim.logic import ProgramBuilder
from repro.pim.packed import make_bank


WIDTH = 9
A_COLS = list(range(0, WIDTH))
B_COLS = list(range(WIDTH, 2 * WIDTH))
DEST = list(range(2 * WIDTH, 3 * WIDTH + 1))
SCRATCH = list(range(80, 112))

pair_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
        st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
    ),
    min_size=1, max_size=16,
)


def _bank_with(pairs):
    a = np.array([[p[0] for p in pairs]], dtype=np.uint64)
    b = np.array([[p[1] for p in pairs]], dtype=np.uint64)
    bank = CrossbarBank(count=1, rows=len(pairs), columns=112)
    bank.write_field_column(0, WIDTH, a)
    bank.write_field_column(WIDTH, WIDTH, b)
    return bank, a[0], b[0]


@settings(max_examples=30, deadline=None)
@given(pairs=pair_lists)
def test_ripple_add_matches_integer_addition(pairs):
    bank, a, b = _bank_with(pairs)
    builder = ProgramBuilder(SCRATCH)
    build_ripple_add(builder, A_COLS, B_COLS, DEST)
    builder.build().execute(bank)
    assert np.array_equal(bank.read_field_all(DEST[0], WIDTH + 1)[0], a + b)


@settings(max_examples=30, deadline=None)
@given(pairs=pair_lists)
def test_subtract_matches_modular_subtraction(pairs):
    bank, a, b = _bank_with(pairs)
    builder = ProgramBuilder(SCRATCH)
    build_subtract(builder, A_COLS, B_COLS, DEST[:WIDTH])
    builder.build().execute(bank)
    modulus = np.uint64((1 << WIDTH) - 1)
    assert np.array_equal(bank.read_field_all(DEST[0], WIDTH)[0], (a - b) & modulus)


aggregation_cases = st.tuples(
    st.lists(st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
             min_size=2, max_size=32),
    st.lists(st.booleans(), min_size=2, max_size=32),
    st.sampled_from(["sum", "min", "max", "count"]),
)


@pytest.mark.parametrize(
    "backend", ["packed", pytest.param("bool", marks=pytest.mark.slow)]
)
@settings(max_examples=30, deadline=None)
@given(case=aggregation_cases)
def test_gate_level_reduction_equals_functional_reduction(case, backend):
    values, mask, operation = case
    rows = min(len(values), len(mask))
    values, mask = values[:rows], mask[:rows]
    plan = BulkAggregationPlan(
        rows=rows, field_offset=0, field_width=WIDTH, mask_column=25,
        acc_offset=30, operand_offset=55,
        scratch_columns=range(80, 140), operation=operation,
    )

    def loaded():
        bank = make_bank(backend, count=1, rows=rows, columns=140)
        bank.write_field_column(0, WIDTH, np.array([values], dtype=np.uint64))
        bank.write_bool_column(25, np.array([mask], dtype=bool))
        return bank

    gate = plan.run_gate_level(loaded())
    functional = plan.run_functional(loaded())
    assert np.array_equal(gate, functional)

    stored = np.array(values, dtype=np.uint64)
    chosen = stored[np.array(mask, dtype=bool)]
    if operation == "sum":
        expected = int(chosen.sum())
    elif operation == "count":
        expected = int(np.count_nonzero(mask))
    elif operation == "min":
        expected = int(chosen.min()) if chosen.size else (1 << plan.acc_width) - 1
    else:
        expected = int(chosen.max()) if chosen.size else 0
    assert int(gate[0]) == expected


@st.composite
def member_cases(draw):
    """A bank of values, a mask (possibly empty, with member-less crossbars)
    and an accumulator width below 64 (wrapping) or equal to it."""
    count = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 8))
    value_bits = draw(st.sampled_from([4, 20, 64]))
    values = draw(st.lists(
        st.integers(0, (1 << value_bits) - 1),
        min_size=count * rows, max_size=count * rows,
    ))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    mask = draw(st.lists(
        st.floats(0, 1).map(lambda u: u < density),
        min_size=count * rows, max_size=count * rows,
    ))
    width = draw(st.sampled_from([1, 5, 22, 63, 64]))
    return (
        np.array(values, dtype=np.uint64).reshape(count, rows),
        np.array(mask, dtype=bool).reshape(count, rows),
        width,
    )


@pytest.mark.parametrize("operation", ["sum", "count", "min", "max"])
@settings(max_examples=60, deadline=None)
@given(case=member_cases())
def test_member_aggregation_equals_reference(case, operation):
    """The one-pass member reduction equals the masked per-crossbar one."""
    values, mask, width = case
    members = np.flatnonzero(mask)
    ours = aggregate_members(
        values.reshape(-1)[members], members, values.shape, operation, width
    )
    expected = aggregate_reference(values, mask, operation, width)
    assert ours.dtype == np.uint64
    assert np.array_equal(ours, expected)


@pytest.mark.parametrize("operation", ["sum", "count", "min", "max"])
@settings(max_examples=30, deadline=None)
@given(case=member_cases(), split=st.integers(0, 40))
def test_member_aggregation_batches_disjoint_masks(case, operation, split):
    """Two disjoint masks reduced in one stacked call equal two calls."""
    values, mask, width = case
    members = np.flatnonzero(mask)
    parts = [members[:split], members[split:]]
    flat = values.reshape(-1)
    count, rows = values.shape
    stacked = np.concatenate(
        [part + index * values.size for index, part in enumerate(parts)]
    )
    together = aggregate_members(
        flat[stacked % values.size], stacked, (2 * count, rows),
        operation, width,
    ).reshape(2, count)
    for index, part in enumerate(parts):
        alone = aggregate_members(flat[part], part, values.shape, operation, width)
        assert np.array_equal(together[index], alone)
