"""Batched multi-output execution of the pim-gb subgroup loop.

The reference GROUP-BY path (:meth:`PimQueryEngine._execute_group_by`)
makes one full Python round-trip per subgroup: build the subgroup mask,
run the aggregation circuit per aggregate, clear the subgroup from the
filter — with every :class:`~repro.pim.stats.PimStats` charge sitting
inside that inner loop.  After PR 6 fused the kernels, this orchestration
is what Amdahl's law leaves as the end-to-end bottleneck.

This module restructures the loop without changing a single modelled
number or stored bit:

* **One multi-output kernel per partition.**  All per-subgroup group-mask
  programs are lowered together (:func:`repro.pim.ir.lower_program_batch`)
  with cross-program CSE — the per-attribute equality subcircuits that
  recur across subgroups are interned once — and evaluated in one pass
  against the pre-group-by column state.  This is sound because distinct
  full group keys select *disjoint* row sets: subgroup ``k``'s mask
  computed against the pre-loop filter state equals the sequential
  result after ``k-1`` clears.  Each combine program's remote-transfer
  bits enter the batch as a *private* kernel input.

* **One pass over the member rows per aggregate.**  The aggregation
  circuit's functional result is ``aggregate_reference`` over a decoded
  field and the subgroup mask.  The field does not change during the
  group-by, so it is decoded once, and every subgroup's per-crossbar
  partials come from one segmented reduction over the sorted member rows
  of all subgroups (:func:`~repro.pim.arithmetic.aggregate_members`),
  O(selected rows + subgroups x crossbars) per aggregate instead of one
  masked O(slots) reduction per subgroup and aggregate.

* **Charges replayed per subgroup; bits, partials and wear done once.**
  Modelled statistics are *order-sensitive* (float accumulation,
  per-phase power samples, request rounding), so a single summed charge
  cannot be bit-identical.  The loop below therefore replays, per
  subgroup and in the reference order, only the charges: the pruned
  program charge shared with :meth:`~repro.pim.controller.PimExecutor.run_program_pruned`,
  the unpruned program charge, the transfer charge and the charge-only
  circuit twin.  Everything functional happens once per query: each column
  the loop writes is written once with the value the reference's last
  write leaves (the filter column holds the query filter minus every
  subgroup), dirty marks are set once, the zone-map invariant is checked
  once over the union of the subgroup masks, and the wear the reference
  accumulates write by write is added as totals.  Rows, stored bits, dirty
  marks, wear and ``PimStats`` equal per-subgroup dispatch; the lockstep
  tests assert it.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.core.sampling import GroupKey
from repro.core.stages import _check_pruned_bits, candidate_rows
from repro.db.query import Query
from repro.host.aggregator import combine_partials
from repro.host.readpath import HostReadModel
from repro.pim.arithmetic import aggregate_members
from repro.pim.controller import PimExecutor
from repro.pim.fused import BatchKernel, compile_batch
from repro.pim.ir import lower_program_batch
from repro.pim.logic import Program, ProgramBuilder


class BatchKernelCacheInfo(NamedTuple):
    """Hit/miss counters and current size of the batch-kernel memo."""

    hits: int
    misses: int
    currsize: int


#: Batch kernels keyed by the *identities* of their programs (plus the
#: private input columns).  Each value also holds one weak reference per
#: program whose callback evicts the entry when that program is garbage
#: collected; evicting drops the other references, so their callbacks never
#: run.  The scatter pool compiles partitions from several threads, so
#: lookups and counts take the lock; eviction runs inside garbage
#: collection, which may fire while the lock is held, so it relies on the
#: atomic ``dict.pop`` instead.
_batch_kernels: dict[tuple, tuple[BatchKernel, list[weakref.ref]]] = {}
_batch_counts = {"hits": 0, "misses": 0}
_batch_lock = threading.Lock()


def _compile_group_batch(
    programs: tuple[Program, ...], private_columns: tuple[int, ...]
) -> BatchKernel:
    """Compile (and memoise) the multi-output kernel of a program batch.

    Programs are keyed by identity, which is exactly right: the service's
    :class:`~repro.service.cache.ProgramCache` hands back the *same*
    program objects on a warm replay, so repeated batches hit this memo
    without re-lowering, while fresh program objects recompile.  The memo
    holds no reference to the programs: an entry lives exactly as long as
    every program of its batch, so programs the program cache evicted are
    not pinned here.
    """
    key = (tuple(map(id, programs)), private_columns)
    with _batch_lock:
        entry = _batch_kernels.get(key)
        if entry is not None:
            _batch_counts["hits"] += 1
            return entry[0]
        _batch_counts["misses"] += 1
    kernel = compile_batch(lower_program_batch(programs, private_columns))

    def forget(_ref) -> None:
        _batch_kernels.pop(key, None)

    refs = [weakref.ref(program, forget) for program in programs]
    with _batch_lock:
        _batch_kernels[key] = (kernel, refs)
    return kernel


def batch_kernel_cache_info() -> BatchKernelCacheInfo:
    """Cache statistics of the batch-kernel compiler (for benchmarks)."""
    return BatchKernelCacheInfo(
        _batch_counts["hits"], _batch_counts["misses"], len(_batch_kernels)
    )


def _candidate_idx(prune, partition: int) -> np.ndarray | None:
    if prune is None:
        return None
    return np.nonzero(np.asarray(prune.candidates[partition], dtype=bool))[0]


def _pad_rows(bits: np.ndarray, bank) -> np.ndarray:
    """Expand per-record bits to the bank's full ``(count, rows)`` shape."""
    full = np.zeros((bank.count, bank.rows), dtype=bool)
    full.reshape(-1)[: bits.size] = bits
    return full


def _run_partition_batch(
    stored,
    partition: int,
    programs: tuple[Program, ...],
    private_columns: tuple[int, ...],
    private: dict | None,
    prune,
) -> list[np.ndarray]:
    """Evaluate a batch of programs on one partition's bank, functionally.

    Returns one per-record boolean result (the program's result column)
    per program, against the partition's *pre-batch* state.  Under pruning
    the kernel runs on the candidate crossbars only and the skipped
    crossbars' bits are zero, matching pruned reference execution.
    """
    allocation = stored.allocations[partition]
    bank = allocation.bank
    num_records = stored.num_records
    xbars = _candidate_idx(prune, partition)
    if xbars is not None and xbars.size == 0:
        return [np.zeros(num_records, dtype=bool) for _ in programs]
    kernel = _compile_group_batch(programs, private_columns)
    outputs = kernel.run(bank, xbars, private)
    n = bank.count if xbars is None else int(xbars.size)
    results: list[np.ndarray] = []
    for program, bindings in zip(programs, outputs):
        value = dict(bindings).get(program.result_column)
        if value is None:
            raise RuntimeError(
                "batched group program does not produce its result column"
            )
        rows_bool = np.broadcast_to(
            bank.kernel_to_bool(value), (n, bank.rows)
        )
        if xbars is None:
            full = np.empty((bank.count, bank.rows), dtype=bool)
            full[:] = rows_bool
        else:
            full = np.zeros((bank.count, bank.rows), dtype=bool)
            full[xbars] = rows_bool
        results.append(full.reshape(-1)[:num_records])
    return results


def _build_fold_programs(layout, remote_count: int) -> list[tuple[Program, int]]:
    """The per-position remote-fold programs of the reference path.

    With two or more remote partitions every transfer lands in the same
    remote column, so the running product is parked in the group column
    and folded back after the last transfer (see
    :meth:`~repro.core.stages.GroupMaskStage.prepare`).  The programs are
    identical for every subgroup, so they are built once per query.
    """
    folds: list[tuple[Program, int]] = []
    if remote_count <= 1:
        return folds
    for position in range(remote_count):
        if position == 0:
            operands = [layout.remote_column]
        else:
            operands = [layout.group_column, layout.remote_column]
        destination = (
            layout.remote_column
            if position == remote_count - 1
            else layout.group_column
        )
        builder = ProgramBuilder(layout.scratch_columns)
        if len(operands) == 1:
            folded = builder.copy(operands[0])
        else:
            folded = builder.and_(operands[0], operands[1])
        builder.store(folded, destination)
        builder.free(folded)
        folds.append((builder.build(result_column=destination), destination))
    return folds


def _build_clear_program(layout) -> Program:
    """The subgroup-clear program (filter &= ~group), built once."""
    builder = ProgramBuilder(layout.scratch_columns)
    remaining = builder.and_not(layout.filter_column, layout.group_column)
    builder.store(remaining, layout.filter_column)
    builder.free(remaining)
    return builder.build(result_column=layout.filter_column)


def run_group_by_batched(
    engine,
    query: Query,
    primary: int,
    mask: np.ndarray,
    keys: Sequence[GroupKey],
    executor: PimExecutor,
    read_model: HostReadModel,
    prune=None,
) -> dict[GroupKey, dict[str, int]]:
    """pim-gb over ``keys``: batched kernels, once-per-query functional work
    and a per-subgroup charge replay.

    Bit-identical with the per-subgroup reference loop of
    :meth:`PimQueryEngine._execute_group_by` — result rows, stored bits,
    dirty marks, wear and ``PimStats`` — requires the aggregation circuit
    (the bulk-bitwise fallback needs the stored mask column per subgroup).
    """
    stored = engine.stored
    compiler = engine.compiler
    group_attributes = list(query.group_by)
    primary_layout = stored.layouts[primary]
    bank = stored.allocations[primary].bank

    # The reference builds its per-partition split by iterating the key's
    # group values in attribute order; reproduce the same partition order.
    by_partition: dict[int, list[str]] = {}
    for name in group_attributes:
        by_partition.setdefault(stored.partition_of(name), []).append(name)
    remote_partitions = [p for p in by_partition if p != primary]
    include_remote = bool(remote_partitions)

    def values_for(key: GroupKey, names: Sequence[str]) -> dict[str, int]:
        mapping = dict(zip(group_attributes, key))
        return {name: mapping[name] for name in names}

    # ---------------------------------------------- batched mask computation
    # All of this runs against the pre-group-by column state, before any of
    # the writes below.
    remote_programs: dict[int, tuple[Program, ...]] = {}

    def remote_batch(partition: int) -> list[np.ndarray]:
        return _run_partition_batch(
            stored, partition, remote_programs[partition], (), None, prune
        )

    for partition in remote_partitions:
        layout = stored.layouts[partition]
        remote_programs[partition] = tuple(
            compiler.group_program(values_for(key, by_partition[partition]), layout)
            for key in keys
        )
    pool = getattr(engine, "scatter_pool", None)
    if pool is not None and len(remote_partitions) > 1:
        batches = pool.map(remote_batch, remote_partitions)
    else:
        batches = [remote_batch(partition) for partition in remote_partitions]
    remote_group_bits: dict[int, list[np.ndarray]] = dict(
        zip(remote_partitions, batches)
    )

    remote_bits: list[np.ndarray] | None = None
    if include_remote:
        remote_bits = []
        for index in range(len(keys)):
            accumulated: np.ndarray | None = None
            for partition in remote_partitions:
                bits = remote_group_bits[partition][index]
                accumulated = bits if accumulated is None else accumulated & bits
            remote_bits.append(accumulated)

    combine_programs = tuple(
        compiler.combine_program(
            values_for(key, by_partition.get(primary, [])),
            primary_layout,
            include_remote,
        )
        for key in keys
    )
    private_columns: tuple[int, ...] = ()
    private: dict | None = None
    primary_idx = _candidate_idx(prune, primary)
    if include_remote:
        private_columns = (primary_layout.remote_column,)
        private = {}
        for index in range(len(keys)):
            padded = _pad_rows(remote_bits[index], bank)
            if primary_idx is not None:
                padded = padded[primary_idx]
            private[(index, primary_layout.remote_column)] = bank.kernel_from_bool(
                padded
            )
    mask_bits = _run_partition_batch(
        stored, primary, combine_programs, private_columns, private, prune
    )

    # ------------------------------------------------------ functional work
    # Everything the reference loop leaves behind is produced once per
    # query: the subgroups' partials, the final contents and dirty marks of
    # every column the loop writes, and the summed wear.
    selected = np.nonzero(mask)[0]
    if selected.size:
        columns = [
            stored.relation.column(name)[selected].tolist()
            for name in group_attributes
        ]
        present_keys = set(zip(*columns))
    else:
        present_keys = set()

    # The zone-map invariant holds for every subgroup mask, and for every
    # filter state the clears leave, exactly when it holds for the union of
    # the subgroups and the filter (the reference checks each write).
    union = _union(mask_bits, stored.num_records)
    if prune is not None:
        _check_pruned_bits(
            union | mask, prune.candidates[primary], stored.allocations[primary]
        )
        for partition in remote_partitions:
            _check_pruned_bits(
                _union(remote_group_bits[partition], stored.num_records),
                prune.candidates[partition], stored.allocations[partition],
            )

    fold_programs = _build_fold_programs(primary_layout, len(remote_partitions))
    clear_program = _build_clear_program(primary_layout)
    group_column = primary_layout.group_column
    effects = _GroupByEffects(stored, engine.timing_scale, prune)
    # Pruned programs clear a column's stale crossbars on its first
    # application only: every pruned write leaves exactly the candidates
    # dirty.  Both the charge and the +1 wear are taken from the state
    # before the group-by.
    for partition in remote_partitions:
        effects.note_stale(partition, stored.layouts[partition].group_column)
    effects.note_stale(primary, group_column)
    effects.note_stale(primary, primary_layout.filter_column)

    subgroups = len(keys)
    for partition in remote_partitions:
        effects.add_wear(
            partition,
            sum(int(program.writes_per_row) for program in remote_programs[partition]),
        )
    # One bit-column write per remote transfer, into the whole remote column.
    effects.add_wear(primary, subgroups * len(remote_partitions), pruned=False)
    for fold_program, destination in fold_programs:
        effects.add_wear(
            primary, subgroups * int(fold_program.writes_per_row),
            pruned=destination == group_column,
        )
    effects.add_wear(
        primary, sum(int(program.writes_per_row) for program in combine_programs)
    )
    effects.add_wear(primary, subgroups * int(clear_program.writes_per_row))

    # Subgroup partials: one decode and one segmented reduction per
    # aggregate over every subgroup's member rows at once.
    accumulator_width = primary_layout.accumulator_width
    capacity = bank.count * bank.rows
    member_slots = [np.flatnonzero(bits) for bits in mask_bits]
    slots = np.concatenate(member_slots)
    members = np.concatenate([
        rows_of + index * capacity for index, rows_of in enumerate(member_slots)
    ])
    aggregates: list[tuple[int, str, np.ndarray]] = []
    for aggregate in query.aggregates:
        if aggregate.op == "count":
            field_width, operation, values = 1, "sum", None
        else:
            field_offset = primary_layout.field_offset(aggregate.attribute)
            field_width = primary_layout.field_width(aggregate.attribute)
            operation = aggregate.op
            field = bank.read_field_all(field_offset, field_width).reshape(-1)
            values = field[slots]
        partials = aggregate_members(
            values, members, (subgroups * bank.count, bank.rows),
            aggregate.op, accumulator_width,
        ).reshape(subgroups, bank.count)
        if primary_idx is not None:
            partials = partials[:, primary_idx]
        aggregates.append((field_width, operation, partials))
    circuit_runs = primary_idx is None or primary_idx.size > 0

    # The stored bits the reference's last writes leave.
    for partition in remote_partitions:
        effects.store(
            partition, stored.layouts[partition].group_column,
            remote_group_bits[partition][-1],
        )
    if len(remote_partitions) == 1:
        # The transfer's own write: dirty exactly where its bits are set.
        stored.write_bit_column(
            primary, primary_layout.remote_column, remote_bits[-1],
            count_wear=False,
        )
    elif remote_partitions:
        # The last fold, a broadcast even under pruning.
        fold_bits = remote_bits[-1]
        if prune is not None:
            fold_bits = fold_bits & candidate_rows(
                stored, primary, prune.candidates[primary]
            )
        effects.store(primary, primary_layout.remote_column, fold_bits, pruned=False)
    effects.store(primary, group_column, mask_bits[-1])
    effects.store(primary, primary_layout.filter_column, mask & ~union)
    if aggregates and circuit_runs:
        # Every circuit invocation writes its partials back into row 0.
        bank.write_field_row(
            0, primary_layout.result_offset, accumulator_width,
            aggregates[-1][2][-1], xbars=primary_idx,
        )
        # The write above added one invocation's wear; add the others'.
        row0 = bank.writes_per_row[:, 0]
        others = (subgroups * len(aggregates) - 1) * accumulator_width
        if primary_idx is None:
            row0 += others
        else:
            row0[primary_idx] += others
    effects.apply_wear()

    # ------------------------------------------------- per-subgroup charges
    min_identity = engine.aggregation_stage.min_identity(primary)
    fraction = 1.0
    if prune is not None:
        fraction = (
            float(np.count_nonzero(prune.candidates[primary]))
            / stored.allocations[primary].crossbars
        )
    primary_candidates = prune.candidates[primary] if prune is not None else None
    primary_pages = effects.pages[primary]
    rows: dict[GroupKey, dict[str, int]] = {}
    for index, key in enumerate(keys):
        for position, partition in enumerate(remote_partitions):
            effects.charge(executor, partition, remote_programs[partition][index])
            read_model.charge_bit_transfer(stored, phase="pim-gb-transfer")
            if fold_programs:
                fold_program, destination = fold_programs[position]
                effects.charge(
                    executor, primary, fold_program,
                    pruned=destination == group_column,
                )
        effects.charge(executor, primary, combine_programs[index])
        entry: dict[str, int | None] = {}
        for aggregate, (field_width, operation, partials) in zip(
            query.aggregates, aggregates
        ):
            if circuit_runs:
                executor.charge_aggregation_circuit(
                    bank, field_width,
                    pages=primary_pages,
                    result_width=accumulator_width,
                    crossbars=primary_candidates,
                )
            read_model.read_aggregation_results(
                stored, primary, pages_fraction=fraction
            )
            subgroup = partials[index]
            if aggregate.op == "min":
                subgroup = subgroup[subgroup != min_identity]
            entry[aggregate.name] = combine_partials(
                [subgroup], operation, engine.config.host, executor.stats
            )
        if key in present_keys:
            rows[key] = engine._finalize_entry(entry, primary)
        effects.charge(executor, primary, clear_program)
    return rows


def _union(bits: Sequence[np.ndarray], num_records: int) -> np.ndarray:
    """OR of per-record bit vectors."""
    union = np.zeros(num_records, dtype=bool)
    for column in bits:
        np.logical_or(union, column, out=union)
    return union


class _GroupByEffects:
    """Per-partition charge, store and wear bookkeeping of one group-by.

    Applies :func:`~repro.core.stages.apply_program`'s and
    :func:`~repro.core.stages.apply_program_pruned`'s contract split in
    three: :meth:`store` writes a column's final bits and dirty marks,
    :meth:`add_wear` sums the program wear the applications cause, and
    :meth:`charge` charges one application's modelled cost.  Under pruning
    a program runs on the partition's candidate crossbars unless
    ``pruned=False`` (a broadcast).
    """

    def __init__(self, stored, timing_scale: float, prune) -> None:
        self.stored = stored
        self.pages = [
            allocation.pages * timing_scale for allocation in stored.allocations
        ]
        #: Per partition: the candidate mask and its size (``None`` unpruned).
        self._candidates: list[np.ndarray] | None = None
        self._counts: list[int] = []
        if prune is not None:
            self._candidates = [
                np.asarray(mask, dtype=bool) for mask in prune.candidates
            ]
            self._counts = [int(np.count_nonzero(m)) for m in self._candidates]
        self._clears: dict[tuple[int, int], int] = {}
        #: Per partition: wear added to every row of every crossbar, and
        #: per crossbar on top of it.
        self._whole = [0] * len(stored.allocations)
        self._per_crossbar = [
            np.zeros(allocation.crossbars, dtype=np.int64)
            for allocation in stored.allocations
        ]

    def candidates(self, partition: int) -> np.ndarray | None:
        if self._candidates is None:
            return None
        return self._candidates[partition]

    def note_stale(self, partition: int, column: int) -> None:
        """Record the stale crossbars ``column``'s first pruned run clears."""
        candidates = self.candidates(partition)
        if candidates is None:
            return
        stale = self.stored.column_dirty_mask(partition, column) & ~candidates
        self._clears[partition, column] = int(np.count_nonzero(stale))
        self._per_crossbar[partition] += stale

    def add_wear(self, partition: int, writes: int, pruned: bool = True) -> None:
        candidates = self.candidates(partition)
        if candidates is None or not pruned:
            self._whole[partition] += writes
        else:
            self._per_crossbar[partition] += candidates * writes

    def apply_wear(self) -> None:
        """Add the summed wear to the banks."""
        for partition, allocation in enumerate(self.stored.allocations):
            extra = self._per_crossbar[partition] + self._whole[partition]
            if extra.any():
                allocation.bank.writes_per_row += extra[:, None]

    def store(
        self, partition: int, column: int, bits: np.ndarray, pruned: bool = True
    ) -> None:
        """Write a column's final bits and mark the crossbars it dirtied."""
        self.stored.write_bit_column(partition, column, bits, count_wear=False)
        candidates = self.candidates(partition) if pruned else None
        self.stored.mark_column_dirty(partition, column, candidates)

    def charge(
        self, executor: PimExecutor, partition: int, program: Program,
        pruned: bool = True, phase: str = "pim-gb-filter",
    ) -> None:
        """Charge one application of ``program`` (no bits, no wear)."""
        bank = self.stored.allocations[partition].bank
        candidates = self.candidates(partition)
        if candidates is None or not pruned:
            executor.charge_program_cost(
                bank, program.cycles, self.pages[partition], phase
            )
            return
        executor.charge_pruned_program(
            bank, program.cycles, self._counts[partition],
            self.pages[partition], phase,
            self._clears.pop((partition, program.result_column), 0),
        )
