"""Spill-aware external merge sort over chunked/spilled frames.

:func:`repro.dataframe.ops.sort_by` densifies: it gathers every column
into RAM, argsorts, and ``take``\\ s. That is the right plan for resident
frames and the wrong one past RAM — sorting a spilled frame through it
would materialize the whole table and release its spill state. This
module is the out-of-core plan: a classic external merge sort whose
peak resident bytes stay under the owning
:class:`~repro.dataframe.spill.SpillStore` budget and whose output is
itself a :class:`~repro.dataframe.spill.SpilledChunkedColumn`-backed
:class:`~repro.dataframe.chunked.ChunkedFrame` — sorting a spilled frame
never densifies input or output.

Bit-identity contract
---------------------
The external path must equal ``ops.sort_by`` bit for bit (the fuzz
harness pins it across monolithic/chunked/spilled legs). Three facts
make that hold:

* **Run generation reuses the memory kernel.** Each size-capped batch
  of rows is sorted with the exact per-column
  :func:`~repro.dataframe.ops._order_codes` + ``np.lexsort`` machinery
  ``ops.sort_by`` uses (codes negated per column for ``descending``),
  so within a run the permutation is the memory permutation restricted
  to the batch. Order codes are batch-local, but their *order* is the
  global value order (:func:`~repro.dataframe.ops._sort_key`: numbers
  before strings, missing last), so batch-local and global comparisons
  agree on every row pair.
* **The merge compares raw key values.** Runs are decomposed into
  equal-key blocks; each block's representative key tuple is compared
  across runs via ``_sort_key`` — the same total order the codes
  encode — inverted wholesale for ``descending`` (per-column code
  negation and whole-tuple inversion both reduce to "the first
  differing column decides, reversed").
* **Ties break by run index.** Runs cover consecutive row ranges in
  input order and each run is internally stable, so preferring the
  lower run index on equal keys reproduces the global stable order.

Strategy seam
-------------
``ops.sort_by(..., strategy=...)`` routes through
:func:`resolve_sort_strategy`: an explicit argument wins, then the
``DATALENS_SORT_STRATEGY`` environment override, then ``auto`` —
``external`` when any input column is spilled (the memory plan would
densify it), ``memory`` otherwise.

Cost model
----------
Runs are cut at ``budget // (4 * bytes_per_row)`` rows, so one run, the
merge's resident LRU traffic, and the output chunk under assembly all
fit comfortably inside the spill budget. The merge is a k-way
tournament over run heads (a heap of equal-key block boundaries) with
galloping: a run whose next blocks all sort before every other head is
consumed in one contiguous segment, so presorted inputs merge in O(k)
segments instead of O(blocks) heap operations.

The merge fan-in is bounded at ``4 * num_columns`` live runs (one
column is gathered at a time, and a run's single-column shard is
~``1/(4 * num_columns)`` of the budget, so that many run shards fit
resident simultaneously). Inputs that generate more runs than the
fan-in are merged in passes — groups of ``fan_in`` *contiguous* runs
collapse into one multi-shard run per pass, preserving the run-index
stability rule — so every shard is loaded O(passes) times instead of
once per interleaved segment, which on narrow keys is the difference
between I/O-linear and LRU-thrashing behavior.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, Sequence

import numpy as np

from ..settings import resolve
from . import types as _types
from .chunked import ChunkedColumn, ChunkedFrame, chunk_lengths_for
from .column import Column
from .frame import DataFrame
from .ops import _order_codes, _sort_key
from .spill import (
    SpilledChunkedColumn,
    SpillStore,
    _resliced_pairs,
    spill_store_of,
)

#: Payload-byte estimate per row for object-backed cells (strings,
#: overflowed ints) when sizing runs — deliberately generous so runs
#: undershoot the budget rather than overshoot it.
_OBJECT_ROW_BYTES = 64

#: A run is cut at budget/4 so the run being built, the merge's LRU
#: traffic, and the output chunk under assembly never sum past the
#: budget.
_RUN_BUDGET_FRACTION = 4


def resolve_sort_strategy(strategy: str | None, frame: DataFrame) -> str:
    """Resolve the physical sort strategy: explicit > environment > auto.

    ``auto`` picks ``external`` when any input column is spilled
    (sorting through the memory kernel would densify it and release its
    shards), else ``memory``.
    """
    strategy = resolve("sort_strategy", strategy, "strategy")
    if strategy == "auto":
        return "external" if spill_store_of(frame) is not None else "memory"
    return strategy


def _per_row_bytes(frame: DataFrame) -> int:
    """Estimated payload+mask bytes per row across all columns."""
    total = 0
    for name in frame.column_names:
        np_dtype = np.dtype(_types.NUMPY_DTYPES[frame.column(name).dtype])
        payload = _OBJECT_ROW_BYTES if np_dtype == object else np_dtype.itemsize
        total += payload + 1  # +1 mask byte
    return max(total, 1)


class _Run:
    """One sorted run: spilled shards plus its equal-key block index.

    ``handles`` maps column name to the run's spilled shards in row
    order (one shard for generated runs, several for pass-merged runs);
    ``shard_starts`` are the row offsets of those shards (length
    ``n_shards + 1``); ``block_starts`` are the row offsets of equal-key
    blocks (length ``n_blocks + 1``); ``sort_keys[j]`` is block ``j``'s
    representative key as a tuple of :func:`_sort_key` tuples.
    """

    __slots__ = ("handles", "sort_keys", "block_starts", "shard_starts")

    def __init__(
        self,
        handles: dict[str, list[Any]],
        sort_keys: list[tuple],
        block_starts: np.ndarray,
        shard_starts: np.ndarray,
    ) -> None:
        self.handles = handles
        self.sort_keys = sort_keys
        self.block_starts = block_starts
        self.shard_starts = shard_starts

    @property
    def n_blocks(self) -> int:
        return len(self.sort_keys)

    def segment_pairs(
        self, name: str, store: SpillStore, start: int, end: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Stream one column's ``[start, end)`` rows shard by shard.

        Loads go through the store's LRU, so at most one run shard per
        live consumer is resident at a time.
        """
        starts = self.shard_starts
        i = int(np.searchsorted(starts, start, side="right")) - 1
        while start < end:
            shard_end = int(starts[i + 1])
            data, mask = store.load(self.handles[name][i])
            lo = start - int(starts[i])
            hi = min(end, shard_end) - int(starts[i])
            yield data[lo:hi], mask[lo:hi]
            start = int(starts[i + 1]) if end > shard_end else end
            i += 1

    def release(self, store: SpillStore) -> None:
        """Free every shard once — safe to call again after."""
        for handle_list in self.handles.values():
            for handle in handle_list:
                store.release(handle)
        self.handles = {}


class _DescendingKey:
    """Inverts block-key comparisons for ``descending`` merges.

    Both ``__lt__`` and ``__eq__`` matter: heap entries are
    ``(key, run, block)`` tuples, and tuple comparison consults ``==``
    on the key before falling through to the run-index tie-break.
    """

    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    def __lt__(self, other: "_DescendingKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _DescendingKey) and self.key == other.key


def _generate_runs(
    frame: DataFrame,
    names: Sequence[str],
    descending: bool,
    store: SpillStore,
    batch_lengths: Sequence[int],
) -> list[_Run]:
    """Cut the frame into size-capped batches, sort and spill each.

    Every column streams through :func:`_resliced_pairs` in lockstep
    (spilled inputs load shard by shard through the store's LRU), so at
    most one batch of rows is resident while runs are generated.
    """
    columns = {name: frame.column(name) for name in frame.column_names}

    def pairs_of(col: Column) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        if isinstance(col, ChunkedColumn):
            return col._shard_pairs()
        return iter([(np.asarray(col.values_array()), np.asarray(col.mask()))])

    reslicers = {
        name: _resliced_pairs(pairs_of(col), batch_lengths)
        for name, col in columns.items()
    }
    runs: list[_Run] = []
    for length in batch_lengths:
        batch = {name: next(reslicers[name]) for name in columns}
        keys = []
        for name in names:
            data, mask = batch[name]
            codes = _order_codes(
                Column._from_arrays(name, columns[name].dtype, data, mask)
            )
            keys.append(-codes if descending else codes)
        if keys:
            # np.lexsort treats its *last* key as primary and is stable
            # — exactly the ops.sort_by kernel, batch-restricted.
            order = np.lexsort(tuple(reversed(keys)))
            change = np.zeros(max(length - 1, 0), dtype=bool)
            for codes in keys:
                change |= np.diff(codes[order]) != 0
            starts = np.concatenate(
                ([0], np.flatnonzero(change) + 1, [length])
            ).astype(np.int64)
        else:
            order = np.arange(length, dtype=np.intp)
            starts = np.array([0, length], dtype=np.int64)
        handles: dict[str, list[Any]] = {}
        sorted_key_pairs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, (data, mask) in batch.items():
            sdata = data[order]
            smask = mask[order]
            handles[name] = [store.spill(sdata, smask)]
            if name in names:
                sorted_key_pairs[name] = (sdata, smask)
        head_rows = starts[:-1]
        per_column_reps = []
        for name in names:
            sdata, smask = sorted_key_pairs[name]
            # .tolist() converts numpy scalars to Python values, which
            # _sort_key requires (np.int64 is not an ``int`` instance).
            values = sdata[head_rows].tolist()
            missing = smask[head_rows].tolist()
            per_column_reps.append(
                [None if m else v for v, m in zip(values, missing)]
            )
        sort_keys = [
            tuple(_sort_key(reps[j]) for reps in per_column_reps)
            for j in range(len(head_rows))
        ]
        shard_starts = np.array([0, length], dtype=np.int64)
        runs.append(_Run(handles, sort_keys, starts, shard_starts))
    return runs


def _merge_plan(
    runs: Sequence[_Run], descending: bool
) -> list[tuple[int, int, int]]:
    """K-way tournament over run heads → ``(run, start, end)`` segments.

    Pops the globally smallest block, then gallops: consecutive blocks
    of the winning run that still sort before every other run's head
    (ties broken by run index — the global stability rule) coalesce
    into one contiguous segment.
    """
    if descending:
        def wrap(key: tuple) -> Any:
            return _DescendingKey(key)
    else:
        def wrap(key: tuple) -> Any:
            return key

    heap = [
        (wrap(run.sort_keys[0]), r, 0)
        for r, run in enumerate(runs)
        if run.n_blocks
    ]
    heapq.heapify(heap)
    plan: list[tuple[int, int, int]] = []
    while heap:
        _, r, j = heapq.heappop(heap)
        run = runs[r]
        if heap:
            head_key, head_r = heap[0][0], heap[0][1]
            j_end = j + 1
            while j_end < run.n_blocks:
                key = wrap(run.sort_keys[j_end])
                if key < head_key or (key == head_key and r < head_r):
                    j_end += 1
                else:
                    break
        else:
            j_end = run.n_blocks
        start = int(run.block_starts[j])
        end = int(run.block_starts[j_end])
        if plan and plan[-1][0] == r and plan[-1][2] == start:
            plan[-1] = (r, plan[-1][1], end)
        else:
            plan.append((r, start, end))
        if j_end < run.n_blocks:
            heapq.heappush(heap, (wrap(run.sort_keys[j_end]), r, j_end))
    return plan


def _plan_segments(
    name: str,
    runs: Sequence[_Run],
    plan: Sequence[tuple[int, int, int]],
    store: SpillStore,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One column's rows in merge order, shard loads LRU-bounded."""
    for r, start, end in plan:
        yield from runs[r].segment_pairs(name, store, start, end)


def _merge_group(
    group: Sequence[_Run],
    descending: bool,
    store: SpillStore,
    shard_rows: int,
) -> _Run:
    """Collapse a contiguous group of runs into one multi-shard run.

    One intermediate merge pass: the group's merge plan is materialized
    column by column into budget/4-capped shards, and the merged run's
    block index is stitched from the source blocks in plan order
    (adjacent equal keys coalesce). Because groups are contiguous in run
    order, the run-index stability rule keeps holding across passes.
    Source shards are released as soon as the merged run exists.
    """
    plan = _merge_plan(group, descending)
    total = sum(int(run.block_starts[-1]) for run in group)
    lengths = chunk_lengths_for(total, shard_rows)
    handles: dict[str, list[Any]] = {}
    for name in group[0].handles:
        handles[name] = [
            store.spill(data, mask)
            for data, mask in _resliced_pairs(
                _plan_segments(name, group, plan, store), lengths
            )
        ]
    sort_keys: list[tuple] = []
    bounds = [0]
    for r, start, end in plan:
        run = group[r]
        block_starts = run.block_starts
        j = int(np.searchsorted(block_starts, start))
        position = start
        while position < end:
            block_end = min(int(block_starts[j + 1]), end)
            key = run.sort_keys[j]
            if sort_keys and sort_keys[-1] == key:
                bounds[-1] += block_end - position
            else:
                sort_keys.append(key)
                bounds.append(bounds[-1] + (block_end - position))
            position = block_end
            j += 1
    shard_starts = np.concatenate(
        ([0], np.cumsum(np.asarray(lengths, dtype=np.int64)))
    ).astype(np.int64)
    merged = _Run(
        handles, sort_keys, np.asarray(bounds, dtype=np.int64), shard_starts
    )
    for run in group:
        run.release(store)
    return merged


def _emit_column(
    name: str,
    dtype: str,
    runs: Sequence[_Run],
    plan: Sequence[tuple[int, int, int]],
    out_lengths: Sequence[int],
    store: SpillStore,
) -> SpilledChunkedColumn:
    """Gather one column through the merge plan into spilled out-shards.

    Each plan segment loads its run shards through the store's LRU (so
    residency stays budget-bounded) and slices; the segment stream is
    re-cut at the output chunk boundaries and spilled shard by shard.
    """
    handles = [
        store.spill(data, mask)
        for data, mask in _resliced_pairs(
            _plan_segments(name, runs, plan, store), out_lengths
        )
    ]
    return SpilledChunkedColumn.from_handles(name, dtype, handles, store)


def external_sort_by(
    frame: DataFrame,
    columns: Sequence[str],
    descending: bool = False,
    store: SpillStore | None = None,
) -> ChunkedFrame:
    """Sort out-of-core; bit-identical to ``ops.sort_by`` (see module doc).

    The result is a :class:`~repro.dataframe.chunked.ChunkedFrame` of
    spilled columns backed by ``store`` (default: the input's own store,
    else a fresh one). Intermediate run shards are released before
    returning; the input frame's shards are never touched.
    """
    names = list(columns)
    for name in names:
        frame.column(name)  # preserve KeyError on unknown columns
    if store is None:
        store = spill_store_of(frame) or SpillStore()
    n = frame.num_rows
    batch_rows = max(
        1, store.budget_bytes // (_RUN_BUDGET_FRACTION * _per_row_bytes(frame))
    )
    batch_lengths = chunk_lengths_for(n, batch_rows)
    runs = _generate_runs(frame, names, descending, store, batch_lengths)
    # Bounded fan-in: one column is gathered at a time, and a run's
    # single-column shard is ~1/(4 * num_columns) of the budget, so this
    # many run shards stay resident without LRU thrash (see module doc).
    fan_in = max(2, _RUN_BUDGET_FRACTION * max(1, frame.num_columns))
    try:
        while len(runs) > fan_in:
            runs = [
                _merge_group(runs[g : g + fan_in], descending, store, batch_rows)
                if len(runs[g : g + fan_in]) > 1
                else runs[g]
                for g in range(0, len(runs), fan_in)
            ]
        plan = _merge_plan(runs, descending)
        out_lengths = chunk_lengths_for(n, batch_rows)
        dtypes = frame.dtypes()
        return ChunkedFrame(
            _emit_column(name, dtypes[name], runs, plan, out_lengths, store)
            for name in frame.column_names
        )
    finally:
        for run in runs:
            run.release(store)
