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

* **One order kernel.** Run generation and every merge window order
  their rows with :func:`~repro.dataframe.ops._sort_order`, the kernel
  ``ops.sort_by`` uses (codes negated per column for ``descending``).
  Its order codes are local to the rows it is given, but their *order*
  is the global value order (:func:`~repro.dataframe.ops._sort_key`:
  numbers before strings, missing last), and equal values share a code
  (``0.0`` ties with ``-0.0``), so local and global comparisons agree on
  every row pair.
* **Ties break by run index, then by row.** Runs cover consecutive row
  ranges in input order and each run is internally stable. A merge
  window concatenates its runs' rows in run order and the kernel is
  stable, so equal keys keep their input order.
* **A row is emitted only when no unread row can precede it** (the emit
  rule below).

Plan choice
-----------
``ops.sort_by`` calls :func:`external_sort_by` exactly when an input
column is spilled (the memory plan would densify it); a resident frame
is sorted in memory.

Cost model
----------
Runs are cut at ``budget // (4 * bytes_per_row)`` rows, so one run, the
merge's resident LRU traffic, and the output chunk under assembly all
fit comfortably inside the spill budget.

A merge of ``k`` runs is a sequence of window steps. Each step reads the
next ``window = budget // (4 * k * key_bytes_per_row)`` key rows of
every live run, so the windows together hold about a quarter of the
budget, and orders them with the kernel. A run is *open* when it has
rows beyond its window; each of those sorts after the run's last
windowed row (its key sorts no earlier, its run is the same, its
position later). So the step emits the sorted prefix up to and including
the earliest-sorting last windowed row of any open run (everything when
no run is open). No unread row can precede an emitted one, and the
prefix holds that open run's whole window, so every step advances by at
least one window. Each emitted row appends its run index to the *tape*,
one small integer per merged row held in RAM; each run's cursor advances
by its emitted count, and the rest of its window is read again by the
next step.

The tape then drives the gather, one column at a time: each output shard
takes one slice of each run's next rows, concatenates the slices in run
order and scatters them to their tape positions with one stable argsort
of the tape slice. The store is consulted about once per run, column and
output shard, not once per interleaved segment.

The merge fan-in is bounded at ``4 * num_columns`` live runs (one column
is gathered at a time, and a run's single-column shard is
~``1/(4 * num_columns)`` of the budget, so that many run shards fit
resident simultaneously). Inputs that generate more runs than the
fan-in are merged in passes — groups of ``fan_in`` *contiguous* runs
collapse into one multi-shard run per pass, preserving the run-index
stability rule — so the shards one merge reads fit the LRU together
instead of thrashing it.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Mapping, Sequence

import numpy as np

from . import types as _types
from .chunked import ChunkedFrame, _concat_payload, chunk_lengths_for
from .column import Column
from .frame import DataFrame
from .ops import _sort_order
from .spill import SpilledChunkedColumn, SpillStore, spill_store_of

#: Payload-byte estimate per row for object-backed cells (strings,
#: overflowed ints) when sizing runs and merge windows — deliberately
#: generous so they undershoot the budget rather than overshoot it.
_OBJECT_ROW_BYTES = 64

#: A run is cut at budget/4 so the run being built, the merge's LRU
#: traffic, and the output chunk under assembly never sum past the
#: budget; a merge's windows hold about budget/4 of key rows.
_RUN_BUDGET_FRACTION = 4


def _row_bytes(dtypes: Mapping[str, str], names: Sequence[str]) -> int:
    """Estimated payload+mask bytes per row across the named columns."""
    total = 0
    for name in names:
        np_dtype = np.dtype(_types.NUMPY_DTYPES[dtypes[name]])
        payload = _OBJECT_ROW_BYTES if np_dtype == object else np_dtype.itemsize
        total += payload + 1  # +1 mask byte
    return max(total, 1)


def _concat_pairs(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """One ``(data, mask)`` pair from several, in order."""
    data, masks = zip(*pairs)
    return _concat_payload(data), np.concatenate(masks)


def _release(run: ChunkedFrame) -> None:
    """Free a run's records once — safe to call again after."""
    for name in run.column_names:
        run.column(name)._release_spill()


def _generate_runs(
    frame: DataFrame,
    names: Sequence[str],
    descending: bool,
    store: SpillStore,
    batch_lengths: Sequence[int],
) -> list[ChunkedFrame]:
    """Cut the frame into size-capped batches, sort and spill each.

    Each batch is a range read of every column (spilled inputs load only
    the shards that cover it, through the store's LRU), so at most one
    batch of rows is resident while runs are generated. A run is a frame
    of one-shard spilled columns.
    """
    dtypes = frame.dtypes()
    runs: list[ChunkedFrame] = []
    bounds = zip(accumulate(batch_lengths, initial=0), accumulate(batch_lengths))
    for start, stop in bounds:
        batch = {
            name: frame.column(name).row_range(start, stop) for name in dtypes
        }
        keys = [
            Column._from_arrays(name, dtypes[name], *batch[name]) for name in names
        ]
        order = _sort_order(keys, stop - start, descending)
        runs.append(
            ChunkedFrame(
                SpilledChunkedColumn.from_handles(
                    name, dtypes[name], [store.spill(data[order], mask[order])], store
                )
                for name, (data, mask) in batch.items()
            )
        )
    return runs


def _merge_tape(
    group: Sequence[ChunkedFrame],
    dtypes: Mapping[str, str],
    keys: Sequence[str],
    descending: bool,
    store: SpillStore,
) -> np.ndarray:
    """Run index of every merged row, in merge order (see module doc)."""
    # All runs' windows together hold about budget/4 of key rows (an
    # empty frame has no runs).
    window = max(
        1,
        store.budget_bytes
        // (_RUN_BUDGET_FRACTION * max(len(group), 1) * _row_bytes(dtypes, keys)),
    )
    sizes = np.array([run.num_rows for run in group], dtype=np.int64)
    cursors = np.zeros(len(group), dtype=np.int64)
    run_ids = np.arange(len(group), dtype=np.min_scalar_type(len(group)))
    tape = np.empty(int(sizes.sum()), dtype=run_ids.dtype)
    done = 0
    while done < len(tape):
        live = np.flatnonzero(cursors < sizes)
        starts = cursors[live]
        ends = np.minimum(starts + window, sizes[live])
        counts = ends - starts
        spans = list(zip(live.tolist(), starts.tolist(), ends.tolist()))
        columns = [
            Column._from_arrays(
                name,
                dtypes[name],
                *_concat_pairs(
                    [group[r].column(name).row_range(lo, hi) for r, lo, hi in spans]
                ),
            )
            for name in keys
        ]
        order = _sort_order(columns, int(counts.sum()), descending)
        tails = np.zeros(len(order), dtype=bool)
        tails[(np.cumsum(counts) - 1)[ends < sizes[live]]] = True
        cut = int(np.argmax(tails[order])) + 1 if tails.any() else len(order)
        emitted = np.repeat(run_ids[live], counts)[order[:cut]]
        tape[done : done + cut] = emitted
        done += cut
        cursors += np.bincount(emitted, minlength=len(group))
    return tape


def _gather(
    name: str,
    group: Sequence[ChunkedFrame],
    tape: np.ndarray,
    lengths: Sequence[int],
    store: SpillStore,
) -> list[Any]:
    """Spill one column's merged rows as shards of ``lengths`` rows.

    Each shard takes one slice of each run's next rows, concatenated in
    run order, and scatters them to their tape positions: a stable
    argsort of the tape slice lists those positions in run order.
    """
    cursors = [0] * len(group)
    handles = []
    done = 0
    for length in lengths:
        piece = tape[done : done + length]
        done += length
        pairs = []
        for r, count in enumerate(np.bincount(piece, minlength=len(group)).tolist()):
            if count:
                pairs.append(
                    group[r].column(name).row_range(cursors[r], cursors[r] + count)
                )
                cursors[r] += count
        data, mask = _concat_pairs(pairs)
        slots = np.argsort(piece, kind="stable")
        out_data = np.empty(length, dtype=data.dtype)
        out_mask = np.empty(length, dtype=bool)
        out_data[slots] = data
        out_mask[slots] = mask
        handles.append(store.spill(out_data, out_mask))
    return handles


def _merge(
    group: Sequence[ChunkedFrame],
    dtypes: Mapping[str, str],
    keys: Sequence[str],
    descending: bool,
    store: SpillStore,
    shard_rows: int,
) -> ChunkedFrame:
    """Merge a contiguous group of runs into one run of ``shard_rows`` shards.

    Writes both the intermediate passes and the final output. Because
    groups are contiguous in run order, the run-index stability rule
    keeps holding across passes. The group's shards are released as soon
    as the merged run exists.
    """
    tape = _merge_tape(group, dtypes, keys, descending, store)
    lengths = chunk_lengths_for(len(tape), shard_rows)
    merged = ChunkedFrame(
        SpilledChunkedColumn.from_handles(
            name, dtype, _gather(name, group, tape, lengths, store), store
        )
        for name, dtype in dtypes.items()
    )
    for run in group:
        _release(run)
    return merged


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
    dtypes = frame.dtypes()
    shard_rows = max(
        1,
        store.budget_bytes
        // (_RUN_BUDGET_FRACTION * _row_bytes(dtypes, frame.column_names)),
    )
    runs = _generate_runs(
        frame, names, descending, store, chunk_lengths_for(frame.num_rows, shard_rows)
    )
    # Bounded fan-in: one column is gathered at a time, and a run's
    # single-column shard is ~1/(4 * num_columns) of the budget, so this
    # many run shards stay resident without LRU thrash (see module doc).
    fan_in = max(2, _RUN_BUDGET_FRACTION * max(1, frame.num_columns))
    try:
        while len(runs) > fan_in:
            runs = [
                _merge(
                    runs[g : g + fan_in], dtypes, names, descending, store, shard_rows
                )
                if len(runs) - g > 1
                else runs[g]
                for g in range(0, len(runs), fan_in)
            ]
        merged = _merge(runs, dtypes, names, descending, store, shard_rows)
    finally:
        for run in runs:
            _release(run)
    return merged
