"""Chunk-native physical join operators.

This module turns the dataframe layer into an out-of-core query engine:
joins run chunk by chunk over
:class:`~repro.dataframe.chunked.ChunkedFrame` inputs (spilled shards
stream through the owning :class:`~repro.dataframe.spill.SpillStore`'s
LRU) and only the *result* is densified — query output is monolithic per
the chunking contract, the inputs stay sharded/spilled.

Join plans
----------
``join`` and ``semi_join_mask`` run one plan per residency regime,
picked by :func:`resolve_join_strategy`:

* ``memory`` — the joint-codes hash join (factorize both key sides
  together, sort the right side once, probe with searchsorted).
  Densifies both inputs; the plan for resident frames.
* ``partitioned`` — a Grace-style partitioned hash join: each side's
  chunks are split into buckets by an equality-respecting key hash (the
  bucket count follows from the input size and the store budget),
  bucket pairs are probed independently with the same joint-codes
  kernel, and the per-partition pairs are merged back into global row
  order. When either input is spilled the buckets themselves spill
  through the same store, so peak residency stays at the store budget;
  the plan for out-of-core frames.
* ``auto`` (default) — ``memory`` when both inputs are resident,
  ``partitioned`` when either is spilled.

``DATALENS_JOIN_STRATEGY`` overrides the default strategy process-wide
(CI forces ``partitioned`` to run the whole suite through the
out-of-core path). Both plans produce bit-identical results.

Key-hash partitioning invariants
--------------------------------
The partition hash must respect join equality, which follows Python
``==`` (``2 == 2.0 == True`` across numeric columns; strings never equal
numbers). Numeric values therefore hash through their ``float64`` bit
pattern (``+ 0.0`` first, so ``-0.0`` and ``0.0`` — which are equal —
share a hash; ints beyond 2**53 may collide after rounding, which is
harmless: partitioning only requires that *equal* keys land in the same
bucket, never that unequal keys land apart). Huge object-backed ints
that overflow ``float`` hash as ``±inf``. Strings hash by CRC-32 of
their UTF-8 bytes, a domain that can overlap the numeric hashes —
again harmless. Rows with *any* missing key cell are excluded before
partitioning (SQL join semantics: they can never match), so bucket
shards carry no null masks.

Null semantics of left/outer unmatched rows
-------------------------------------------
``how="left"`` keeps every left row; ``how="outer"`` additionally
appends every unmatched right row (in right row order) after all left
rows. Cells drawn from the absent side are missing (``None``) with the
canonical fill value in the backing array, exactly as if constructed
from ``None`` — null-mask-correct, so fingerprints and downstream
kernels see ordinary missing cells. Outer-join key columns are widened
to :func:`repro.dataframe.types.common_dtype` of the two sides; matched
rows keep the *left* key value, right-only rows the right value, each
coerced by the standard :func:`repro.dataframe.types.coerce` lattice.
Rows whose key contains a missing cell never match — a left row with a
null key survives a left/outer join unmatched, and a right row with a
null key appears in the outer result as a right-only row.

Grouped aggregation
-------------------
Grouped aggregation is not a join and lives in
:func:`repro.dataframe.ops.group_by`, which streams the same chunks
through per-group partial states. The joint-codes kernels below
(:func:`_joint_codes`, :func:`_combine_codes`) are join-only: they code
*two* frames' keys together, where ``group_by`` codes one frame's.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Any, Iterator, Sequence

import numpy as np

from ..settings import resolve
from . import types as _types
from .chunked import _concat_payload
from .column import Column
from .frame import DataFrame
from .spill import SpillStore, spill_store_of

_JOIN_HOWS = ("inner", "left", "outer")


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
def resolve_join_strategy(
    strategy: str | None, left: DataFrame, right: DataFrame
) -> str:
    """Resolve the physical strategy: explicit > environment > auto.

    ``auto`` picks ``partitioned`` when either input is spilled (joining
    through ``memory`` would densify it) and ``memory`` otherwise.
    """
    strategy = resolve("join_strategy", strategy, "strategy")
    if strategy == "auto":
        if spill_store_of(left) is not None or spill_store_of(right) is not None:
            return "partitioned"
        return "memory"
    return strategy


def resolve_join_partitions(
    left: DataFrame, right: DataFrame, store: SpillStore | None
) -> int:
    """Partition count of the ``partitioned`` plan, from the input size.

    With a store, partitions are sized so one bucket pair fits well
    inside the resident budget (~64 bytes of key+row payload per row);
    without one, roughly one partition per 64k input rows.
    """
    total = left.num_rows + right.num_rows
    if store is not None:
        per_row = 64
        derived = -(-per_row * max(total, 1) // max(store.budget_bytes, 1))
        return max(1, min(256, derived))
    return max(1, min(64, total // 65_536 + 1))


# ----------------------------------------------------------------------
# Equality-respecting key hashing (see module docstring invariants)
# ----------------------------------------------------------------------
_HASH_SEED = np.uint64(0x9E3779B97F4A7C15)
_HASH_MULT = np.uint64(0x100000001B3)


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — diffuses the raw value bits per element."""
    h = h.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
    return h


def _scalar_hash(value: Any) -> int:
    if value is None:
        return 0
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8", "surrogatepass"))
    try:
        as_float = float(value) + 0.0
    except OverflowError:
        as_float = math.inf if value > 0 else -math.inf
    return struct.unpack("<Q", struct.pack("<d", as_float))[0]


def _value_hashes(data: np.ndarray) -> np.ndarray:
    """Per-element uint64 hashes; equal (Python ``==``) values hash equal."""
    if data.dtype != object:
        with np.errstate(over="ignore"):
            return (data.astype(np.float64) + 0.0).view(np.uint64)
    out = np.empty(len(data), dtype=np.uint64)
    for i, value in enumerate(data.tolist()):
        out[i] = _scalar_hash(value)
    return out


def _partition_ids(
    key_cols: Sequence[Column], length: int, n_partitions: int
) -> tuple[np.ndarray, np.ndarray]:
    """(valid, partition_id) per row of one chunk's key columns."""
    valid = np.ones(length, dtype=bool)
    combined = np.full(length, _HASH_SEED, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for col in key_cols:
            mask = np.asarray(col.mask())
            valid &= ~mask
            combined = (combined * _HASH_MULT) ^ _mix64(
                _value_hashes(np.asarray(col.values_array()))
            )
    pids = (combined % np.uint64(n_partitions)).astype(np.int64)
    return valid, pids


# ----------------------------------------------------------------------
# Joint-codes probe (shared by both plans, for join and membership)
# ----------------------------------------------------------------------
def _lossy_promotion(l_data: np.ndarray, r_data: np.ndarray) -> bool:
    """True when concatenating would promote int64 values lossily.

    Mixing an int64 key column with a float64 one promotes the ints to
    float64; ints beyond 2**53 would then collide with neighbours they
    are not Python-equal to, so such pairs take the exact dict path.
    """
    kinds = {l_data.dtype.kind, r_data.dtype.kind}
    if kinds != {"i", "f"}:
        return False
    int_side = l_data if l_data.dtype.kind == "i" else r_data
    if not int_side.size:
        return False
    limit = 2**53
    return bool(int_side.max() > limit or int_side.min() < -limit)


def _joint_codes(
    left_column: Column, right_column: Column
) -> tuple[np.ndarray, np.ndarray, int]:
    """Factorize two columns jointly so equal values share codes.

    Equality follows Python ``==`` semantics (so ``2 == 2.0 == True``
    matches across int/float/bool columns, and strings never equal
    numbers). Missing cells receive side-specific codes above the value
    range so a missing left key can never match a missing right key.
    """
    l_data, l_mask = left_column.values_array(), left_column.mask()
    r_data, r_mask = right_column.values_array(), right_column.mask()
    n_left = len(l_data)
    if l_data.dtype != object and r_data.dtype != object and not _lossy_promotion(
        l_data, r_data
    ):
        combined = np.concatenate([l_data, r_data])
        if combined.size:
            _, inverse = np.unique(combined, return_inverse=True)
            span = int(inverse.max()) + 1
        else:
            inverse = np.zeros(0, dtype=np.int64)
            span = 0
        inverse = inverse.astype(np.int64, copy=False)
    else:
        inverse, span = _types.factorize_objects(
            l_data.tolist() + r_data.tolist()
        )
    left_codes = inverse[:n_left].copy()
    right_codes = inverse[n_left:].copy()
    left_codes[l_mask] = span
    right_codes[r_mask] = span + 1
    return left_codes, right_codes, span + 2


def _combine_codes(
    left_codes: np.ndarray,
    right_codes: np.ndarray,
    span: int,
    extra_left: np.ndarray,
    extra_right: np.ndarray,
    extra_span: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Merge one more key column into composite codes (overflow safe)."""
    if extra_span and span > (2**62) // max(extra_span, 1):
        combined = np.concatenate([left_codes, right_codes])
        _, inverse = np.unique(combined, return_inverse=True)
        inverse = inverse.astype(np.int64, copy=False)
        left_codes = inverse[: len(left_codes)]
        right_codes = inverse[len(left_codes) :]
        span = int(inverse.max()) + 1 if inverse.size else 0
    return (
        left_codes * extra_span + extra_left,
        right_codes * extra_span + extra_right,
        span * extra_span,
    )


def _key_codes(
    left_cols: Sequence[Column],
    right_cols: Sequence[Column],
    n_left: int,
    n_right: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Composite joint key codes per side, plus each side's valid rows.

    Works on any aligned key-column lists (full frames or partition
    buckets): each key pair is factorized jointly, so equal values share
    a code across sides, and the pairs fold into one composite code per
    row. Valid rows are those with no missing key cell — the only rows
    that can match.
    """
    left_codes = np.zeros(n_left, dtype=np.int64)
    right_codes = np.zeros(n_right, dtype=np.int64)
    span = 1
    left_missing = np.zeros(n_left, dtype=bool)
    right_missing = np.zeros(n_right, dtype=bool)
    for l_col, r_col in zip(left_cols, right_cols):
        extra_left, extra_right, extra_span = _joint_codes(l_col, r_col)
        left_codes, right_codes, span = _combine_codes(
            left_codes, right_codes, span, extra_left, extra_right, extra_span
        )
        left_missing |= np.asarray(l_col.mask())
        right_missing |= np.asarray(r_col.mask())
    return (
        left_codes,
        right_codes,
        np.flatnonzero(~left_missing),
        np.flatnonzero(~right_missing),
    )


def _probe_pairs(
    left_cols: Sequence[Column],
    right_cols: Sequence[Column],
    n_left: int,
    n_right: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Matched (left_row, right_row) pairs, sorted by (left, right).

    Sorts the right side's composite codes once, probes each valid left
    code with searchsorted, and expands the matching runs.
    """
    left_codes, right_codes, left_rows_valid, right_rows_valid = _key_codes(
        left_cols, right_cols, n_left, n_right
    )
    right_order = right_rows_valid[
        np.argsort(right_codes[right_rows_valid], kind="stable")
    ]
    sorted_right = right_codes[right_order]
    unique_right, unique_starts = np.unique(sorted_right, return_index=True)
    unique_counts = np.diff(
        np.concatenate((unique_starts, [len(sorted_right)]))
    )

    probe = left_codes[left_rows_valid]
    slot = np.searchsorted(unique_right, probe)
    slot_clipped = np.minimum(slot, max(len(unique_right) - 1, 0))
    matched = (
        (slot < len(unique_right)) & (unique_right[slot_clipped] == probe)
        if len(unique_right)
        else np.zeros(len(probe), dtype=bool)
    )
    match_rows = left_rows_valid[matched]
    match_slots = slot[matched]
    match_counts = unique_counts[match_slots]

    left_take = np.repeat(match_rows, match_counts)
    run_starts = unique_starts[match_slots]
    cumulative = np.cumsum(match_counts)
    offsets = (
        np.arange(int(cumulative[-1]), dtype=np.int64)
        - np.repeat(cumulative - match_counts, match_counts)
        if len(match_counts)
        else np.zeros(0, dtype=np.int64)
    )
    right_take = right_order[np.repeat(run_starts, match_counts) + offsets]
    return left_take.astype(np.int64, copy=False), right_take.astype(
        np.int64, copy=False
    )


def _membership(
    left_cols: Sequence[Column],
    right_cols: Sequence[Column],
    n_left: int,
    n_right: int,
) -> np.ndarray:
    """Boolean per left row: does any right row share its (valid) key?"""
    left_codes, right_codes, left_rows, right_rows = _key_codes(
        left_cols, right_cols, n_left, n_right
    )
    out = np.zeros(n_left, dtype=bool)
    out[left_rows] = np.isin(left_codes[left_rows], right_codes[right_rows])
    return out


# ----------------------------------------------------------------------
# Partitioned plan: bucket both sides by key hash, probe bucket pairs
# ----------------------------------------------------------------------
def _row_bytes(payloads: Sequence[np.ndarray]) -> int:
    """Bytes per bucket row: its int64 row id plus the key payload.

    Object payloads get a rough 64 B/row estimate.
    """
    return 8 + sum(
        64 if payload.dtype == object else payload.itemsize
        for payload in payloads
    )


def _partition_side(
    frame: DataFrame,
    key_names: Sequence[str],
    n_partitions: int,
    store: SpillStore | None,
) -> list[list[tuple[Any, list[Any]]]]:
    """Bucket one side's valid-key rows by key hash, chunk by chunk.

    Returns, per partition, a list of contributions
    ``(rows, [key_payload, ...])`` where each element is a raw ndarray
    (in-memory run) or a :class:`ShardHandle` spilled through ``store``.
    Only the key columns are read — one shard at a time through the
    spill LRU for spilled inputs — so partitioning never densifies.

    With a store, consecutive chunks are bucketed together until they
    hold about one budget of row ids and key payload: every bucket
    shard costs a record write and a load, so an input cut into many
    small chunks (an external sort's output) must not spill one tiny
    shard per chunk and partition.
    """
    buckets: list[list[tuple[Any, list[Any]]]] = [
        [] for _ in range(n_partitions)
    ]
    batch: list[tuple[np.ndarray, np.ndarray, list[np.ndarray]]] = []
    batch_bytes = 0
    iters = [frame.column(name).iter_chunks() for name in key_names]
    base = 0
    for length in frame.chunk_lengths:
        cols = [next(it) for it in iters]
        if length == 0:
            continue
        if key_names:
            valid, pids = _partition_ids(cols, length, n_partitions)
        else:
            valid = np.ones(length, dtype=bool)
            pids = np.zeros(length, dtype=np.int64)
        keep = np.flatnonzero(valid)
        payloads = [np.asarray(col.values_array())[keep] for col in cols]
        batch.append((base + keep, pids[keep], payloads))
        batch_bytes += len(keep) * _row_bytes(payloads)
        base += length
        if store is None or batch_bytes >= store.budget_bytes:
            _bucket_batch(batch, buckets, store)
            batch, batch_bytes = [], 0
    if batch:
        _bucket_batch(batch, buckets, store)
    return buckets


def _bucket_batch(
    batch: list[tuple[np.ndarray, np.ndarray, list[np.ndarray]]],
    buckets: list[list[tuple[Any, list[Any]]]],
    store: SpillStore | None,
) -> None:
    """Append one batch of ``(rows, pids, payloads)`` chunk parts to buckets.

    With a store, each partition's rows spill in shards bounded well
    under the store budget, so loading one back cannot push residency
    past the budget (a monolithic input arrives as one huge chunk;
    slicing here is what keeps the ≤-budget guarantee input-shape
    independent). Pickle overhead on object payloads rides in the
    remaining 3/4 headroom.
    """
    rows = np.concatenate([part[0] for part in batch]).astype(
        np.int64, copy=False
    )
    pids = np.concatenate([part[1] for part in batch])
    payloads = [
        _concat_payload([part[2][j] for part in batch])
        for j in range(len(batch[0][2]))
    ]
    step = len(rows)
    if store is not None and store.budget_bytes:
        step = max(1, store.budget_bytes // (4 * _row_bytes(payloads)))
    for p in np.unique(pids).tolist():
        local = np.flatnonzero(pids == p)
        p_rows = rows[local]
        pieces = [payload[local] for payload in payloads]
        if store is None:
            buckets[p].append((p_rows, pieces))
            continue
        for start in range(0, len(local), step):
            rows_slice = p_rows[start : start + step]
            zeros = np.zeros(len(rows_slice), dtype=bool)
            buckets[p].append(
                (
                    store.spill(rows_slice, zeros),
                    [
                        store.spill(piece[start : start + step], zeros)
                        for piece in pieces
                    ],
                )
            )


def _bucket_array(item: Any, store: SpillStore | None) -> np.ndarray:
    return item if isinstance(item, np.ndarray) else store.load(item)[0]


def _load_bucket(
    contribs: list[tuple[Any, list[Any]]],
    key_names: Sequence[str],
    key_dtypes: Sequence[str],
    store: SpillStore | None,
) -> tuple[np.ndarray, list[Column]]:
    """Concatenate one partition's contributions into probe-ready columns."""
    rows_parts: list[np.ndarray] = []
    col_parts: list[list[np.ndarray]] = [[] for _ in key_names]
    for rows_item, piece_items in contribs:
        rows_parts.append(_bucket_array(rows_item, store))
        for j, item in enumerate(piece_items):
            col_parts[j].append(_bucket_array(item, store))
    rows = (
        rows_parts[0]
        if len(rows_parts) == 1
        else np.concatenate(rows_parts)
    ).astype(np.int64, copy=False)
    n = len(rows)
    no_missing = np.zeros(n, dtype=bool)
    cols = [
        Column._from_arrays(
            name, dtype, _concat_payload(parts), no_missing
        )
        for name, dtype, parts in zip(key_names, key_dtypes, col_parts)
    ]
    return rows, cols


def _release_contribs(
    contribs: list[tuple[Any, list[Any]]], store: SpillStore | None
) -> None:
    if store is None:
        return
    for rows_item, piece_items in contribs:
        store.release(rows_item)
        for item in piece_items:
            store.release(item)


def _bucket_pairs(
    left: DataFrame,
    right: DataFrame,
    left_names: Sequence[str],
    right_names: Sequence[str],
) -> Iterator[tuple[np.ndarray, list[Column], np.ndarray, list[Column]]]:
    """Yield ``(l_rows, l_cols, r_rows, r_cols)`` per bucket pair to probe.

    Both sides' valid-key rows are hash-partitioned; buckets spill only
    when an input is spilled, through that input's own store. A bucket
    pair with rows on both sides is loaded for the consumer to probe,
    and every bucket's spilled shards are released before the next pair
    loads, so bucket shards of at most one pair are held at a time.
    ``l_rows``/``r_rows`` map bucket positions back to input row ids.
    """
    store = spill_store_of(left) or spill_store_of(right)
    n_partitions = resolve_join_partitions(left, right, store)
    l_dtypes = [left.column(name).dtype for name in left_names]
    r_dtypes = [right.column(name).dtype for name in right_names]
    l_buckets = _partition_side(left, left_names, n_partitions, store)
    r_buckets = _partition_side(right, right_names, n_partitions, store)
    for l_contribs, r_contribs in zip(l_buckets, r_buckets):
        if l_contribs and r_contribs:
            l_rows, l_cols = _load_bucket(
                l_contribs, left_names, l_dtypes, store
            )
            r_rows, r_cols = _load_bucket(
                r_contribs, right_names, r_dtypes, store
            )
            yield l_rows, l_cols, r_rows, r_cols
        _release_contribs(l_contribs, store)
        _release_contribs(r_contribs, store)


def _join_pairs_partitioned(
    left: DataFrame, right: DataFrame, key_names: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    lp_parts = [np.zeros(0, dtype=np.int64)]
    rp_parts = [np.zeros(0, dtype=np.int64)]
    for l_rows, l_cols, r_rows, r_cols in _bucket_pairs(
        left, right, key_names, key_names
    ):
        left_take, right_take = _probe_pairs(
            l_cols, r_cols, len(l_rows), len(r_rows)
        )
        lp_parts.append(l_rows[left_take])
        rp_parts.append(r_rows[right_take])
    lp = np.concatenate(lp_parts)
    rp = np.concatenate(rp_parts)
    order = np.lexsort((rp, lp))
    return lp[order], rp[order]


# ----------------------------------------------------------------------
# Pair expansion (left/outer) and output assembly
# ----------------------------------------------------------------------
def _expand_pairs(
    how: str, n_left: int, n_right: int, lp: np.ndarray, rp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Convert matched pairs into aligned output row indices.

    ``-1`` marks "no row on this side": left rows without a match keep
    one output row with a missing right side (left/outer), and outer
    appends unmatched right rows — ascending — after all left rows.
    """
    if how == "inner":
        return lp, rp
    if n_left == 0:
        left_idx = np.zeros(0, dtype=np.int64)
        right_idx = np.zeros(0, dtype=np.int64)
    else:
        counts = np.bincount(lp, minlength=n_left)
        out_counts = np.maximum(counts, 1)
        starts = np.concatenate(([0], np.cumsum(out_counts)[:-1]))
        first_pair = np.concatenate(([0], np.cumsum(counts)[:-1]))
        left_idx = np.repeat(
            np.arange(n_left, dtype=np.int64), out_counts
        )
        right_idx = np.full(int(out_counts.sum()), -1, dtype=np.int64)
        if len(lp):
            positions = starts[lp] + (
                np.arange(len(lp), dtype=np.int64) - first_pair[lp]
            )
            right_idx[positions] = rp
    if how == "outer":
        matched_right = np.zeros(n_right, dtype=bool)
        matched_right[rp] = True
        right_only = np.flatnonzero(~matched_right).astype(np.int64)
        left_idx = np.concatenate(
            [left_idx, np.full(len(right_only), -1, dtype=np.int64)]
        )
        right_idx = np.concatenate([right_idx, right_only])
    return left_idx, right_idx


class _GatherPlan:
    """One output row-index array shared by every gathered column.

    Caches the stable argsort the spilled streaming path needs, so a
    wide spilled side sorts its indices once, not once per column.
    """

    __slots__ = ("idx", "_order", "_sorted")

    def __init__(self, idx: np.ndarray) -> None:
        self.idx = np.asarray(idx, dtype=np.int64)
        self._order: np.ndarray | None = None
        self._sorted: np.ndarray | None = None

    def order_and_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        if self._order is None:
            self._order = np.argsort(self.idx, kind="stable")
            self._sorted = self.idx[self._order]
        return self._order, self._sorted


def _gather_arrays(
    column: Column, plan: _GatherPlan
) -> tuple[np.ndarray, np.ndarray]:
    """Gather ``column`` at ``plan.idx`` (-1 = missing) into fresh arrays.

    Unspilled columns take one fancy-index (the in-memory fast path);
    spilled columns stream shard by shard through the store's LRU so the
    input stays spilled. Missing output slots hold the canonical fill
    value with the mask set — the standard storage invariant.
    """
    idx = plan.idx
    n = len(idx)
    dtype = column.dtype
    fill = _types.FILL_VALUES[dtype]
    out_missing = idx < 0
    if not getattr(column, "spilled", False):
        src = np.asarray(column.values_array())
        src_mask = np.asarray(column.mask())
        if len(src) == 0:
            data = np.full(n, fill, dtype=_types.NUMPY_DTYPES[dtype])
            return data, out_missing.copy()
        safe = np.where(out_missing, 0, idx)
        data = src[safe]
        mask = src_mask[safe] | out_missing
        if out_missing.any():
            data[out_missing] = fill
        return data, mask
    data = np.full(n, fill, dtype=_types.NUMPY_DTYPES[dtype])
    mask = out_missing.copy()
    order, sorted_idx = plan.order_and_sorted()
    lo = int(np.searchsorted(sorted_idx, 0))
    start = 0
    for chunk in column.iter_chunks():
        end = start + len(chunk)
        hi = int(np.searchsorted(sorted_idx, end))
        if hi > lo:
            positions = order[lo:hi]
            local = idx[positions] - start
            vals = chunk.values_array()[local]
            if vals.dtype != data.dtype:
                # An int column can mix int64 and object shards; the
                # gathered array normalizes to object-backed Python ints
                # exactly like the dense concatenation does.
                if data.dtype != object:
                    data = data.astype(object)
                vals = vals.astype(object)
            data[positions] = vals
            mask[positions] = chunk.mask()[local]
        lo = hi
        start = end
    return data, mask


def _gather_column(
    column: Column, plan: _GatherPlan, out_name: str
) -> Column:
    data, mask = _gather_arrays(column, plan)
    return Column._from_arrays(out_name, column.dtype, data, mask)


def _merged_key_column(
    name: str,
    left_col: Column,
    right_col: Column,
    left_plan: _GatherPlan,
    right_plan: _GatherPlan,
) -> Column:
    """Outer-join key column: left value when present, else right.

    Same-dtype sides splice the gathered arrays directly (coercion to
    the common dtype is the identity); mixed dtypes go through the
    :class:`Column` constructor so every cell is coerced exactly like a
    reference frame built with ``from_dict(..., dtypes=...)``.
    """
    out_dtype = _types.common_dtype(left_col.dtype, right_col.dtype)
    left_data, left_mask = _gather_arrays(left_col, left_plan)
    right_data, right_mask = _gather_arrays(right_col, right_plan)
    take_right = left_plan.idx < 0
    if left_col.dtype == right_col.dtype:
        if left_data.dtype != right_data.dtype:
            left_data = left_data.astype(object)
            right_data = right_data.astype(object)
        left_data[take_right] = right_data[take_right]
        left_mask[take_right] = right_mask[take_right]
        return Column._from_arrays(name, out_dtype, left_data, left_mask)
    left_values = left_data.tolist()
    right_values = right_data.tolist()
    values = [
        (None if r_missing else r_value)
        if from_right
        else (None if l_missing else l_value)
        for from_right, l_value, l_missing, r_value, r_missing in zip(
            take_right.tolist(),
            left_values,
            left_mask.tolist(),
            right_values,
            right_mask.tolist(),
        )
    ]
    return Column(name, values, out_dtype)


def _assemble(
    left: DataFrame,
    right: DataFrame,
    key_names: Sequence[str],
    suffix: str,
    how: str,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
) -> DataFrame:
    left_names = left.column_names
    right_extra = [
        name for name in right.column_names if name not in key_names
    ]
    renamed = {
        name: (name + suffix if name in left_names else name)
        for name in right_extra
    }
    if len(set(renamed.values())) != len(renamed):
        raise ValueError(
            f"suffix {suffix!r} produces colliding output column names "
            f"among right columns {right_extra}"
        )
    left_plan = _GatherPlan(left_idx)
    right_plan = _GatherPlan(right_idx)
    columns: list[Column] = []
    for name in left_names:
        if how == "outer" and name in key_names:
            columns.append(
                _merged_key_column(
                    name,
                    left.column(name),
                    right.column(name),
                    left_plan,
                    right_plan,
                )
            )
        else:
            columns.append(_gather_column(left.column(name), left_plan, name))
    for name in right_extra:
        columns.append(
            _gather_column(right.column(name), right_plan, renamed[name])
        )
    return DataFrame(columns)


# ----------------------------------------------------------------------
# Public API: join and semi-join membership
# ----------------------------------------------------------------------
def join(
    left: DataFrame,
    right: DataFrame,
    on: Sequence[str],
    how: str = "inner",
    suffix: str = "_right",
    strategy: str | None = None,
) -> DataFrame:
    """Equality join with a pluggable physical strategy.

    See the module docstring for the plan and null contracts. Partition
    buckets spill only when an input is already spilled, through that
    input's own store.
    """
    key_names = list(on)
    if how not in _JOIN_HOWS:
        raise ValueError(
            f"unknown join type {how!r}; expected one of {list(_JOIN_HOWS)}"
        )
    for name in key_names:
        left.column(name)
        right.column(name)
    if resolve_join_strategy(strategy, left, right) == "memory":
        lp, rp = _probe_pairs(
            [left.column(name) for name in key_names],
            [right.column(name) for name in key_names],
            left.num_rows,
            right.num_rows,
        )
    else:
        lp, rp = _join_pairs_partitioned(left, right, key_names)
    left_idx, right_idx = _expand_pairs(
        how, left.num_rows, right.num_rows, lp, rp
    )
    return _assemble(left, right, key_names, suffix, how, left_idx, right_idx)


def semi_join_mask(
    left: DataFrame,
    right: DataFrame,
    on: Sequence[str],
    right_on: Sequence[str] | None = None,
    strategy: str | None = None,
) -> np.ndarray:
    """Per left row, True when its key exists among the right rows.

    Rows with a missing key cell are False (they match nothing). The
    key columns pair positionally with ``right_on`` (default: the same
    names). Runs the same ``memory``/``partitioned`` plans as
    :func:`join`; under ``auto`` spilled inputs take ``partitioned``
    and stay spilled.
    """
    left_names = list(on)
    right_names = list(right_on) if right_on is not None else left_names
    if len(left_names) != len(right_names):
        raise ValueError(
            f"on has {len(left_names)} columns but right_on has "
            f"{len(right_names)}"
        )
    for l_name, r_name in zip(left_names, right_names):
        left.column(l_name)
        right.column(r_name)
    if resolve_join_strategy(strategy, left, right) == "memory":
        return _membership(
            [left.column(name) for name in left_names],
            [right.column(name) for name in right_names],
            left.num_rows,
            right.num_rows,
        )
    out = np.zeros(left.num_rows, dtype=bool)
    for l_rows, l_cols, r_rows, r_cols in _bucket_pairs(
        left, right, left_names, right_names
    ):
        member = _membership(l_cols, r_cols, len(l_rows), len(r_rows))
        out[l_rows[member]] = True
    return out
