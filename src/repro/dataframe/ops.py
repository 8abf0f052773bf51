"""Relational operations over DataFrames: sort, group-by, join.

Vectorized contract (the codes-based relational kernels)
--------------------------------------------------------
Every operation here runs on the integer group codes exposed by
:meth:`repro.dataframe.Column.codes` / :meth:`repro.dataframe.DataFrame.column_codes`
instead of per-cell ``frame.at`` loops:

* ``sort_by`` — lexicographic stable argsort over per-column *order
  codes* (codes remapped so their integer order matches the documented
  value order: numbers before strings, missing last). ``descending=True``
  negates each column's codes independently, which reverses the value
  order while keeping ties in original row order (stable). A
  ``strategy`` seam (explicit > ``DATALENS_SORT_STRATEGY`` > auto)
  routes spilled inputs through the external merge sort in
  :mod:`repro.dataframe.sort`, which reuses these exact order-code
  semantics per run so both plans are bit-identical.
* ``group_indices`` / ``group_by`` — one stable argsort of the composite
  key codes; group boundaries come from code changes in the sorted
  array. Groups are emitted in first-occurrence order (matching the
  historical dict-insertion order) and row lists are ascending. Missing
  key cells group together (``None`` matches ``None``) and are
  represented by the private :data:`_MISSING_KEY` singleton inside key
  tuples — a sentinel no genuine cell value can equal.
* ``inner_join`` — a hash join expressed as shared code arrays: both
  frames' key columns are factorized jointly so equal values get equal
  codes across frames, the right side is sorted once, and left rows are
  matched via ``searchsorted`` + a vectorized slice expansion. Rows with
  *any* missing key cell never match (SQL semantics), unlike group-by
  where null keys form a group. Output rows keep the seed order (left
  row order, then right row order within a key) and columns are gathered
  with ``take`` so dtypes are preserved (an empty join result keeps the
  input dtypes instead of decaying to ``string``).
* ``group_by`` aggregation dispatch — the common aggregators may be
  requested by name (``"sum"``, ``"mean"``, ``"min"``, ``"max"``,
  ``"count"``, ``"first"``) or by the matching Python builtins
  (``sum``/``min``/``max``/``len``); on numeric, bool, and int64-backed
  columns they run as masked numpy reductions (``bincount`` /
  ``reduceat``) whose accumulation order matches the pure-Python
  per-group fold bit for bit. Arbitrary callables — and named
  aggregators over object-backed columns — fall back to per-group Python
  lists of the non-missing values in row order, exactly the historical
  behaviour. Aggregating an all-missing group yields ``None`` for every
  aggregator, including ``count``.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from . import types as _types
from .column import Column
from .frame import DataFrame


class _MissingKeySentinel:
    """Private singleton marking a missing cell inside a group-key tuple.

    Cell values are coerced to ``str``/``int``/``float``/``bool``/``None``
    on ingestion, so no genuine value can ever compare equal to this
    sentinel (the historical ``("__missing__",)`` tuple could collide
    with nothing after coercion either, but only by accident — this makes
    the guarantee structural).
    """

    __slots__ = ()
    _instance: "_MissingKeySentinel | None" = None

    def __new__(cls) -> "_MissingKeySentinel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<missing-key>"


_MISSING_KEY = _MissingKeySentinel()


def _sort_key(value: Any) -> tuple:
    """Total order over heterogenous cell values; missing sorts last.

    Numbers compare exactly (Python int/float comparison is exact even
    beyond float precision), so huge ints never collide.
    """
    if value is None:
        return (2, 0)
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))


def _order_codes(column: Column) -> np.ndarray:
    """Per-row int64 codes whose integer order equals the value order.

    Equal cells share a code, the codes of distinct values are ordered by
    :func:`_sort_key` (numbers first, then strings, missing last). For
    numeric/bool columns on native numpy backing, :meth:`Column.codes`
    already follows value order; object-backed columns (strings, or int
    columns that overflowed to object) get their first-seen codes
    remapped through a sorted-representatives rank table.
    """
    codes, n_groups = column.codes()
    has_missing = bool(column.mask().any())
    n_valid = n_groups - 1 if has_missing else n_groups
    if n_valid <= 1 or column.values_array().dtype != object:
        return codes
    valid = ~column.mask()
    payload = column.values_array()[valid]
    valid_codes = codes[valid]
    # np.unique returns the sorted distinct codes 0..n_valid-1, so
    # first_index[i] is the first occurrence of code i.
    _, first_index = np.unique(valid_codes, return_index=True)
    representatives = payload[first_index].tolist()
    by_value = sorted(range(n_valid), key=lambda i: _sort_key(representatives[i]))
    rank = np.empty(n_groups, dtype=np.int64)
    rank[np.asarray(by_value, dtype=np.int64)] = np.arange(n_valid, dtype=np.int64)
    if has_missing:
        rank[n_valid] = n_valid
    return rank[codes]


def sort_by(
    frame: DataFrame,
    columns: Sequence[str],
    descending: bool = False,
    strategy: str | None = None,
) -> DataFrame:
    """Return the frame sorted by the given columns (stable).

    Tied keys keep their original row order in both directions:
    ``descending=True`` negates each column's order codes rather than
    reversing the sorted output, so stability is preserved.

    ``strategy`` picks the physical plan (explicit >
    ``DATALENS_SORT_STRATEGY`` > auto): ``memory`` is the dense
    lexsort below; ``external`` routes through
    :func:`repro.dataframe.sort.external_sort_by`, the spill-aware
    merge sort whose output is a spilled ChunkedFrame. ``auto`` picks
    ``external`` exactly when an input column is spilled (the memory
    plan would densify it). Both plans are bit-identical — same values,
    order, dtypes — differing only in the output's storage class.
    """
    from .sort import external_sort_by, resolve_sort_strategy

    if resolve_sort_strategy(strategy, frame) == "external":
        return external_sort_by(frame, columns, descending=descending)
    n = frame.num_rows
    names = list(columns)
    if n == 0 or not names:
        for name in names:
            frame.column(name)  # preserve KeyError on unknown columns
        return frame.take(np.arange(n, dtype=np.intp))
    keys = [_order_codes(frame.column(name)) for name in names]
    if descending:
        keys = [-key for key in keys]
    # np.lexsort treats its *last* key as primary and is stable.
    order = np.lexsort(tuple(reversed(keys)))
    return frame.take(order)


def _group_layout(
    frame: DataFrame, columns: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared grouping machinery for ``group_indices``/``group_by``.

    Returns ``(order, starts, ends, appearance, first_rows)`` where
    ``order`` is a stable argsort of the composite key codes (so each
    group occupies one slice ``order[starts[g]:ends[g]]`` with ascending
    row indices), ``first_rows[g]`` is the first row of group ``g``, and
    ``appearance`` lists group ids in first-occurrence order.
    """
    n = frame.num_rows
    codes, _ = frame.column_codes(columns, dense=False)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    first_rows = order[starts]
    appearance = np.argsort(first_rows, kind="stable")
    return order, starts, ends, appearance, first_rows


def group_indices(
    frame: DataFrame, columns: Sequence[str]
) -> dict[tuple[Hashable, ...], list[int]]:
    """Map each distinct key tuple to the row indices holding it.

    Keys appear in first-occurrence order; row lists are ascending.
    Missing key cells are represented by the private ``_MISSING_KEY``
    singleton inside the tuple (``None`` groups with ``None``).
    """
    names = list(columns)
    if frame.num_rows == 0:
        for name in names:
            frame.column(name)  # preserve KeyError on unknown columns
        return {}
    order, starts, ends, appearance, first_rows = _group_layout(frame, names)
    key_lists = [frame.column(name).values() for name in names]
    groups: dict[tuple[Hashable, ...], list[int]] = {}
    starts_list = starts.tolist()
    ends_list = ends.tolist()
    first_list = first_rows.tolist()
    for g in appearance.tolist():
        first = first_list[g]
        key = tuple(
            _MISSING_KEY if values[first] is None else values[first]
            for values in key_lists
        )
        groups[key] = order[starts_list[g] : ends_list[g]].tolist()
    return groups


# ----------------------------------------------------------------------
# Aggregation dispatch
# ----------------------------------------------------------------------
_FAST_AGG_NAMES = frozenset({"sum", "mean", "min", "max", "count", "first"})

#: Builtin callables recognized as fast aggregators (matched by identity).
_CALLABLE_AGGS: dict[Any, str] = {sum: "sum", len: "count", min: "min", max: "max"}

#: Pure-Python equivalents used when a *named* aggregator cannot take the
#: vectorized path (object-backed column) — each receives the non-missing
#: values of one group in row order.
_NAMED_FALLBACKS: dict[str, Callable[[list[Any]], Any]] = {
    "sum": sum,
    "count": len,
    "min": min,
    "max": max,
    "mean": lambda values: sum(values) / len(values),
    "first": lambda values: values[0],
}


def _resolve_aggregator(func: Any) -> tuple[str | None, Callable | None]:
    """Split an aggregation spec into (fast-path kind, fallback callable)."""
    if isinstance(func, str):
        if func not in _FAST_AGG_NAMES:
            raise ValueError(
                f"unknown aggregator {func!r}; named aggregators are "
                f"{sorted(_FAST_AGG_NAMES)}"
            )
        return func, _NAMED_FALLBACKS[func]
    try:
        kind = _CALLABLE_AGGS.get(func)
    except TypeError:  # unhashable callable
        kind = None
    return kind, func


def _python_scalar(value: Any, dtype: str) -> Any:
    """Cast a numpy reduction result to the Python type the fallback yields."""
    if dtype == _types.BOOL:
        return bool(value)
    if dtype == _types.INT:
        return int(value)
    return float(value)


def _fast_aggregate(
    column: Column,
    kind: str,
    order: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    appearance: np.ndarray,
) -> list[Any] | None:
    """Vectorized per-group aggregation; None when the fast path can't run.

    The accumulation order of the reductions matches the per-group
    Python fold over non-missing values in row order, so results are
    bit-identical to the fallback (``bincount`` adds weights
    sequentially; integer ``reduceat`` is exact in any order).
    """
    data = column.values_array()
    mask = column.mask()
    numeric_like = column.is_numeric() or column.dtype == _types.BOOL
    if kind not in ("count", "first") and (
        not numeric_like or data.dtype == object
    ):
        return None

    n_groups = len(starts)
    valid_sorted = ~mask[order]
    prefix = np.concatenate(([0], np.cumsum(valid_sorted)))
    counts = prefix[ends] - prefix[starts]

    if kind == "count":
        return [int(c) if c else None for c in counts[appearance].tolist()]

    if kind == "first":
        valid_positions = np.flatnonzero(valid_sorted)
        slot = np.searchsorted(valid_positions, starts)
        results: list[Any] = []
        for g in appearance.tolist():
            s = slot[g]
            if s < len(valid_positions) and valid_positions[s] < ends[g]:
                results.append(column[int(order[valid_positions[s]])])
            else:
                results.append(None)
        return results

    present = counts > 0
    compact = data[order][valid_sorted]
    if compact.dtype == np.bool_:
        compact = compact.astype(np.int64)
    compact_starts = prefix[starts][present]
    counts_list = counts.tolist()
    appearance_list = appearance.tolist()

    if kind in ("sum", "mean"):
        if compact.dtype == np.int64:
            # Exact integer sums (matches the arbitrary-precision Python
            # fold for any total within int64); a float shadow sum flags
            # groups whose true total would overflow int64, in which
            # case the caller falls back to exact Python arithmetic.
            group_ids = np.repeat(np.arange(n_groups), counts)
            shadow = np.bincount(
                group_ids, weights=compact.astype(float), minlength=n_groups
            )
            if shadow.size and np.abs(shadow).max() > float(2**62):
                return None
            sums = np.zeros(n_groups, dtype=np.int64)
            if present.any():
                sums[present] = np.add.reduceat(compact, compact_starts)
            sums_list = sums.tolist()
            if kind == "sum":
                return [
                    sums_list[g] if counts_list[g] else None
                    for g in appearance_list
                ]
            # Python int/int division is correctly rounded, matching the
            # reference ``sum(values) / len(values)`` exactly.
            return [
                sums_list[g] / counts_list[g] if counts_list[g] else None
                for g in appearance_list
            ]
        # float64 input: bincount accumulates weights sequentially in row
        # order — the same addition sequence as the Python per-group fold.
        group_ids = np.repeat(np.arange(n_groups), counts)
        sums = np.bincount(group_ids, weights=compact, minlength=n_groups)
        sums_list = sums.tolist()
        if kind == "sum":
            return [
                sums_list[g] if counts_list[g] else None for g in appearance_list
            ]
        return [
            sums_list[g] / counts_list[g] if counts_list[g] else None
            for g in appearance_list
        ]

    ufunc = np.minimum if kind == "min" else np.maximum
    reduced_present = (
        ufunc.reduceat(compact, compact_starts)
        if present.any()
        else np.zeros(0, dtype=compact.dtype)
    )
    out_dtype = column.dtype  # min/max of bools is a bool, like Python
    slot_of_group = np.cumsum(present) - 1
    results: list[Any] = []
    for g in appearance_list:
        if counts_list[g]:
            results.append(
                _python_scalar(reduced_present[slot_of_group[g]], out_dtype)
            )
        else:
            results.append(None)
    return results


def _aggregate(
    column: Column,
    func: Any,
    order: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    appearance: np.ndarray,
) -> list[Any]:
    kind, callback = _resolve_aggregator(func)
    if kind is not None:
        fast = _fast_aggregate(column, kind, order, starts, ends, appearance)
        if fast is not None:
            return fast
        callback = callback if callback is not None else _NAMED_FALLBACKS[kind]
    values = column.values()
    results: list[Any] = []
    starts_list = starts.tolist()
    ends_list = ends.tolist()
    for g in appearance.tolist():
        rows = order[starts_list[g] : ends_list[g]].tolist()
        group_values = [values[i] for i in rows if values[i] is not None]
        results.append(callback(group_values) if group_values else None)
    return results


def group_by(
    frame: DataFrame,
    columns: Sequence[str],
    aggregations: Mapping[str, tuple[str, Any]],
) -> DataFrame:
    """Group rows and aggregate.

    ``aggregations`` maps output column name to ``(input_column, agg)``
    where ``agg`` is either a callable receiving the list of non-missing
    input values per group (row order) or one of the named fast
    aggregators ``"sum"``/``"mean"``/``"min"``/``"max"``/``"count"``/
    ``"first"``. Groups appear in first-occurrence order; all-missing
    groups aggregate to ``None``.
    """
    from .chunked import ChunkedFrame

    if isinstance(frame, ChunkedFrame):
        from .spill import spill_store_of

        if frame.n_chunks > 1 or spill_store_of(frame) is not None:
            # Chunk-native pushdown: per-chunk partials with exact merge
            # (bit-identical contract documented in repro.dataframe.joins).
            from .joins import grouped_aggregate

            return grouped_aggregate(frame, columns, aggregations)
    names = list(columns)
    out: dict[str, list[Any]] = {name: [] for name in names}
    out.update({name: [] for name in aggregations})
    if frame.num_rows == 0:
        for name in names:
            frame.column(name)
        for _, (in_name, func) in aggregations.items():
            frame.column(in_name)
            _resolve_aggregator(func)
        return DataFrame.from_dict(out)
    order, starts, ends, appearance, first_rows = _group_layout(frame, names)
    appearance_list = appearance.tolist()
    first_list = first_rows.tolist()
    for name in names:
        values = frame.column(name).values()
        out[name] = [values[first_list[g]] for g in appearance_list]
    for out_name, (in_name, func) in aggregations.items():
        out[out_name] = _aggregate(
            frame.column(in_name), func, order, starts, ends, appearance
        )
    return DataFrame.from_dict(out)


# ----------------------------------------------------------------------
# Join
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


def inner_join(
    left: DataFrame,
    right: DataFrame,
    on: Sequence[str],
    suffix: str = "_right",
) -> DataFrame:
    """Hash inner join on equality of the ``on`` columns.

    Overlapping non-key columns from the right side get ``suffix``
    appended. Rows whose key contains a missing cell never match. The
    output keeps left row order (then right row order within a key) and
    preserves the input column dtypes.

    The physical execution lives in :mod:`repro.dataframe.joins`: the
    planner there picks the in-memory joint-codes probe for resident
    inputs or the partitioned hash join (bucketing shards by key hash,
    spilling buckets) when either input is spilled, both bit-identical;
    ``DATALENS_JOIN_STRATEGY`` overrides the choice.
    """
    from .joins import join

    return join(left, right, on, how="inner", suffix=suffix)


def value_counts_frame(frame: DataFrame, column: str) -> DataFrame:
    """Two-column frame of (value, count) sorted by descending count.

    Ties keep first-occurrence order, matching ``Counter.most_common``.
    """
    col = frame.column(column)
    codes, n_groups = col.codes()
    mask = col.mask()
    valid = ~mask
    if not valid.any():
        return DataFrame.from_dict({column: [], "count": []})
    n_valid_groups = n_groups - 1 if mask.any() else n_groups
    valid_rows = np.flatnonzero(valid)
    valid_codes = codes[valid_rows]
    counts = np.bincount(valid_codes, minlength=n_valid_groups)
    _, first_index = np.unique(valid_codes, return_index=True)
    first_rows = valid_rows[first_index]
    order = np.lexsort((first_rows, -counts))
    values = col.values_array()[first_rows][order].tolist()
    return DataFrame.from_dict(
        {column: values, "count": counts[order].tolist()}
    )
