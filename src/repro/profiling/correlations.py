"""Correlation measures between columns (numeric and categorical).

The matrix builders accept an optional executor (any object with a
``map(fn, iterable)`` preserving input order, e.g. a
``concurrent.futures.ThreadPoolExecutor``): per-column preparation and
per-pair correlation tasks then run concurrently. Each pair is computed
independently with the same kernel on the same arrays, and results are
written back in deterministic pair order, so parallel output is
bit-identical to serial output.

With a ``store`` (:class:`~repro.core.artifacts.ArtifactStore`), pair
values are cached by the two columns' content fingerprints and Spearman
full-column ranks are cached per column — after a repair dirties one
column, only the pairs (and the one rank vector) touching it recompute;
per-column preparation (numpy export, validity masks) runs only for the
columns that still appear in an uncached pair. Cached values replay the
same kernels' output for identical content, so the matrix stays
bit-identical to a cold run.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..dataframe import DataFrame


class _SerialExecutor:
    """Fallback executor: plain in-thread map."""

    def map(self, fn: Callable, *iterables: Iterable):
        return map(fn, *iterables)


def _ordered_map(executor, fn: Callable, items: Sequence) -> list:
    """Run ``fn`` over ``items`` (possibly in parallel), preserving order."""
    return list((executor or _SerialExecutor()).map(fn, items))


def _rank(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean of their rank block), vectorized."""
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=float)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=is_start[1:])
    group_ids = np.cumsum(is_start) - 1
    starts = np.flatnonzero(is_start)
    ends = np.append(starts[1:], n)
    # Block of tied positions [start, end) shares rank (start+end-1)/2 + 1.
    block_rank = (starts + ends - 1) / 2.0 + 1.0
    ranks = np.empty(n, dtype=float)
    ranks[order] = block_rank[group_ids]
    return ranks


def _cramers_from_codes(
    left_codes: np.ndarray, n_left: int, right_codes: np.ndarray, n_right: int
) -> float:
    """Bias-corrected Cramér's V from dense level codes (no missing)."""
    if n_left < 2 or n_right < 2:
        return 0.0
    table = (
        np.bincount(left_codes * n_right + right_codes, minlength=n_left * n_right)
        .reshape(n_left, n_right)
        .astype(float)
    )
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.nansum(
            np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
        )
    phi2 = chi2 / n
    rows, cols = table.shape
    phi2_corrected = max(0.0, phi2 - (rows - 1) * (cols - 1) / (n - 1))
    rows_corrected = rows - (rows - 1) ** 2 / (n - 1)
    cols_corrected = cols - (cols - 1) ** 2 / (n - 1)
    denominator = min(rows_corrected - 1, cols_corrected - 1)
    if denominator <= 0:
        return 0.0
    return float(np.sqrt(phi2_corrected / denominator))


def _compress_codes(codes: np.ndarray, n_groups: int) -> tuple[np.ndarray, int]:
    """Re-densify codes after filtering may have emptied some levels."""
    counts = np.bincount(codes, minlength=n_groups)
    present = counts > 0
    remap = np.cumsum(present) - 1
    return remap[codes], int(present.sum())


def _pearson_core(xs: np.ndarray, ys: np.ndarray) -> float:
    """Pearson over already-aligned, nan-free samples."""
    std_x = np.std(xs)
    std_y = np.std(ys)
    if std_x == 0.0 or std_y == 0.0:
        return 0.0
    return float(np.mean((xs - xs.mean()) * (ys - ys.mean())) / (std_x * std_y))


def _float_samples(column) -> np.ndarray:
    """Column as a float array with nan at missing slots, copy-free when safe.

    A complete float64 column is returned as its read-only backing view
    (the pair kernels only read); anything else takes the same
    ``to_numpy`` copy-and-nan path as before. Values are identical
    either way, so pair results are unchanged. Multi-shard and spilled
    columns go straight to ``to_numpy`` so shards are gathered without
    pinning dense storage on the column.
    """
    if getattr(column, "n_chunks", 1) > 1 or getattr(column, "spilled", False):
        return column.to_numpy()
    data = column.values_array()
    if data.dtype == np.float64 and not np.asarray(column.mask()).any():
        return np.asarray(data)
    return column.to_numpy()


def _all_pairs(names: list[str]) -> list[tuple[str, str]]:
    return [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
    ]


def _split_cached_pairs(
    store, kind: str, pairs: list, fingerprints: dict[str, str]
) -> tuple[dict, list]:
    """Partition ``pairs`` into cached values and a to-compute list."""
    resolved: dict = {}
    todo: list = []
    for a, b in pairs:
        hit, value = store.get(kind, (fingerprints[a], fingerprints[b]), ())
        if hit:
            resolved[(a, b)] = value
        else:
            todo.append((a, b))
    return resolved, todo


def _assemble_matrix(
    names: list[str], values_by_pair: dict
) -> tuple[list[str], np.ndarray]:
    matrix = np.eye(len(names))
    index = {name: position for position, name in enumerate(names)}
    for (a, b), value in values_by_pair.items():
        if value != 0.0:
            matrix[index[a], index[b]] = value
            matrix[index[b], index[a]] = value
    return names, matrix


def correlation_matrix(
    frame: DataFrame, method: str = "pearson", executor=None, store=None
) -> tuple[list[str], np.ndarray]:
    """Numeric correlation matrix by Pearson or Spearman.

    Validity masks are computed once per column, and Spearman ranks are
    reused for every pair without missing values — only pairwise-
    incomplete pairs pay for a re-rank. With ``executor``, column
    preparation and pair correlations run concurrently. With ``store``,
    pair values are served by content fingerprint and full-column ranks
    persist across calls; preparation is lazy, touching only columns
    that appear in an uncached pair.
    """
    if method not in ("pearson", "spearman"):
        raise ValueError("method must be 'pearson' or 'spearman'")
    names = frame.numeric_column_names()
    pairs = _all_pairs(names)
    values_by_pair: dict = {}
    todo = pairs
    fingerprints: dict[str, str] = {}
    if store:  # falsy when disabled: cold path, no fingerprint hashing
        fingerprints = {
            name: frame.column(name).fingerprint() for name in names
        }
        values_by_pair, todo = _split_cached_pairs(
            store, f"corr:{method}", pairs, fingerprints
        )
    needed = list(dict.fromkeys(name for pair in todo for name in pair))
    arrays = dict(
        zip(
            needed,
            _ordered_map(
                executor,
                lambda name: _float_samples(frame.column(name)),
                needed,
            ),
        )
    )
    valid = {name: ~np.isnan(arrays[name]) for name in needed}
    full_ranks: dict[str, np.ndarray] = {}
    if method == "spearman":
        complete_names = [name for name in needed if bool(valid[name].all())]
        if store:
            ranked = []
            for name in complete_names:
                hit, value = store.get("corr:rank", (fingerprints[name],), ())
                if hit:
                    full_ranks[name] = value
                else:
                    ranked.append(name)
        else:
            ranked = complete_names
        computed_ranks = _ordered_map(
            executor, lambda name: _rank(arrays[name]), ranked
        )
        for name, ranks in zip(ranked, computed_ranks):
            full_ranks[name] = ranks
            if store:
                store.put("corr:rank", (fingerprints[name],), (), ranks)

    def _pair_value(pair: tuple[str, str]) -> float:
        a, b = pair
        mask = valid[a] & valid[b]
        if int(mask.sum()) < 2:
            return 0.0
        if method == "pearson":
            return _pearson_core(arrays[a][mask], arrays[b][mask])
        if bool(mask.all()):
            return _pearson_core(full_ranks[a], full_ranks[b])
        return _pearson_core(_rank(arrays[a][mask]), _rank(arrays[b][mask]))

    values = _ordered_map(executor, _pair_value, todo)
    for (a, b), value in zip(todo, values):
        values_by_pair[(a, b)] = value
        if store:
            store.put(
                f"corr:{method}", (fingerprints[a], fingerprints[b]), (), value
            )
    return _assemble_matrix(names, values_by_pair)


def categorical_association_matrix(
    frame: DataFrame, executor=None, store=None
) -> tuple[list[str], np.ndarray]:
    """Cramér's V matrix across categorical columns.

    Runs on the columns' cached integer codes and null masks; each pair
    costs one boolean filter, two code compressions, and one bincount.
    With ``executor``, pairs are computed concurrently; with ``store``,
    pair values are served by content fingerprint and codes/masks are
    pulled only for columns appearing in an uncached pair.
    """
    names = frame.categorical_column_names()
    pairs = _all_pairs(names)
    values_by_pair: dict = {}
    todo = pairs
    fingerprints: dict[str, str] = {}
    if store:  # falsy when disabled: cold path, no fingerprint hashing
        fingerprints = {
            name: frame.column(name).fingerprint() for name in names
        }
        values_by_pair, todo = _split_cached_pairs(
            store, "corr:cramers_v", pairs, fingerprints
        )
    needed = list(dict.fromkeys(name for pair in todo for name in pair))
    codes = {name: frame.column(name).codes() for name in needed}
    masks = {name: np.asarray(frame.column(name).mask()) for name in needed}

    def _pair_value(pair: tuple[str, str]) -> float:
        a, b = pair
        keep = ~(masks[a] | masks[b])
        if int(keep.sum()) < 2:
            return 0.0
        left_codes, n_left = _compress_codes(codes[a][0][keep], codes[a][1])
        right_codes, n_right = _compress_codes(codes[b][0][keep], codes[b][1])
        return _cramers_from_codes(left_codes, n_left, right_codes, n_right)

    values = _ordered_map(executor, _pair_value, todo)
    for (a, b), value in zip(todo, values):
        values_by_pair[(a, b)] = value
        if store:
            store.put(
                "corr:cramers_v", (fingerprints[a], fingerprints[b]), (), value
            )
    return _assemble_matrix(names, values_by_pair)


def pairs_from_matrix(
    names: list[str], matrix: np.ndarray, threshold: float
) -> list[tuple[str, str, float]]:
    """Column pairs of an existing correlation matrix with |r| >= threshold."""
    pairs = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if abs(matrix[i, j]) >= threshold:
                pairs.append((names[i], names[j], float(matrix[i, j])))
    return pairs


def highly_correlated_pairs(
    frame: DataFrame, threshold: float = 0.9, method: str = "pearson"
) -> list[tuple[str, str, float]]:
    """Column pairs whose |correlation| meets the threshold."""
    names, matrix = correlation_matrix(frame, method)
    return pairs_from_matrix(names, matrix, threshold)
