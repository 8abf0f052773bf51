"""Per-column descriptive statistics for the Data Profile tab.

All numeric measures are computed directly from the column's typed
backing arrays (:meth:`~repro.dataframe.Column.values_array` plus null
mask) — no per-cell Python casts on the hot path.

The numeric kernel is chunk-aware: it gathers the per-chunk compressed
payloads of :meth:`~repro.dataframe.Column.iter_chunks` (a monolithic
column is one chunk) into one array, in row order, and computes every
statistic from that array, so the results are bit-identical to the
monolithic engine whatever the chunk layout.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..dataframe import Column
from ..dataframe.chunked import compressed_chunks, gather_compressed

__all__ = [
    "categorical_summary",
    "column_summary",
    "compressed_chunks",
    "gather_compressed",
    "numeric_summary",
]


def numeric_summary(column: Column) -> dict[str, Any]:
    """Descriptive statistics for a numeric column.

    Includes the measures ydata-profiling reports: central tendency,
    dispersion, quantiles, shape (skew/kurtosis), zeros and negatives.
    """
    values = gather_compressed(compressed_chunks(column))
    count = len(values)
    if count == 0:
        return {"count": 0}
    minimum = float(np.min(values))
    maximum = float(np.max(values))
    zeros = int(np.sum(values == 0.0))
    diffs = np.diff(values)
    quantiles = np.quantile(values, [0.05, 0.25, 0.5, 0.75, 0.95])
    total = float(np.sum(values))
    mean = total / count
    centered = values - mean
    pop_variance = float(np.mean(centered**2))
    pop_std = pop_variance**0.5
    # ddof=1 needs two observations; a lone value has zero dispersion.
    std = (pop_variance * count / (count - 1)) ** 0.5 if count > 1 else 0.0
    return {
        "count": count,
        "mean": mean,
        "std": std,
        "variance": float(std**2),
        "min": minimum,
        "max": maximum,
        "range": maximum - minimum,
        "q05": float(quantiles[0]),
        "q25": float(quantiles[1]),
        "median": float(quantiles[2]),
        "q75": float(quantiles[3]),
        "q95": float(quantiles[4]),
        "iqr": float(quantiles[3] - quantiles[1]),
        "skewness": _skewness(centered, pop_std),
        "kurtosis": _kurtosis(centered, pop_std),
        "sum": total,
        "zeros": zeros,
        "zeros_fraction": zeros / count,
        "negatives": int(np.sum(values < 0.0)),
        "coefficient_of_variation": _coefficient_of_variation(mean, std),
        "monotonic_increasing": bool(np.all(diffs >= 0)),
        "monotonic_decreasing": bool(np.all(diffs <= 0)),
    }


def _coefficient_of_variation(mean: float, std: float) -> float:
    """std/mean — 0.0 for dispersion-free data (even all-zero columns).

    A zero mean with zero spread means every value is identical, which is
    the *least* variable a column can be; only genuine spread around a
    zero mean is unbounded relative variation.
    """
    if mean:
        return std / mean
    return 0.0 if std == 0.0 else float("inf")


def _skewness(centered: np.ndarray, pop_std: float) -> float:
    if len(centered) < 3 or pop_std == 0.0:
        return 0.0
    return float(np.mean((centered / pop_std) ** 3))


def _kurtosis(centered: np.ndarray, pop_std: float) -> float:
    """Excess kurtosis (normal distribution scores 0)."""
    if len(centered) < 4 or pop_std == 0.0:
        return 0.0
    return float(np.mean((centered / pop_std) ** 4) - 3.0)


def categorical_summary(column: Column, top_k: int = 10) -> dict[str, Any]:
    """Descriptive statistics for a string/bool column.

    ``value_counts`` is the chunk-merge point: a chunked column folds
    per-chunk Counters (exact integer addition, first-seen key order
    preserved across sequential chunks), so ``most_common`` tie-breaking
    matches the monolithic scan bit for bit.
    """
    counts = column.value_counts()
    total = sum(counts.values())
    if total == 0:
        return {"count": 0, "distinct": 0}
    mode, mode_count = counts.most_common(1)[0]
    # Length stats need one len() per distinct level, not per cell.
    level_lengths = {value: len(str(value)) for value in counts}
    length_sum = sum(
        length * counts[value] for value, length in level_lengths.items()
    )
    return {
        "count": total,
        "distinct": len(counts),
        "distinct_fraction": len(counts) / total,
        "mode": mode,
        "mode_count": mode_count,
        "mode_fraction": mode_count / total,
        "top_frequencies": [
            {"value": value, "count": count}
            for value, count in counts.most_common(top_k)
        ],
        "min_length": min(level_lengths.values()),
        "max_length": max(level_lengths.values()),
        "mean_length": length_sum / total,
        "entropy": _entropy(list(counts.values())),
    }


def _entropy(counts: list[int]) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    proportions = np.array(counts, dtype=float) / total
    nonzero = proportions[proportions > 0]
    return float(-np.sum(nonzero * np.log2(nonzero)))


def column_summary(column: Column) -> dict[str, Any]:
    """Full per-column profile section (type, missingness, stats)."""
    total = len(column)
    missing = column.missing_count()
    base = {
        "name": column.name,
        "dtype": column.dtype,
        "rows": total,
        "missing": missing,
        "missing_fraction": missing / total if total else 0.0,
        "distinct": len(column.unique()),
        "is_numeric": column.is_numeric(),
    }
    if column.is_numeric():
        base["statistics"] = numeric_summary(column)
    else:
        base["statistics"] = categorical_summary(column)
    return base
