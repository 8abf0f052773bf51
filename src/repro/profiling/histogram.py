"""Histogram computation for the profile report's distribution plots.

A numeric histogram is one ``np.histogram`` call over the column's
non-missing values, gathered from its chunks in row order, so every
chunk layout bins exactly like the monolithic column. Categorical
histograms ride on the chunk-merged ``value_counts`` frequency tables.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..dataframe import Column
from ..dataframe.chunked import compressed_chunks, gather_compressed


def numeric_histogram(column: Column, bins: int = 20) -> dict[str, Any]:
    """Equal-width histogram of a numeric column's non-missing values."""
    values = gather_compressed(compressed_chunks(column))
    if len(values) == 0:
        return {"bin_edges": [], "counts": []}
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts, edges = np.histogram(values, bins=bins)
    return {
        "bin_edges": [float(edge) for edge in edges],
        "counts": [int(count) for count in counts],
    }


def categorical_histogram(column: Column, top_k: int = 15) -> dict[str, Any]:
    """Frequency bars for the most common categories (+ grouped remainder)."""
    counts = column.value_counts()
    common = counts.most_common(top_k)
    other = sum(counts.values()) - sum(count for _, count in common)
    labels = [str(value) for value, _ in common]
    values = [int(count) for _, count in common]
    if other > 0:
        labels.append("(other)")
        values.append(int(other))
    return {"labels": labels, "counts": values}


def histogram(column: Column, bins: int = 20, top_k: int = 15) -> dict[str, Any]:
    """Type-appropriate histogram for one column."""
    if column.is_numeric():
        return {"kind": "numeric", **numeric_histogram(column, bins)}
    return {"kind": "categorical", **categorical_histogram(column, top_k)}
