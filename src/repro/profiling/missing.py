"""Missing-data analysis: counts, patterns, and co-missingness.

Everything here is computed from the columns' boolean null masks
(:meth:`~repro.dataframe.Column.mask`) stacked into one matrix — no
per-cell Python loops. The kernels iterate the frame's row chunks
(:meth:`~repro.dataframe.DataFrame.iter_chunks`; a monolithic frame is
one chunk) and merge per-chunk partials exactly: missing counts and
co-missingness matrices are integer sums, and pattern tables merge
``(packed key → count, first row)`` pairs with summed counts and the
minimum global row index, which reproduces the monolithic ranking
(count desc, first occurrence asc) bit for bit.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..dataframe import DataFrame
from ..dataframe.types import pack_bool_rows


def _mask_matrix(frame: DataFrame) -> np.ndarray:
    """(n_rows, n_columns) boolean matrix of missing cells."""
    if not frame.num_columns:
        return np.zeros((frame.num_rows, 0), dtype=bool)
    return np.column_stack(
        [np.asarray(frame.column(name).mask()) for name in frame.column_names]
    )


def missing_summary(frame: DataFrame) -> dict[str, Any]:
    """Overall and per-column missing-cell statistics."""
    column_counts = np.zeros(frame.num_columns, dtype=np.int64)
    rows_with_missing = 0
    for chunk in frame.iter_chunks():
        matrix = _mask_matrix(chunk)
        column_counts += matrix.sum(axis=0, dtype=np.int64)
        rows_with_missing += int(matrix.any(axis=1).sum())
    per_column = {
        name: int(count)
        for name, count in zip(frame.column_names, column_counts)
    }
    total_cells = frame.num_rows * frame.num_columns
    total_missing = int(column_counts.sum())
    return {
        "total_cells": total_cells,
        "missing_cells": total_missing,
        "missing_fraction": total_missing / total_cells if total_cells else 0.0,
        "per_column": per_column,
        "per_column_fraction": {
            name: count / frame.num_rows if frame.num_rows else 0.0
            for name, count in per_column.items()
        },
        "rows_with_missing": rows_with_missing,
        "complete_rows": frame.num_rows - rows_with_missing,
    }


def missing_patterns(frame: DataFrame, top_k: int = 10) -> list[dict[str, Any]]:
    """Most frequent row-level missingness patterns.

    A pattern is the tuple of column names missing in a row; the empty
    pattern (complete rows) is included. Patterns are ranked by count,
    ties broken by first occurrence — the same order a Counter built row
    by row would produce.
    """
    if frame.num_rows == 0:
        return []
    if frame.num_columns and frame.num_columns <= 62:
        return _missing_patterns_packed(frame, top_k)
    # Wide-table fallback: int64 bit keys would overflow, group raw rows.
    matrix = _mask_matrix(frame)
    patterns, inverse, counts = np.unique(
        matrix, axis=0, return_inverse=True, return_counts=True
    )
    inverse = inverse.reshape(-1)
    first_seen = np.full(len(patterns), frame.num_rows, dtype=np.int64)
    np.minimum.at(first_seen, inverse, np.arange(frame.num_rows))
    order = np.lexsort((first_seen, -counts))
    names = np.array(frame.column_names, dtype=object)
    return [
        {
            "missing_columns": list(names[patterns[index]]),
            "rows": int(counts[index]),
        }
        for index in order[:top_k]
    ]


def _missing_patterns_packed(
    frame: DataFrame, top_k: int
) -> list[dict[str, Any]]:
    """Pattern table via per-chunk int64 bit keys, merged exactly.

    Each chunk contributes ``(key → count, first global row)`` pairs;
    counts add and first-seen rows take the minimum, so the final
    ranking is identical to one whole-table pass.
    """
    merged: dict[int, list[int]] = {}
    weights: np.ndarray | None = None
    offset = 0
    for chunk in frame.iter_chunks():
        matrix = _mask_matrix(chunk)
        packed = pack_bool_rows(matrix)
        assert packed is not None  # caller guarantees <= 62 columns
        keys, weights = packed
        pattern_keys, first_index, counts = np.unique(
            keys, return_index=True, return_counts=True
        )
        for key, first, count in zip(
            pattern_keys.tolist(), first_index.tolist(), counts.tolist()
        ):
            entry = merged.get(key)
            if entry is None:
                merged[key] = [count, offset + first]
            else:
                entry[0] += count
        offset += chunk.num_rows
    names = np.array(frame.column_names, dtype=object)
    ranked = sorted(
        merged.items(), key=lambda item: (-item[1][0], item[1][1])
    )
    results = []
    for key, (count, _) in ranked[:top_k]:
        pattern = (np.int64(key) & weights).astype(bool)
        results.append(
            {"missing_columns": list(names[pattern]), "rows": int(count)}
        )
    return results
