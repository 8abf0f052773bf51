"""Retained per-cell reference for the CSV boundary.

This module preserves the historical row-at-a-time implementations that
the block kernels in :mod:`repro.dataframe.io` replaced: rendering walks
the rows and formats every cell through ``_render``; parsing runs
``parse_token`` on every cell and hands the rows to
``DataFrame.from_rows``, which infers, coerces and packs each column as
a whole.

It is the ground truth for two consumers:

* ``tests/dataframe/test_csv_differential.py`` pins every reader and
  writer to these semantics (bytes, dtypes, backing dtypes, values and
  fingerprints) over an adversarial token alphabet;
* ``benchmarks/bench_csv_scale.py`` times the kernels against this
  reference at 100k×10 and re-checks identity at that scale.

It also holds :func:`read_csv_text`, which is not a reference: the block
kernel ``read_csv`` runs, applied to a string, for the tests and
benchmarks that parse CSV text.
"""

from __future__ import annotations

import csv
import io
from typing import Any

from repro.dataframe import DataFrame
from repro.dataframe import types as _types
from repro.dataframe.io import _BLOCK_ROWS, _parse_csv


def reference_render(value: Any) -> str:
    """Format one cell the way the writer always has."""
    if _types.is_missing(value):
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def reference_to_csv_text(frame: DataFrame, delimiter: str = ",") -> str:
    """Render a frame one row tuple, and one cell, at a time.

    Walks the chunks like the writer always has, so a spilled frame is
    rendered shard by shard instead of densified.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    writer.writerow(frame.column_names)
    for chunk in frame.iter_chunks():
        columns = [chunk.column(name) for name in chunk.column_names]
        for i in range(chunk.num_rows):
            writer.writerow([reference_render(column[i]) for column in columns])
    return buffer.getvalue()


def reference_read_csv_text(text: str, delimiter: str = ",") -> DataFrame:
    """Parse every cell with ``parse_token``, then build the whole frame."""
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows = list(reader)
    if not rows:
        raise ValueError("CSV input is empty (no header row)")
    header = [name.strip() for name in rows[0]]
    parsed = [[_types.parse_token(token) for token in row] for row in rows[1:]]
    return DataFrame.from_rows(parsed, header)


def read_csv_text(text: str, delimiter: str = ",") -> DataFrame:
    """CSV text parsed by the kernel ``read_csv`` runs on a file of it:
    blocks of ``_BLOCK_ROWS`` rows consolidated into one frame, with no
    spill store and no fault site."""
    return _parse_csv(io.StringIO(text), delimiter, _BLOCK_ROWS).to_monolithic()
