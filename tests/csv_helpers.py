"""CSV helpers shared by the CSV differential suites and the ingest suite.

``read_csv_text`` and the retained per-cell reference come from
``benchmarks/csv_reference.py``, loaded once here. The rest is the
adversarial token alphabet, the ``csv_tables`` strategy over it, a
renderer of raw token rows, and the exact ``snapshot`` of a frame the
suites compare. A test imports them with ``from csv_helpers import ...``
(pytest puts ``tests/`` on the path when it loads ``tests/conftest.py``;
a ``from conftest import`` could resolve to ``benchmarks/conftest.py``
when both are loaded).
"""

from __future__ import annotations

import csv
import importlib.util
import io
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from repro.dataframe import DataFrame
from repro.dataframe.types import NULL_TOKENS


def _load_csv_reference():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "csv_reference.py"
    spec = importlib.util.spec_from_file_location("_csv_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


csv_reference = _load_csv_reference()
read_csv_text = csv_reference.read_csv_text

#: The adversarial token alphabet of the CSV differential suites.
INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)

NULLS = sorted(NULL_TOKENS) + [
    token.upper() for token in NULL_TOKENS if token
] + ["  NA ", " n/a", "Null ", "\tnone", "-nan", "NaN", "+NAN"]
BOOLS = ["true", "T", " yes", "no", "False", "f", "TRUE"]
INTS = [
    "1", "0", "-0", "007", "+5", "1_000", "١٢", "42", " 17 ",
    str(INT64_MAX), str(INT64_MAX + 1), str(INT64_MAX - 1),
    str(INT64_MIN), str(INT64_MIN - 1), str(INT64_MIN + 1),
    str(10**30), str(-(10**30)), "9007199254740993", "-9007199254740995",
]
FLOATS = ["inf", "-Infinity", "-0.0", "1e16", "2.5", "1.0", "-3.25", "0.1"]
STRINGS = ["0x10", "x", " padded ", "a,b", 'say "hi"', "two\nlines", "é"]
ALPHABET = NULLS + BOOLS + INTS + FLOATS + STRINGS

#: Per-column token pools, so columns settle on every dtype, not only string.
POOLS = {
    "any": ALPHABET,
    "numeric": NULLS + INTS + FLOATS,
    "int": NULLS + INTS,
    "bool": NULLS + BOOLS + ["1", "0"],
    "float": NULLS + FLOATS,
}

repr_floats = st.floats(allow_nan=False, allow_infinity=True).map(repr)


@st.composite
def csv_tables(draw, max_rows: int = 24):
    """Header plus rows of raw tokens, one pool per column."""
    n_columns = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, max_rows))
    header = [f"c{index}" for index in range(n_columns)]
    columns = []
    for _ in range(n_columns):
        pool = draw(st.sampled_from(sorted(POOLS)))
        token = st.one_of(st.sampled_from(POOLS[pool]), repr_floats)
        if pool == "any":
            token = st.sampled_from(POOLS[pool])
        columns.append(draw(st.lists(token, min_size=n_rows, max_size=n_rows)))
    return header, [list(row) for row in zip(*columns)]


def render(header, rows, delimiter=",", line_end="\n") -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator=line_end)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def cell_key(value):
    """Exact identity of one value: its type and repr (-0.0 != 0.0)."""
    return type(value).__name__, repr(value)


def snapshot(frame: DataFrame):
    return [
        (
            name,
            column.dtype,
            np.asarray(column.values_array()).dtype.str,
            [cell_key(value) for value in column.values()],
        )
        for name, column in ((n, frame.column(n)) for n in frame.column_names)
    ], frame.column_fingerprints()
