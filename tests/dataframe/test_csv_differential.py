"""Differential oracle for the CSV boundary.

Every reader and writer in :mod:`repro.dataframe.io` runs a block kernel
that classifies and renders whole columns. They must be exactly the
per-cell code retained in ``benchmarks/csv_reference.py``: the writers
produce its bytes, and the readers produce its dtypes, backing dtypes,
values and column fingerprints. This holds at every chunk size, with and
without a spill store, with declared dtypes and for ``,`` and ``\\t``
delimiters, over an adversarial token alphabet: every null spelling in
mixed case and with padding, bool spellings, ints at the int64 limits,
ints beyond 2**53, digit strings ``int`` accepts (``007``, ``+5``,
``1_000``, ``١٢``), floats (``inf``, ``-0.0``, ``1e16`` and random
``repr`` floats), and quoted fields.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import (
    DataFrame,
    SpillStore,
    read_csv,
    read_csv_chunked,
    read_csv_stream,
    read_csv_text,
    to_csv_text,
    write_csv,
)
from repro.dataframe.types import DTYPES, NULL_TOKENS


def _load_reference():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "csv_reference.py"
    spec = importlib.util.spec_from_file_location("_csv_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load_reference()

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


def outcome(build):
    try:
        return snapshot(build()), None
    except (ValueError, OverflowError) as error:
        return None, (type(error), str(error))


def chunk_sizes(n_rows: int) -> list[int]:
    return sorted({s for s in (1, 2, 257, n_rows - 1, n_rows, n_rows + 1) if s >= 1})


def assert_readers_match(
    text: str, tmp_path: Path, delimiter=",", dtypes=None, sizes=None
):
    expected, expected_error = outcome(
        lambda: ref.reference_read_csv_text(text, delimiter=delimiter, dtypes=dtypes)
    )
    path = tmp_path / "input.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)
    kw = dict(delimiter=delimiter, dtypes=dtypes)
    monolithic = {
        "read_csv": lambda: read_csv(path, **kw),
        "read_csv_text": lambda: read_csv_text(text, **kw),
    }
    chunked = {}
    n_rows = max(text.count("\n") - 1, 0)
    for size in sizes or chunk_sizes(n_rows):
        for spill in ("off", "512B"):
            def store(spill=spill):
                if spill == "off":
                    return False
                return SpillStore(budget_bytes=512, directory=tmp_path / "spill")

            ckw = dict(kw, chunk_size=size)
            chunked[("read_csv_chunked", size, spill)] = (
                lambda ckw=ckw, store=store: read_csv_chunked(path, spill=store(), **ckw)
            )
            chunked[("read_csv_stream", size, spill)] = (
                lambda ckw=ckw, store=store: read_csv_stream(
                    io.StringIO(text), spill=store(), **ckw
                )
            )
    for label, build in {**monolithic, **chunked}.items():
        got, error = outcome(build)
        # Failures match too: the first failing column in header order,
        # at its first bad cell, whatever block that cell falls in.
        assert error == expected_error, (label, error)
        assert got == expected, label


def assert_writers_match(frame: DataFrame, tmp_path: Path, delimiter=","):
    expected = ref.reference_to_csv_text(frame, delimiter=delimiter)
    layouts = [frame]
    if frame.num_rows:
        for size in sorted({1, 2, max(frame.num_rows - 1, 1), frame.num_rows}):
            layouts.append(frame.to_chunked(size))
            layouts.append(
                frame.to_chunked(
                    size, spill=SpillStore(budget_bytes=512, directory=tmp_path / "s")
                )
            )
    path = tmp_path / "out.csv"
    for layout in layouts:
        assert to_csv_text(layout, delimiter=delimiter) == expected
        write_csv(layout, path, delimiter=delimiter)
        with open(path, newline="", encoding="utf-8") as handle:
            assert handle.read() == expected


class TestReaders:
    @settings(max_examples=40, deadline=None)
    @given(table=csv_tables(), delimiter=st.sampled_from([",", "\t"]),
           line_end=st.sampled_from(["\n", "\r\n"]))
    def test_readers_match_reference(self, tmp_path_factory, table, delimiter,
                                     line_end):
        header, rows = table
        text = render(header, rows, delimiter, line_end)
        assert_readers_match(text, tmp_path_factory.mktemp("csv"), delimiter)

    @settings(max_examples=40, deadline=None)
    @given(table=csv_tables(max_rows=12), data=st.data())
    def test_declared_dtypes_match_reference(self, tmp_path_factory, table, data):
        header, rows = table
        dtypes = {
            name: data.draw(st.sampled_from(DTYPES))
            for name in header
            if data.draw(st.booleans())
        }
        text = render(header, rows)
        assert_readers_match(text, tmp_path_factory.mktemp("csv"), dtypes=dtypes)

    @pytest.mark.parametrize("seed", range(2))
    def test_blocks_past_one_chunk(self, tmp_path, seed):
        """Hundreds of rows: widening and the distinct/probe split at 257.

        Chunk sizes 1 and 2 are covered by the short tables above.
        """
        rng = random.Random(seed)
        pools = [POOLS["numeric"], POOLS["any"], POOLS["float"], POOLS["int"]]
        rows = [
            [rng.choice(pool) if rng.random() < 0.3 else repr(rng.uniform(-1e4, 1e4))
             for pool in pools]
            for _ in range(700)
        ]
        rows[650][0] = "late string"
        assert_readers_match(
            render(["a", "b", "c", "d"], rows), tmp_path, sizes=(257, 699, 700, 701)
        )

    @pytest.mark.parametrize(
        "cells",
        [["NO", "1e400", "x"], ["1" * 400, "2.5", "x"], ["1" * 400, "2.5"]],
    )
    def test_values_past_float_range(self, tmp_path, cells):
        """An int beyond float range fails only if its column ends up
        float; a later string rescues it, as in a whole-table pass."""
        text = render(["col", "k"], [[cell, "0"] for cell in cells])
        assert_readers_match(text, tmp_path)

    def test_first_failing_column_fails_first(self, tmp_path):
        """A declared dtype's bad cell in a later block of the first column
        outranks an earlier bad cell of the second, as in a whole pass."""
        rows = [["1", "2"], ["1", "x"]] + [["1", "2"]] * 5 + [["y", "2"]]
        text = render(["a", "b"], rows)
        with pytest.raises(ValueError, match="'y'"):
            ref.reference_read_csv_text(text, dtypes={"a": "int", "b": "int"})
        assert_readers_match(text, tmp_path, dtypes={"a": "int", "b": "int"})
        assert_readers_match(text, tmp_path, dtypes={"a": "bogus", "b": "int"})

    def test_all_missing_and_empty_inputs(self, tmp_path):
        assert_readers_match(render(["a", "b"], [["", "NA"], ["?", "-nan"]]), tmp_path)
        assert_readers_match("a,b\n", tmp_path)
        assert_readers_match("a,b\n", tmp_path, dtypes={"a": "int"})

    def test_ragged_row_error_matches(self, tmp_path):
        text = "a,b\n1,2\n3\n4,5\n"
        with pytest.raises(ValueError, match="row has 1 fields, expected 2"):
            ref.reference_read_csv_text(text)
        assert_readers_match(text, tmp_path)
        with pytest.raises(ValueError, match="row has 1 fields, expected 2"):
            read_csv_stream(io.StringIO(text), chunk_size=2)

    def test_empty_input_error_matches(self, tmp_path):
        with pytest.raises(ValueError, match="no header row"):
            ref.reference_read_csv_text("")
        assert_readers_match("", tmp_path)
        with pytest.raises(ValueError, match="no header row"):
            read_csv("/dev/null")


class TestWriters:
    @settings(max_examples=60, deadline=None)
    @given(table=csv_tables(), delimiter=st.sampled_from([",", "\t"]))
    def test_writers_match_reference(self, tmp_path_factory, table, delimiter):
        header, rows = table
        frame = ref.reference_read_csv_text(render(header, rows))
        assert_writers_match(frame, tmp_path_factory.mktemp("out"), delimiter)

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(
        st.one_of(st.none(), st.floats(allow_nan=True)), min_size=1, max_size=20
    ))
    def test_random_floats_match_reference(self, tmp_path_factory, values):
        frame = DataFrame.from_dict(
            {"f": values, "s": ["" if i % 2 else "x" for i in range(len(values))]},
            dtypes={"f": "float", "s": "string"},
        )
        assert_writers_match(frame, tmp_path_factory.mktemp("out"))

    def test_single_column_missing_cell_writes_quoted_empty(self, tmp_path):
        frame = DataFrame.from_dict({"a": [1.5, None, 2.0]})
        assert to_csv_text(frame) == 'a\n1.5\n""\n2.0\n'
        assert_writers_match(frame, tmp_path)
        assert read_csv_text(to_csv_text(frame)) == frame

    def test_all_missing_column(self, tmp_path):
        frame = DataFrame.from_dict(
            {"a": [None, None], "b": [None, None], "c": [True, None]},
            dtypes={"a": "float", "b": "string"},
        )
        assert to_csv_text(frame) == "a,b,c\n,,true\n,,\n"
        assert_writers_match(frame, tmp_path)

    def test_every_dtype_and_backing(self, tmp_path):
        frame = DataFrame.from_dict(
            {
                "i": [1, None, -(10**30), 7],
                "f": [float("inf"), -0.0, None, 1e16],
                "b": [True, False, None, True],
                "s": ['q"uote', "new\nline", None, "tab\there"],
            }
        )
        assert frame.column("i").values_array().dtype == object
        for delimiter in (",", "\t", ";"):
            assert_writers_match(frame, tmp_path, delimiter)
