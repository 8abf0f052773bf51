"""Differential tests: the chunked engine matches the monolithic engine.

Following the PR 1/PR 2 reference-harness pattern, seeded random frames
across every dtype — including empty, all-None, single-row, and
bigint-object columns — are run through profiling, detection, and
quality both monolithically and chunked at adversarial chunk sizes
(1, 2, 257, n-1, n, n+7), and the outputs must be *bit-identical*:
same values, same Python types, same key order, same exception when an
input crashes the monolithic kernels. The streaming chunked CSV reader
is differentially tested against the monolithic reader's kernel the same
way.
"""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from repro.core.quality import quality_summary
from repro.dataframe import (
    ChunkedColumn,
    ChunkedFrame,
    DataFrame,
    SpillStore,
    csv_lines,
    read_csv_stream,
    to_csv_text,
)
from repro.dataframe import io as csv_io
from repro.dataframe.spill import ShardHandle
from repro.detection.base import DetectionContext
from repro.detection.mvdetector import MVDetector
from repro.detection.outliers import IQRDetector, SDDetector
from repro.profiling import profile

from csv_helpers import read_csv_text

DTYPES = ("int", "float", "bool", "string", "bigint")


# ----------------------------------------------------------------------
# Exact comparison helpers
# ----------------------------------------------------------------------
def assert_deep_identical(actual, expected, path=""):
    """Recursive equality with exact Python types and NaN-awareness."""
    assert type(actual) is type(expected), (path, actual, expected)
    if isinstance(expected, dict):
        assert list(actual) == list(expected), (path, "key order")
        for key in expected:
            assert_deep_identical(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), (path, "length")
        for index, (mine, ref) in enumerate(zip(actual, expected)):
            assert_deep_identical(mine, ref, f"{path}[{index}]")
    elif isinstance(expected, float) and math.isnan(expected):
        assert math.isnan(actual), (path, actual)
    else:
        assert actual == expected, (path, actual, expected)


def run_outcome(fn):
    """Capture a result or the exception it raises, for outcome equality."""
    try:
        return ("ok", fn())
    except Exception as error:  # noqa: BLE001 — outcomes must match exactly
        return ("raised", type(error), str(error))


def assert_same_outcome(chunked_fn, monolithic_outcome, context):
    outcome = run_outcome(chunked_fn)
    assert outcome[0] == monolithic_outcome[0], (context, outcome)
    if outcome[0] == "ok":
        assert_deep_identical(outcome[1], monolithic_outcome[1], context)
    else:
        assert outcome[1:] == monolithic_outcome[1:], context


def chunk_sizes_for(n: int) -> list[int]:
    """The adversarial chunk sizes, filtered to valid (>= 1) values."""
    return sorted({size for size in (1, 2, 257, n - 1, n, n + 7) if size >= 1})


def random_frame(random_values, seed: int, n: int, missing: float = 0.25):
    rng = np.random.default_rng(seed)
    data = {
        dtype[0] if dtype != "bigint" else "big": random_values(
            rng, dtype, n, missing, profile="narrow"
        )
        for dtype in DTYPES
    }
    data["allnone"] = [None] * n
    return DataFrame.from_dict(data)


FRAME_CASES = [(seed, n) for seed in (0, 1, 5) for n in (0, 1, 23, 60)]


# ----------------------------------------------------------------------
# Column-level contract: sequence API, arrays, cross-chunk codes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("seed,n", FRAME_CASES)
class TestChunkedColumnEquivalence:
    def _pair(self, random_values, dtype, seed, n, size):
        values = random_values(
            np.random.default_rng(seed), dtype, n, 0.3, profile="narrow"
        )
        column = DataFrame.from_dict({"x": values}).column("x")
        chunked = DataFrame.from_dict({"x": values}).to_chunked(size).column("x")
        return column, chunked

    def test_sequence_api_identical(self, random_values, dtype, seed, n):
        for size in chunk_sizes_for(n):
            column, chunked = self._pair(random_values, dtype, seed, n, size)
            assert isinstance(chunked, ChunkedColumn)
            assert chunked.dtype == column.dtype
            assert len(chunked) == len(column)
            assert_deep_identical(chunked.values(), column.values())
            assert_deep_identical(list(chunked), list(column))
            assert chunked.is_missing() == column.is_missing()
            assert chunked.missing_count() == column.missing_count()
            assert_deep_identical(chunked.non_missing(), column.non_missing())
            assert_deep_identical(chunked.unique(), column.unique())
            assert chunked.value_counts() == column.value_counts()
            assert list(chunked.value_counts()) == list(column.value_counts())

    def test_arrays_and_codes_identical(self, random_values, dtype, seed, n):
        for size in chunk_sizes_for(n):
            column, chunked = self._pair(random_values, dtype, seed, n, size)
            assert np.array_equal(
                np.asarray(chunked.mask()), np.asarray(column.mask())
            )
            mine = chunked.values_array()
            ref = column.values_array()
            assert mine.dtype == ref.dtype
            keep = ~np.asarray(column.mask())
            assert_deep_identical(
                mine[keep].tolist(), ref[keep].tolist()
            )
            codes_mine, groups_mine = chunked.codes()
            codes_ref, groups_ref = column.codes()
            assert groups_mine == groups_ref
            assert np.array_equal(codes_mine, codes_ref)

    def test_chunks_reassemble_row_order(self, random_values, dtype, seed, n):
        for size in chunk_sizes_for(n):
            column, chunked = self._pair(random_values, dtype, seed, n, size)
            assert sum(chunked.chunk_lengths) == n
            if n:
                assert max(chunked.chunk_lengths) <= size
            reassembled = []
            for chunk in chunked.iter_chunks():
                reassembled.extend(chunk.values())
            assert_deep_identical(reassembled, column.values())


# ----------------------------------------------------------------------
# Pipeline-level bit-identity: profile / detection / quality
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed,n", FRAME_CASES)
class TestChunkedPipelineEquivalence:
    def test_profile_bit_identical(self, random_values, seed, n):
        frame = random_frame(random_values, seed, n)
        reference = run_outcome(lambda: profile(frame).to_dict())
        for size in chunk_sizes_for(n):
            chunked = frame.to_chunked(size)
            assert_same_outcome(
                lambda: profile(chunked).to_dict(),
                reference,
                ("profile", seed, n, size),
            )

    def test_detection_bit_identical(self, random_values, seed, n):
        frame = random_frame(random_values, seed, n)
        context = DetectionContext()
        detectors = [
            SDDetector(k=1.5),
            IQRDetector(factor=1.0),
            MVDetector(extra_null_tokens={"v1"}),
        ]
        references = [
            detector._detect(frame, context) for detector in detectors
        ]
        for size in chunk_sizes_for(n):
            chunked = frame.to_chunked(size)
            for detector, (cells, scores, _) in zip(detectors, references):
                got_cells, got_scores, _ = detector._detect(chunked, context)
                assert got_cells == cells, (detector.name, seed, n, size)
                assert_deep_identical(
                    dict(sorted(got_scores.items())),
                    dict(sorted(scores.items())),
                    (detector.name, seed, n, size),
                )

    def test_quality_bit_identical(self, random_values, seed, n):
        frame = random_frame(random_values, seed, n)
        reference = quality_summary(frame)
        for size in chunk_sizes_for(n):
            assert_deep_identical(
                quality_summary(frame.to_chunked(size)),
                reference,
                ("quality", seed, n, size),
            )


# ----------------------------------------------------------------------
# Streaming chunked CSV ingestion
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed,n", FRAME_CASES)
class TestChunkedCsvEquivalence:
    def test_round_trip_bit_identical(self, random_values, seed, n):
        frame = random_frame(random_values, seed, n)
        text = to_csv_text(frame)
        reference = read_csv_text(text)
        for size in chunk_sizes_for(n):
            streamed = read_csv_stream(io.StringIO(text), chunk_size=size)
            assert isinstance(streamed, ChunkedFrame)
            assert streamed.dtypes() == reference.dtypes()
            assert streamed == reference
            for name in reference.column_names:
                assert_deep_identical(
                    streamed.column(name).values(),
                    reference.column(name).values(),
                    (name, seed, n, size),
                )


class TestStreamingWidening:
    """Later chunks that widen a column's dtype re-coerce earlier shards."""

    CASES = [
        # (csv cells in column order, expected dtype)
        (["1", "2", "x"], "string"),
        (["true", "false", "3"], "int"),
        (["true", "2", "3.5"], "float"),
        (["1", "2", "2.5"], "float"),
        (["true", "false", "maybe"], "string"),
        (["1", "", str(10**30)], "int"),
        (["", "", "7"], "int"),
        (["", "", ""], "string"),
        (["1.0", "2", "x"], "string"),
        # Parsed values whose text a numeric shard cannot give back: a
        # bool token packs as 1, an int beyond 2**53 rounds as a float.
        (["true", "2", "x"], "string"),
        (["yes", "1.5", "x"], "string"),
        (["9007199254740993", "1.5", "x"], "string"),
        ([str(2**63 - 1), "1.5", "x"], "string"),
    ]

    @pytest.mark.parametrize("cells,expected_dtype", CASES)
    def test_widening_matches_monolithic(self, cells, expected_dtype):
        # A filler column keeps missing cells from producing blank lines
        # (which csv parses as zero-field rows and both readers reject).
        text = "col,k\n" + "\n".join(f"{cell},0" for cell in cells) + "\n"
        reference = read_csv_text(text)
        assert reference.dtypes()["col"] == expected_dtype
        for size in (1, 2, 3, 50):
            streamed = read_csv_stream(io.StringIO(text), chunk_size=size)
            assert streamed.dtypes() == reference.dtypes()
            assert_deep_identical(
                streamed.column("col").values(),
                reference.column("col").values(),
                (cells, size),
            )

    @pytest.mark.parametrize("last", ["late string", "2"])
    @pytest.mark.parametrize(
        "pair", [("yes", "1"), ("yes", "1.5"), ("9007199254740993", "1.5")]
    )
    def test_spilled_ingest_keeps_no_widening_record_resident(
        self, monkeypatch, pair, last
    ):
        """Under a 512 B store, each widening record is spilled with its
        shard, and its record is freed once the column is finished, whether
        the column widens to string (record applied) or not (dropped)."""
        held = []
        finish = csv_io._StreamingColumnBuilder.finish

        def spy(builder):
            held.extend(record for record in builder.records if record is not None)
            return finish(builder)

        monkeypatch.setattr(csv_io._StreamingColumnBuilder, "finish", spy)
        cells = list(pair) * 40 + [last]
        text = "col\n" + "\n".join(cells) + "\n"
        store = SpillStore(budget_bytes=512)
        streamed = read_csv_stream(io.StringIO(text), chunk_size=8, spill=store)
        assert len(held) == 10
        assert all(isinstance(record, ShardHandle) for record in held)
        # The column's 11 shards are the store's only live records; no
        # record is left for a widening record.
        reference = read_csv_text(text)
        assert len(store._refs) == 11
        assert streamed.dtypes() == reference.dtypes()
        assert_deep_identical(
            streamed.column("col").values(), reference.column("col").values()
        )


    def test_ragged_row_raises_like_monolithic(self):
        text = "a,b\n1,2\n3\n"
        with pytest.raises(ValueError, match="expected 2"):
            read_csv_text(text)
        with pytest.raises(ValueError, match="expected 2"):
            read_csv_stream(io.StringIO(text), chunk_size=1)

    def test_empty_input_raises_like_monolithic(self):
        with pytest.raises(ValueError, match="no header row"):
            read_csv_stream(io.StringIO(""), chunk_size=3)

    def test_huge_int_overflow_in_late_chunk(self):
        """int64 shards followed by an object shard stay one int column."""
        text = "x,k\n" + "\n".join(
            f"{cell},0" for cell in ["1", "2", "3", str(10**30), ""]
        ) + "\n"
        streamed = read_csv_stream(io.StringIO(text), chunk_size=2)
        reference = read_csv_text(text)
        assert streamed.dtypes()["x"] == "int"
        assert streamed.column("x").values_array().dtype == object
        assert_deep_identical(
            streamed.column("x").values(), reference.column("x").values()
        )


# ----------------------------------------------------------------------
# Spilled shards: disk-backed columns match resident and monolithic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed,n", [(0, 23), (1, 60), (2, 1), (3, 0)])
class TestSpilledPipelineEquivalence:
    """spilled ≡ resident ≡ monolithic, under heavy eviction churn.

    The resident ≡ monolithic half is pinned by the classes above, so
    each leg here compares a spilled frame (512-byte budget — far
    smaller than the data, forcing constant eviction) straight against
    the monolithic reference. A fresh spilled frame is built per
    operation because equality checks and quality materialize columns.
    """

    SIZES = (1, 7, 257)

    def _spilled(self, frame, size):
        from repro.dataframe import SpillStore, spill_frame

        store = SpillStore(budget_bytes=512)
        spilled = spill_frame(frame, store=store, chunk_size=size)
        assert all(
            spilled.column(name).spilled for name in spilled.column_names
        )
        return spilled, store

    def test_profile_bit_identical_and_stays_spilled(
        self, random_values, seed, n
    ):
        frame = random_frame(random_values, seed, n)
        reference = run_outcome(lambda: profile(frame).to_dict())
        for size in self.SIZES:
            spilled, store = self._spilled(frame, size)
            assert_same_outcome(
                lambda: profile(spilled).to_dict(),
                reference,
                ("profile-spilled", seed, n, size),
            )
            # Profiling must stream the shards, not densify the columns.
            assert all(
                spilled.column(name).spilled
                for name in spilled.column_names
            ), ("profile materialized a spilled column", seed, n, size)
            if n:
                assert store.spilled_shards > 0

    def test_detection_bit_identical(self, random_values, seed, n):
        frame = random_frame(random_values, seed, n)
        context = DetectionContext()
        detectors = [
            SDDetector(k=1.5),
            IQRDetector(factor=1.0),
            MVDetector(extra_null_tokens={"v1"}),
        ]
        references = [
            run_outcome(lambda d=d: d._detect(frame, context))
            for d in detectors
        ]
        for size in self.SIZES:
            for detector, reference in zip(detectors, references):
                spilled, _ = self._spilled(frame, size)
                assert_same_outcome(
                    lambda: detector._detect(spilled, context),
                    reference,
                    ("detect-spilled", detector.name, seed, n, size),
                )

    def test_quality_bit_identical(self, random_values, seed, n):
        frame = random_frame(random_values, seed, n)
        reference = run_outcome(lambda: quality_summary(frame))
        for size in self.SIZES:
            spilled, _ = self._spilled(frame, size)
            assert_same_outcome(
                lambda: quality_summary(spilled),
                reference,
                ("quality-spilled", seed, n, size),
            )

    def test_csv_ingest_bit_identical(self, random_values, seed, n):
        from repro.dataframe import SpillStore, SpilledChunkedColumn

        frame = random_frame(random_values, seed, n)
        text = to_csv_text(frame)
        reference = read_csv_text(text)
        for size in self.SIZES:
            streamed = read_csv_stream(
                io.StringIO(text), chunk_size=size, spill=SpillStore(budget_bytes=512)
            )
            assert streamed.dtypes() == reference.dtypes()
            for name in reference.column_names:
                column = streamed.column(name)
                assert isinstance(column, SpilledChunkedColumn)
                assert column.spilled
            for name in reference.column_names:
                assert_deep_identical(
                    streamed.column(name).values(),
                    reference.column(name).values(),
                    ("csv-spilled", name, seed, n, size),
                )

    def test_mutation_releases_spill_and_matches_monolithic(
        self, random_values, seed, n
    ):
        if n < 2:
            pytest.skip("mutation leg needs at least two rows")
        frame = random_frame(random_values, seed, n)
        reference = DataFrame.from_dict(
            {name: frame.column(name).values() for name in frame.column_names}
        )
        reference.column("f").set_many([0, n - 1], [None, 4.5])
        spilled, _ = self._spilled(frame, 7)
        column = spilled.column("f")
        column.set_many([0, n - 1], [None, 4.5])
        assert not column.spilled
        assert_deep_identical(
            column.values(), reference.column("f").values()
        )


# ----------------------------------------------------------------------
# Chunked mutation keeps every view consistent
# ----------------------------------------------------------------------
class TestChunkedMutation:
    def test_set_and_set_many_match_monolithic(self, random_values):
        rng = np.random.default_rng(3)
        values = random_values(rng, "int", 29, 0.2, profile="narrow")
        column = DataFrame.from_dict({"x": values}).column("x")
        chunked = DataFrame.from_dict({"x": values}).to_chunked(7).column("x")
        column.set(4, 99)
        chunked.set(4, 99)
        column.set_many([0, 11, 28], [None, 5, "wide"])
        chunked.set_many([0, 11, 28], [None, 5, "wide"])
        assert chunked.dtype == column.dtype == "string"
        assert_deep_identical(chunked.values(), column.values())
        reassembled = []
        for chunk in chunked.iter_chunks():
            reassembled.extend(chunk.values())
        assert_deep_identical(reassembled, column.values())

    def test_chunks_are_read_only(self):
        chunked = DataFrame.from_dict({"x": [1, 2, 3, 4]}).to_chunked(2)
        chunk = next(chunked.iter_chunks())
        with pytest.raises(ValueError):
            chunk.column("x").set(0, 9)

    def test_rechunk_preserves_values(self, random_values):
        rng = np.random.default_rng(9)
        frame = DataFrame.from_dict(
            {"x": random_values(rng, "float", 41, 0.2, profile="narrow")}
        )
        chunked = frame.to_chunked(5)
        rechunked = chunked.rechunk(13)
        assert rechunked.chunk_lengths == (13, 13, 13, 2)
        assert rechunked == frame
        assert rechunked.to_monolithic() == frame

    def test_misaligned_chunks_rejected(self):
        left = ChunkedColumn.from_column(
            DataFrame.from_dict({"a": [1, 2, 3]}).column("a"), (2, 1)
        )
        right = ChunkedColumn.from_column(
            DataFrame.from_dict({"b": [1, 2, 3]}).column("b"), (1, 2)
        )
        with pytest.raises(ValueError, match="chunk lengths"):
            ChunkedFrame([left, right])


# ----------------------------------------------------------------------
# Configuration plumbing and validation
# ----------------------------------------------------------------------
class TestChunkConfiguration:
    def test_chunk_lengths_for(self):
        from repro.dataframe import chunk_lengths_for

        assert chunk_lengths_for(0, 3) == ()
        assert chunk_lengths_for(7, 3) == (3, 3, 1)
        assert chunk_lengths_for(6, 3) == (3, 3)
        assert chunk_lengths_for(2, 5) == (2,)
        with pytest.raises(ValueError, match=">= 1"):
            chunk_lengths_for(5, 0)

    def test_resolve_chunk_size(self, monkeypatch):
        from repro.dataframe import DEFAULT_CHUNK_SIZE, resolve_chunk_size

        monkeypatch.delenv("DATALENS_DEFAULT_CHUNK_SIZE", raising=False)
        assert resolve_chunk_size() == DEFAULT_CHUNK_SIZE
        assert resolve_chunk_size(257) == 257
        with pytest.raises(ValueError, match=">= 1"):
            resolve_chunk_size(0)
        monkeypatch.setenv("DATALENS_DEFAULT_CHUNK_SIZE", "41")
        assert resolve_chunk_size() == 41
        monkeypatch.setenv("DATALENS_DEFAULT_CHUNK_SIZE", "0")
        with pytest.raises(ValueError, match=">= 1"):
            resolve_chunk_size()

    def test_constructor_and_shard_validation(self):
        from repro.dataframe.column import _pack

        with pytest.raises(TypeError, match="from_column"):
            ChunkedColumn("x", [1, 2])
        column = DataFrame.from_dict({"a": [1, 2, 3]}).column("a")
        with pytest.raises(ValueError, match="cover"):
            ChunkedColumn.from_column(column, (2, 2))
        with pytest.raises(ValueError, match=">= 1"):
            ChunkedColumn.from_column(column, (3, 0))
        with pytest.raises(ValueError, match="empty shards"):
            ChunkedColumn.from_shards("x", "int", [_pack([], "int")])
        with pytest.raises(ValueError, match="unknown dtype"):
            ChunkedColumn.from_shards("x", "decimal", [])
        with pytest.raises(TypeError, match="ChunkedColumn"):
            ChunkedFrame([column])

    def test_loader_chunk_size_wiring(self, tmp_path, monkeypatch):
        from repro.dataframe import ChunkedFrame as CF
        from repro.ingestion import DataLoader

        # Without the env overrides a chunk-size-less loader must stay
        # monolithic (the CI matrix also runs this suite with
        # DATALENS_DEFAULT_CHUNK_SIZE / DATALENS_SPILL_BUDGET set, which
        # would flip it).
        monkeypatch.delenv("DATALENS_DEFAULT_CHUNK_SIZE", raising=False)
        monkeypatch.delenv("DATALENS_SPILL_BUDGET", raising=False)
        frame = DataFrame.from_dict({"a": [1, 2, 3, 4, 5], "b": list("vwxyz")})
        loader = DataLoader(tmp_path / "plain")
        ingested = loader.ingest_csv_stream("d", csv_lines(frame))
        assert not isinstance(ingested, CF)
        assert not isinstance(loader.load("d"), CF)
        chunked_loader = DataLoader(tmp_path / "chunked", chunk_size=2)
        ingested = chunked_loader.ingest_csv_stream("d", csv_lines(frame))
        assert isinstance(ingested, CF)
        assert ingested.chunk_lengths == (2, 2, 1)
        loaded = chunked_loader.load("d")
        assert isinstance(loaded, CF)
        assert loaded.chunk_lengths == (2, 2, 1)
        assert loaded == loader.load("d")
        # The env override is the fallback when no explicit size is set.
        monkeypatch.setenv("DATALENS_DEFAULT_CHUNK_SIZE", "3")
        env_loaded = loader.load("d")
        assert isinstance(env_loaded, CF)
        assert env_loaded.chunk_lengths == (3, 2)

    def test_controller_chunked_session_profile(self, tmp_path):
        from repro.core.controller import DataLens
        from repro.dataframe import ChunkedFrame as CF

        frame = DataFrame.from_dict(
            {"x": [1.0, 2.0, None, 4.0, 100.0], "g": list("aabba")}
        )
        plain = DataLens(tmp_path / "plain").ingest_frame("d", frame)
        chunked = DataLens(tmp_path / "chunked", chunk_size=2).ingest_frame(
            "d", frame
        )
        assert isinstance(chunked.frame, CF)
        assert chunked.frame.chunk_lengths == (2, 2, 1)
        assert_deep_identical(
            chunked.profile().to_dict(), plain.profile().to_dict()
        )
