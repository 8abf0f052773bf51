"""Detector interface and consolidation tests."""

from repro.core import DataLens
from repro.dataframe import DataFrame
from repro.detection import (
    DetectionResult,
    Detector,
    IQRDetector,
    MVDetector,
    merge_results,
    summarize_by_column,
)


class FixedDetector(Detector):
    name = "fixed"

    def __init__(self, cells):
        super().__init__()
        self._cells = cells

    def _detect(self, frame, context):
        return set(self._cells), {}, {}


class TestDetectionResult:
    def test_rows_and_columns(self):
        result = DetectionResult("t", {(0, "a"), (3, "b"), (0, "b")})
        assert result.rows() == {0, 3}
        assert result.columns() == {"a", "b"}

    def test_restricted_to_drops_out_of_bounds(self):
        frame = DataFrame.from_dict({"a": [1, 2]})
        result = DetectionResult(
            "t", {(0, "a"), (5, "a"), (0, "ghost")}, scores={(5, "a"): 1.0}
        )
        restricted = result.restricted_to(frame)
        assert restricted.cells == {(0, "a")}
        assert (5, "a") not in restricted.scores

    def test_to_dict(self):
        result = DetectionResult("t", {(1, "a")})
        payload = result.to_dict()
        assert payload["tool"] == "t"
        assert payload["num_cells"] == 1


class TestDetectorWrapper:
    def test_timing_recorded(self, mixed_frame):
        result = FixedDetector({(0, "id")}).detect(mixed_frame)
        assert result.runtime_seconds >= 0.0
        assert result.cells == {(0, "id")}

    def test_out_of_bounds_filtered(self, mixed_frame):
        result = FixedDetector({(999, "id")}).detect(mixed_frame)
        assert result.cells == set()

    def test_describe(self):
        detector = IQRDetector(factor=2.0)
        described = detector.describe()
        assert described["name"] == "iqr"
        assert described["config"]["factor"] == 2.0


class TestConsolidation:
    def test_merge_deduplicates(self):
        a = DetectionResult("a", {(0, "x"), (1, "x")})
        b = DetectionResult("b", {(1, "x"), (2, "x")})
        merged = merge_results([a, b])
        assert merged == {(0, "x"), (1, "x"), (2, "x")}

    def test_run_tools_sequential(self, mixed_frame, tmp_path):
        session = DataLens(tmp_path, seed=0).ingest_frame("mixed", mixed_frame)
        merged = session.run_detection([MVDetector(), IQRDetector()])
        results = session.detection_results
        assert list(results) == ["mv_detector", "iqr"]
        assert merged == results["mv_detector"].cells | results["iqr"].cells

    def test_summarize_by_column(self, mixed_frame):
        result = MVDetector().detect(mixed_frame)
        summary = summarize_by_column({"mv": result}, mixed_frame)
        assert summary["mv"]["score"] > 0.0
        assert summary["mv"]["id"] == 0.0
