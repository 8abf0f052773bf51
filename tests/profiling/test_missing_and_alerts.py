"""Missing-data analysis and quality-alert tests."""

import numpy as np

from repro.dataframe import DataFrame
from repro.profiling import (
    CONSTANT,
    DUPLICATE_ROWS,
    HIGH_CORRELATION,
    HIGH_MISSING,
    IMBALANCE,
    SKEWED,
    UNIQUE,
    ZEROS,
    generate_alerts,
    missing_patterns,
    missing_summary,
)


class TestMissingSummary:
    def test_counts(self):
        frame = DataFrame.from_dict({"a": [1, None, 3], "b": [None, None, "x"]})
        summary = missing_summary(frame)
        assert summary["missing_cells"] == 3
        assert summary["per_column"] == {"a": 1, "b": 2}
        assert summary["rows_with_missing"] == 2
        assert summary["complete_rows"] == 1

    def test_fraction(self):
        frame = DataFrame.from_dict({"a": [1, None]})
        assert missing_summary(frame)["missing_fraction"] == 0.5


class TestMissingPatterns:
    def test_pattern_grouping(self):
        frame = DataFrame.from_dict(
            {"a": [None, None, 1, 1], "b": [None, None, None, 1]}
        )
        patterns = missing_patterns(frame)
        top = patterns[0]
        assert set(top["missing_columns"]) == {"a", "b"}
        assert top["rows"] == 2

    def test_complete_pattern_included(self):
        frame = DataFrame.from_dict({"a": [1, 2]})
        patterns = missing_patterns(frame)
        assert patterns[0]["missing_columns"] == []
        assert patterns[0]["rows"] == 2


class TestCoMissingness:
    def test_diagonal_and_joint(self):
        frame = DataFrame.from_dict(
            {"a": [None, None, 1], "b": [None, 1, None]}
        )
        for leg in (frame, frame.to_chunked(1)):
            assert missing_summary(leg)["per_column"] == {"a": 2, "b": 2}
            joint = sum(
                pattern["rows"]
                for pattern in missing_patterns(leg)
                if {"a", "b"} <= set(pattern["missing_columns"])
            )
            assert joint == 1


class TestAlerts:
    def test_high_missing(self):
        frame = DataFrame.from_dict({"a": [1, None, None, None], "b": [1, 2, 3, 4]})
        kinds = {alert.kind for alert in generate_alerts(frame)}
        assert HIGH_MISSING in kinds

    def test_constant_column(self):
        frame = DataFrame.from_dict({"a": ["k"] * 5, "b": [1, 2, 3, 4, 5]})
        alerts = generate_alerts(frame)
        assert any(a.kind == CONSTANT and a.column == "a" for a in alerts)

    def test_unique_identifier(self):
        frame = DataFrame.from_dict(
            {"id": [f"u{i}" for i in range(30)], "v": [1] * 30}
        )
        alerts = generate_alerts(frame)
        assert any(a.kind == UNIQUE and a.column == "id" for a in alerts)

    def test_skew(self):
        values = [1.0] * 50 + [1000.0]
        frame = DataFrame.from_dict({"a": values})
        kinds = {alert.kind for alert in generate_alerts(frame)}
        assert SKEWED in kinds

    def test_zeros(self):
        frame = DataFrame.from_dict({"a": [0.0] * 6 + [1.0, 2.0]})
        kinds = {alert.kind for alert in generate_alerts(frame)}
        assert ZEROS in kinds

    def test_duplicates(self):
        frame = DataFrame.from_dict({"a": [1, 1, 2], "b": ["x", "x", "y"]})
        alerts = generate_alerts(frame)
        duplicates = [a for a in alerts if a.kind == DUPLICATE_ROWS]
        assert duplicates and duplicates[0].details["count"] == 1

    def test_high_correlation(self):
        x = list(np.linspace(0, 10, 50))
        frame = DataFrame.from_dict({"a": x, "b": [v * 2 for v in x]})
        kinds = {alert.kind for alert in generate_alerts(frame)}
        assert HIGH_CORRELATION in kinds

    def test_imbalance(self):
        frame = DataFrame.from_dict({"c": ["a"] * 95 + ["b"] * 5})
        kinds = {alert.kind for alert in generate_alerts(frame)}
        assert IMBALANCE in kinds

    def test_clean_frame_quiet(self):
        rng = np.random.default_rng(0)
        frame = DataFrame.from_dict(
            {
                "x": list(rng.normal(0, 1, 100)),
                "c": list(rng.choice(["a", "b", "c"], 100)),
            }
        )
        kinds = {alert.kind for alert in generate_alerts(frame)}
        assert HIGH_MISSING not in kinds
        assert CONSTANT not in kinds

    def test_alert_serialization(self):
        frame = DataFrame.from_dict({"a": ["k"] * 3, "b": [1, 2, 3]})
        alerts = generate_alerts(frame)
        payload = alerts[0].to_dict()
        assert {"kind", "column", "message", "details"} <= set(payload)
