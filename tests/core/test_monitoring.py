"""Quality monitoring across Delta versions."""

from repro.core import QualityMonitor
from repro.dataframe import DataFrame
from repro.versioning import DeltaTable


def _base_frame(n: int = 120) -> DataFrame:
    return DataFrame.from_dict(
        {
            "x": [float(i % 10) for i in range(n)],
            "c": [("a", "b", "c")[i % 3] for i in range(n)],
        }
    )


class TestQualityMonitor:
    def test_timeline_covers_all_versions(self, tmp_path):
        table = DeltaTable(tmp_path)
        table.write(_base_frame(), operation="upload")
        table.write(_base_frame(), operation="repair")
        report = QualityMonitor().run(table)
        assert [entry.version for entry in report.timeline] == [0, 1]
        assert report.latest().operation == "repair"

    def test_regression_detected_when_quality_drops(self, tmp_path):
        table = DeltaTable(tmp_path)
        clean = _base_frame()
        table.write(clean, operation="upload")
        degraded = clean.copy()
        for row in range(0, 30):
            degraded.set_at(row, "x", None)
        table.write(degraded, operation="append")
        report = QualityMonitor().run(table)
        metrics = [regression.metric for regression in report.regressions]
        assert "completeness" in metrics
        regression = next(
            r for r in report.regressions if r.metric == "completeness"
        )
        assert regression.drop > 0.05
        assert (regression.from_version, regression.to_version) == (0, 1)

    def test_improvement_is_not_a_regression(self, tmp_path):
        table = DeltaTable(tmp_path)
        degraded = _base_frame()
        for row in range(0, 30):
            degraded.set_at(row, "x", None)
        table.write(degraded, operation="upload")
        table.write(_base_frame(), operation="repair")
        report = QualityMonitor().run(table)
        assert all(
            regression.metric != "completeness"
            for regression in report.regressions
        )

    def test_drift_between_versions(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(0)
        table = DeltaTable(tmp_path)
        table.write(
            DataFrame.from_dict({"x": list(rng.normal(0, 1, 300))}),
            operation="upload",
        )
        table.write(
            DataFrame.from_dict({"x": list(rng.normal(4, 1, 300))}),
            operation="append",
        )
        report = QualityMonitor().run(table)
        assert (0, 1) in report.drift
        messages = [f.message for f in report.drift[(0, 1)]]
        assert any("distribution shifted" in message for message in messages)

    def test_metric_series(self, tmp_path):
        table = DeltaTable(tmp_path)
        table.write(_base_frame(), operation="upload")
        table.write(_base_frame(), operation="repair")
        report = QualityMonitor().run(table)
        series = [
            (entry.version, entry.metrics["overall"])
            for entry in report.timeline
            if "overall" in entry.metrics
        ]
        assert [version for version, _ in series] == [0, 1]

    def test_report_serializable(self, tmp_path):
        import json

        table = DeltaTable(tmp_path)
        table.write(_base_frame(), operation="upload")
        report = QualityMonitor().run(table)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["timeline"][0]["version"] == 0

    def test_empty_table(self, tmp_path):
        report = QualityMonitor().run(DeltaTable(tmp_path))
        assert report.timeline == []
        assert report.latest() is None
