"""Profile report assembly and rendering tests."""

import json

import pytest

from repro.profiling import histogram, numeric_histogram, profile


class TestHistogram:
    def test_numeric_bins_cover_range(self):
        from repro.dataframe import Column

        column = Column("x", [float(i) for i in range(100)])
        result = numeric_histogram(column, bins=10)
        assert len(result["counts"]) == 10
        assert sum(result["counts"]) == 100
        assert result["bin_edges"][0] == 0.0
        assert result["bin_edges"][-1] == 99.0

    def test_categorical_other_bucket(self):
        from repro.dataframe import Column

        column = Column("c", [f"v{i}" for i in range(30)] + ["v0"] * 5)
        result = histogram(column, top_k=3)
        assert result["kind"] == "categorical"
        assert "(other)" in result["labels"]

    def test_dispatch(self):
        from repro.dataframe import Column

        assert histogram(Column("x", [1.0, 2.0]))["kind"] == "numeric"
        assert histogram(Column("c", ["a"]))["kind"] == "categorical"


class TestProfileReport:
    def test_overview_fields(self, nasa_dirty):
        report = profile(nasa_dirty.dirty)
        assert report.overview["rows"] == 1503
        assert report.overview["columns"] == 6
        assert report.overview["missing_cells"] > 0
        assert report.overview["numeric_columns"] == 6

    def test_per_column_sections(self, nasa_dirty):
        report = profile(nasa_dirty.dirty)
        assert len(report.columns) == 6
        for section in report.columns:
            assert "histogram" in section
            assert "statistics" in section

    def test_json_serializable(self, nasa_dirty):
        report = profile(nasa_dirty.dirty)
        payload = json.loads(report.to_json())
        assert "overview" in payload
        assert "correlations" in payload
        assert "alerts" in payload

    def test_html_contains_sections(self, nasa_dirty):
        report = profile(nasa_dirty.dirty)
        html = report.to_html()
        assert "Data Profile" in html
        assert "Frequency" in html

    def test_profile_rejects_n_jobs(self, nasa_dirty):
        with pytest.raises(TypeError, match="unexpected keyword argument 'n_jobs'"):
            profile(nasa_dirty.dirty, n_jobs=2)

    def test_alerts_present_for_dirty_data(self, nasa_dirty):
        report = profile(nasa_dirty.dirty)
        assert report.alerts  # sentinel/skew alerts from injected errors

    def test_mixed_frame(self, hospital_dirty):
        report = profile(hospital_dirty.dirty)
        assert report.overview["categorical_columns"] >= 5
        cramers = report.correlations["cramers_v"]
        assert cramers["columns"]
