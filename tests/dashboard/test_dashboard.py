"""Chart generation and dashboard rendering tests."""

import pytest

from repro.core import DataLens
from repro.dashboard import (
    bar_chart,
    render_dashboard,
    render_detection_tab,
    render_overview_tab,
    render_profile_tab,
    render_quality_panel,
    stacked_bar_chart,
)


class TestCharts:
    def test_bar_chart_structure(self):
        svg = bar_chart(["a", "b"], [1.0, 2.0], title="Counts")
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 2
        assert "Counts" in svg

    def test_bar_chart_mismatch(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_stacked_bar_segments(self):
        svg = stacked_bar_chart(
            ["c1", "c2"],
            {"missing": [0.1, 0.2], "outlier": [0.05, 0.0]},
        )
        # 2 legend swatches + 4 stack segments.
        assert svg.count("<rect") == 6

    def test_values_escaped(self):
        svg = bar_chart(["<script>"], [1.0])
        assert "<script>" not in svg
        assert "&lt;script&gt;" in svg


@pytest.fixture
def session(tmp_path, nasa_dirty):
    lens = DataLens(tmp_path / "workspace", seed=0)
    session = lens.ingest_frame("nasa", nasa_dirty.dirty)
    session.profile()
    session.tag_value(99999)
    session.run_detection(["iqr", "sd", "mv_detector", "fahes"])
    return session


class TestTabs:
    def test_overview_tab(self, session):
        html = render_overview_tab(session)
        assert "Data Overview" in html
        assert "Detected errors" in html

    def test_profile_tab(self, session):
        html = render_profile_tab(session)
        assert "Data Profile" in html
        assert "Frequency" in html

    def test_detection_tab_has_stacked_chart(self, session):
        html = render_detection_tab(session)
        assert "Error Detection Results" in html
        assert "Distribution of detections" in html
        assert "<svg" in html

    def test_quality_panel(self, session):
        html = render_quality_panel(session)
        assert "Data Quality" in html
        assert "completeness" in html

    def test_full_dashboard_contains_all_tabs(self, session):
        html = render_dashboard(session)
        for fragment in (
            "Data Overview",
            "Data Profile",
            "Error Detection Results",
            "DataSheets",
            "Data Quality",
        ):
            assert fragment in html
        assert html.startswith("<!DOCTYPE html>")

    def test_dashboard_before_any_pipeline_steps(self, tmp_path, nasa_dirty):
        lens = DataLens(tmp_path / "w2", seed=0)
        fresh = lens.ingest_frame("nasa", nasa_dirty.dirty)
        html = render_dashboard(fresh)
        assert "profile not generated yet" in html
        assert "no detection results yet" in html
