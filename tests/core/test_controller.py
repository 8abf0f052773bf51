"""DataLens controller integration tests (the Figure-1 pipeline)."""

import sys
import threading

import pytest

from repro.core import DataLens
from repro.dataframe import write_csv
from repro.ingestion import hospital, nasa


@pytest.fixture
def lens(tmp_path):
    return DataLens(tmp_path / "workspace", seed=0)


@pytest.fixture
def nasa_session(lens, nasa_dirty):
    return lens.ingest_frame("nasa", nasa_dirty.dirty)


class TestIngestion:
    def test_ingest_frame_creates_layout(self, nasa_session):
        assert nasa_session.workspace.dirty_path.exists()
        assert nasa_session.delta.latest_version() == 0

    def test_ingest_csv(self, lens, tmp_path):
        source = tmp_path / "mydata.csv"
        write_csv(nasa(30), source)
        session = lens.ingest_csv(source)
        assert session.name == "mydata"
        assert session.frame.num_rows == 30

    def test_ingest_preloaded(self, lens):
        session = lens.ingest_preloaded("hospital")
        assert session.frame.num_rows == 1000

    def test_ingest_sql(self, lens, tmp_path, frame_to_sqlite):
        database = tmp_path / "db.sqlite"
        frame_to_sqlite(hospital(50), database, "hospital_table")
        session = lens.ingest_sql(database, "hospital_table")
        assert session.frame.num_rows == 50

    def test_session_reopen(self, lens, nasa_session):
        assert lens.session("nasa") is nasa_session
        with pytest.raises(KeyError):
            lens.session("ghost")


class TestVersioning:
    def test_upload_is_version_zero(self, nasa_session):
        history = nasa_session.version_history()
        assert history[0]["operation"] == "upload"

    def test_load_version_time_travel(self, lens, nasa_dirty):
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.run_detection(["mv_detector"])
        session.run_repair("standard_imputer")
        original = session.load_version(0)
        assert original == nasa_dirty.dirty

    def test_load_version_resets_stale_derived_state(self, lens, nasa_dirty):
        """Time travel must not leak the previous frame's analysis results."""
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.profile()
        session.run_detection(["mv_detector"])
        session.run_repair("standard_imputer")
        assert session.profile_report is not None
        assert session.detection_results and session.detected_cells
        assert session.repair_result is not None
        session.load_version(session.version_after_repair)
        assert session.profile_report is None
        assert session.detection_results == {}
        assert session.detected_cells == set()
        assert session.repair_result is None

    def test_session_profile_uses_artifact_cache(self, lens, nasa_dirty):
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        first = session.profile().to_json()
        second = session.profile().to_json()
        assert first == second
        stats = session.cache_stats()
        if stats["enabled"]:
            assert stats["hits"] > 0


class TestRules:
    def test_discover_validate_custom(self, lens, hospital_dirty):
        session = lens.ingest_frame("hospital", hospital_dirty.dirty)
        rules = session.discover_rules(algorithm="approximate", max_lhs_size=1)
        assert rules
        session.confirm_rule(rules[0])
        assert rules[0] in session.rule_set.confirmed_rules()
        session.reject_rule(rules[1])
        assert rules[1] not in session.rule_set.active_rules()
        custom = session.add_custom_rule(["ProviderNumber"], "City")
        assert custom in session.rule_set.confirmed_rules()

    def test_custom_rule_validation(self, nasa_session):
        with pytest.raises(ValueError):
            nasa_session.add_custom_rule([], "Angle")
        with pytest.raises(KeyError):
            nasa_session.add_custom_rule(["ghost"], "Angle")


class TestDetectionRepair:
    def test_sequential_tools_consolidated(self, nasa_session):
        cells = nasa_session.run_detection(["iqr", "sd", "mv_detector"])
        union = set()
        for result in nasa_session.detection_results.values():
            union |= result.cells
        assert cells == union

    def test_tags_included(self, lens, nasa_dirty):
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.tag_value(99999)
        session.run_detection(["mv_detector"])
        assert "user_tags" in session.detection_results

    def test_runs_tracked(self, lens, nasa_dirty):
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.run_detection(["iqr"])
        runs = lens.tracking.search_runs("Detection")
        assert any(run.name == "nasa:iqr" for run in runs)

    def test_parallel_sessions_track_their_own_runs(self, lens):
        """Two datasets' detections run at once on one tracking client."""
        sessions = [
            lens.ingest_frame(f"d{i}", nasa(40, seed=i)) for i in range(2)
        ]
        errors = []

        def detect(session):
            try:
                for _ in range(5):
                    session.run_detection(["mv_detector", "iqr"])
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=detect, args=(s,)) for s in sessions
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        runs = lens.tracking.search_runs("Detection")
        assert len(runs) == 20
        for run in runs:
            dataset, tool = run.name.split(":")
            assert run.status == "finished"
            assert (run.params["dataset"], run.params["tool"]) == (dataset, tool)

    def test_repair_requires_detection(self, nasa_session):
        fresh = nasa_session.controller.ingest_frame(
            "fresh", nasa_session.frame
        )
        with pytest.raises(RuntimeError):
            fresh.run_repair()

    def test_repair_versions_and_saves(self, lens, nasa_dirty):
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.run_detection(["mv_detector"])
        repaired = session.run_repair("standard_imputer")
        assert session.version_after_repair == 1
        assert session.workspace.repaired_path().exists()
        assert repaired.missing_count() == 0
        runs = lens.tracking.search_runs("Repair")
        assert len(runs) == 1

    def test_detection_summary_covers_columns(self, nasa_session):
        nasa_session.run_detection(["iqr"])
        summary = nasa_session.detection_summary()
        assert set(summary["iqr"]) == set(nasa_session.frame.column_names)

    def test_labeling_session_via_controller(self, lens):
        from repro.core import SimulatedUser
        from repro.ingestion import make_dirty

        bundle = make_dirty(
            "nasa",
            seed=9,
            overrides=dict(
                missing_rate=0.0075,
                outlier_rate=0.0075,
                disguised_rate=0.0075,
                subtle_rate=0.06,
            ),
        )
        session = lens.ingest_frame("nasa_lbl", bundle.dirty)
        outcome = session.run_labeling_session(
            SimulatedUser(bundle.mask), budget=5, clusters_per_column=6
        )
        assert outcome.labeled_tuples <= 5
        assert "raha" in session.detection_results
        assert len(session.labels) > 0


class TestDataSheet:
    def test_sheet_reflects_pipeline(self, lens, nasa_dirty):
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.tag_value(-1)
        session.run_detection(["iqr", "mv_detector"])
        session.run_repair("ml_imputer", tree_depth=6)
        sheet = session.generate_datasheet()
        tool_names = {tool["name"] for tool in sheet.detection_tools}
        assert tool_names == {"iqr", "mv_detector"}
        assert sheet.repair_tools[0]["name"] == "ml_imputer"
        assert sheet.repair_tools[0]["config"]["tree_depth"] == 6
        assert sheet.num_erroneous_cells == len(session.detected_cells)
        assert sheet.version_before_detection == 0
        assert sheet.version_after_repair == 1
        assert sheet.quality_after["completeness"] == 1.0

    def test_save_datasheet(self, lens, nasa_dirty):
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.run_detection(["mv_detector"])
        path = session.save_datasheet()
        assert path.exists()

    def test_sheet_replay_matches_repair(self, lens, nasa_dirty):
        """§5: a downloaded DataSheet reproduces the preparation steps."""
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.run_detection(["iqr", "mv_detector"])
        repaired = session.run_repair("standard_imputer")
        sheet = session.generate_datasheet()
        assert sheet.replay(nasa_dirty.dirty) == repaired
