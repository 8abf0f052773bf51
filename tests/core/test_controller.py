"""DataLens controller integration tests (the Figure-1 pipeline)."""

import io
import sys
import threading

import pytest

from repro.core import DataLens
from repro.dataframe import DataFrame, SpilledChunkedColumn, to_csv_text, write_csv
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
        """A CSV file streams its text as is, named after its stem."""
        source = tmp_path / "uploads" / "mydata.csv"
        write_csv(nasa(30), source)
        with open(source, newline="", encoding="utf-8") as handle:
            session = lens.ingest_csv_stream(source.stem, handle)
        assert session.name == "mydata"
        assert session.frame == nasa(30)
        assert session.workspace.dirty_path.read_bytes() == source.read_bytes()
        assert lens.list_datasets() == ["mydata"]

    def test_ingest_preloaded(self, lens):
        session = lens.ingest_preloaded("hospital")
        assert session.frame.num_rows == 1000

    def test_unknown_preloaded(self, lens):
        with pytest.raises(KeyError, match="imagenet"):
            lens.ingest_preloaded("imagenet")
        assert lens.list_datasets() == []

    def test_ingest_sql(self, lens, tmp_path, frame_to_sqlite):
        database = tmp_path / "db.sqlite"
        frame_to_sqlite(hospital(50), database, "hospital_table")
        session = lens.ingest_sql(database, "hospital_table")
        assert session.frame.num_rows == 50

    def test_ingest_sql_roundtrip(self, lens, tmp_path, frame_to_sqlite):
        frame = DataFrame.from_dict({"id": [1, 2, 3], "name": ["x", "y", None]})
        database = tmp_path / "db.sqlite"
        frame_to_sqlite(frame, database, "people")
        session = lens.ingest_sql(database, "people")
        assert session.name == "people"
        assert session.frame == frame
        assert lens.session("people").delta.read(0) == frame

    def test_suspicious_table_name(self, lens):
        with pytest.raises(ValueError, match="suspicious table name"):
            lens.ingest_sql("db.sqlite", "users; DROP TABLE x")

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

    def test_session_profile_rejects_n_jobs(self, nasa_session):
        with pytest.raises(TypeError, match="unexpected keyword argument 'n_jobs'"):
            nasa_session.profile(n_jobs=2)

    def test_lens_rejects_profile_jobs(self, tmp_path):
        with pytest.raises(
            TypeError, match="unexpected keyword argument 'profile_jobs'"
        ):
            DataLens(tmp_path / "workspace", profile_jobs=2)


class TestVersionFiles:
    """Each version's CSV is written once: the upload version is the
    ``dirty.csv`` the loader wrote, and a repair renders its frame once
    into the version's data file, which the repair run and the DataSheet
    name; there is no ``repaired.csv``."""

    def test_upload_version_is_the_dirty_csv(self, nasa_session):
        dirty = nasa_session.workspace.dirty_path
        assert nasa_session.delta.data_path(0).samefile(dirty)
        assert nasa_session.delta.read(0) == nasa_session.frame

    @pytest.mark.parametrize("stream", [False, True])
    def test_reingest_leaves_earlier_versions_unchanged(self, lens, stream):
        def ingest(frame):
            if stream:
                return lens.ingest_csv_stream("d", io.StringIO(to_csv_text(frame)))
            return lens.ingest_frame("d", frame)

        first = ingest(nasa(30))
        v0 = first.delta.data_path(0).read_bytes()
        second = ingest(nasa(10))
        assert second.delta.versions() == [0, 1]
        assert second.delta.data_path(0).read_bytes() == v0
        assert second.delta.read(0) == first.frame
        assert second.delta.read(1) == second.frame
        assert second.delta.data_path(1).samefile(second.workspace.dirty_path)
        assert second.frame.num_rows == 10

    def test_second_repair_keeps_the_first(self, lens, nasa_dirty):
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.run_detection(["mv_detector"])
        first = session.run_repair("standard_imputer")
        v1 = session.delta.data_path(1).read_bytes()
        session.run_detection(["iqr"])
        second = session.run_repair("standard_imputer")
        assert first != second
        assert session.version_after_repair == 2
        sheet = session.generate_datasheet()
        assert sheet.repaired_path == str(session.delta.data_path(2))
        assert sorted(p.name for p in session.workspace.root.iterdir()) == [
            "delta", "dirty.csv"
        ]
        assert session.delta.data_path(1).read_bytes() == v1
        assert session.delta.read(1) == first
        assert session.delta.read(2) == second
        assert len(list((session.workspace.delta_path / "data").iterdir())) == 3

    @pytest.mark.parametrize("spilled", [False, True])
    def test_upload_version_reads_back_as_the_session_frame(self, tmp_path, spilled):
        """v0 holds the uploaded bytes, tokens a re-render would rewrite
        (``007``, ``NA``, `` a``) included, and reads back with the
        session frame's dtypes and fingerprints."""
        text = (
            "zip,flag,na,s,big\n"
            "007,true,NA, a,9007199254740993\n"
            "010,no,x,b,9007199254740992\n"
            "011,true,,c,1\n"
        )
        options = {}
        if spilled:
            options = dict(chunk_size=2, spill_budget=1024, spill_dir=tmp_path / "spill")
        lens = DataLens(tmp_path / "workspace", **options)
        session = lens.ingest_csv_stream("d", io.StringIO(text))
        assert session.delta.data_path(0).read_text(encoding="utf-8") == text
        v0 = session.delta.read(0)
        assert v0.dtypes() == session.frame.dtypes()
        assert v0.column_fingerprints() == session.frame.column_fingerprints()
        assert v0 == session.frame
        reopened = DataLens(tmp_path / "workspace", **options).session("d")
        assert reopened.frame.column_fingerprints() == v0.column_fingerprints()


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
        assert repaired.missing_count() == 0
        runs = lens.tracking.search_runs("Repair")
        assert len(runs) == 1
        # The run names the repair version's data file.
        artifact = lens.tracking.store.run_dir(runs[0]) / "artifacts"
        logged = (artifact / "repaired_path.txt").read_text(encoding="utf-8")
        assert logged == str(session.delta.data_path(1))
        assert session.delta.read(1) == repaired

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
        assert sheet.dirty_path == str(session.workspace.dirty_path)
        assert sheet.repaired_path == str(session.delta.data_path(1))

    def test_save_datasheet(self, lens, nasa_dirty):
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.run_detection(["mv_detector"])
        path = session.save_datasheet()
        assert path.exists()
        assert session.generate_datasheet().repaired_path == ""

    def test_sheet_replay_matches_repair(self, lens, nasa_dirty):
        """§5: a downloaded DataSheet reproduces the preparation steps."""
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.run_detection(["iqr", "mv_detector"])
        repaired = session.run_repair("standard_imputer")
        sheet = session.generate_datasheet()
        assert sheet.replay(nasa_dirty.dirty) == repaired


def _refuse_densifying(monkeypatch):
    """Make densifying a still-spilled column fail loudly."""
    materialize = SpilledChunkedColumn._materialize

    def guarded(self):
        if self._dense_data is None and self.spilled:
            raise AssertionError(f"densified spilled column {self.name!r}")
        materialize(self)

    monkeypatch.setattr(SpilledChunkedColumn, "_materialize", guarded)


class TestReopen:
    """The Delta log is each dataset's only source of truth: a fresh lens
    reopens a dataset at its newest version, not at ``dirty.csv``."""

    @pytest.mark.parametrize("kind", ["resident", "chunked", "spilled", "tenant"])
    def test_reopen_reads_the_newest_version(
        self, tmp_path, monkeypatch, nasa_dirty, kind
    ):
        options = {}
        if kind in ("chunked", "spilled"):
            options["chunk_size"] = 257
        if kind == "spilled":
            options.update(spill_budget=64 * 1024, spill_dir=tmp_path / "spill")

        def fresh_lens():
            lens = DataLens(tmp_path / "workspace", seed=0, **options)
            return lens.tenant("acme") if kind == "tenant" else lens

        session = fresh_lens().ingest_frame("nasa", nasa_dirty.dirty)
        session.run_detection(["mv_detector"])
        session.run_repair("standard_imputer")
        session.load_version(session.delta.restore(0))
        session.load_version(session.delta.restore(1))
        head = session.delta.read()
        assert head == session.delta.read(1)
        assert head != session.delta.read(0)

        if kind == "spilled":
            _refuse_densifying(monkeypatch)
        reopened = fresh_lens().session("nasa")
        assert reopened is not session
        assert reopened.frame.dtypes() == head.dtypes()
        assert reopened.frame.column_fingerprints() == head.column_fingerprints()
        assert reopened.delta.versions() == [0, 1, 2, 3]
        if kind == "spilled":
            assert reopened.spill_stats()["enabled"] is True
            columns = [reopened.frame.column(n) for n in reopened.frame.column_names]
            assert all(column.spilled for column in columns)
            monkeypatch.undo()
        assert reopened.frame == head
        # dirty.csv still holds the upload's bytes; it is not the source.
        assert reopened.workspace.dirty_path.samefile(reopened.delta.data_path(0))

