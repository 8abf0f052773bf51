"""Experiment tracking (MLflow substitute) tests."""

import sys
import threading

import pytest

from repro.tracking import store as store_module
from repro.tracking import (
    DETECTION_EXPERIMENT,
    FAILED,
    FINISHED,
    REPAIR_EXPERIMENT,
    TrackingClient,
    TrackingStore,
)


def _run_threads(*targets, timeout=30.0):
    """Run each target in its own thread; re-raise the first failure."""
    errors = []

    def guarded(target):
        try:
            target()
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [
        threading.Thread(target=guarded, args=(target,)) for target in targets
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


class TestStore:
    def test_create_experiment_idempotent(self, tmp_path):
        store = TrackingStore(tmp_path)
        first = store.create_experiment("Detection")
        second = store.create_experiment("Detection")
        assert first == second
        assert len(store.list_experiments()) == 1

    def test_run_persistence_roundtrip(self, tmp_path):
        store = TrackingStore(tmp_path)
        experiment_id = store.create_experiment("Detection")
        run = store.create_run(experiment_id, "nasa:iqr")
        run.params["factor"] = 1.5
        run.metrics["num_cells"] = [(0, 42.0)]
        store.save_run(run)
        loaded = store.load_run(experiment_id, run.run_id)
        assert loaded.params["factor"] == 1.5
        assert loaded.metrics["num_cells"] == [(0, 42.0)]

    def test_unknown_experiment(self, tmp_path):
        store = TrackingStore(tmp_path)
        with pytest.raises(KeyError):
            store.create_run("exp_9999", "x")

    def test_list_runs(self, tmp_path):
        store = TrackingStore(tmp_path)
        experiment_id = store.create_experiment("Repair")
        store.create_run(experiment_id, "a")
        store.create_run(experiment_id, "b")
        assert len(store.list_runs(experiment_id)) == 2

    def test_artifacts(self, tmp_path):
        store = TrackingStore(tmp_path)
        experiment_id = store.create_experiment("Detection")
        run = store.create_run(experiment_id, "x")
        path = store.log_artifact_text(run, "sheet.json", "{}")
        assert path == store.run_dir(run) / "artifacts" / "sheet.json"
        assert path.read_text(encoding="utf-8") == "{}"

    def test_artifact_rewrite_replaces_content(self, tmp_path):
        store = TrackingStore(tmp_path)
        run = store.create_run(store.create_experiment("Detection"), "x")
        store.log_artifact_text(run, "sheet.json", '{"v": 1}')
        path = store.log_artifact_text(run, "sheet.json", '{"v": 2}')
        assert path.read_text(encoding="utf-8") == '{"v": 2}'
        assert sorted(p.name for p in path.parent.iterdir()) == ["sheet.json"]

    def test_writes_leave_no_tmp_files(self, tmp_path):
        client = TrackingClient(tmp_path)
        for experiment in (DETECTION_EXPERIMENT, REPAIR_EXPERIMENT):
            with client.start_run(experiment, "r"):
                client.log_params({"tool": "iqr"})
                client.log_metric("cells", 3.0)
                client.log_text_artifact("note.txt", "hello")
        assert list(tmp_path.rglob("*.tmp")) == []
        assert len(list(tmp_path.rglob("*.json"))) == 2 + 2 * 3

    def test_failed_atomic_write_leaves_no_tmp(self, tmp_path, monkeypatch):
        def explode(src, dst):
            raise OSError(5, "replace failed")

        monkeypatch.setattr(store_module.os, "replace", explode)
        target = tmp_path / "meta.json"
        with pytest.raises(OSError):
            store_module._atomic_write(target, b"payload")
        assert list(tmp_path.iterdir()) == []

    def test_run_meta_written_last(self, tmp_path, monkeypatch):
        """Readers list runs by meta.json, so it lands after the rest."""
        store = TrackingStore(tmp_path)
        experiment_id = store.create_experiment("Detection")
        written = []
        write = store_module._write_text

        def recording(path, text):
            written.append(path.name)
            write(path, text)

        monkeypatch.setattr(store_module, "_write_text", recording)
        run = store.create_run(experiment_id, "x")
        store.save_run(run)
        assert written == ["params.json", "metrics.json", "meta.json"] * 2

    def test_list_runs_skips_run_without_meta(self, tmp_path):
        store = TrackingStore(tmp_path)
        experiment_id = store.create_experiment("Detection")
        run = store.create_run(experiment_id, "listed")
        half_written = tmp_path / experiment_id / "half"
        half_written.mkdir()
        (half_written / "params.json").write_text("{}", encoding="utf-8")
        assert [r.run_id for r in store.list_runs(experiment_id)] == [run.run_id]


class TestClient:
    def test_run_context_finishes(self, tmp_path):
        client = TrackingClient(tmp_path)
        with client.start_run(DETECTION_EXPERIMENT, "r1"):
            client.log_param("tool", "iqr")
            client.log_metric("cells", 10.0)
        runs = client.search_runs(DETECTION_EXPERIMENT)
        assert len(runs) == 1
        assert runs[0].status == FINISHED
        assert runs[0].params["tool"] == "iqr"
        assert runs[0].latest_metrics()["cells"] == 10.0

    def test_failure_marks_run(self, tmp_path):
        client = TrackingClient(tmp_path)
        with pytest.raises(RuntimeError):
            with client.start_run(DETECTION_EXPERIMENT, "bad"):
                raise RuntimeError("boom")
        runs = client.search_runs(DETECTION_EXPERIMENT, status=FAILED)
        assert len(runs) == 1

    def test_metric_steps_accumulate(self, tmp_path):
        client = TrackingClient(tmp_path)
        with client.start_run("Repair", "r"):
            client.log_metric("loss", 3.0)
            client.log_metric("loss", 2.0)
            client.log_metric("loss", 1.0)
        run = client.search_runs("Repair")[0]
        assert [value for _, value in run.metrics["loss"]] == [3.0, 2.0, 1.0]

    def test_log_outside_run_raises(self, tmp_path):
        client = TrackingClient(tmp_path)
        with pytest.raises(RuntimeError):
            client.log_param("x", 1)

    def test_nested_runs_restore_previous(self, tmp_path):
        client = TrackingClient(tmp_path)
        with client.start_run("Detection", "outer"):
            client.log_param("level", "outer")
            with client.start_run("Detection", "inner"):
                client.log_param("level", "inner")
            client.log_param("after", True)
        runs = {run.name: run for run in client.search_runs("Detection")}
        assert runs["outer"].params["after"] is True
        assert runs["inner"].params["level"] == "inner"

    def test_text_artifact(self, tmp_path):
        client = TrackingClient(tmp_path)
        with client.start_run("Detection", "r"):
            path = client.log_text_artifact("note.txt", "hello")
        assert path.read_text(encoding="utf-8") == "hello"

    def test_search_unknown_experiment_empty(self, tmp_path):
        assert TrackingClient(tmp_path).search_runs("Nope") == []


class TestConcurrentRuns:
    def test_active_run_is_per_thread(self, tmp_path):
        client = TrackingClient(tmp_path)
        opened, probed = threading.Event(), threading.Event()

        def owner():
            with client.start_run(DETECTION_EXPERIMENT, "owner"):
                opened.set()
                assert probed.wait(10)
                client.log_param("tool", "iqr")

        def other():
            assert opened.wait(10)
            try:
                with pytest.raises(RuntimeError, match="no active run"):
                    client.log_param("tool", "stolen")
            finally:
                probed.set()

        _run_threads(owner, other)
        (run,) = client.search_runs(DETECTION_EXPERIMENT)
        assert (run.status, run.params) == (FINISHED, {"tool": "iqr"})

    def test_racing_creates_share_one_experiment(self, tmp_path):
        store = TrackingStore(tmp_path)
        barrier = threading.Barrier(6)
        ids = []

        def create():
            barrier.wait(10)
            ids.append(store.create_experiment(DETECTION_EXPERIMENT))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(*(create for _ in range(6)))
        finally:
            sys.setswitchinterval(interval)
        assert len(set(ids)) == 1
        assert len(store.list_experiments()) == 1

    def test_interleaved_runs_keep_their_own_params(self, tmp_path):
        """Two threads share one client, as two datasets' jobs do."""
        client = TrackingClient(tmp_path)
        a_opened, b_opened, a_logged = (threading.Event() for _ in range(3))

        def detection_job():
            with client.start_run(DETECTION_EXPERIMENT, "a"):
                a_opened.set()
                assert b_opened.wait(10)
                client.log_params({"tool": "a"})
                a_logged.set()

        def repair_job():
            assert a_opened.wait(10)
            with client.start_run(REPAIR_EXPERIMENT, "b"):
                b_opened.set()
                assert a_logged.wait(10)
                client.log_params({"tool": "b"})

        _run_threads(detection_job, repair_job)
        expected = ((DETECTION_EXPERIMENT, "a"), (REPAIR_EXPERIMENT, "b"))
        for experiment, name in expected:
            (run,) = client.search_runs(experiment)
            assert (run.name, run.status) == (name, FINISHED)
            assert run.params == {"tool": name}

    def test_concurrent_writers_and_readers_never_see_torn_files(self, tmp_path):
        client = TrackingClient(tmp_path)
        experiments = ("E0", "E1", "E2")

        def writer(index):
            def job():
                for step in range(25):
                    experiment = experiments[(index + step) % len(experiments)]
                    with client.start_run(experiment, f"w{index}-{step}"):
                        client.log_params({"writer": index, "step": step})
                        client.log_metric("step", float(step))
            return job

        def reader():
            for _ in range(60):
                for experiment in experiments:
                    client.search_runs(experiment)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(*(writer(i) for i in range(4)), reader, reader)
        finally:
            sys.setswitchinterval(interval)
        names = [e["name"] for e in client.store.list_experiments()]
        assert sorted(names) == list(experiments)
        runs = [run for e in experiments for run in client.search_runs(e)]
        assert len(runs) == 100
        for run in runs:
            writer_index, step = map(int, run.name[1:].split("-"))
            assert run.status == FINISHED
            assert run.params == {"writer": writer_index, "step": step}
