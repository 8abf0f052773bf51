"""Unit tests for the job queue and the per-dataset reader/writer locks."""

import threading
import time

import pytest

from repro.api import JobNotFoundError, JobQueue, LockRegistry, RWLock
from repro.api.jobs import DONE, FAILED, QUEUED, RUNNING


@pytest.fixture
def queue():
    queue = JobQueue(workers=2)
    yield queue
    queue.shutdown()


class TestJobQueue:
    def test_lifecycle_reaches_done_with_result(self, queue):
        job = queue.submit("profile", lambda: {"rows": 3}, dataset="d")
        finished = queue.wait(job.id, timeout=10)
        assert finished is job
        assert job.status == DONE
        assert job.result == {"rows": 3}
        assert job.error is None
        assert job.finished_at >= job.started_at >= job.submitted_at
        payload = job.to_dict()
        assert payload["result"] == {"rows": 3}
        assert "error" not in payload

    def test_failure_captures_typed_detail(self, queue):
        def explode():
            raise RuntimeError("run detection before repair")

        job = queue.submit("repair", explode, dataset="d")
        queue.wait(job.id, timeout=10)
        assert job.status == FAILED
        assert job.error == "RuntimeError: run detection before repair"
        payload = job.to_dict()
        assert payload["error"] == job.error
        assert "result" not in payload

    def test_status_visible_while_running(self, queue):
        release = threading.Event()
        started = threading.Event()

        def work():
            started.set()
            release.wait(10)
            return "ok"

        job = queue.submit("detect", work)
        assert job.status in (QUEUED, RUNNING)
        assert started.wait(10)
        assert queue.get(job.id).status == RUNNING
        release.set()
        assert queue.wait(job.id, timeout=10).result == "ok"

    def test_unknown_job_raises_typed_key_error(self, queue):
        with pytest.raises(JobNotFoundError) as excinfo:
            queue.get("nope")
        assert isinstance(excinfo.value, KeyError)
        assert str(excinfo.value) == "no job with id 'nope'"

    def test_wait_times_out(self, queue):
        release = threading.Event()
        job = queue.submit("slow", lambda: release.wait(10))
        with pytest.raises(TimeoutError):
            queue.wait(job.id, timeout=0.05)
        release.set()
        queue.wait(job.id, timeout=10)

    def test_list_filters_by_tenant_and_dataset(self, queue):
        a = queue.submit("profile", lambda: 1, dataset="x", tenant="alice")
        b = queue.submit("detect", lambda: 2, dataset="y", tenant="bob")
        queue.wait(a.id, timeout=10)
        queue.wait(b.id, timeout=10)
        assert [job.id for job in queue.list(tenant="alice")] == [a.id]
        assert [job.id for job in queue.list(dataset="y")] == [b.id]
        assert {job.id for job in queue.list()} == {a.id, b.id}

    def test_finished_jobs_pruned_beyond_retention(self):
        queue = JobQueue(workers=1, max_retained=3)
        try:
            jobs = []
            for _ in range(6):
                job = queue.submit("noop", lambda: None)
                queue.wait(job.id, timeout=10)
                jobs.append(job)
            retained = queue.list()
            assert len(retained) <= 3
            # The newest job always survives pruning.
            assert jobs[-1].id in {job.id for job in retained}
        finally:
            queue.shutdown()


class TestRWLock:
    def test_readers_run_concurrently(self):
        lock = RWLock()
        inside = []
        barrier = threading.Barrier(3, timeout=10)

        def reader():
            with lock.read_lock():
                inside.append(1)
                barrier.wait()  # only passable with all 3 inside at once

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(inside) == 3

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        timeline = []

        def writer(tag):
            with lock.write_lock():
                timeline.append((tag, "in"))
                time.sleep(0.05)
                timeline.append((tag, "out"))

        threads = [
            threading.Thread(target=writer, args=(tag,)) for tag in "ab"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        # No interleaving: each writer's in/out pair is adjacent.
        assert timeline[0][0] == timeline[1][0]
        assert timeline[2][0] == timeline[3][0]

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        release_reader = threading.Event()
        writer_done = threading.Event()
        second_reader_ran = threading.Event()
        order = []

        def first_reader():
            with lock.read_lock():
                release_reader.wait(10)

        def writer():
            with lock.write_lock():
                order.append("writer")
            writer_done.set()

        def second_reader():
            with lock.read_lock():
                order.append("reader2")
            second_reader_ran.set()

        t1 = threading.Thread(target=first_reader)
        t1.start()
        time.sleep(0.02)
        tw = threading.Thread(target=writer)
        tw.start()
        time.sleep(0.02)  # writer is now waiting on the active reader
        t2 = threading.Thread(target=second_reader)
        t2.start()
        time.sleep(0.05)
        # Writer preference: the late reader must not sneak in ahead.
        assert not second_reader_ran.is_set()
        release_reader.set()
        t1.join(10), tw.join(10), t2.join(10)
        assert order == ["writer", "reader2"]


class TestLockRegistry:
    def test_same_key_same_lock(self):
        registry = LockRegistry()
        assert registry.of("t", "d") is registry.of("t", "d")
        assert registry.of("t", "d") is not registry.of("t", "other")
        assert registry.of("t", "d") is not registry.of("u", "d")
