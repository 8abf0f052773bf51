"""Graceful degradation of the serving path under overload and faults.

Covers the bounded job queue (429 + Retry-After), automatic retry of
transiently-failing jobs with a pollable attempt history, per-request
deadlines (503 + Retry-After), the stalled-socket header/body read
timeouts, and graceful drain on shutdown for both the HTTP server and
the job queue.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.api import (
    JobQueue,
    JobQueueClosedError,
    JobQueueFullError,
    Router,
    TestClient,
    create_app,
    serve,
)
from repro.api.http import RETRY_AFTER_SECONDS
from repro.core import DataLens
from repro.core.faults import TransientFaultError, inject


# ----------------------------------------------------------------------
# Job queue: depth bound, retries, drain
# ----------------------------------------------------------------------
class TestJobQueueDepth:
    def test_submits_beyond_depth_rejected(self):
        queue = JobQueue(workers=1, max_depth=2, retries=0)
        release = threading.Event()
        try:
            queue.submit("block", release.wait)
            queue.submit("block", release.wait)
            with pytest.raises(JobQueueFullError) as excinfo:
                queue.submit("overflow", lambda: None)
            assert "DATALENS_JOB_QUEUE_DEPTH" in str(excinfo.value)
            assert queue.rejected_full == 1
        finally:
            release.set()
            queue.shutdown()

    def test_depth_frees_up_as_jobs_finish(self):
        queue = JobQueue(workers=1, max_depth=1, retries=0)
        try:
            job = queue.submit("quick", lambda: 42)
            queue.wait(job.id, timeout=10)
            again = queue.submit("quick", lambda: 43)
            assert queue.wait(again.id, timeout=10).result == 43
        finally:
            queue.shutdown()

    def test_env_depth_resolution(self, monkeypatch):
        monkeypatch.setenv("DATALENS_JOB_QUEUE_DEPTH", "3")
        queue = JobQueue(workers=1)
        assert queue.max_depth == 3
        queue.shutdown()
        monkeypatch.setenv("DATALENS_JOB_QUEUE_DEPTH", "0")
        with pytest.raises(ValueError, match="DATALENS_JOB_QUEUE_DEPTH"):
            JobQueue(workers=1)


class TestJobRetries:
    def test_transient_failure_retries_to_done_with_history(self):
        queue = JobQueue(workers=1, retries=2, retry_base_delay=0.001)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientFaultError("blip")
            return "finally"

        try:
            job = queue.submit("flaky", flaky)
            finished = queue.wait(job.id, timeout=10)
            assert finished.status == "done"
            assert finished.result == "finally"
            assert len(finished.attempts) == 2
            for record in finished.attempts:
                assert "TransientFaultError" in record["error"]
                assert record["backoff_seconds"] > 0
            assert queue.retried_attempts == 2
            # The attempt history is part of the pollable payload.
            assert len(finished.to_dict()["attempts"]) == 2
        finally:
            queue.shutdown()

    def test_exhausted_retries_fail_with_full_history(self):
        queue = JobQueue(workers=1, retries=2, retry_base_delay=0.001)

        def always():
            raise TransientFaultError("never works")

        try:
            job = queue.submit("doomed", always)
            finished = queue.wait(job.id, timeout=10)
            assert finished.status == "failed"
            assert "TransientFaultError" in finished.error
            assert len(finished.attempts) == 3  # 1 try + 2 retries
            assert finished.attempts[-1]["backoff_seconds"] is None
        finally:
            queue.shutdown()

    def test_non_transient_failure_never_retries(self):
        queue = JobQueue(workers=1, retries=5, retry_base_delay=0.001)

        def broken():
            raise ValueError("a bug, not a blip")

        try:
            job = queue.submit("broken", broken)
            finished = queue.wait(job.id, timeout=10)
            assert finished.status == "failed"
            assert len(finished.attempts) == 1
            assert queue.retried_attempts == 0
        finally:
            queue.shutdown()

    def test_injected_job_fault_retried_via_site(self):
        queue = JobQueue(workers=1, retries=2, retry_base_delay=0.001)
        try:
            with inject("site=job.run,error=transient,count=1"):
                job = queue.submit("work", lambda: "ok")
                finished = queue.wait(job.id, timeout=10)
            assert finished.status == "done"
            assert finished.result == "ok"
            assert len(finished.attempts) == 1
        finally:
            queue.shutdown()


class TestJobQueueDrain:
    def test_closed_queue_rejects_new_work(self):
        queue = JobQueue(workers=1)
        queue.shutdown()
        with pytest.raises(JobQueueClosedError):
            queue.submit("late", lambda: None)
        assert queue.rejected_closed == 1

    def test_drain_waits_for_active_jobs(self):
        queue = JobQueue(workers=1, retries=0)
        job = queue.submit("slowish", lambda: time.sleep(0.2) or "done")
        assert queue.shutdown(drain_timeout=10) is True
        assert queue.get(job.id).status == "done"

    def test_drain_deadline_fails_leftover_jobs(self):
        queue = JobQueue(workers=1, retries=0)
        release = threading.Event()
        blocker = queue.submit("block", release.wait)
        queued = queue.submit("starved", lambda: "never ran")
        try:
            assert queue.shutdown(drain_timeout=0.1) is False
            leftover = queue.get(queued.id)
            assert leftover.status == "failed"
            assert "cancelled" in leftover.error
            assert queue.get(blocker.id).status == "failed"
        finally:
            release.set()

    def test_cancelled_job_is_not_resurrected_by_its_worker(self):
        """A job failed at the drain deadline stays failed even though
        its work callable eventually returns on the pool thread."""
        queue = JobQueue(workers=1, retries=0)
        release = threading.Event()
        job = queue.submit("block", lambda: release.wait(5) or "late result")
        assert queue.shutdown(drain_timeout=0.05) is False
        release.set()
        time.sleep(0.2)  # give the worker time to finish work()
        final = queue.get(job.id)
        assert final.status == "failed"
        assert final.result is None


# ----------------------------------------------------------------------
# REST layer: overload responses carry Retry-After
# ----------------------------------------------------------------------
class TestRestOverload:
    @pytest.fixture
    def app(self, tmp_path, nasa_dirty):
        lens = DataLens(tmp_path / "workspace", seed=0)
        lens.ingest_frame("nasa", nasa_dirty.dirty)
        router = create_app(lens, workers=2)
        yield router
        router.job_queue.shutdown()

    def test_full_queue_is_429_with_retry_after(self, app):
        client = TestClient(app)
        app.job_queue.max_depth = 0  # force every submit over the bound
        response = client.post(
            "/datasets/nasa/detect",
            {"tools": ["mv_detector"]},
            query={"async": "1"},
        )
        assert response.status == 429
        assert "job queue is full" in response.body["detail"]
        assert response.headers["Retry-After"] == str(RETRY_AFTER_SECONDS)

    def test_closed_queue_is_503_with_retry_after(self, app):
        client = TestClient(app)
        app.job_queue.shutdown()
        response = client.post(
            "/datasets/nasa/detect",
            {"tools": ["mv_detector"]},
            query={"async": "1"},
        )
        assert response.status == 503
        assert response.headers["Retry-After"] == str(RETRY_AFTER_SECONDS)

    def test_job_attempts_visible_via_rest(self, app):
        client = TestClient(app)
        app.job_queue.retries = 1
        app.job_queue.retry_base_delay = 0.001
        with inject("site=job.run,error=transient,count=1"):
            response = client.post(
                "/datasets/nasa/detect",
                {"tools": ["mv_detector"]},
                query={"async": "1"},
            )
            assert response.status == 202
            job_id = response.body["job_id"]
            app.job_queue.wait(job_id, timeout=60)
        polled = client.get(f"/jobs/{job_id}")
        assert polled.body["status"] == "done"
        assert len(polled.body["attempts"]) == 1
        assert "TransientFaultError" in polled.body["attempts"][0]["error"]


# ----------------------------------------------------------------------
# HTTP server: read timeouts, request deadlines, graceful drain
# ----------------------------------------------------------------------
@pytest.fixture
def router():
    router = Router()

    @router.get("/items")
    def list_items(request):
        return {"items": [1, 2, 3]}

    @router.get("/slow")
    def slow(request):
        time.sleep(0.5)
        return {"slow": True}

    return router


class TestServerDegradation:
    def test_stalled_header_trickle_times_out(self, router):
        """Regression: a client sending the request line and then
        stalling mid-headers used to hold its connection open forever —
        only the request-line read was bounded."""
        server = serve(router, port=0)
        server.KEEPALIVE_TIMEOUT = 0.3  # instance attr: read per-request
        try:
            with socket.create_connection(
                ("127.0.0.1", server.server_address[1]), timeout=5
            ) as sock:
                sock.sendall(b"GET /items HTTP/1.1\r\nHost: x\r\n")
                # No terminating blank line: the server must give up.
                sock.settimeout(5)
                start = time.monotonic()
                assert sock.recv(1024) == b""  # connection closed
                assert time.monotonic() - start < 4
            # The server still answers well-behaved clients.
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.server_address[1]}/items",
                timeout=5,
            ) as response:
                assert response.status == 200
        finally:
            server.shutdown()

    def test_stalled_body_times_out(self, router):
        server = serve(router, port=0)
        server.KEEPALIVE_TIMEOUT = 0.3
        try:
            with socket.create_connection(
                ("127.0.0.1", server.server_address[1]), timeout=5
            ) as sock:
                sock.sendall(
                    b"POST /items HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 100\r\n\r\n{\"partial\":"
                )
                sock.settimeout(5)
                assert sock.recv(1024) == b""
        finally:
            server.shutdown()

    def test_deadline_answers_503_json_with_retry_after(self, router):
        server = serve(router, port=0, request_timeout=0.1)
        try:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=10
            )
            conn.request("GET", "/slow")
            response = conn.getresponse()
            assert response.status == 503
            assert response.getheader("Retry-After") == str(
                RETRY_AFTER_SECONDS
            )
            payload = json.loads(response.read())
            assert "deadline" in payload["detail"]
            conn.close()
            # A fast request afterwards is unaffected.
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.server_address[1]}/items",
                timeout=5,
            ) as ok:
                assert ok.status == 200
        finally:
            server.shutdown()

    def test_fast_requests_unaffected_by_deadline(self, router):
        server = serve(router, port=0, request_timeout=5.0)
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.server_address[1]}/items",
                timeout=5,
            ) as response:
                assert json.loads(response.read()) == {"items": [1, 2, 3]}
        finally:
            server.shutdown()

    def test_graceful_drain_finishes_inflight_requests(self, router):
        server = serve(router, port=0)
        port = server.server_address[1]
        result = {}

        def hit_slow():
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/slow", timeout=10
            ) as response:
                result["status"] = response.status
                result["body"] = json.loads(response.read())

        thread = threading.Thread(target=hit_slow)
        thread.start()
        time.sleep(0.1)  # let /slow become in-flight
        assert server.shutdown(drain_timeout=10) is True
        thread.join(timeout=10)
        assert result == {"status": 200, "body": {"slow": True}}

    def test_drain_deadline_reports_unfinished_work(self, router):
        server = serve(router, port=0)
        port = server.server_address[1]

        def hit_slow():
            try:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/slow", timeout=10
                ).read()
            except Exception:
                pass  # the cancelled request may die any number of ways

        thread = threading.Thread(target=hit_slow)
        thread.start()
        time.sleep(0.1)
        assert server.shutdown(drain_timeout=0.05) is False
        thread.join(timeout=10)
