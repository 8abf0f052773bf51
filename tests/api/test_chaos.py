"""Chaos differential suite: injected faults must not change answers.

The contract under test: low-probability *transient* faults on the
spill sites (spill.*) are absorbed by internal retries, so every 2xx
response is **bit-identical** to the fault-free run; job
faults are retried to the same result; and when a fault does surface,
the client always gets well-formed JSON with the right status — never a
torn response or a dead socket without an answer.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.api import TestClient, create_app, serve
from repro.core import DataLens, faults
from repro.dataframe import to_csv_text

#: The CI chaos leg's plan: seeded low-probability transient faults on
#: every storage site (see .github/workflows/ci.yml).
TRANSIENT_STORAGE_PLAN = "site=spill.*,error=transient,prob=0.2,seed=11"


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """The differential runs inject their own plans; the CI chaos leg's
    ambient DATALENS_FAULT_INJECT would double-inject, so pin it off."""
    monkeypatch.delenv(faults.FAULT_INJECT_ENV, raising=False)


def _boot(tmp_path, nasa_dirty, name):
    """One app over the PR-6 out-of-core config (chunked + tight spill)."""
    lens = DataLens(
        tmp_path / name,
        seed=0,
        chunk_size=257,
        spill_budget=64 * 1024,
        spill_dir=tmp_path / f"{name}-spill",
    )
    lens.ingest_frame("nasa", nasa_dirty.dirty)
    return create_app(lens, workers=2)


def _workload(client: TestClient) -> list[bytes]:
    """A read+compute request mix; returns canonical wire bytes."""
    responses = [
        client.get("/datasets"),
        client.get("/datasets/nasa"),
        client.get("/datasets/nasa/profile"),
        client.post("/datasets/nasa/detect", {"tools": ["mv_detector"]}),
        client.get("/datasets/nasa/quality"),
    ]
    for response in responses:
        assert response.status == 200, response.body
    return [response.to_bytes() for response in responses]


class TestTransientFaultsAreInvisible:
    def test_workload_bit_identical_under_storage_faults(
        self, tmp_path, nasa_dirty
    ):
        baseline_app = _boot(tmp_path, nasa_dirty, "baseline")
        chaos_app = _boot(tmp_path, nasa_dirty, "chaos")
        try:
            baseline = _workload(TestClient(baseline_app))
            with faults.inject(TRANSIENT_STORAGE_PLAN) as plan:
                chaotic = _workload(TestClient(chaos_app))
            fired = sum(rule["fires"] for rule in plan.stats())
            assert fired > 0, "the chaos plan never fired — vacuous test"
            assert chaotic == baseline  # bit-identical wire bytes
        finally:
            baseline_app.job_queue.shutdown()
            chaos_app.job_queue.shutdown()

    def test_async_jobs_converge_to_the_same_result(
        self, tmp_path, nasa_dirty
    ):
        baseline_app = _boot(tmp_path, nasa_dirty, "baseline")
        chaos_app = _boot(tmp_path, nasa_dirty, "chaos")
        chaos_app.job_queue.retry_base_delay = 0.001
        try:

            def run_async(app):
                client = TestClient(app)
                response = client.post(
                    "/datasets/nasa/detect",
                    {"tools": ["mv_detector"]},
                    query={"async": "1"},
                )
                assert response.status == 202
                job = app.job_queue.wait(
                    response.body["job_id"], timeout=120
                )
                return job

            expected = run_async(baseline_app)
            with faults.inject("site=job.run,error=transient,count=1"):
                retried = run_async(chaos_app)
            assert expected.status == retried.status == "done"
            assert retried.result == expected.result
            assert len(retried.attempts) == 1
            assert "TransientFaultError" in retried.attempts[0]["error"]
            assert expected.attempts == []
        finally:
            baseline_app.job_queue.shutdown()
            chaos_app.job_queue.shutdown()


class TestSurfacedFaultsAreWellFormed:
    def test_every_5xx_on_the_wire_is_json_with_retry_after(
        self, tmp_path, nasa_dirty
    ):
        """A fault that does surface crosses the socket as JSON with the
        degradation headers — never a torn body or a silent close."""
        app = _boot(tmp_path, nasa_dirty, "wire")
        server = serve(app, port=0)
        try:
            port = server.server_address[1]
            csv_body = to_csv_text(nasa_dirty.dirty).encode()

            def upload():
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/datasets/fresh/upload",
                    data=csv_body,
                    headers={"Content-Type": "text/csv"},
                    method="POST",
                )
                return urllib.request.urlopen(request, timeout=30)

            # Persistent transient faults on ingest exhaust the job-free
            # sync path and surface as 503.
            with faults.inject("site=ingest.chunk,error=transient"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    upload()
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] is not None
            payload = json.loads(excinfo.value.read())
            assert "injected fault" in payload["detail"]
            # Fault lifted: the same request succeeds on the same server.
            with upload() as response:
                assert response.status == 200
                assert json.loads(response.read())["shape"] == [1503, 6]
        finally:
            server.shutdown()
            app.job_queue.shutdown()

    def test_queue_overload_surfaces_as_json_429_on_the_wire(
        self, tmp_path, nasa_dirty
    ):
        app = _boot(tmp_path, nasa_dirty, "overload")
        app.job_queue.max_depth = 0
        server = serve(app, port=0)
        try:
            port = server.server_address[1]
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/datasets/nasa/detect?async=1",
                data=json.dumps({"tools": ["mv_detector"]}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"] is not None
            payload = json.loads(excinfo.value.read())
            assert "job queue is full" in payload["detail"]
        finally:
            server.shutdown()
            app.job_queue.shutdown()

    def test_capacity_fault_surfaces_as_507_and_session_survives(
        self, tmp_path, nasa_dirty
    ):
        """ENOSPC during a request maps to 507, and — because ingest
        degrades to resident shards — the dataset stays fully usable."""
        app = _boot(tmp_path, nasa_dirty, "capacity")
        try:
            client = TestClient(app)
            with faults.inject("site=spill.write,error=enospc"):
                uploaded = client.post_csv(
                    "/datasets/fresh/upload", to_csv_text(nasa_dirty.dirty)
                )
            # Ingest absorbed the full disk (resident fallback)...
            assert uploaded.status == 200
            assert uploaded.body["shape"] == [1503, 6]
            # ...and the dataset answers reads afterwards.
            preview = client.get("/datasets/fresh")
            assert preview.status == 200
            assert preview.body["num_rows"] == 1503
        finally:
            app.job_queue.shutdown()
