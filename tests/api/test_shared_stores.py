"""One spill store and one artifact store per server.

A :class:`~repro.core.DataLens` builds both when it is built, and every
session, load and tenant lens shares them, so the configured budgets
bound the whole server. Only an ingest creates a tenant, and a re-ingest
commits a new version and gives its old records back to the store.
"""

from __future__ import annotations

import io
import sys
import threading

import numpy as np
import pytest

from repro.api import TestClient, create_app
from repro.core import DataLens
from repro.dataframe import DataFrame, SpilledChunkedColumn, to_csv_text

BUDGET = 1024 * 1024
SPILL_BUDGET_ENV = "DATALENS_SPILL_BUDGET"


def _frame(n_rows: int, seed: int = 0) -> DataFrame:
    rng = np.random.default_rng(seed)
    return DataFrame.from_dict(
        {
            "id": list(range(n_rows)),
            "x": np.round(rng.normal(size=n_rows), 4).tolist(),
            "city": [f"c{int(i)}" for i in rng.integers(0, 50, n_rows)],
        }
    )


def _spilled(frame: DataFrame) -> bool:
    return all(
        isinstance(frame.column(name), SpilledChunkedColumn)
        and frame.column(name).spilled
        for name in frame.column_names
    )


def _live_records(store) -> int:
    """Live records, once freed columns have handed theirs back."""
    store.stats()  # any store call releases the records of freed columns
    return len(store._refs)


def _records(frame: DataFrame) -> int:
    return sum(len(frame.column(name)._handles) for name in frame.column_names)


@pytest.fixture
def serve(monkeypatch):
    """``serve(lens)``: a client of an app over ``lens``, shut down after."""
    routers = []
    monkeypatch.delenv("DATALENS_DEFAULT_CHUNK_SIZE", raising=False)

    def make(lens: DataLens) -> TestClient:
        routers.append(create_app(lens, workers=1))
        return TestClient(routers[-1])

    yield make
    for router in routers:
        router.job_queue.shutdown()


class TestOneSpillStorePerServer:
    @pytest.mark.parametrize("configured", ["argument", "environment"])
    def test_twenty_uploads_over_two_tenants_share_one_budget(
        self, tmp_path, monkeypatch, built_stores, serve, configured
    ):
        """Twenty 60k-row uploads, profiled, stay spilled in one store
        whose resident bytes never pass the 1 MiB budget."""
        if configured == "argument":
            monkeypatch.delenv(SPILL_BUDGET_ENV, raising=False)
            lens = DataLens(tmp_path / "w", chunk_size=4096, spill_budget=BUDGET)
        else:
            monkeypatch.setenv(SPILL_BUDGET_ENV, str(BUDGET))
            lens = DataLens(tmp_path / "w", chunk_size=4096)
        client = serve(lens)
        body = to_csv_text(_frame(60_000))
        names = [(("alice", "bob")[i % 2], f"d{i}") for i in range(20)]
        for tenant, name in names:
            headers = {"X-Tenant": tenant}
            uploaded = client.post_csv(
                f"/datasets/{name}/upload", body, headers=headers
            )
            assert uploaded.status == 200, uploaded.body
            assert uploaded.body["shape"] == [60_000, 3]
        for tenant, name in names:
            headers = {"X-Tenant": tenant}
            profiled = client.get(f"/datasets/{name}/profile", headers=headers)
            assert profiled.status == 200, profiled.body
        [store] = built_stores
        assert lens.spill_store is store
        assert store.budget_bytes == BUDGET
        assert 0 < store.stats()["peak_resident_bytes"] <= BUDGET
        registry = client.router.tenants
        for tenant, name in names:
            session = registry.lens_for(tenant).session(name)
            assert _spilled(session.frame), (tenant, name)
            assert session.spill_stats()["directory"] == str(store.directory)

    def test_tenant_lenses_share_both_stores(self, tmp_path, serve):
        lens = DataLens(tmp_path / "w", spill_budget=64 * 1024)
        client = serve(lens)
        for tenant in ("alice", "bob"):
            response = client.post(
                "/datasets",
                {"name": "d", "records": [{"a": 1}]},
                headers={"X-Tenant": tenant},
            )
            assert response.status == 200, response.body
            tenant_lens = client.router.tenants.lens_for(tenant)
            assert tenant_lens.workspace_dir == lens.workspace_dir / "tenants" / tenant
            assert tenant_lens.spill_store is lens.spill_store
            assert tenant_lens.loader.spill_store is lens.spill_store
            assert tenant_lens.artifact_store is lens.artifact_store
            assert tenant_lens.session("d").artifacts is lens.artifact_store

    def test_concurrent_uploads_into_one_store(self, tmp_path, serve):
        """Six uploads and profiles over two tenants run at once, with a
        short switch interval, into one small store: every frame reads
        back exactly, and the store's records are exactly the frames'."""
        lens = DataLens(tmp_path / "w", chunk_size=64, spill_budget=8 * 1024)
        client = serve(lens)
        frames = {
            (("alice", "bob")[i % 2], f"d{i}"): _frame(2000, seed=i)
            for i in range(6)
        }
        errors = []

        def upload(tenant: str, name: str, frame: DataFrame) -> None:
            try:
                headers = {"X-Tenant": tenant}
                path = f"/datasets/{name}"
                response = client.post_csv(
                    f"{path}/upload", to_csv_text(frame), headers=headers
                )
                assert response.status == 200, response.body
                assert client.get(f"{path}/profile", headers=headers).status == 200
            except Exception as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=upload, args=(*key, frame))
                for key, frame in frames.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        store = lens.spill_store
        sessions = [
            client.router.tenants.lens_for(tenant).session(name)
            for tenant, name in frames
        ]
        assert _live_records(store) == sum(_records(s.frame) for s in sessions)
        for session, frame in zip(sessions, frames.values()):
            assert _spilled(session.frame)
            assert to_csv_text(session.frame) == to_csv_text(frame)
        stats = store.stats()
        assert stats["checksum_failures"] == 0
        assert 0 < stats["peak_resident_bytes"] <= 8 * 1024


class TestReingest:
    def test_reingest_commits_a_version_and_gives_back_old_records(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(SPILL_BUDGET_ENV, raising=False)
        lens = DataLens(tmp_path / "w", chunk_size=100, spill_budget=16 * 1024)
        store = lens.spill_store
        kept_frame = _frame(1000, seed=1)
        kept = lens.ingest_frame("kept", kept_frame)
        old = lens.ingest_frame("d", _frame(3000, seed=2))
        assert _live_records(store) == _records(kept.frame) + _records(old.frame)
        del old
        new_frame = _frame(500, seed=3)
        fresh = lens.ingest_frame("d", new_frame)
        assert lens.session("d") is fresh
        assert _live_records(store) == _records(kept.frame) + _records(fresh.frame)
        history = fresh.version_history()
        assert [commit["version"] for commit in history] == [0, 1]
        assert [commit["operation"] for commit in history] == ["upload"] * 2
        assert fresh.delta.read() == new_frame
        assert fresh.delta.read(0).num_rows == 3000
        # The other dataset's records still load, and verify.
        assert _spilled(kept.frame)
        assert to_csv_text(kept.frame) == to_csv_text(kept_frame)
        assert store.stats()["checksum_failures"] == 0

    def test_stream_reingest_is_a_version(self, tmp_path):
        lens = DataLens(tmp_path / "w")
        lens.ingest_csv_stream("d", io.StringIO("a\n1\n2\n3\n"))
        session = lens.ingest_csv_stream("d", io.StringIO("a\n7\n8\n"))
        assert [c["version"] for c in session.version_history()] == [0, 1]
        assert session.delta.read() == session.frame
        assert session.delta.read().column("a").values() == [7, 8]

    def test_reopening_from_disk_commits_nothing(self, tmp_path):
        DataLens(tmp_path / "w").ingest_frame("d", _frame(10))
        reopened = DataLens(tmp_path / "w").session("d")
        assert [c["version"] for c in reopened.version_history()] == [0]


class TestReadsCreateNoTenant:
    def test_thousand_unknown_tenants_create_nothing(self, tmp_path, serve):
        lens = DataLens(tmp_path / "w")
        client = serve(lens)
        before = sorted(lens.workspace_dir.rglob("*"))
        for i in range(1000):
            headers = {"X-Tenant": f"t{i}"}
            route = ("/health", "/datasets", "/datasets/nope")[i % 3]
            response = client.get(route, headers=headers)
            if route == "/datasets/nope":
                assert response.status == 404
            else:
                assert response.status == 200
                assert response.body["datasets"] == []
        assert client.router.tenants.tenants() == ["default"]
        assert sorted(lens.workspace_dir.rglob("*")) == before
        assert not (lens.workspace_dir / "tenants").exists()

    def test_only_an_ingest_creates_a_tenant(self, tmp_path, serve):
        client = serve(DataLens(tmp_path / "w"))
        headers = {"X-Tenant": "ghost"}
        assert client.get("/datasets/nope", headers=headers).status == 404
        bad = client.post("/datasets", {"name": "d"}, headers=headers)
        assert bad.status == 422
        assert client.router.tenants.tenants() == ["default"]
        csv = "a\n1\n"
        assert client.post_csv("/datasets/u/upload", csv, headers=headers).status == 200
        assert client.router.tenants.tenants() == ["default", "ghost"]
        assert client.get("/datasets", headers=headers).body["datasets"] == ["u"]

    def test_tenant_on_disk_is_served_after_restart(self, tmp_path, serve):
        first = serve(DataLens(tmp_path / "w"))
        ingested = first.post(
            "/datasets",
            {"name": "d", "records": [{"a": 1}, {"a": 2}]},
            headers={"X-Tenant": "alice"},
        )
        assert ingested.status == 200
        restarted = serve(DataLens(tmp_path / "w"))
        assert restarted.router.tenants.tenants() == ["default"]
        headers = {"X-Tenant": "alice"}
        listing = restarted.get("/datasets", headers=headers)
        assert listing.body["datasets"] == ["d"]
        preview = restarted.get("/datasets/d", headers=headers)
        assert preview.status == 200 and preview.body["num_rows"] == 2
        assert restarted.router.tenants.tenants() == ["alice", "default"]
