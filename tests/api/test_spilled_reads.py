"""Reads of a spilled dataset: they never densify it, and they overlap.

Row access on a spilled column reads only the shards that hold the
requested rows through the spill store's LRU cache, so every GET route
leaves a spilled session spilled and the REST layer serves reads of a
spilled dataset under the shared lock.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro.api import TestClient, create_app
from repro.core import DataLens
from repro.core.controller import DataLensSession
from repro.dataframe import SpilledChunkedColumn, spill_store_of, to_csv_text


def _live_refs(store) -> int:
    """Holders of live records, after collected columns hand theirs back."""
    gc.collect()
    store.stats()  # any store call releases the records of collected columns
    return sum(store._refs.values())


def _spilled_session(tmp_path, frame, tools, rules=()):
    """Upload, profile, detect with ``tools`` and repair a spilled session."""
    lens = DataLens(
        tmp_path / "w",
        chunk_size=257,
        spill_budget=64 * 1024,
        spill_dir=tmp_path / "spill",
    )
    router = create_app(lens, workers=1)
    client = TestClient(router)
    uploaded = client.post_csv("/datasets/d/upload", to_csv_text(frame))
    assert uploaded.status == 200, uploaded.body
    assert client.get("/datasets/d/profile").status == 200
    for determinants, dependent in rules:
        rule = client.put(
            "/datasets/d/rules",
            {"determinants": determinants, "dependent": dependent},
        )
        assert rule.status == 200, rule.body
    detected = client.post("/datasets/d/detect", {"tools": tools})
    assert detected.status == 200, detected.body
    repaired = client.post("/datasets/d/repair", {"tool": "standard_imputer"})
    assert repaired.status == 200, repaired.body
    return client, lens.session("d")


@pytest.fixture
def spilled_app(tmp_path, hospital_dirty):
    """A spilled session detected with NADEEF too, so explanations read rules."""
    client, session = _spilled_session(
        tmp_path,
        hospital_dirty.dirty,
        ["mv_detector", "iqr", "sd", "nadeef"],
        rules=[(["ZipCode"], "City")],
    )
    assert session.detection_results["nadeef"].cells
    assert session.spill_stats()["enabled"] is True
    yield client, session
    client.router.job_queue.shutdown()


def _refuse_densifying(monkeypatch):
    """Make densifying a still-spilled column fail loudly."""
    materialize = SpilledChunkedColumn._materialize

    def guarded(self):
        if self._dense_data is None and self.spilled:
            raise AssertionError(f"a read densified spilled column {self.name!r}")
        materialize(self)

    monkeypatch.setattr(SpilledChunkedColumn, "_materialize", guarded)


def test_no_get_route_densifies_a_spilled_session(spilled_app, monkeypatch):
    client, session = spilled_app
    store = spill_store_of(session.frame)
    before = _live_refs(store)
    _refuse_densifying(monkeypatch)
    reads = [
        ("/datasets/d", {}),
        ("/datasets/d", {"limit": "5"}),
        ("/datasets/d", {"sort_by": "Score,City"}),
        ("/datasets/d", {"sort_by": "City", "descending": "1"}),
        ("/datasets/d", {"sort_by": "City,Score"}),
        ("/datasets/d/profile", {}),
        ("/datasets/d/quality", {}),
        ("/datasets/d/cache", {}),
        ("/datasets/d/spill", {}),
        ("/datasets/d/rules", {}),
        ("/datasets/d/explanations", {}),
        ("/datasets/d/detections", {}),
        ("/datasets/d/datasheet", {}),
        ("/datasets/d/dashboard", {}),
        ("/datasets/d/drift", {}),
        ("/datasets/d/versions", {}),
        ("/jobs", {}),
        ("/health", {}),
    ]
    for path, query in reads:
        response = client.get(path, query=query)
        assert response.status == 200, (path, query, response.body)
    explained = client.get("/datasets/d/explanations").body["explanations"]
    assert any(e["evidence"][0]["tool"] == "nadeef" for e in explained)
    accepted = client.get("/datasets/d/profile", query={"async": "1"})
    assert accepted.status == 202, accepted.body
    client.router.job_queue.wait(accepted.body["job_id"], timeout=60)
    polled = client.get(accepted.body["poll"])
    assert polled.status == 200 and polled.body["status"] == "done", polled.body

    assert session.spill_stats()["enabled"] is True
    assert all(
        session.frame.column(name).spilled for name in session.frame.column_names
    )
    # The sorted previews' external-sort output went back to the store.
    assert _live_refs(store) == before


def test_two_reads_of_a_spilled_dataset_overlap(spilled_app, monkeypatch):
    """Both reads must be inside the handler at once to pass the barrier."""
    client, session = spilled_app
    barrier = threading.Barrier(2, timeout=5)
    quality_metrics = DataLensSession.quality_metrics

    def meeting(self, frame=None):
        barrier.wait()
        return quality_metrics(self, frame)

    monkeypatch.setattr(DataLensSession, "quality_metrics", meeting)
    statuses: list[int] = []

    def read() -> None:
        statuses.append(client.get("/datasets/d/quality").status)

    threads = [threading.Thread(target=read) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert statuses == [200, 200]
    assert session.spill_stats()["enabled"] is True


def test_repair_copies_give_their_records_back(tmp_path, hospital_dirty):
    """Repair patches copies of the spilled frame; their unpatched columns
    share the working frame's records. Once the copies are gone, only the
    working frame holds a record."""
    client, session = _spilled_session(
        tmp_path, hospital_dirty.dirty, ["iqr", "sd"]
    )
    try:
        session.repaired_frame = None
        store = spill_store_of(session.frame)
        working = sum(
            len(session.frame.column(name)._handles)
            for name in session.frame.column_names
        )
        assert _live_refs(store) == working == len(store._refs)
    finally:
        client.router.job_queue.shutdown()
