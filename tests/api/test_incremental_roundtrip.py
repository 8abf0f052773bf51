"""REST repair → re-profile roundtrip over the session artifact cache.

Drives the paper's interactive loop end to end through the HTTP surface:
ingest → profile → detect → repair → restore repaired version →
re-profile, asserting that the second profile response (a) reflects the
repaired content rather than a stale report, (b) is byte-equal to a
cold-path profile of the same content, and (c) was served incrementally
from the session's artifact store.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.api import TestClient, create_app
from repro.core import ArtifactStore, DataLens
from repro.profiling import profile

#: The keys ``GET /datasets/{name}/cache`` answers with, as documented
#: by :meth:`ArtifactStore.stats`.
CACHE_KEYS = {
    "enabled", "entries", "max_entries", "max_bytes", "total_bytes",
    "evicted_bytes", "hits", "misses", "puts", "evictions", "hit_rate",
    "by_kind",
}


@pytest.fixture
def lens(tmp_path, nasa_dirty):
    lens = DataLens(tmp_path / "workspace", seed=0)
    lens.ingest_frame("nasa", nasa_dirty.dirty)
    return lens


@pytest.fixture
def client(lens):
    return TestClient(create_app(lens))


def _json_roundtrip(payload: dict) -> dict:
    """Normalize through the same JSON encoding the HTTP layer applies."""
    return json.loads(json.dumps(payload, default=str))


class TestRepairReprofileRoundtrip:
    def test_second_profile_equals_cold_run(self, lens, client):
        first = client.get("/datasets/nasa/profile")
        assert first.status == 200

        detect = client.post(
            "/datasets/nasa/detect", {"tools": ["mv_detector", "iqr"]}
        )
        assert detect.status == 200 and detect.body["num_cells"] > 0

        repair = client.post(
            "/datasets/nasa/repair", {"tool": "standard_imputer"}
        )
        assert repair.status == 200
        repaired_version = repair.body["version_after_repair"]

        restore = client.post(
            "/datasets/nasa/versions/restore", {"version": repaired_version}
        )
        assert restore.status == 200

        second = client.get("/datasets/nasa/profile")
        assert second.status == 200
        # the stale pre-repair report must not be replayed: the imputer
        # filled the detected missing cells, which the overview reflects
        assert (
            second.body["overview"]["missing_cells"]
            < first.body["overview"]["missing_cells"]
        )

        # byte-equality against a cold, cache-free profile of the same
        # working frame (what a fresh controller would compute)
        cold = _json_roundtrip(
            profile(lens.session("nasa").frame).to_dict()
        )
        assert second.body == cold

    def test_roundtrip_is_incremental(self, lens, client):
        # one column carries every error, so the repair dirties a strict
        # subset of columns and the re-profile must reuse the rest
        records = [
            {
                "dirty": None if i % 10 == 0 else float(i % 7),
                "clean_num": float(i % 5),
                "clean_cat": f"level{i % 3}",
            }
            for i in range(60)
        ]
        assert (
            client.post(
                "/datasets", {"name": "narrow", "records": records}
            ).status
            == 200
        )
        client.get("/datasets/narrow/profile")
        stats = client.get("/datasets/narrow/cache")
        assert stats.status == 200
        if not stats.body["enabled"]:
            pytest.skip("artifact cache disabled via environment")
        client.post("/datasets/narrow/detect", {"tools": ["mv_detector"]})
        client.post("/datasets/narrow/repair", {"tool": "standard_imputer"})
        repaired_version = lens.session("narrow").version_after_repair
        client.post(
            "/datasets/narrow/versions/restore", {"version": repaired_version}
        )
        before = client.get("/datasets/narrow/cache").body["by_kind"][
            "profile:column"
        ]
        second = client.get("/datasets/narrow/profile")
        assert second.body["overview"]["missing_cells"] == 0
        after = client.get("/datasets/narrow/cache").body["by_kind"][
            "profile:column"
        ]
        recomputed = after["misses"] - before["misses"]
        reused = after["hits"] - before["hits"]
        # only the repaired column recomputes; the clean two are hits
        assert recomputed == 1
        assert reused == 2

    def test_cache_endpoint_reports_counters(self, client):
        stats = client.get("/datasets/nasa/cache")
        assert stats.status == 200
        for key in ("enabled", "entries", "hits", "misses", "hit_rate"):
            assert key in stats.body
        client.get("/datasets/nasa/profile")
        # quality shares the frame-level duplicates artifact with profiling
        client.get("/datasets/nasa/quality")
        warmed = client.get("/datasets/nasa/cache").body
        if warmed["enabled"]:
            assert warmed["entries"] > 0
            assert warmed["by_kind"]["frame:duplicates"]["hits"] > 0

    def test_cache_endpoint_returns_exactly_its_documented_keys(self, client):
        client.get("/datasets/nasa/profile")
        body = client.get("/datasets/nasa/cache").body
        documented = set(re.findall(r"``(\w+)``", ArtifactStore.stats.__doc__))
        assert set(body) == CACHE_KEYS == documented
        for counts in body["by_kind"].values():
            assert set(counts) == {"hits", "misses", "puts"}
