"""Async jobs, parameter validation, tenancy, and streaming uploads."""

import errno
import threading

import pytest

from repro.api import TestClient, create_app
from repro.core import DataLens
from repro.dataframe import to_csv_text
from repro.versioning import table as table_module


@pytest.fixture
def lens(tmp_path):
    return DataLens(tmp_path / "workspace", seed=0)


@pytest.fixture
def app(lens, nasa_dirty):
    lens.ingest_frame("nasa", nasa_dirty.dirty)
    router = create_app(lens, workers=2)
    yield router
    router.job_queue.shutdown()


@pytest.fixture
def client(app):
    return TestClient(app)


class TestAsyncJobs:
    def test_async_detect_returns_202_and_polls_to_done(self, app, client):
        response = client.post(
            "/datasets/nasa/detect",
            {"tools": ["mv_detector"]},
            query={"async": "1"},
        )
        assert response.status == 202
        job_id = response.body["job_id"]
        assert response.body["poll"] == f"/jobs/{job_id}"
        job = app.job_queue.wait(job_id, timeout=60)
        polled = client.get(f"/jobs/{job_id}")
        assert polled.status == 200
        assert polled.body["status"] == "done"
        assert polled.body["kind"] == "detect"
        assert polled.body["dataset"] == "nasa"
        assert polled.body["result"]["num_cells"] > 0
        assert job.result == polled.body["result"]

    def test_sync_call_unchanged_without_flag(self, client):
        response = client.post(
            "/datasets/nasa/detect", {"tools": ["mv_detector"]}
        )
        assert response.status == 200
        assert response.body["num_cells"] > 0

    def test_async_profile_while_other_requests_complete(self, app, client):
        """A long profile job answers through /jobs/{id} while fast
        requests keep completing — the acceptance scenario."""
        response = client.get("/datasets/nasa/profile", query={"async": "1"})
        assert response.status == 202
        job_id = response.body["job_id"]
        # Interleave fast requests while the job may still be running.
        for _ in range(3):
            assert client.get("/datasets/nasa").status == 200
        app.job_queue.wait(job_id, timeout=120)
        polled = client.get(f"/jobs/{job_id}")
        assert polled.body["status"] == "done"
        assert polled.body["result"]["overview"]["rows"] == 1503

    def test_failed_job_carries_error_detail(self, app, client):
        # Repair without a prior detection → RuntimeError inside the job.
        response = client.post(
            "/datasets/nasa/repair", {}, query={"async": "1"}
        )
        assert response.status == 202
        job_id = response.body["job_id"]
        app.job_queue.wait(job_id, timeout=60)
        polled = client.get(f"/jobs/{job_id}")
        assert polled.body["status"] == "failed"
        assert "run detection before repair" in polled.body["error"]
        assert "result" not in polled.body

    def test_unknown_dataset_404_before_submitting(self, app, client):
        response = client.post(
            "/datasets/ghost/detect",
            {"tools": ["mv_detector"]},
            query={"async": "1"},
        )
        assert response.status == 404
        assert app.job_queue.list() == []

    def test_unknown_job_is_404(self, client):
        response = client.get("/jobs/deadbeef")
        assert response.status == 404
        assert "deadbeef" in response.body["detail"]

    def test_jobs_listing_scoped_to_tenant(self, app, client):
        client.post(
            "/datasets/nasa/detect",
            {"tools": ["mv_detector"]},
            query={"async": "1"},
        )
        mine = client.get("/jobs")
        assert len(mine.body["jobs"]) == 1
        other = client.get("/jobs", headers={"X-Tenant": "other"})
        assert other.body["jobs"] == []


class TestParamValidation:
    def test_malformed_limit_names_parameter(self, client):
        response = client.get("/datasets/nasa", query={"limit": "abc"})
        assert response.status == 422
        assert "'limit'" in response.body["detail"]
        assert "'abc'" in response.body["detail"]

    def test_negative_limit_clamped_to_empty(self, client):
        response = client.get("/datasets/nasa", query={"limit": "-5"})
        assert response.status == 200
        assert response.body["rows"] == []
        assert response.body["num_rows"] == 1503

    def test_malformed_drift_baseline_names_parameter(self, client):
        response = client.get("/datasets/nasa/drift", query={"baseline": "x"})
        assert response.status == 422
        assert "'baseline'" in response.body["detail"]

    def test_malformed_body_int_names_parameter(self, client):
        response = client.post(
            "/datasets/nasa/rules/discover", {"max_lhs_size": "two"}
        )
        assert response.status == 422
        assert "'max_lhs_size'" in response.body["detail"]

    def test_malformed_tolerance_names_parameter(self, client):
        response = client.post(
            "/datasets/nasa/rules/discover", {"tolerance": "loose"}
        )
        assert response.status == 422
        assert "'tolerance'" in response.body["detail"]

    def test_non_integer_row_label_names_parameter(self, client):
        response = client.put(
            "/datasets/nasa/labels",
            {"row": "first", "column": "x", "is_dirty": True},
        )
        assert response.status == 422
        assert "'row'" in response.body["detail"]

    def test_detect_tools_must_be_string_list(self, client):
        response = client.post("/datasets/nasa/detect", {"tools": "raha"})
        assert response.status == 422
        assert "tools" in response.body["detail"]

    def test_malformed_iterative_iterations(self, client):
        response = client.post(
            "/datasets/nasa/iterative",
            {"task": "classification", "target": "y", "n_iterations": "ten"},
        )
        assert response.status == 422
        assert "'n_iterations'" in response.body["detail"]

    def test_invalid_tenant_name_rejected(self, client):
        response = client.get("/datasets", headers={"X-Tenant": "a/b"})
        assert response.status == 422
        assert "tenant" in response.body["detail"]


class TestTenancy:
    def test_datasets_isolated_between_tenants(self, client):
        created = client.post(
            "/datasets",
            {"name": "mine", "records": [{"a": 1}]},
            headers={"X-Tenant": "alice"},
        )
        assert created.status == 200
        alice = client.get("/datasets", headers={"X-Tenant": "alice"})
        assert alice.body["datasets"] == ["mine"]
        # The default tenant does not see alice's dataset...
        assert "mine" not in client.get("/datasets").body["datasets"]
        # ...and cannot open a session on it.
        assert client.get("/datasets/mine").status == 404
        assert (
            client.get(
                "/datasets/mine", headers={"X-Tenant": "alice"}
            ).status
            == 200
        )

    def test_tenant_via_query_parameter(self, client):
        client.post(
            "/datasets",
            {"name": "q", "records": [{"a": 1}]},
            query={"tenant": "bob"},
        )
        listing = client.get("/datasets", query={"tenant": "bob"})
        assert listing.body["datasets"] == ["q"]

    @pytest.fixture
    def cached_app(self, tmp_path, monkeypatch):
        """An app whose lens builds an enabled artifact store, so sharing
        is tested even where ``DATALENS_ARTIFACT_CACHE=0`` disables stores."""
        monkeypatch.setenv("DATALENS_ARTIFACT_CACHE", "1")
        router = create_app(DataLens(tmp_path / "shared", seed=0), workers=2)
        yield router
        router.job_queue.shutdown()

    def test_identical_columns_share_cache_across_tenants(
        self, cached_app, nasa_dirty
    ):
        """The artifact store is shared: the same column content uploaded
        by two tenants deduplicates into the same cache entries."""
        app, client = cached_app, TestClient(cached_app)
        csv_text = to_csv_text(nasa_dirty.dirty)
        for tenant in ("alice", "bob"):
            response = client.post(
                "/datasets",
                {"name": "shared", "csv_text": csv_text},
                headers={"X-Tenant": tenant},
            )
            assert response.status == 200
        store = app.tenants.lens_for("alice").artifact_store
        assert store.enabled
        assert app.tenants.lens_for("bob").artifact_store is store
        assert app.tenants.lens_for("default").artifact_store is store
        before = store.stats()
        first = client.get(
            "/datasets/shared/profile", headers={"X-Tenant": "alice"}
        )
        assert first.status == 200
        mid = store.stats()
        assert mid["misses"] > before["misses"]  # cold: alice computes
        second = client.get(
            "/datasets/shared/profile", headers={"X-Tenant": "bob"}
        )
        assert second.status == 200
        after = store.stats()
        # Bob's identical columns hit alice's entries: hits strictly
        # grow, and the second profile misses (almost) nothing new.
        assert after["hits"] > mid["hits"]
        assert after["misses"] == mid["misses"]
        assert first.body == second.body


class TestNames:
    """Tenant and dataset names are one path component each: letters,
    digits, '.', '_' and '-', not starting with '.'."""

    BAD = ["..", ".", ".hidden", "a/b", "../escape", "../default", ""]

    def _dirty_files(self, lens):
        root = lens.workspace_dir
        return sorted(str(path.relative_to(root)) for path in root.rglob("dirty.csv"))

    @pytest.mark.parametrize("tenant", [name for name in BAD if name])
    def test_tenant_must_be_a_name(self, client, tenant):
        for request in (
            {"headers": {"X-Tenant": tenant}},
            {"query": {"tenant": tenant}},
        ):
            response = client.get("/datasets", **request)
            assert response.status == 422
            assert "'tenant'" in response.body["detail"]

    def test_dot_dot_tenant_sees_none_of_default(self, client):
        """``..`` would root the tenant's workspace at the default one."""
        for path in ("/datasets", "/health", "/datasets/nasa"):
            response = client.get(path, headers={"X-Tenant": ".."})
            assert response.status == 422
            assert "nasa" not in str(response.body)

    @pytest.mark.parametrize("name", BAD + [5])
    def test_ingest_name_must_be_a_name(self, lens, client, name):
        response = client.post("/datasets", {"name": name, "records": [{"a": 1}]})
        assert response.status == 422
        assert "'name'" in response.body["detail"]
        assert self._dirty_files(lens) == ["datasets/nasa/dirty.csv"]

    @pytest.mark.parametrize("encoded", ["..", "%2E%2E", ".hidden", "..%2Fescape"])
    def test_upload_name_must_be_a_name(self, lens, client, encoded):
        response = client.post_csv(f"/datasets/{encoded}/upload", "a\n1\n")
        assert response.status == 422
        assert "'name'" in response.body["detail"]
        assert self._dirty_files(lens) == ["datasets/nasa/dirty.csv"]

    def test_names_with_inner_dots_are_accepted(self, client):
        response = client.post(
            "/datasets",
            {"name": "v1.2_final-a", "records": [{"a": 1}]},
            headers={"X-Tenant": "team.a"},
        )
        assert response.status == 200
        listing = client.get("/datasets", headers={"X-Tenant": "team.a"})
        assert listing.body["datasets"] == ["v1.2_final-a"]


class TestClientErrors:
    """Unknown versions and preloaded names are client errors, not 500s."""

    @pytest.mark.parametrize("version", [99, -1])
    def test_restore_of_unknown_version_is_404(self, client, version):
        response = client.post(
            "/datasets/nasa/versions/restore", {"version": version}
        )
        assert response.status == 404
        assert response.body == {"detail": f"version {version} not found"}

    @pytest.mark.parametrize("parameter", ["baseline", "current"])
    @pytest.mark.parametrize("version", ["99", "-1"])
    def test_drift_against_unknown_version_is_404(self, client, parameter, version):
        response = client.get("/datasets/nasa/drift", query={parameter: version})
        assert response.status == 404
        assert response.body == {"detail": f"version {version} not found"}

    @pytest.mark.parametrize("preloaded", ["nope", "../nasa", 7])
    def test_unknown_preloaded_name_is_422(self, lens, client, preloaded):
        response = client.post("/datasets", {"preloaded": preloaded})
        assert response.status == 422
        assert "'preloaded'" in response.body["detail"]
        assert lens.list_datasets() == ["nasa"]


class TestStreamingUpload:
    CSV = "city,pop\nparis,100\nlyon,50\nnice,\n"

    def test_upload_roundtrip(self, client):
        response = client.post_csv("/datasets/rivers/upload", self.CSV)
        assert response.status == 200
        assert response.body["dataset"] == "rivers"
        assert response.body["shape"] == [3, 2]
        preview = client.get("/datasets/rivers")
        assert preview.body["columns"] == ["city", "pop"]
        assert preview.body["rows"][0] == {"city": "paris", "pop": 100}
        assert preview.body["rows"][2] == {"city": "nice", "pop": None}

    def test_upload_persists_for_reload(self, lens, client):
        client.post_csv("/datasets/rivers/upload", self.CSV)
        # A fresh controller over the same workspace reads the newest version.
        reloaded = DataLens(lens.workspace_dir).session("rivers")
        assert reloaded.frame.num_rows == 3
        assert reloaded.frame.column_names == ["city", "pop"]

    def test_failed_reupload_changes_nothing(self, lens, client):
        """The dataset's files, its history and a reopen are as before the
        failed upload, and no temp file is left behind."""
        assert client.post_csv("/datasets/rivers/upload", self.CSV).status == 200
        root = lens.workspace_dir / "datasets" / "rivers"
        history = client.get("/datasets/rivers/versions").body
        response = client.post_csv(
            "/datasets/rivers/upload", "city,pop\nrome,9\nbari\n"
        )
        assert response.status == 400
        assert response.body == {"detail": "row has 1 fields, expected 2"}
        assert (root / "dirty.csv").read_text(encoding="utf-8") == self.CSV
        assert sorted(path.name for path in root.iterdir()) == ["delta", "dirty.csv"]
        assert client.get("/datasets/rivers/versions").body == history
        assert client.get("/datasets/rivers").body["num_rows"] == 3
        reopened = DataLens(lens.workspace_dir).session("rivers")
        assert to_csv_text(reopened.frame) == self.CSV
        assert reopened.delta.read(0) == reopened.frame
        # A complete parse whose commit fails changes nothing either.
        link = table_module.os.link

        def refuse_log_entries(src, dst):
            if "_delta_log" in str(dst):
                raise OSError(errno.EOPNOTSUPP, "Operation not supported")
            link(src, dst)

        for route, send in (
            ("upload", lambda: client.post_csv("/datasets/rivers/upload", "city\nx\n")),
            ("csv_text", lambda: client.post(
                "/datasets", {"name": "rivers", "csv_text": "city\nx\n"}
            )),
            ("records", lambda: client.post(
                "/datasets", {"name": "rivers", "records": [{"city": "x"}]}
            )),
        ):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(table_module.os, "link", refuse_log_entries)
                assert send().status == 500, route
            assert (root / "dirty.csv").read_text(encoding="utf-8") == self.CSV
            assert sorted(p.name for p in root.iterdir()) == ["delta", "dirty.csv"]
            assert len(list((root / "delta" / "data").iterdir())) == 1
            assert client.get("/datasets/rivers/versions").body == history
            assert client.get("/datasets/rivers").body["num_rows"] == 3
        reopened = DataLens(lens.workspace_dir).session("rivers")
        assert to_csv_text(reopened.frame) == self.CSV

    def test_upload_with_chunked_spill_config(self, tmp_path, nasa_dirty):
        """The upload streams through the chunked reader under the PR-6
        spill config; the parsed frame matches a plain ingest exactly."""
        lens = DataLens(
            tmp_path / "w",
            chunk_size=257,
            spill_budget=64 * 1024,
            spill_dir=tmp_path / "spill",
        )
        router = create_app(lens, workers=1)
        try:
            client = TestClient(router)
            response = client.post_csv(
                "/datasets/nasa/upload", to_csv_text(nasa_dirty.dirty)
            )
            assert response.status == 200
            assert response.body["shape"] == [1503, 6]
            assert response.body["spill"]["enabled"] is True
            session = lens.session("nasa")
            assert session.frame.num_rows == 1503
            assert to_csv_text(session.frame) == to_csv_text(nasa_dirty.dirty)
        finally:
            router.job_queue.shutdown()

    def test_empty_upload_is_422(self, client):
        response = client.post("/datasets/rivers/upload", body=None)
        assert response.status == 422
        assert "text/csv" in response.body["detail"]

    def test_bad_dataset_name_is_422(self, client):
        response = client.post_csv("/datasets/..%2Fevil/upload", self.CSV)
        assert response.status == 422
