"""Adversarial tests for the spillable shard store.

The equivalence harness (test_chunked_equivalence.py) pins spilled ≡
resident ≡ monolithic on the happy path; this module attacks the spill
layer itself: budgets smaller than one shard, spill directories deleted
mid-session, object-dtype payloads, mutation invalidating spilled state,
byte-size parsing, and the configuration plumbing through the loader,
controller, CLI, and REST endpoint.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.dataframe import (
    ChunkedFrame,
    DataFrame,
    SpillError,
    SpillStore,
    SpilledChunkedColumn,
    read_csv_chunked,
    spill_frame,
    spill_store_of,
    write_csv,
)
from repro.dataframe.spill import DEFAULT_SPILL_BUDGET, resolve_spill_store
from repro.settings import Settings, parse_byte_size

SPILL_BUDGET_ENV = "DATALENS_SPILL_BUDGET"
SPILL_DIR_ENV = "DATALENS_SPILL_DIR"


def _frame(n: int = 40) -> DataFrame:
    return DataFrame.from_dict(
        {
            "x": [float(i) if i % 5 else None for i in range(n)],
            "s": [f"v{i % 3}" if i % 7 else None for i in range(n)],
            "big": [10**25 + i * 10**12 for i in range(n)],
        }
    )


# ----------------------------------------------------------------------
# Byte-size parsing and environment configuration
# ----------------------------------------------------------------------
class TestByteSizeParsing:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (4096, 4096),
            ("4096", 4096),
            ("64k", 64 * 1024),
            ("64K", 64 * 1024),
            ("2m", 2 * 1024**2),
            ("1g", 1024**3),
            (" 8k ", 8 * 1024),
        ],
    )
    def test_accepted_forms(self, raw, expected):
        assert parse_byte_size(raw, "test") == expected

    @pytest.mark.parametrize("raw", ["", "banana", "12q", "k", "1.5m"])
    def test_rejects_naming_source_and_value(self, raw):
        with pytest.raises(ValueError) as excinfo:
            parse_byte_size(raw, "--spill-budget")
        assert "--spill-budget" in str(excinfo.value)
        assert repr(raw) in str(excinfo.value)

    @pytest.mark.parametrize("raw", [0, -1, "0", "0k"])
    def test_rejects_non_positive(self, raw):
        with pytest.raises(ValueError, match=">= 1 byte"):
            parse_byte_size(raw, "test")

    def test_env_budget_parsing(self, monkeypatch):
        monkeypatch.delenv(SPILL_BUDGET_ENV, raising=False)
        assert Settings.from_env().spill_budget is None
        monkeypatch.setenv(SPILL_BUDGET_ENV, "64k")
        assert Settings.from_env().spill_budget == 64 * 1024

    def test_env_budget_error_names_env_var(self, monkeypatch):
        monkeypatch.setenv(SPILL_BUDGET_ENV, "lots")
        with pytest.raises(ValueError) as excinfo:
            Settings.from_env()
        assert SPILL_BUDGET_ENV in str(excinfo.value)
        assert "'lots'" in str(excinfo.value)

    def test_resolve_spill_store_semantics(self, monkeypatch):
        monkeypatch.delenv(SPILL_BUDGET_ENV, raising=False)
        store = SpillStore(budget_bytes=1024)
        assert resolve_spill_store(store) is store
        assert resolve_spill_store(None) is None
        assert resolve_spill_store(False) is None
        fresh = resolve_spill_store(True)
        assert isinstance(fresh, SpillStore)
        assert fresh.budget_bytes == DEFAULT_SPILL_BUDGET
        monkeypatch.setenv(SPILL_BUDGET_ENV, "2k")
        env_store = resolve_spill_store(None)
        assert isinstance(env_store, SpillStore)
        assert env_store.budget_bytes == 2048
        # False wins over the environment: explicit opt-out.
        assert resolve_spill_store(False) is None

    def test_spill_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path / "spills"))
        store = SpillStore(budget_bytes=1024)
        assert store.directory.parent == tmp_path / "spills"
        explicit = SpillStore(budget_bytes=1024, directory=tmp_path / "mine")
        assert explicit.directory.parent == tmp_path / "mine"


# ----------------------------------------------------------------------
# Store mechanics under adversarial budgets
# ----------------------------------------------------------------------
class TestSpillStoreMechanics:
    def test_budget_smaller_than_one_shard_still_loads(self):
        """One-shard floor: an oversized shard loads, never fails."""
        store = SpillStore(budget_bytes=1)
        data = np.arange(100, dtype=np.float64)
        mask = np.zeros(100, dtype=bool)
        handle = store.spill(data, mask)
        assert handle.nbytes > store.budget_bytes
        got_data, got_mask = store.load(handle)
        assert np.array_equal(np.asarray(got_data), data)
        assert not np.asarray(got_mask).any()
        # A second oversized shard evicts the first: never two resident.
        other = store.spill(data + 1.0, mask)
        store.load(other)
        stats = store.stats()
        assert stats["resident_shards"] == 1
        assert stats["evictions"] >= 1
        assert stats["peak_resident_shards"] == 1

    def test_pre_eviction_keeps_peak_under_budget(self):
        data = np.arange(10, dtype=np.float64)
        mask = np.zeros(10, dtype=bool)
        probe = SpillStore(budget_bytes=1024)
        shard_bytes = probe.spill(data, mask).nbytes
        store = SpillStore(budget_bytes=3 * shard_bytes)
        handles = [store.spill(data * i, mask) for i in range(8)]
        for handle in handles:
            store.load(handle)
            store.load(handle)  # immediate re-touch must hit the cache
        stats = store.stats()
        assert stats["peak_resident_bytes"] <= store.budget_bytes
        assert stats["evictions"] > 0
        assert stats["cache_hits"] > 0

    def test_load_mask_keeps_payload_cold(self):
        store = SpillStore(budget_bytes=1024**2)
        handle = store.spill(
            np.arange(50, dtype=np.float64),
            np.array([i % 4 == 0 for i in range(50)]),
        )
        mask = store.load_mask(handle)
        assert int(np.asarray(mask).sum()) == 13
        stats = store.stats()
        assert stats["loads"] == 0
        assert stats["resident_bytes"] == 0

    def test_object_shards_round_trip_via_pickle(self):
        store = SpillStore(budget_bytes=1024**2)
        payload = np.empty(4, dtype=object)
        payload[:] = [10**30, 10**30 + 1, 0, 7]
        mask = np.array([False, False, True, False])
        handle = store.spill(payload, mask)
        assert handle.kind == "pickle"
        got_data, got_mask = store.load(handle)
        assert list(got_data) == list(payload)
        assert np.array_equal(got_mask, mask)

    def test_release_removes_files(self):
        store = SpillStore(budget_bytes=1024**2)
        handle = store.spill(
            np.arange(5, dtype=np.float64), np.zeros(5, dtype=bool)
        )
        assert all(path.exists() for path in handle.paths)
        store.release(handle)
        assert not any(path.exists() for path in handle.paths)

    def test_deleted_spill_dir_raises_clear_error(self):
        store = SpillStore(budget_bytes=1024**2)
        handle = store.spill(
            np.arange(5, dtype=np.float64), np.zeros(5, dtype=bool)
        )
        shutil.rmtree(store.directory)
        with pytest.raises(SpillError) as excinfo:
            store.load(handle)
        assert str(store.directory) in str(excinfo.value)
        with pytest.raises(SpillError):
            store.load_mask(handle)

    def test_close_invalidates_future_loads(self):
        store = SpillStore(budget_bytes=1024**2)
        handle = store.spill(
            np.arange(5, dtype=np.float64), np.zeros(5, dtype=bool)
        )
        store.close()
        assert not store.directory.exists()
        with pytest.raises(SpillError):
            store.load(handle)

    def test_mismatched_shard_lengths_rejected(self):
        store = SpillStore(budget_bytes=1024**2)
        with pytest.raises(ValueError, match="lengths differ"):
            store.spill(np.arange(3, dtype=np.float64), np.zeros(2, dtype=bool))


# ----------------------------------------------------------------------
# Spilled columns under dense access and mutation
# ----------------------------------------------------------------------
class TestSpilledColumnLifecycle:
    def test_dense_access_releases_spill_files(self):
        spilled = spill_frame(_frame(), chunk_size=7, budget_bytes=512)
        column = spilled.column("x")
        handles = list(column._handles)
        values = column.values_array()  # dense access materializes
        assert not column.spilled
        assert values.flags.writeable is False  # values_array is readonly
        assert not any(
            path.exists() for handle in handles for path in handle.paths
        )

    def test_set_many_invalidates_spilled_state(self):
        spilled = spill_frame(_frame(), chunk_size=7, budget_bytes=512)
        column = spilled.column("x")
        handles = list(column._handles)
        column.set_many([0, 6, 39], [None, 2.5, -1.0])
        assert not column.spilled
        assert column[0] is None and column[6] == 2.5 and column[39] == -1.0
        assert not any(
            path.exists() for handle in handles for path in handle.paths
        )
        # The untouched column keeps its spilled state.
        assert spilled.column("s").spilled

    def test_repair_patches_invalidate_spilled_state(self):
        from repro.repair.base import RepairResult

        spilled = spill_frame(_frame(), chunk_size=7, budget_bytes=512)
        result = RepairResult(tool="t", repairs={(3, "x"): 99.5})
        repaired = result.apply_to(spilled)
        assert repaired.column("x")[3] == 99.5
        reference = RepairResult(tool="t", repairs={(3, "x"): 99.5}).apply_to(
            _frame()
        )
        assert repaired.column("x").values() == reference.column("x").values()

    def test_copy_and_rechunk_stay_spilled(self):
        spilled = spill_frame(_frame(), chunk_size=7, budget_bytes=512)
        column = spilled.column("x")
        duplicate = column.copy()
        assert isinstance(duplicate, SpilledChunkedColumn)
        assert duplicate.spilled and column.spilled
        rechunked = spilled.rechunk(11)
        recol = rechunked.column("x")
        assert isinstance(recol, SpilledChunkedColumn)
        assert recol.spilled
        assert recol.chunk_lengths == (11, 11, 11, 7)
        assert rechunked.to_monolithic() == _frame()
        # Mutating the copy leaves the original's files alone.
        duplicate.set_many([0], [1.25])
        assert column.spilled
        assert column[0] is None

    def test_spill_store_of_reports_backing_store(self):
        frame = _frame()
        assert spill_store_of(frame) is None
        store = SpillStore(budget_bytes=512)
        spilled = spill_frame(frame, store=store)
        assert spill_store_of(spilled) is store
        for name in spilled.column_names:
            spilled.column(name).values_array()
        assert spill_store_of(spilled) is None

    def test_empty_frame_spills_and_profiles(self):
        from repro.profiling import profile

        frame = DataFrame.from_dict({"a": [], "b": []})
        spilled = spill_frame(frame, chunk_size=4, budget_bytes=512)
        assert profile(spilled).to_dict() == profile(frame).to_dict()

    def test_profile_then_quality_leaves_columns_spilled(self):
        """The PR-6 follow-on: quality scoring must stay out-of-core.

        ``validity`` used to densify numeric columns through
        ``values_array()`` (releasing the spill); it now streams
        per-shard compressed payloads. Counter-asserted: all loads go
        through the LRU (peak resident ≤ budget) and every column still
        reports ``spilled`` after profile → quality_summary.
        """
        from repro.core.quality import quality_summary
        from repro.profiling import profile

        frame = _frame(80)
        store = SpillStore(budget_bytes=512)
        spilled = spill_frame(frame, store=store, chunk_size=7)
        profile(spilled)
        metrics = quality_summary(spilled)
        assert metrics == quality_summary(frame)
        for name in spilled.column_names:
            assert spilled.column(name).spilled, name
        stats = store.stats()
        assert stats["peak_resident_bytes"] <= 512
        assert stats["loads"] > 0  # shards were read, not densified


# ----------------------------------------------------------------------
# Configuration plumbing: reader, loader, controller, REST, CLI
# ----------------------------------------------------------------------
class TestSpillWiring:
    def test_env_budget_spills_chunked_reads(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        write_csv(_frame(), path)
        monkeypatch.delenv(SPILL_BUDGET_ENV, raising=False)
        plain = read_csv_chunked(path, chunk_size=7)
        assert not isinstance(plain.column("x"), SpilledChunkedColumn)
        monkeypatch.setenv(SPILL_BUDGET_ENV, "1k")
        spilled = read_csv_chunked(path, chunk_size=7)
        column = spilled.column("x")
        assert isinstance(column, SpilledChunkedColumn) and column.spilled
        assert column.spill_store.budget_bytes == 1024
        assert spilled == plain

    def test_to_chunked_never_spills_implicitly(self, monkeypatch):
        monkeypatch.setenv(SPILL_BUDGET_ENV, "1k")
        chunked = _frame().to_chunked(7)
        assert not isinstance(chunked.column("x"), SpilledChunkedColumn)
        explicit = _frame().to_chunked(7, spill=True)
        assert explicit.column("x").spilled

    def test_loader_spill_budget_wiring(self, tmp_path, monkeypatch):
        from repro.ingestion import DataLoader

        monkeypatch.delenv(SPILL_BUDGET_ENV, raising=False)
        monkeypatch.delenv("DATALENS_DEFAULT_CHUNK_SIZE", raising=False)
        loader = DataLoader(tmp_path, spill_budget=2048)
        loader.ingest_frame("d", _frame())
        loaded = loader.load("d")
        assert isinstance(loaded, ChunkedFrame)
        column = loaded.column("x")
        assert isinstance(column, SpilledChunkedColumn) and column.spilled
        assert column.spill_store.budget_bytes == 2048
        # Each load gets a fresh store (sessions must not share files).
        again = loader.load("d")
        assert spill_store_of(again) is not spill_store_of(loaded)

    def test_controller_session_spill_stats(self, tmp_path, monkeypatch):
        from repro.core.controller import DataLens

        monkeypatch.delenv(SPILL_BUDGET_ENV, raising=False)
        plain = DataLens(tmp_path / "plain").ingest_frame("d", _frame())
        assert plain.spill_stats() == {"enabled": False}
        lens = DataLens(tmp_path / "spilling", spill_budget=4096)
        session = lens.ingest_frame("d", _frame())
        stats = session.spill_stats()
        assert stats["enabled"] is True
        assert stats["budget_bytes"] == 4096
        assert stats["spilled_shards"] > 0

    def test_rest_spill_endpoint(self, tmp_path, monkeypatch):
        from repro.api import TestClient, create_app
        from repro.core.controller import DataLens

        monkeypatch.delenv(SPILL_BUDGET_ENV, raising=False)
        lens = DataLens(tmp_path, spill_budget=4096)
        lens.ingest_frame("d", _frame())
        client = TestClient(create_app(lens))
        response = client.get("/datasets/d/spill")
        assert response.status == 200
        assert response.body["enabled"] is True
        assert response.body["spilled_shards"] > 0

    def test_cli_spill_flags(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv(SPILL_BUDGET_ENV, raising=False)
        path = tmp_path / "data.csv"
        write_csv(_frame(), path)
        spill_dir = tmp_path / "spills"
        code = main(
            [
                "profile",
                str(path),
                "--chunk-size",
                "7",
                "--spill-budget",
                "4k",
                "--spill-dir",
                str(spill_dir),
            ]
        )
        assert code == 0
        assert "rows=40" in capsys.readouterr().out
        assert spill_dir.exists()

    def test_cli_bad_spill_budget_names_flag(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "data.csv"
        write_csv(_frame(), path)
        with pytest.raises(ValueError, match="--spill-budget"):
            main(["profile", str(path), "--spill-budget", "huge"])
