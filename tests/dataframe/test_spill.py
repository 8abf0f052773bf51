"""Adversarial tests for the spillable shard store.

The equivalence harness (test_chunked_equivalence.py) pins spilled ≡
resident ≡ monolithic on the happy path; this module attacks the spill
layer itself: budgets smaller than one shard, spill directories deleted
mid-session, object-dtype payloads, mutation invalidating spilled state,
byte-size parsing, and the configuration plumbing through the loader,
controller, CLI, and REST endpoint.
"""

from __future__ import annotations

import gc
import io
import shutil
import sys
import threading

import numpy as np
import pytest

from repro.dataframe import (
    ChunkedFrame,
    DataFrame,
    SpillError,
    SpillStore,
    SpilledChunkedColumn,
    csv_lines,
    read_csv_chunked,
    spill_frame,
    spill_store_of,
    to_csv_text,
    write_csv,
)
from repro.core import faults
from repro.dataframe import spill as spill_module
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
        assert handle.segment.path.exists()
        store.release(handle)
        assert not handle.segment.path.exists()

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

    def test_concurrent_misses_keep_residency_within_budget(self, monkeypatch):
        """Two threads that miss at once both insert; the store evicts
        again under the lock before each insert, so the peak holds."""
        # A retried read would wait on the barrier a second time.
        monkeypatch.delenv(faults.FAULT_INJECT_ENV, raising=False)
        data = np.arange(1000, dtype=np.float64)
        mask = np.zeros(1000, dtype=bool)
        shard_bytes = SpillStore(budget_bytes=1024**2).spill(data, mask).nbytes
        store = SpillStore(budget_bytes=2 * shard_bytes + shard_bytes // 2)
        handles = [store.spill(data + i, mask) for i in range(4)]
        store.load(handles[0])
        store.load(handles[1])
        barrier = threading.Barrier(2)
        read = SpillStore._read

        def racing_read(self, handle):
            barrier.wait(timeout=10)
            return read(self, handle)

        monkeypatch.setattr(SpillStore, "_read", racing_read)
        errors = []

        def load(handle):
            try:
                store.load(handle)
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        threads = [threading.Thread(target=load, args=(h,)) for h in handles[2:]]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert not errors
        stats = store.stats()
        assert stats["peak_resident_bytes"] <= store.budget_bytes
        assert stats["resident_bytes"] <= store.budget_bytes

    def test_concurrent_spills_and_loads_read_back_their_own_data(self):
        store = SpillStore(budget_bytes=16 * 1024)
        errors = []

        def work(seed):
            try:
                rng = np.random.default_rng(seed)
                written = []
                for i in range(60):
                    if i % 5 == 4:
                        data = np.empty(3, dtype=object)
                        data[:] = [f"{seed}-{i}", 10**30 + i, None]
                    else:
                        data = rng.normal(size=int(rng.integers(1, 400)))
                    mask = rng.random(len(data)) < 0.3
                    written.append((store.spill(data, mask), data, mask))
                    handle, data, mask = written[int(rng.integers(len(written)))]
                    got_data, got_mask = store.load(handle)
                    assert list(got_data) == list(data)
                    assert np.array_equal(got_mask, mask)
                for handle, data, mask in written:
                    assert np.array_equal(store.load_mask(handle), mask)
                    assert list(store.load(handle)[0]) == list(data)
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        stats = store.stats()
        assert stats["spilled_shards"] == 240
        assert stats["peak_resident_bytes"] <= store.budget_bytes

    def test_disk_bytes_matches_the_segment_files(self, monkeypatch):
        monkeypatch.setattr(spill_module, "SEGMENT_BYTES", 2000)
        store = SpillStore(budget_bytes=1024**2)
        handles = [
            store.spill(np.arange(n, dtype=np.float64), np.zeros(n, dtype=bool))
            for n in range(1, 80)
        ]

        def on_disk():
            files = list(store.directory.glob("shard-*"))
            return len(files), sum(path.stat().st_size for path in files)

        stats = store.stats()
        assert (stats["segment_files"], stats["disk_bytes"]) == on_disk()
        assert stats["segment_files"] > 1
        assert stats["disk_bytes"] == stats["spilled_bytes"]
        # A released record stays on disk until its segment empties.
        for handle in handles[::2]:
            store.release(handle)
        stats = store.stats()
        assert (stats["segment_files"], stats["disk_bytes"]) == on_disk()
        for handle in handles[1::2]:
            store.release(handle)
        stats = store.stats()
        assert (stats["segment_files"], stats["disk_bytes"]) == (0, 0) == on_disk()


# ----------------------------------------------------------------------
# Spilled columns under dense access and mutation
# ----------------------------------------------------------------------
class TestSpilledColumnLifecycle:
    def test_dense_access_releases_spill_files(self):
        spilled = spill_frame(_frame(), chunk_size=7, budget_bytes=512)
        store = spill_store_of(spilled)
        column = spilled.column("x")
        handles = list(column._handles)
        values = column.values_array()  # dense access materializes
        assert not column.spilled
        assert values.flags.writeable is False  # values_array is readonly
        assert not any(handle.shard_id in store._refs for handle in handles)
        # The other columns' records keep the shared segment file alive
        # until they are released too.
        assert handles[0].segment.path.exists()
        for name in ("s", "big"):
            spilled.column(name).values_array()
        assert not list(store.directory.glob("shard-*"))

    def test_set_many_invalidates_spilled_state(self):
        spilled = spill_frame(_frame(), chunk_size=7, budget_bytes=512)
        store = spill_store_of(spilled)
        column = spilled.column("x")
        handles = list(column._handles)
        column.set_many([0, 6, 39], [None, 2.5, -1.0])
        assert not column.spilled
        assert column[0] is None and column[6] == 2.5 and column[39] == -1.0
        assert not any(handle.shard_id in store._refs for handle in handles)
        # The untouched columns keep their spilled state, and their
        # records keep the segment file.
        assert spilled.column("s").spilled
        assert handles[0].segment.path.exists()
        for name in ("s", "big"):
            spilled.column(name).set_many([1], [None])
        assert not list(store.directory.glob("shard-*"))

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

    def test_copy_shares_records(self):
        frame = _frame()
        spilled = spill_frame(frame, chunk_size=7, budget_bytes=512)
        store = spill_store_of(spilled)
        before = store.stats()
        duplicate = spilled.copy()
        after = store.stats()
        assert after["spilled_shards"] == before["spilled_shards"]
        assert after["loads"] == before["loads"]
        assert after["cache_hits"] == before["cache_hits"]
        # Releasing the original (dense access) leaves the copy spilled
        # on the shared records, and it reads back bit-identical.
        original = spilled.to_monolithic()
        assert spill_store_of(spilled) is None
        assert all(
            duplicate.column(name).spilled for name in duplicate.column_names
        )
        assert list(store.directory.glob("shard-*"))
        copied = duplicate.to_monolithic()
        assert copied == original == frame
        for name in frame.column_names:
            assert copied.column(name).values() == frame.column(name).values()
        assert (
            np.asarray(copied.column("x").values_array()).tobytes()
            == np.asarray(frame.column("x").values_array()).tobytes()
        )
        # Releasing both frees every record and deletes the segment.
        assert not store._refs
        assert not list(store.directory.glob("shard-*"))

    def test_dropped_copy_gives_its_records_back(self):
        """A column collected while spilled releases its hold on each
        record at the store's next call, not when the store closes."""
        spilled = spill_frame(_frame(), chunk_size=7, budget_bytes=512)
        store = spill_store_of(spilled)
        original = dict(store._refs)
        duplicate = spilled.copy()
        duplicate.column("x").set_many([0], [1.5])  # densifies one column
        assert sum(store._refs.values()) == 2 * sum(original.values()) - 6
        del duplicate
        gc.collect()
        store.stats()
        assert store._refs == original
        # Dropping the original too leaves no record and no segment file.
        del spilled
        gc.collect()
        assert store.stats()["segment_files"] == 0
        assert not store._refs
        assert not list(store.directory.glob("shard-*"))

    def test_collection_under_the_store_lock_only_queues(self):
        """The cyclic collector may run a column's finalizer while this
        very thread holds the store's non-reentrant lock: the finalizer
        must not take it, and the release waits for the next store call."""
        spilled = spill_frame(_frame(), chunk_size=7, budget_bytes=512)
        store = spill_store_of(spilled)
        original = dict(store._refs)
        holder = {"copy": spilled.copy()}
        holder["cycle"] = holder  # only the cyclic collector frees the copy
        del holder

        def collect_under_lock() -> None:
            with store._lock:
                gc.collect()

        thread = threading.Thread(target=collect_under_lock, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "a finalizer blocked on the store lock"
        assert store._refs != original  # queued, not yet released
        store.load(spilled.column("x")._handles[0])
        assert store._refs == original

    def test_concurrent_row_access_while_copies_come_and_go(self):
        """Readers share a spilled frame (as REST reads now do) while
        copies are made and dropped: every read matches the monolithic
        frame, and every dropped copy's hold is released."""
        frame = _frame(200)
        spilled = spill_frame(frame, chunk_size=7, budget_bytes=512)
        store = spill_store_of(spilled)
        original = dict(store._refs)
        expected = frame.to_dict()
        errors: list = []

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(40):
                    rows = rng.integers(-200, 200, 13)
                    for name, values in expected.items():
                        column = spilled.column(name)
                        if column.take(rows).values() != [values[i] for i in rows]:
                            errors.append((name, rows.tolist()))
                        if column[int(rows[0])] != values[rows[0]]:
                            errors.append((name, int(rows[0])))
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        def churner() -> None:
            try:
                for _ in range(40):
                    spilled.copy().head(3)
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
        threads.append(threading.Thread(target=churner))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        gc.collect()
        store.stats()
        assert store._refs == original
        assert all(spilled.column(name).spilled for name in spilled.column_names)

    def test_racing_dense_accesses_release_each_hold_once(self, monkeypatch):
        """Two threads densify one spilled column at once while a copy
        shares its records: each record loses one hold, not two, so the
        copy's records stay live and it reads on."""
        spilled = spill_frame(_frame(), chunk_size=7, budget_bytes=512)
        store = spill_store_of(spilled)
        column = spilled.column("x")
        duplicate = column.copy()
        expected = _frame().column("x").values()
        barrier = threading.Barrier(2, timeout=5)
        row_range = SpilledChunkedColumn.row_range

        def meeting(self, start, stop):
            pair = row_range(self, start, stop)
            if self is column:  # both threads are past the spilled check
                barrier.wait()
            return pair

        class SlowDetach:
            """Hold a releasing thread until the other one arrives too (or
            0.5 s pass), so both race for the handles at once."""

            def __init__(self, finalizer) -> None:
                self.finalizer = finalizer
                self.arrivals = threading.Barrier(2, timeout=0.5)

            def detach(self):
                try:
                    self.arrivals.wait()
                except threading.BrokenBarrierError:
                    pass
                return self.finalizer.detach()

        monkeypatch.setattr(SpilledChunkedColumn, "row_range", meeting)
        column._finalizer = SlowDetach(column._finalizer)
        errors: list = []

        def densify() -> None:
            try:
                column.values_array()
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        threads = [threading.Thread(target=densify) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        monkeypatch.undo()
        assert errors == []
        assert not column.spilled and column.values() == expected
        assert [store._refs[h.shard_id] for h in duplicate._handles] == [1] * len(
            duplicate._handles
        )
        assert duplicate[:].values() == expected

    def test_a_read_racing_a_dense_access_reads_the_dense_pair(self, monkeypatch):
        """A reader that took the handles just before a dense access
        released them (and unlinked their segment) reads the dense pair
        the dense access set first, instead of failing."""
        frame = DataFrame.from_dict({"x": [float(i) for i in range(40)]})
        spilled = spill_frame(frame, chunk_size=7, budget_bytes=512)
        store = spill_store_of(spilled)
        column = spilled.column("x")
        load = SpillStore.load
        raced: list[bool] = []

        def racing(self, handle):
            if not raced:  # a dense access lands between handles and load
                raced.append(True)
                column.values_array()
            return load(self, handle)

        monkeypatch.setattr(SpillStore, "load", racing)
        assert column[9] == 9.0
        assert raced and not column.spilled
        assert not store._refs and not list(store.directory.glob("shard-*"))

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

    def test_loader_spill_store_wiring(self, tmp_path, monkeypatch):
        from repro.ingestion import DataLoader

        monkeypatch.setenv(SPILL_BUDGET_ENV, "1k")
        monkeypatch.delenv("DATALENS_DEFAULT_CHUNK_SIZE", raising=False)
        store = SpillStore(budget_bytes=2048)
        loader = DataLoader(tmp_path, spill_store=store)
        ingested = loader.ingest_csv_stream("d", csv_lines(_frame()))
        assert spill_store_of(ingested) is store
        loaded = loader.load("d")
        assert isinstance(loaded, ChunkedFrame)
        column = loaded.column("x")
        assert isinstance(column, SpilledChunkedColumn) and column.spilled
        # Every load spills into the one store the loader was given...
        assert spill_store_of(loaded) is store
        assert spill_store_of(loader.load("d")) is store
        streamed = loader.ingest_csv_stream(
            "e", io.StringIO(to_csv_text(_frame()))
        )
        assert spill_store_of(streamed) is store
        assert store.stats()["peak_resident_bytes"] <= 2048
        # ...and a loader without one never spills, whatever the variable.
        plain = DataLoader(tmp_path).load("d")
        assert spill_store_of(plain) is None and plain == loaded

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
