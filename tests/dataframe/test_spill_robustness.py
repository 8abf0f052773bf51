"""Crash-safety and fault-tolerance of the spill store.

test_spill.py covers budgets and lifecycle on a healthy filesystem;
this module attacks the disk itself: corrupted and truncated shard
records, injected ENOSPC mid-spill and mid-ingest, undeletable segment
files, transient I/O blips, and spill directories orphaned by crashed
processes. Fault injection (repro.core.faults) stands in for the real
failures, so every scenario is deterministic.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import faults
from repro.dataframe import (
    DataFrame,
    SpillCapacityError,
    SpillError,
    SpillStore,
    read_csv_chunked,
    spill_frame,
    sweep_orphaned_spill_dirs,
    write_csv,
)
from repro.dataframe import spill as spill_module
from repro.dataframe.spill import SpilledChunkedColumn


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """Pin the environment plan off: these tests assert exact fault
    counters, which the CI chaos leg's ambient low-probability plan
    (DATALENS_FAULT_INJECT on spill.*/artifact.*) would perturb."""
    monkeypatch.delenv(faults.FAULT_INJECT_ENV, raising=False)


def _frame(n: int = 40) -> DataFrame:
    return DataFrame.from_dict(
        {
            "x": [float(i) if i % 5 else None for i in range(n)],
            "s": [f"v{i % 3}" if i % 7 else None for i in range(n)],
        }
    )


def _spill_one(store: SpillStore, n: int = 50):
    return store.spill(
        np.arange(n, dtype=np.float64),
        np.array([i % 4 == 0 for i in range(n)]),
    )


# ----------------------------------------------------------------------
# Checksums: corruption and truncation are detected, not returned
# ----------------------------------------------------------------------
class TestChecksums:
    def test_handles_carry_checksums_and_round_trip(self):
        store = SpillStore(budget_bytes=1024**2)
        handle = _spill_one(store)
        # One record, two sections: 50 float64 values, then 50 mask bytes.
        assert handle.sizes == (400, 50)
        assert len(handle.checksums) == 2
        assert handle.segment.path.stat().st_size == handle.nbytes == 450
        data, mask = store.load(handle)
        assert np.array_equal(np.asarray(data), np.arange(50, dtype=np.float64))
        assert int(np.asarray(mask).sum()) == 13
        assert store.stats()["checksum_failures"] == 0

    def test_bit_flip_raises_spill_error_naming_shard_and_path(self):
        # A flipped byte in either section fails that section's checksum.
        for section in (0, 1):  # values, mask
            store = SpillStore(budget_bytes=1024**2)
            handle = _spill_one(store)
            path = handle.segment.path
            start = handle.offset + sum(handle.sizes[:section])
            corrupted = bytearray(path.read_bytes())
            corrupted[start] ^= 0xFF
            path.write_bytes(bytes(corrupted))
            with pytest.raises(SpillError) as excinfo:
                store.load(handle)
            message = str(excinfo.value)
            assert "corrupt or truncated" in message
            assert str(path) in message
            assert f"shard {handle.shard_id}" in message
            assert f"bytes {start}..{start + handle.sizes[section]}" in message
            assert store.stats()["checksum_failures"] == 1

    def test_truncation_raises_spill_error(self):
        store = SpillStore(budget_bytes=1024**2)
        handle = _spill_one(store)
        path = handle.segment.path
        # Cut the file inside the values section.
        path.write_bytes(path.read_bytes()[: handle.offset + handle.sizes[0] - 8])
        with pytest.raises(SpillError, match="corrupt or truncated"):
            store.load(handle)

    def test_mask_only_read_verifies_the_mask_file(self):
        store = SpillStore(budget_bytes=1024**2)
        _spill_one(store)
        handle = _spill_one(store)
        _spill_one(store)
        path = handle.segment.path
        blob = bytearray(path.read_bytes())
        blob[handle.offset + handle.sizes[0]] ^= 0x01  # first mask byte
        path.write_bytes(bytes(blob))
        with pytest.raises(SpillError, match="corrupt or truncated"):
            store.load_mask(handle)

    def test_pickled_object_shards_are_verified_too(self):
        store = SpillStore(budget_bytes=1024**2)
        payload = np.empty(3, dtype=object)
        payload[:] = [10**30, None, "x"]
        handle = store.spill(payload, np.array([False, True, False]))
        assert handle.kind == "pickle"
        blob = bytearray(handle.segment.path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        handle.segment.path.write_bytes(bytes(blob))
        with pytest.raises(SpillError, match="corrupt or truncated"):
            store.load(handle)

    def test_no_tmp_files_left_after_spilling(self):
        store = SpillStore(budget_bytes=1024**2)
        for _ in range(5):
            _spill_one(store)
        assert not list(store.directory.glob("*.tmp"))


# ----------------------------------------------------------------------
# ENOSPC: typed capacity errors and resident fallback
# ----------------------------------------------------------------------
class TestCapacity:
    def test_injected_enospc_raises_typed_error_naming_directory(self):
        store = SpillStore(budget_bytes=1024**2)
        with faults.inject("site=spill.write,error=enospc,count=1"):
            with pytest.raises(SpillCapacityError) as excinfo:
                _spill_one(store)
        message = str(excinfo.value)
        assert str(store.directory) in message
        assert "out of disk space" in message
        assert store.stats()["capacity_errors"] == 1
        # No partial shard files survive the failed spill.
        assert not list(store.directory.glob("shard-*"))
        # The store keeps working once space is back.
        handle = _spill_one(store)
        store.load(handle)

    def test_spill_frame_degrades_to_resident_on_full_disk(self):
        frame = _frame()
        store = SpillStore(budget_bytes=512)
        with faults.inject("site=spill.write,error=enospc"):
            spilled = spill_frame(frame, store=store, chunk_size=7)
        # Nothing spilled, but the frame is bit-identical and usable.
        for name in spilled.column_names:
            assert not isinstance(spilled.column(name), SpilledChunkedColumn)
        assert spilled.to_monolithic() == frame

    def test_partial_column_spill_releases_its_handles(self):
        """ENOSPC halfway through a column must not leak the shards
        already written."""
        frame = _frame(80)
        store = SpillStore(budget_bytes=512)
        with faults.inject("site=spill.write,error=enospc,after=3"):
            spilled = spill_frame(frame, store=store, chunk_size=7)
        assert spilled.to_monolithic() == frame
        assert not list(store.directory.glob("shard-*"))

    def test_chunked_ingest_survives_full_disk(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        write_csv(_frame(), path)
        monkeypatch.setenv("DATALENS_SPILL_BUDGET", "1k")
        plain = read_csv_chunked(path, chunk_size=7)
        with faults.inject("site=spill.write,error=enospc,after=2"):
            degraded = read_csv_chunked(path, chunk_size=7)
        assert degraded == plain
        # Degraded columns are resident, and their early-spilled shard
        # files were pulled back and deleted.
        column = degraded.column("x")
        assert not (
            isinstance(column, SpilledChunkedColumn) and column.spilled
        )

    @pytest.mark.parametrize(
        "cells",
        [
            [str(i) for i in range(20)] + ["late string"],
            # Bool tokens give the int shards widening records, which
            # are spilled too and must come back resident with them.
            ["yes", "1"] * 10 + ["late string"],
        ],
        ids=["ints", "with-records"],
    )
    @pytest.mark.parametrize("after", range(0, 12, 2))
    def test_widening_ingest_survives_full_disk(self, tmp_path, after, cells):
        """The disk may fill while earlier shards are re-spilled at a
        wider dtype when the scan ends; the column then finishes resident."""
        path = tmp_path / "data.csv"
        path.write_text("x\n" + "\n".join(cells) + "\n", encoding="utf-8")
        plain = read_csv_chunked(path, chunk_size=7, spill=False)
        with faults.inject(f"site=spill.write,error=enospc,after={after}"):
            degraded = read_csv_chunked(
                path, chunk_size=7, spill=SpillStore(budget_bytes=512)
            )
        assert degraded.dtypes() == {"x": "string"}
        assert degraded == plain


# ----------------------------------------------------------------------
# Transient faults: absorbed by internal retries, results identical
# ----------------------------------------------------------------------
class TestTransientAbsorption:
    def test_transient_write_faults_absorbed(self):
        store = SpillStore(budget_bytes=1024**2)
        with faults.inject("site=spill.write,error=transient,count=2"):
            handle = _spill_one(store)
        data, _ = store.load(handle)
        assert np.array_equal(np.asarray(data), np.arange(50, dtype=np.float64))
        assert store.stats()["transient_retries"] == 2

    def test_transient_read_faults_absorbed(self):
        store = SpillStore(budget_bytes=1024**2)
        handle = _spill_one(store)
        with faults.inject("site=spill.read,error=transient,count=2"):
            data, mask = store.load(handle)
        assert np.array_equal(np.asarray(data), np.arange(50, dtype=np.float64))
        assert store.stats()["transient_retries"] == 2
        assert store.stats()["loads"] == 1  # counted once, not per attempt

    def test_transient_write_fault_mid_segment_rewrites_its_offset(self):
        store = SpillStore(budget_bytes=1024**2)
        first = _spill_one(store)
        with faults.inject("site=spill.write,error=transient,count=1"):
            middle = _spill_one(store, 30)
        last = _spill_one(store)
        assert middle.segment is first.segment is last.segment
        assert middle.offset == first.nbytes
        assert last.offset == first.nbytes + middle.nbytes
        assert store.stats()["transient_retries"] == 1
        data, mask = store.load(middle)
        assert np.array_equal(data, np.arange(30, dtype=np.float64))
        assert int(mask.sum()) == 8
        assert middle.segment.path.stat().st_size == store.stats()["disk_bytes"]

    def test_torn_write_is_retried_at_the_same_offset(self, monkeypatch):
        """A transient error after half a record's bytes landed: the retry
        rewrites the whole record in place, and it reads back."""
        store = SpillStore(budget_bytes=1024**2)
        first = _spill_one(store)
        pwrite = os.pwrite
        torn = []

        def flaky(fd, data, offset):
            if not torn:
                torn.append(offset)
                pwrite(fd, bytes(data[: len(data) // 2]), offset)
                raise TimeoutError("injected: torn write")
            return pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", flaky)
        middle = _spill_one(store, 30)
        monkeypatch.setattr(os, "pwrite", pwrite)
        last = _spill_one(store)
        assert torn == [middle.offset] == [first.nbytes]
        assert store.stats()["transient_retries"] == 1
        for handle, n in ((first, 50), (middle, 30), (last, 50)):
            data, _ = store.load(handle)
            assert np.array_equal(data, np.arange(n, dtype=np.float64))

    def test_persistent_transient_faults_eventually_propagate(self):
        store = SpillStore(budget_bytes=1024**2)
        with faults.inject("site=spill.write,error=transient"):
            with pytest.raises(faults.TransientFaultError):
                _spill_one(store)


# ----------------------------------------------------------------------
# release(): failures are counted, not swallowed
# ----------------------------------------------------------------------
class TestReleaseErrors:
    def test_unlink_failure_counted_and_logged_once(self, monkeypatch, caplog):
        import logging

        # A one-byte segment size gives every record its own segment.
        monkeypatch.setattr(spill_module, "SEGMENT_BYTES", 1)
        store = SpillStore(budget_bytes=1024**2)
        first = _spill_one(store)
        second = _spill_one(store)
        assert first.segment is not second.segment

        def refuse(self, missing_ok=False):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(Path, "unlink", refuse)
        with caplog.at_level(logging.WARNING, logger="repro.dataframe.spill"):
            store.release(first)
            store.release(second)
        assert store.stats()["release_errors"] == 2  # one per segment file
        warnings = [
            record
            for record in caplog.records
            if "failed to delete spill segment file" in record.getMessage()
        ]
        assert len(warnings) == 1  # first occurrence only

    def test_release_errors_reach_the_rest_spill_endpoint(
        self, tmp_path, monkeypatch
    ):
        from repro.api import TestClient, create_app
        from repro.core import DataLens

        monkeypatch.delenv("DATALENS_SPILL_BUDGET", raising=False)
        lens = DataLens(tmp_path, spill_budget=4096)
        lens.ingest_frame("d", _frame())
        client = TestClient(create_app(lens))
        response = client.get("/datasets/d/spill")
        assert response.status == 200
        for counter in (
            "release_errors",
            "capacity_errors",
            "checksum_failures",
            "transient_retries",
        ):
            assert response.body[counter] == 0


# ----------------------------------------------------------------------
# Orphaned spill directories
# ----------------------------------------------------------------------
class TestOrphanSweeper:
    def test_store_advertises_its_owner_pid(self):
        store = SpillStore(budget_bytes=1024)
        owner = json.loads((store.directory / "owner.json").read_text())
        assert owner["pid"] == os.getpid()

    def test_dead_owner_is_swept_live_owner_is_kept(self, tmp_path):
        dead = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(dead.stdout)
        orphan = tmp_path / "datalens-spill-orphan"
        orphan.mkdir()
        (orphan / "owner.json").write_text(json.dumps({"pid": dead_pid}))
        (orphan / "shard-000000.values.npy").write_bytes(b"junk")
        mine = tmp_path / "datalens-spill-mine"
        mine.mkdir()
        (mine / "owner.json").write_text(json.dumps({"pid": os.getpid()}))
        removed = sweep_orphaned_spill_dirs(base=tmp_path)
        assert removed == [orphan]
        assert not orphan.exists()
        assert mine.exists()

    def test_unreadable_owner_respects_grace_period(self, tmp_path):
        stale = tmp_path / "datalens-spill-stale"
        stale.mkdir()
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = tmp_path / "datalens-spill-fresh"
        fresh.mkdir()
        removed = sweep_orphaned_spill_dirs(base=tmp_path, grace_seconds=3600)
        assert removed == [stale]
        assert fresh.exists()

    def test_non_spill_dirs_untouched(self, tmp_path):
        other = tmp_path / "important-data"
        other.mkdir()
        old = time.time() - 7200
        os.utime(other, (old, old))
        assert sweep_orphaned_spill_dirs(base=tmp_path) == []
        assert other.exists()

    def test_controller_startup_sweeps_spill_base(self, tmp_path, monkeypatch):
        from repro.core import DataLens

        base = tmp_path / "spillbase"
        base.mkdir()
        stale = base / "datalens-spill-crashed"
        stale.mkdir()
        old = time.time() - 7200
        os.utime(stale, (old, old))
        monkeypatch.setenv("DATALENS_SPILL_DIR", str(base))
        DataLens(tmp_path / "workspace")
        assert not stale.exists()
