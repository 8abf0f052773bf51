"""Delta-style versioned table tests."""

import errno
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame
from repro.ingestion import nasa
from repro.versioning import DeltaTable, VersionNotFoundError
from repro.versioning import table as table_module


def small(seed: int = 0) -> DataFrame:
    return DataFrame.from_dict({"a": [seed, seed + 1], "b": ["x", "y"]})


class TestWriteRead:
    def test_versions_increment(self, tmp_path):
        table = DeltaTable(tmp_path)
        assert table.write(small(0)) == 0
        assert table.write(small(1)) == 1
        assert table.write(small(2)) == 2
        assert table.versions() == [0, 1, 2]

    def test_read_latest_default(self, tmp_path):
        table = DeltaTable(tmp_path)
        table.write(small(0))
        table.write(small(5))
        assert table.read() == small(5)

    def test_time_travel(self, tmp_path):
        table = DeltaTable(tmp_path)
        table.write(small(0))
        table.write(small(5))
        assert table.read(0) == small(0)

    def test_unknown_version(self, tmp_path):
        table = DeltaTable(tmp_path)
        table.write(small(0))
        with pytest.raises(VersionNotFoundError):
            table.read(99)

    def test_read_empty_table(self, tmp_path):
        with pytest.raises(VersionNotFoundError):
            DeltaTable(tmp_path).read()

    def test_exists(self, tmp_path):
        assert not DeltaTable.exists(tmp_path / "nothing")
        table = DeltaTable(tmp_path / "t")
        assert not DeltaTable.exists(tmp_path / "t")
        table.write(small())
        assert DeltaTable.exists(tmp_path / "t")


class TestHistory:
    def test_commit_metadata(self, tmp_path):
        table = DeltaTable(tmp_path)
        table.write(small(), operation="upload", metadata={"source": "csv"})
        commit = table.history()[0]
        assert commit.operation == "upload"
        assert commit.metadata["source"] == "csv"
        assert commit.num_rows == 2

    def test_history_survives_reopen(self, tmp_path):
        DeltaTable(tmp_path).write(small(0))
        DeltaTable(tmp_path).write(small(1))
        reopened = DeltaTable(tmp_path)
        assert len(reopened) == 2
        assert reopened.read(0) == small(0)


class TestConcurrentWriters:
    def test_racing_writers_claim_distinct_versions(self, tmp_path, monkeypatch):
        """Two tables on one root both see the same latest version before
        either commits; each still gets its own version and data file."""
        barrier = threading.Barrier(2)
        waited = set()
        latest_version = DeltaTable.latest_version

        def racing_latest(self):
            latest = latest_version(self)
            if threading.get_ident() not in waited:
                waited.add(threading.get_ident())
                barrier.wait(timeout=10)
            return latest

        monkeypatch.setattr(DeltaTable, "latest_version", racing_latest)
        frames = [small(0), small(10)]
        tables = [DeltaTable(tmp_path) for _ in frames]
        versions = [None, None]
        errors = []

        def commit(i):
            try:
                versions[i] = tables[i].write(frames[i], metadata={"writer": i})
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        threads = [threading.Thread(target=commit, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        monkeypatch.undo()
        assert not errors
        assert sorted(versions) == [0, 1]
        reader = DeltaTable(tmp_path)
        for i, frame in enumerate(frames):
            assert reader.read(versions[i]) == frame
            assert reader.commit_for(versions[i]).metadata == {"writer": i}
        assert reader.versions() == [0, 1]
        log = [path.name for path in (tmp_path / "_delta_log").iterdir()]
        assert sorted(log) == [f"{v:020d}.json" for v in (0, 1)]

    def test_filesystem_without_hard_links_fails_naming_the_root(
        self, tmp_path, monkeypatch
    ):
        table = DeltaTable(tmp_path)
        table.write(small(0))

        def refuse(src, dst):
            raise OSError(errno.EPERM, "Operation not permitted")

        monkeypatch.setattr(table_module.os, "link", refuse)
        with pytest.raises(OSError, match="does not support the hard links") as error:
            table.write(small(10))
        assert error.value.errno == errno.EPERM
        assert str(tmp_path) in str(error.value)
        monkeypatch.undo()
        # The failed write left no data file, log entry or tmp file.
        assert table.versions() == [0]
        assert len(list((tmp_path / "data").iterdir())) == 1
        assert len(list((tmp_path / "_delta_log").iterdir())) == 1


class TestRestore:
    def test_restore_appends_not_rewrites(self, tmp_path):
        table = DeltaTable(tmp_path)
        table.write(small(0))
        table.write(small(5))
        new_version = table.restore(0)
        assert new_version == 2
        assert table.read() == small(0)
        assert table.read(1) == small(5)  # history intact

    def test_restore_records_source(self, tmp_path):
        table = DeltaTable(tmp_path)
        table.write(small(0))
        table.write(small(1))
        table.restore(0)
        commit = table.commit_for(2)
        assert commit.operation == "restore"
        assert commit.metadata["restored_from"] == 0


class TestRealData:
    def test_nasa_roundtrip(self, tmp_path):
        frame = nasa(100)
        table = DeltaTable(tmp_path)
        table.write(frame, operation="upload")
        assert table.read(0) == frame


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6))
def test_every_version_rereads_identically(tmp_path_factory, seeds):
    """Append-only invariant: any historical version re-reads exactly."""
    import uuid

    root = tmp_path_factory.mktemp("delta") / uuid.uuid4().hex
    table = DeltaTable(root)
    frames = [small(seed) for seed in seeds]
    for frame in frames:
        table.write(frame)
    for version, frame in enumerate(frames):
        assert table.read(version) == frame
