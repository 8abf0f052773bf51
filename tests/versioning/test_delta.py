"""Delta-style versioned table tests."""

import errno
import os
import stat
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame
from repro.ingestion import DataLoader, nasa
from repro.versioning import DeltaTable, VersionNotFoundError
from repro.versioning import table as table_module


def small(seed: int = 0) -> DataFrame:
    return DataFrame.from_dict({"a": [seed, seed + 1], "b": ["x", "y"]})


def data_files(root) -> list[str]:
    return sorted(path.name for path in (root / "data").iterdir())


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

    def test_version_errors_read_plainly(self, tmp_path):
        """A ``KeyError`` subclass whose message is not repr-quoted."""
        table = DeltaTable(tmp_path)
        with pytest.raises(KeyError) as empty:
            table.read()
        assert str(empty.value) == "table has no committed versions"
        table.write(small(0))
        with pytest.raises(VersionNotFoundError) as unknown:
            table.restore(99)
        assert str(unknown.value) == "version 99 not found"

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

    def test_a_second_table_sees_new_commits(self, tmp_path):
        first, second = DeltaTable(tmp_path), DeltaTable(tmp_path)
        first.write(small(0))
        assert second.versions() == [0]
        first.write(small(1))
        first.restore(0)
        assert second.versions() == [0, 1, 2]
        assert second.latest_version() == 2
        assert second.read() == small(0)
        assert second.commit_for(2).metadata == {"restored_from": 0}


class TestConcurrentWriters:
    @pytest.mark.parametrize("operation", ["write", "restore"])
    def test_racing_writers_claim_distinct_versions(
        self, tmp_path, monkeypatch, operation
    ):
        """Two tables on one root both see the same latest version before
        either commits; each still gets its own version, and each version
        names the data file its writer meant: a new one per write, the
        source's for a restore."""
        frames = [small(0), small(10)]
        base = 0
        if operation == "restore":
            sources = [DeltaTable(tmp_path).write(frame) for frame in frames]
            base = len(sources)
            stored = data_files(tmp_path)
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
        tables = [DeltaTable(tmp_path) for _ in frames]
        versions = [None, None]
        errors = []

        def commit(i):
            try:
                if operation == "write":
                    versions[i] = tables[i].write(frames[i], metadata={"writer": i})
                else:
                    versions[i] = tables[i].restore(sources[i])
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
        assert sorted(versions) == [base, base + 1]
        reader = DeltaTable(tmp_path)
        for i, frame in enumerate(frames):
            assert reader.read(versions[i]) == frame
            commit = reader.commit_for(versions[i])
            if operation == "write":
                assert commit.metadata == {"writer": i}
            else:
                assert commit.metadata == {"restored_from": sources[i]}
                assert commit.data_file == reader.commit_for(sources[i]).data_file
        if operation == "restore":
            assert data_files(tmp_path) == stored
        assert reader.versions() == list(range(base + 2))
        log = [path.name for path in (tmp_path / "_delta_log").iterdir()]
        assert sorted(log) == [f"{v:020d}.json" for v in range(base + 2)]

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
        source = tmp_path / "upload.csv"
        source.write_text("a,b\n1,x\n", encoding="utf-8")
        with pytest.raises(OSError, match="does not support the hard links") as error:
            table.link(source, small(1))
        assert str(tmp_path) in str(error.value)
        with pytest.raises(OSError, match="does not support the hard links"):
            table.restore(0)
        monkeypatch.undo()
        # The failed commits left no data file, log entry or tmp file.
        assert table.versions() == [0]
        assert len(list((tmp_path / "data").iterdir())) == 1
        assert len(list((tmp_path / "_delta_log").iterdir())) == 1
        assert source.read_text(encoding="utf-8") == "a,b\n1,x\n"
        # An ingest commits before it renames its file over dirty.csv, so
        # a refused commit leaves the dataset as it was.
        loader = DataLoader(tmp_path / "ws")
        loader.ingest_csv_stream("d", iter(["a\n", "1\n"]))
        workspace = loader.workspace_for("d")
        monkeypatch.setattr(table_module.os, "link", refuse)
        with pytest.raises(OSError, match="does not support the hard links") as error:
            loader.ingest_csv_stream("d", iter(["a\n", "2\n"]))
        assert str(workspace.delta_path) in str(error.value)
        monkeypatch.undo()
        assert workspace.dirty_path.read_text(encoding="utf-8") == "a\n1\n"
        assert sorted(p.name for p in workspace.root.iterdir()) == ["delta", "dirty.csv"]
        assert DeltaTable(workspace.delta_path).versions() == [0]
        assert loader.load("d") == DataFrame.from_dict({"a": [1]})

    def test_failed_claim_of_a_linked_file_leaves_no_data_file(
        self, tmp_path, monkeypatch
    ):
        """The data link succeeds, the log claim fails: the link goes,
        the linked file stays."""
        table = DeltaTable(tmp_path / "t")
        table.write(small(0))
        source = tmp_path / "dirty.csv"
        source.write_text("a,b\n1,x\n", encoding="utf-8")
        link = os.link

        def refuse_log_entries(src, dst):
            if "_delta_log" in str(dst):
                raise OSError(errno.EOPNOTSUPP, "Operation not supported")
            link(src, dst)

        monkeypatch.setattr(table_module.os, "link", refuse_log_entries)
        with pytest.raises(OSError, match="does not support the hard links"):
            table.link(source, small(1))
        monkeypatch.undo()
        assert table.versions() == [0]
        assert len(data_files(tmp_path / "t")) == 1
        assert source.stat().st_nlink == 1
        assert source.read_text(encoding="utf-8") == "a,b\n1,x\n"


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

    def test_restore_commits_only_a_log_entry(self, tmp_path, monkeypatch):
        """The entry names the source's data file and shape; no data is
        read, rendered or stored."""
        table = DeltaTable(tmp_path)
        table.write(DataFrame.from_dict({"a": [1, 2, 3]}))
        table.write(small(1))
        stored = data_files(tmp_path)

        def no_data(*args, **kwargs):
            raise AssertionError("restore touched data")

        monkeypatch.setattr(table_module, "read_csv", no_data)
        monkeypatch.setattr(table_module, "write_csv", no_data)
        assert table.restore(0) == 2
        monkeypatch.undo()
        assert data_files(tmp_path) == stored
        source, restored = table.commit_for(0), table.commit_for(2)
        assert restored.data_file == source.data_file
        assert (restored.num_rows, restored.num_columns) == (3, 1)
        assert table.read(2) == table.read(0)

    def test_restore_of_a_restore(self, tmp_path):
        table = DeltaTable(tmp_path)
        table.write(small(0))
        table.write(small(1))
        table.restore(0)
        assert table.restore(2) == 3
        assert len(data_files(tmp_path)) == 2
        commit = table.commit_for(3)
        assert commit.operation == "restore"
        assert commit.metadata == {"restored_from": 2}
        assert commit.data_file == table.commit_for(0).data_file
        assert table.read(3) == small(0)
        assert table.read(1) == small(1)


class TestLink:
    """Committing a CSV that already exists, as the upload version is."""

    def test_link_commits_the_file_without_rendering(self, tmp_path, monkeypatch):
        source = tmp_path / "dirty.csv"
        source.write_text("a,b\n0,x\n1,y\n", encoding="utf-8")
        table = DeltaTable(tmp_path / "delta")

        def no_render(*args, **kwargs):
            raise AssertionError("link rendered the frame")

        monkeypatch.setattr(table_module, "write_csv", no_render)
        version = table.link(source, small(0), operation="upload")
        monkeypatch.undo()
        assert version == 0
        assert table.data_path(0).samefile(source)
        commit = table.commit_for(0)
        assert (commit.operation, commit.num_rows, commit.num_columns) == (
            "upload", 2, 2
        )
        assert table.read(0) == small(0)

    def test_committed_files_are_read_only(self, tmp_path):
        source = tmp_path / "dirty.csv"
        source.write_text("a,b\n0,x\n1,y\n", encoding="utf-8")
        table = DeltaTable(tmp_path / "delta")
        table.link(source, small(0))
        table.write(small(1))
        for version in (0, 1):
            mode = stat.S_IMODE(table.data_path(version).stat().st_mode)
            assert mode == 0o444
        assert stat.S_IMODE(source.stat().st_mode) == 0o444

    def test_replacing_the_source_keeps_the_version(self, tmp_path):
        """A new file renamed over the linked name leaves the committed
        bytes alone."""
        source = tmp_path / "dirty.csv"
        source.write_text("a,b\n0,x\n1,y\n", encoding="utf-8")
        table = DeltaTable(tmp_path / "delta")
        table.link(source, small(0))
        replacement = tmp_path / "next.csv"
        replacement.write_text("a,b\n7,q\n", encoding="utf-8")
        os.replace(replacement, source)
        assert table.read(0) == small(0)
        assert table.data_path(0).read_text(encoding="utf-8") == "a,b\n0,x\n1,y\n"


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
