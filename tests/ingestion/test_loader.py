"""Loader and workspace layout tests (§2 ingestion paths)."""

import errno
import io

import pytest

from repro.dataframe import DataFrame, csv_lines, to_csv_text
from repro.dataframe import io as csv_io
from repro.ingestion import DataLoader, nasa
from repro.versioning import DeltaTable, VersionNotFoundError
from repro.versioning import table as table_module


def ingest(loader, name, frame):
    """Ingest ``frame``'s CSV lines; returns the workspace and the parse."""
    parsed = loader.ingest_csv_stream(name, csv_lines(frame))
    return loader.workspace_for(name), parsed


class TestWorkspaceLayout:
    def test_folder_structure(self, tmp_path):
        loader = DataLoader(tmp_path)
        workspace, _ = ingest(loader, "demo", nasa(50))
        assert workspace.dirty_path.exists()
        assert workspace.dirty_path.name == "dirty.csv"
        assert workspace.delta_path.is_dir()
        assert sorted(p.name for p in workspace.root.iterdir()) == [
            "delta", "dirty.csv"
        ]

    def test_ingest_and_load_roundtrip(self, tmp_path):
        loader = DataLoader(tmp_path)
        frame = nasa(30)
        _, parsed = ingest(loader, "demo", frame)
        assert parsed == frame
        assert loader.load("demo") == frame

    def test_ingest_commits_the_upload_version(self, tmp_path):
        """The file that becomes ``dirty.csv`` is the upload version's."""
        loader = DataLoader(tmp_path)
        workspace, _ = ingest(loader, "demo", nasa(10))
        table = DeltaTable(workspace.delta_path)
        assert [c.operation for c in table.history()] == ["upload"]
        assert table.data_path(0).samefile(workspace.dirty_path)

    def test_list_datasets_keys_on_the_log(self, tmp_path):
        loader = DataLoader(tmp_path)
        ingest(loader, "a", nasa(10))
        ingest(loader, "b", nasa(10))
        loader.workspace_for("empty")  # a folder without a version
        (tmp_path / "stray.txt").write_text("x", encoding="utf-8")
        assert loader.list_datasets() == ["a", "b"]

    def test_load_unknown(self, tmp_path):
        with pytest.raises(VersionNotFoundError, match="no committed versions"):
            DataLoader(tmp_path).load("ghost")

    def test_load_reads_the_newest_version(self, tmp_path):
        """``dirty.csv`` holds the upload; a reopen reads the log's head."""
        loader = DataLoader(tmp_path)
        workspace, _ = ingest(loader, "demo", nasa(10))
        later = nasa(4, seed=3)
        DeltaTable(workspace.delta_path).write(later, operation="repair")
        assert loader.load("demo") == later
        assert workspace.dirty_path.read_text(encoding="utf-8") == to_csv_text(
            nasa(10)
        )

    def test_file_streams_as_is(self, tmp_path):
        """An open file's bytes become ``dirty.csv``, CRLF line ends included."""
        text = "a,b\r\n1,x\r\n2,\r\n"
        source = tmp_path / "upload.csv"
        source.write_bytes(text.encode())
        loader = DataLoader(tmp_path / "ws")
        with open(source, newline="", encoding="utf-8") as handle:
            frame = loader.ingest_csv_stream("upload", handle)
        workspace = loader.workspace_for("upload")
        assert workspace.dirty_path.read_bytes() == text.encode()
        assert frame == DataFrame.from_dict({"a": [1, 2], "b": ["x", None]})
        assert loader.load("upload") == frame

    @pytest.mark.parametrize("chunk_size", [None, 5])
    def test_parse_block_rows(self, tmp_path, monkeypatch, chunk_size):
        """A monolithic loader parses in ``read_csv``'s blocks, not in the
        default chunk size; a chunked one in its chunks."""
        monkeypatch.delenv("DATALENS_DEFAULT_CHUNK_SIZE", raising=False)
        sizes = []
        parse = csv_io._parse_csv

        def recorded(handle, delimiter, size, *args):
            sizes.append(size)
            return parse(handle, delimiter, size, *args)

        monkeypatch.setattr(csv_io, "_parse_csv", recorded)
        loader = DataLoader(tmp_path, chunk_size=chunk_size)
        frame = nasa(12)
        _, parsed = ingest(loader, "demo", frame)
        assert parsed == frame and loader.load("demo") == frame
        assert sizes == [chunk_size or csv_io._BLOCK_ROWS] * 2


class TestFailedUpload:
    """A failed upload leaves the workspace as it was: ``dirty.csv`` is a
    committed version's file, so the loader never writes into it."""

    GOOD = "a,b\n1,x\n2,y\n3,z\n"
    BAD = "a,b\n9,q\n8\n"

    @pytest.mark.parametrize("chunk_size", [None, 1])
    def test_failed_reupload_keeps_dirty_csv(self, tmp_path, chunk_size):
        loader = DataLoader(tmp_path, chunk_size=chunk_size)
        loader.ingest_csv_stream("d", io.StringIO(self.GOOD))
        workspace = loader.workspace_for("d")
        with pytest.raises(ValueError, match="row has 1 fields, expected 2"):
            loader.ingest_csv_stream("d", io.StringIO(self.BAD))
        assert workspace.dirty_path.read_text(encoding="utf-8") == self.GOOD
        assert sorted(p.name for p in workspace.root.iterdir()) == [
            "delta", "dirty.csv"
        ]
        assert loader.load("d").num_rows == 3

    def test_failed_first_upload_creates_no_dataset(self, tmp_path):
        loader = DataLoader(tmp_path, chunk_size=1)
        with pytest.raises(ValueError, match="row has 1 fields, expected 2"):
            loader.ingest_csv_stream("d", io.StringIO(self.BAD))
        assert loader.list_datasets() == []
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["delta"]

    @pytest.mark.parametrize("chunk_size", [None, 1])
    def test_failed_commit_changes_nothing(self, tmp_path, monkeypatch, chunk_size):
        """A commit that fails after a complete parse: a first upload
        lists no dataset and leaves no ``dirty.csv``; a re-upload leaves
        ``dirty.csv``, the history and a reload as they were."""
        loader = DataLoader(tmp_path, chunk_size=chunk_size)

        def refuse(src, dst):
            raise OSError(errno.EPERM, "Operation not permitted")

        monkeypatch.setattr(table_module.os, "link", refuse)
        with pytest.raises(OSError, match="does not support the hard links"):
            loader.ingest_csv_stream("new", io.StringIO(self.GOOD))
        assert loader.list_datasets() == []
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == ["delta"]
        monkeypatch.undo()

        loader.ingest_csv_stream("d", io.StringIO(self.GOOD))
        workspace = loader.workspace_for("d")
        history = DeltaTable(workspace.delta_path).history()
        monkeypatch.setattr(table_module.os, "link", refuse)
        with pytest.raises(OSError, match="does not support the hard links"):
            loader.ingest_csv_stream("d", io.StringIO("a,b\n7,w\n"))
        monkeypatch.undo()
        assert workspace.dirty_path.read_text(encoding="utf-8") == self.GOOD
        assert sorted(p.name for p in workspace.root.iterdir()) == [
            "delta", "dirty.csv"
        ]
        assert DeltaTable(workspace.delta_path).history() == history
        assert loader.list_datasets() == ["d"]
        assert loader.load("d").num_rows == 3

