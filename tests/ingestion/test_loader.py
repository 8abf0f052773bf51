"""Loader and workspace layout tests (§2 ingestion paths)."""

import io

import pytest

from repro.dataframe import DataFrame, write_csv
from repro.ingestion import DataLoader, nasa


class TestWorkspaceLayout:
    def test_folder_structure(self, tmp_path):
        loader = DataLoader(tmp_path)
        workspace = loader.ingest_frame("demo", nasa(50))
        assert workspace.dirty_path.exists()
        assert workspace.dirty_path.name == "dirty.csv"
        assert workspace.delta_path.is_dir()

    def test_ingest_and_load_roundtrip(self, tmp_path):
        loader = DataLoader(tmp_path)
        frame = nasa(30)
        loader.ingest_frame("demo", frame)
        assert loader.load("demo") == frame

    def test_list_datasets(self, tmp_path):
        loader = DataLoader(tmp_path)
        loader.ingest_frame("a", nasa(10))
        loader.ingest_frame("b", nasa(10))
        assert loader.list_datasets() == ["a", "b"]

    def test_load_unknown(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DataLoader(tmp_path).load("ghost")

    def test_save_repaired(self, tmp_path):
        """``repaired.csv`` is a hard link of the repair's committed file,
        and the next repair replaces the link, not the file."""
        loader = DataLoader(tmp_path)
        workspace = loader.ingest_frame("demo", nasa(10))
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_csv(nasa(10), first)
        write_csv(nasa(20), second)
        path = loader.save_repaired("demo", first)
        assert path == workspace.repaired_path()
        assert path.name == "repaired.csv"
        assert path.samefile(first)
        before = first.read_bytes()
        assert loader.save_repaired("demo", second) == path
        assert path.samefile(second)
        assert first.read_bytes() == before
        assert sorted(p.name for p in workspace.root.iterdir()) == [
            "delta", "dirty.csv", "repaired.csv"
        ]


class TestFailedUpload:
    """A failed upload leaves the workspace as it was: ``dirty.csv`` is a
    committed version's file, so the loader never writes into it."""

    GOOD = "a,b\n1,x\n2,y\n3,z\n"
    BAD = "a,b\n9,q\n8\n"

    @pytest.mark.parametrize("chunk_size", [None, 1])
    def test_failed_reupload_keeps_dirty_csv(self, tmp_path, chunk_size):
        loader = DataLoader(tmp_path, chunk_size=chunk_size)
        workspace, _ = loader.ingest_csv_stream("d", io.StringIO(self.GOOD))
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


class TestCSVIngestion:
    def test_named_after_file_stem(self, tmp_path):
        frame = DataFrame.from_dict({"a": [1, 2]})
        source = tmp_path / "uploads" / "mydata.csv"
        write_csv(frame, source)
        loader = DataLoader(tmp_path / "ws")
        workspace = loader.ingest_csv(source)
        assert workspace.name == "mydata"
        assert loader.load("mydata") == frame


class TestPreloaded:
    def test_preloaded_names(self, tmp_path):
        loader = DataLoader(tmp_path)
        workspace = loader.ingest_preloaded("hospital")
        assert workspace.name == "hospital"
        assert loader.load("hospital").num_rows == 1000

    def test_unknown_preloaded(self, tmp_path):
        with pytest.raises(KeyError):
            DataLoader(tmp_path).ingest_preloaded("imagenet")


class TestSQLIngestion:
    def test_sqlite_roundtrip(self, tmp_path, frame_to_sqlite):
        frame = DataFrame.from_dict(
            {"id": [1, 2, 3], "name": ["x", "y", None]}
        )
        database = tmp_path / "db.sqlite"
        frame_to_sqlite(frame, database, "people")
        loader = DataLoader(tmp_path / "ws")
        loader.ingest_sql(database, "people")
        loaded = loader.load("people")
        assert loaded.shape == (3, 2)
        assert loaded.at(2, "name") is None

    def test_suspicious_table_name(self, tmp_path):
        with pytest.raises(ValueError):
            DataLoader(tmp_path).ingest_sql("db.sqlite", "users; DROP TABLE x")
