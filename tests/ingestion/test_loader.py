"""Loader and workspace layout tests (§2 ingestion paths)."""

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
        loader = DataLoader(tmp_path)
        loader.ingest_frame("demo", nasa(10))
        path = loader.save_repaired("demo", nasa(10))
        assert path.exists()
        assert path.name == "repaired.csv"


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
