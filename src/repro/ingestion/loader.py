"""Data ingestion: files, SQL databases, and the per-dataset workspace.

Mirrors §2 of the paper: an upload creates a folder named after the file
holding ``dirty.csv`` plus a ``delta`` subfolder for the version store, and
SQL tables are loaded through a connection and then treated identically to
uploaded files. MySQL/PostgreSQL/MSSQL are replaced by stdlib ``sqlite3``
(same connect/select/load path, no external server needed offline).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from pathlib import Path

from ..dataframe import (
    DataFrame,
    SpillStore,
    read_csv,
    read_csv_chunked,
    read_csv_stream,
    read_csv_text,
    write_csv,
)
from ..settings import Settings
from .datasets import PRELOADED, load_clean

DIRTY_FILE_NAME = "dirty.csv"
DELTA_DIR_NAME = "delta"


@dataclass
class DatasetWorkspace:
    """Filesystem layout for one ingested dataset."""

    name: str
    root: Path

    @property
    def dirty_path(self) -> Path:
        return self.root / DIRTY_FILE_NAME

    @property
    def delta_path(self) -> Path:
        return self.root / DELTA_DIR_NAME

    def repaired_path(self, tag: str = "repaired") -> Path:
        return self.root / f"{tag}.csv"


class DataLoader:
    """Feeds input data into the dashboard controller (§2, "data loader").

    ``chunk_size`` switches :meth:`load` to the streaming chunked reader
    (:func:`~repro.dataframe.read_csv_chunked`): the dirty CSV is packed
    into a :class:`~repro.dataframe.ChunkedFrame` of that many rows per
    shard without materializing the full table as Python rows.

    ``spill_store`` (a :class:`~repro.core.DataLens` passes its own)
    additionally spills every load's shards into that one store (see
    :mod:`repro.dataframe.spill`), bounding resident shard bytes during
    and after the load: the beyond-RAM ingestion path. It implies
    chunked loads; without it no load spills. An unset chunk size falls
    back to ``DATALENS_DEFAULT_CHUNK_SIZE``; with neither, loads stay
    monolithic.
    """

    def __init__(
        self,
        base_dir: str | Path,
        chunk_size: int | None = None,
        spill_store: SpillStore | None = None,
    ) -> None:
        self.base_dir = Path(base_dir)
        self.base_dir.mkdir(parents=True, exist_ok=True)
        self.chunk_size = chunk_size
        self.spill_store = spill_store

    def _chunked_read(self) -> dict | None:
        """Chunked-reader arguments, or None for a monolithic load."""
        store = self.spill_store
        if store is None and self.chunk_size is None:
            if Settings.from_env().default_chunk_size is None:
                return None
        return {"chunk_size": self.chunk_size, "spill": store or False}

    # ------------------------------------------------------------------
    def workspace_for(self, dataset_name: str) -> DatasetWorkspace:
        root = self.base_dir / dataset_name
        root.mkdir(parents=True, exist_ok=True)
        (root / DELTA_DIR_NAME).mkdir(exist_ok=True)
        return DatasetWorkspace(name=dataset_name, root=root)

    def ingest_frame(self, name: str, frame: DataFrame) -> DatasetWorkspace:
        """Register an in-memory frame as an uploaded dataset."""
        workspace = self.workspace_for(name)
        write_csv(frame, workspace.dirty_path)
        return workspace

    def ingest_csv(self, path: str | Path, delimiter: str = ",") -> DatasetWorkspace:
        """Upload a CSV/TSV file; the dataset is named after the file stem."""
        source = Path(path)
        frame = read_csv(source, delimiter=delimiter)
        return self.ingest_frame(source.stem, frame)

    def ingest_csv_stream(self, name: str, lines) -> tuple[DatasetWorkspace, DataFrame]:
        """Single-pass streaming upload: persist *and* parse CSV lines.

        Every line read from ``lines`` (any iterable of text — the REST
        layer passes the request-body stream) is tee'd to the dataset's
        ``dirty.csv`` while the chunked reader packs it into shards
        under the loader's chunk/spill configuration, so the upload is
        written to the workspace and parsed without ever holding the
        full table. Returns the workspace together with the parsed
        frame so callers skip the usual re-load from disk.
        """
        workspace = self.workspace_for(name)
        chunked = self._chunked_read()
        with open(
            workspace.dirty_path, "w", newline="", encoding="utf-8"
        ) as sink:
            if chunked is not None:
                def tee():
                    for line in lines:
                        sink.write(line)
                        yield line

                frame: DataFrame = read_csv_stream(tee(), **chunked)
            else:
                # Monolithic configuration: small-data path, parse the
                # accumulated text exactly like ``load`` would.
                text = "".join(lines)
                sink.write(text)
                frame = read_csv_text(text)
        return workspace, frame

    def ingest_preloaded(self, name: str) -> DatasetWorkspace:
        """Load one of the datasets that ship with the dashboard."""
        if name not in PRELOADED:
            raise KeyError(f"unknown preloaded dataset {name!r}")
        return self.ingest_frame(name, load_clean(name))

    def ingest_sql(
        self,
        database: str | Path,
        table: str,
        query: str | None = None,
    ) -> DatasetWorkspace:
        """Load a table (or arbitrary SELECT) from a SQLite database."""
        if query is None:
            if not table.replace("_", "").isalnum():
                raise ValueError(f"suspicious table name {table!r}")
            query = f"SELECT * FROM {table}"
        with sqlite3.connect(str(database)) as connection:
            cursor = connection.execute(query)
            column_names = [desc[0] for desc in cursor.description]
            rows = cursor.fetchall()
        frame = DataFrame.from_rows(rows, column_names)
        return self.ingest_frame(table, frame)

    # ------------------------------------------------------------------
    def load(self, dataset_name: str) -> DataFrame:
        """Read back the dirty CSV of an ingested dataset.

        Returns a ChunkedFrame (streamed, sharded) when a chunk size is
        configured, else a monolithic DataFrame — bit-identical either
        way.
        """
        workspace = self.workspace_for(dataset_name)
        if not workspace.dirty_path.exists():
            raise FileNotFoundError(
                f"dataset {dataset_name!r} has no {DIRTY_FILE_NAME}"
            )
        chunked = self._chunked_read()
        if chunked is not None:
            return read_csv_chunked(workspace.dirty_path, **chunked)
        return read_csv(workspace.dirty_path)

    def list_datasets(self) -> list[str]:
        return sorted(
            p.name
            for p in self.base_dir.iterdir()
            if p.is_dir() and (p / DIRTY_FILE_NAME).exists()
        )

    def save_repaired(
        self, dataset_name: str, frame: DataFrame, tag: str = "repaired"
    ) -> Path:
        """Persist a repaired frame next to the dirty CSV (§3, data repair)."""
        workspace = self.workspace_for(dataset_name)
        path = workspace.repaired_path(tag)
        write_csv(frame, path)
        return path
