"""Data ingestion: files, SQL databases, and the per-dataset workspace.

Mirrors §2 of the paper: an upload creates a folder named after the file
holding ``dirty.csv`` plus a ``delta`` subfolder for the version store, and
SQL tables are loaded through a connection and then treated identically to
uploaded files. MySQL/PostgreSQL/MSSQL are replaced by stdlib ``sqlite3``
(same connect/select/load path, no external server needed offline).

A :class:`~repro.core.DataLens` commits ``dirty.csv`` as the upload
version and gives the latest repair version the name ``repaired.csv``,
both by hard link, so the loader never writes into either: it writes a
unique temp name next to it and renames that over the old name
(``os.replace``), which leaves the committed file as it was and the old
name intact when the write fails.
"""

from __future__ import annotations

import os
import sqlite3
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

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


@contextmanager
def _replacing(path: Path) -> Iterator[Path]:
    """A unique temp name next to ``path``, renamed over ``path`` when the
    block succeeds and removed when it fails."""
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
        with _replacing(workspace.dirty_path) as tmp:
            write_csv(frame, tmp)
        return workspace

    def ingest_csv(self, path: str | Path, delimiter: str = ",") -> DatasetWorkspace:
        """Upload a CSV/TSV file; the dataset is named after the file stem."""
        source = Path(path)
        frame = read_csv(source, delimiter=delimiter)
        return self.ingest_frame(source.stem, frame)

    def ingest_csv_stream(self, name: str, lines) -> tuple[DatasetWorkspace, DataFrame]:
        """Single-pass streaming upload: persist *and* parse CSV lines.

        Every line read from ``lines`` (any iterable of text — the REST
        layer passes the request-body stream) is tee'd to a temp file
        next to the dataset's ``dirty.csv`` while the chunked reader
        packs it into shards under the loader's chunk/spill
        configuration, so the upload is written to the workspace and
        parsed without ever holding the full table. Only a complete
        parse renames the temp file over ``dirty.csv``: an upload that
        fails leaves the dataset's files as they were. Returns the
        workspace together with the parsed frame so callers skip the
        usual re-load from disk.
        """
        workspace = self.workspace_for(name)
        chunked = self._chunked_read()
        with _replacing(workspace.dirty_path) as tmp, open(
            tmp, "w", newline="", encoding="utf-8"
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

    def save_repaired(self, dataset_name: str, data_file: Path) -> Path:
        """Name a repair's committed CSV ``repaired.csv`` next to the dirty
        CSV (§3, data repair); returns that path.

        ``data_file`` (the repair version's data file) is hard-linked, not
        rendered again, and replaces the previous repair's link.
        """
        path = self.workspace_for(dataset_name).repaired_path()
        with _replacing(path) as tmp:
            os.link(data_file, tmp)
        return path
