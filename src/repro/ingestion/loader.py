"""Data ingestion: the per-dataset workspace and its one ingest path.

Mirrors §2 of the paper: an upload creates a folder named after the
dataset holding ``dirty.csv`` plus a ``delta`` subfolder for the version
store. Every ingest is CSV lines streamed through
:meth:`DataLoader.ingest_csv_stream` (a :class:`~repro.core.DataLens`
renders the frames of records, preloaded data and SQL tables a slice at
a time): they are parsed once while they are written next to
``dirty.csv``, that file is committed as the ``upload`` version, and
only then is it renamed over ``dirty.csv``, which so always holds the
latest upload's bytes. The Delta log is the dataset's only source of
truth: :meth:`DataLoader.load` reads its newest version, and
:meth:`DataLoader.list_datasets` lists a dataset once its version 0 is
committed.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..dataframe import DataFrame, SpillStore, read_csv_stream
from ..dataframe.io import _BLOCK_ROWS
from ..settings import Settings
from ..versioning import DeltaTable

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


class DataLoader:
    """Feeds input data into the dashboard controller (§2, "data loader").

    ``chunk_size`` makes ingests and loads use the streaming chunked
    reader: the CSV is packed into a :class:`~repro.dataframe.ChunkedFrame`
    of that many rows per shard without materializing the full table as
    Python rows.

    ``spill_store`` (a :class:`~repro.core.DataLens` passes its own)
    additionally spills every ingest's and load's shards into that one
    store (see :mod:`repro.dataframe.spill`), bounding resident shard
    bytes during and after the read: the beyond-RAM ingestion path. It
    implies chunked reads; without it nothing spills. An unset chunk
    size falls back to ``DATALENS_DEFAULT_CHUNK_SIZE``; with neither,
    frames are monolithic.
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

    def _read(self, lines: Iterable[str]) -> DataFrame:
        """Parse CSV lines under the loader's chunk/spill configuration.

        A monolithic frame is parsed in blocks of ``_BLOCK_ROWS`` rows,
        as :func:`~repro.dataframe.read_csv` parses a file, so the
        tokens held at once do not grow with the default chunk size.
        """
        store = self.spill_store
        if store is None and self.chunk_size is None:
            if Settings.from_env().default_chunk_size is None:
                frame = read_csv_stream(lines, chunk_size=_BLOCK_ROWS, spill=False)
                return frame.to_monolithic()
        return read_csv_stream(lines, chunk_size=self.chunk_size, spill=store or False)

    # ------------------------------------------------------------------
    def workspace_for(self, dataset_name: str) -> DatasetWorkspace:
        root = self.base_dir / dataset_name
        root.mkdir(parents=True, exist_ok=True)
        (root / DELTA_DIR_NAME).mkdir(exist_ok=True)
        return DatasetWorkspace(name=dataset_name, root=root)

    def ingest_csv_stream(self, name: str, lines: Iterable[str]) -> DataFrame:
        """Ingest CSV lines: parse them once, commit them, keep them.

        Every line read from ``lines`` (any iterable of text: a request
        body, an open file, a frame's rendered lines) is tee'd to a temp
        file next to the dataset's ``dirty.csv`` while it is parsed, so
        the upload is written and parsed without ever holding the full
        table. A complete parse commits the temp file as a new
        ``upload`` version (a hard link, not a second write), and only
        then is it renamed over ``dirty.csv``; a failed parse or commit
        leaves both as they were. Returns the parsed frame.
        """
        workspace = self.workspace_for(name)
        tmp = workspace.root / f".{DIRTY_FILE_NAME}.{uuid.uuid4().hex}.tmp"
        try:
            with open(tmp, "w", newline="", encoding="utf-8") as sink:

                def tee() -> Iterator[str]:
                    for line in lines:
                        sink.write(line)
                        yield line

                frame = self._read(tee())
            DeltaTable(workspace.delta_path).link(tmp, frame, operation="upload")
            os.replace(tmp, workspace.dirty_path)
        finally:
            tmp.unlink(missing_ok=True)
        return frame

    def load(self, dataset_name: str) -> DataFrame:
        """Read the newest committed version of a dataset, chunked and
        spilled like an ingest; raises
        :class:`~repro.versioning.VersionNotFoundError` without one."""
        path = DeltaTable(self.workspace_for(dataset_name).delta_path).data_path()
        with open(path, newline="", encoding="utf-8") as handle:
            return self._read(handle)

    def list_datasets(self) -> list[str]:
        """The datasets with a committed version, by name."""
        return sorted(
            p.name
            for p in self.base_dir.iterdir()
            if DeltaTable.exists(p / DELTA_DIR_NAME)
        )
