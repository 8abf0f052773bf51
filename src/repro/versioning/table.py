"""Delta-Lake-style versioned tables.

A :class:`DeltaTable` is a directory holding CSV data files (``data/``)
plus an append-only transaction log (``_delta_log/<version>.json``).
Every commit appends one log entry and history is never rewritten, so
any version can be read back ("time travel") — the semantics the paper
relies on for dataset version control (§5).

A log entry names the data file that holds its rows, and several
entries may name one file: ``restore`` commits an entry that names the
restored version's file and writes no data. A data file may have a name
outside the table too: an ingest commits the CSV it just wrote as the
``upload`` version by hard-linking it into ``data/``
(:meth:`DeltaTable.link`), and then renames it over the dataset's
``dirty.csv``. So no data file changes after its commit: each is made
read-only, and a new ``dirty.csv`` is renamed over the old one, never
written into it.

The log is a dataset's only source of truth: a reopen reads its newest
version, and a dataset exists once its version 0 does.
"""

from __future__ import annotations

import errno
import json
import os
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from ..dataframe import DataFrame, read_csv, write_csv

LOG_DIR = "_delta_log"
DATA_DIR = "data"

#: ``os.link`` errnos of a filesystem without hard links (FAT/exFAT,
#: many SMB/CIFS and FUSE mounts).
_NO_HARD_LINKS = frozenset(
    {errno.EPERM, errno.EOPNOTSUPP, errno.ENOTSUP, errno.ENOSYS}
)


def _entry_name(version: int) -> str:
    """The log entry of ``version``; names sort in version order."""
    return f"{version:020d}.json"


class VersionNotFoundError(KeyError):
    """Requested version does not exist in the transaction log (the REST
    layer maps this to HTTP 404)."""

    def __str__(self) -> str:  # KeyError.__str__ would repr-quote the message
        return self.args[0]


@dataclass(frozen=True)
class Commit:
    """One entry of the transaction log."""

    version: int
    timestamp: float
    operation: str
    data_file: str
    num_rows: int
    num_columns: int
    metadata: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "timestamp": self.timestamp,
            "operation": self.operation,
            "data_file": self.data_file,
            "num_rows": self.num_rows,
            "num_columns": self.num_columns,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Commit":
        return cls(
            version=int(data["version"]),
            timestamp=float(data["timestamp"]),
            operation=str(data["operation"]),
            data_file=str(data["data_file"]),
            num_rows=int(data["num_rows"]),
            num_columns=int(data["num_columns"]),
            metadata=dict(data.get("metadata", {})),
        )


class DeltaTable:
    """Append-only versioned table rooted at a directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        (self.root / LOG_DIR).mkdir(parents=True, exist_ok=True)
        (self.root / DATA_DIR).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    @classmethod
    def exists(cls, root: str | Path) -> bool:
        """Whether the table at ``root`` has a committed version: one
        ``stat`` of version 0's entry, which nothing removes."""
        return (Path(root) / LOG_DIR / _entry_name(0)).exists()

    def history(self) -> list[Commit]:
        """All commits in version order."""
        commits = []
        for path in sorted((self.root / LOG_DIR).glob("*.json")):
            commits.append(
                Commit.from_dict(json.loads(path.read_text(encoding="utf-8")))
            )
        commits.sort(key=lambda commit: commit.version)
        return commits

    def latest_version(self) -> int | None:
        commits = self.history()
        return commits[-1].version if commits else None

    def commit_for(self, version: int) -> Commit:
        for commit in self.history():
            if commit.version == version:
                return commit
        raise VersionNotFoundError(f"version {version} not found")

    # ------------------------------------------------------------------
    def write(
        self,
        frame: DataFrame,
        operation: str = "write",
        metadata: dict[str, Any] | None = None,
    ) -> int:
        """Render ``frame`` as a new data file and commit it; returns the
        new version number.

        The data file gets a name no other writer can pick and is made
        read-only before its log entry is claimed: a later ``restore``
        entry may name the same file, so it never changes after this
        commit.

        The root must be on a filesystem with hard links, because the
        version is claimed by hard-linking its log entry. Where it is
        not, ``write`` raises :class:`OSError` naming the root; a failed
        write leaves neither its data file nor its log entry behind.
        """
        return self._commit(
            lambda target: write_csv(frame, target), frame, operation, metadata
        )

    def link(self, path: str | Path, frame: DataFrame, operation: str = "write") -> int:
        """Commit the CSV already at ``path``, which parses to ``frame``,
        without rendering it again; returns the new version number.

        The file is hard-linked into ``data/`` (so ``path`` must be on the
        table's filesystem) and, like every data file, made read-only:
        whoever replaces ``path`` later must rename a new file over it,
        because writing into it would change the committed version. An
        ingest links its temp file here before renaming it over
        ``dirty.csv``, so a failed commit leaves ``dirty.csv`` as it was.
        """
        return self._commit(
            lambda target: self._link(path, target), frame, operation, None
        )

    def restore(self, version: int) -> int:
        """Commit ``version`` again as the newest version (rollback).

        The new log entry (operation ``restore``, metadata
        ``{"restored_from": version}``) names ``version``'s data file,
        row count and column count; no data is read or written.
        """
        source = self.commit_for(version)
        return self._claim(
            replace(source, operation="restore", metadata={"restored_from": version})
        )

    def read(self, version: int | None = None) -> DataFrame:
        """Read a version (default: latest) back as a DataFrame."""
        return read_csv(self.data_path(version))

    def data_path(self, version: int | None = None) -> Path:
        """The data file of a version (default: latest)."""
        if version is None:
            version = self.latest_version()
            if version is None:
                raise VersionNotFoundError("table has no committed versions")
        return self.root / self.commit_for(version).data_file

    # ------------------------------------------------------------------
    def _commit(
        self,
        create: Callable[[Path], None],
        frame: DataFrame,
        operation: str,
        metadata: dict[str, Any] | None,
    ) -> int:
        """Create a data file under a name no other writer can pick, make
        it read-only and claim a version for it; a failure leaves no data
        file behind."""
        data_file = f"{DATA_DIR}/part-{uuid.uuid4().hex}.csv"
        target = self.root / data_file
        try:
            create(target)
            os.chmod(target, 0o444)
            return self._claim(
                Commit(
                    version=0,
                    timestamp=0.0,
                    operation=operation,
                    data_file=data_file,
                    num_rows=frame.num_rows,
                    num_columns=frame.num_columns,
                    metadata=dict(metadata or {}),
                )
            )
        except BaseException:
            target.unlink(missing_ok=True)
            raise

    def _claim(self, entry: Commit) -> int:
        """Append ``entry`` to the log as the next version, stamped with
        that version and the time; returns the version.

        The version is claimed by hard-linking a finished log entry
        (written under a name ``history()`` skips) to its final name: a
        link never replaces an existing file, so a writer that loses the
        race to another table on the same root retries at the next
        version. No log entry is ever overwritten, and none is visible
        before its data.
        """
        tmp = self.root / LOG_DIR / f"{uuid.uuid4().hex}.tmp"
        latest = self.latest_version()
        version = 0 if latest is None else latest + 1
        try:
            while True:
                commit = replace(entry, version=version, timestamp=time.time())
                tmp.write_text(json.dumps(commit.to_dict()), encoding="utf-8")
                try:
                    self._link(tmp, self.root / LOG_DIR / _entry_name(version))
                    return version
                except FileExistsError:
                    version += 1
        finally:
            tmp.unlink(missing_ok=True)

    def _link(self, source: str | Path, target: Path) -> None:
        """``os.link``; the root must be on a filesystem with hard links,
        and where it is not this raises :class:`OSError` naming the root."""
        try:
            os.link(source, target)
        except OSError as error:
            if error.errno not in _NO_HARD_LINKS:
                raise
            raise OSError(
                error.errno,
                f"cannot commit a version of the table at {self.root}: "
                "its filesystem does not support the hard links that "
                f"commit versions ({error.strerror})",
            ) from error

    def versions(self) -> list[int]:
        return [commit.version for commit in self.history()]

    def __len__(self) -> int:
        return len(self.history())
