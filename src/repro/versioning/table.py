"""Delta-Lake-style versioned tables.

A :class:`DeltaTable` is a directory holding immutable data snapshots plus
an append-only transaction log (``_delta_log/<version>.json``). Every
write produces a new version; history is never rewritten; any version can
be read back ("time travel") and ``restore`` simply commits an old
snapshot as the newest version — matching the semantics the paper relies
on for dataset version control (§5).
"""

from __future__ import annotations

import errno
import json
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..dataframe import DataFrame, read_csv, write_csv

LOG_DIR = "_delta_log"
DATA_DIR = "data"

#: ``os.link`` errnos of a filesystem without hard links (FAT/exFAT,
#: many SMB/CIFS and FUSE mounts).
_NO_HARD_LINKS = frozenset(
    {errno.EPERM, errno.EOPNOTSUPP, errno.ENOTSUP, errno.ENOSYS}
)


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
        log_dir = Path(root) / LOG_DIR
        return log_dir.exists() and any(log_dir.glob("*.json"))

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
        """Append ``frame`` as a new version; returns the version number.

        The data file gets a name no other writer can pick. The version
        is claimed by hard-linking a finished log entry (written under a
        name ``history()`` skips) to its final name: a link never
        replaces an existing file, so a writer that loses the race to
        another table on the same root retries at the next version. No
        log entry is ever overwritten, and none is visible before its
        data.

        The root must be on a filesystem with hard links. Where it is
        not, ``write`` raises :class:`OSError` naming the root; a failed
        write leaves neither its data file nor its log entry behind.
        """
        token = uuid.uuid4().hex
        data_file = f"{DATA_DIR}/part-{token}.csv"
        tmp = self.root / LOG_DIR / f"{token}.tmp"
        try:
            write_csv(frame, self.root / data_file)
            latest = self.latest_version()
            version = 0 if latest is None else latest + 1
            while True:
                commit = Commit(
                    version=version,
                    timestamp=time.time(),
                    operation=operation,
                    data_file=data_file,
                    num_rows=frame.num_rows,
                    num_columns=frame.num_columns,
                    metadata=dict(metadata or {}),
                )
                tmp.write_text(json.dumps(commit.to_dict()), encoding="utf-8")
                try:
                    os.link(tmp, self.root / LOG_DIR / f"{version:020d}.json")
                    return version
                except FileExistsError:
                    version += 1
                except OSError as error:
                    if error.errno not in _NO_HARD_LINKS:
                        raise
                    raise OSError(
                        error.errno,
                        f"cannot commit a version of the table at {self.root}: "
                        "its filesystem does not support the hard links that "
                        f"claim versions ({error.strerror})",
                    ) from error
        except BaseException:
            (self.root / data_file).unlink(missing_ok=True)
            raise
        finally:
            tmp.unlink(missing_ok=True)

    def read(self, version: int | None = None) -> DataFrame:
        """Read a version (default: latest) back as a DataFrame."""
        if version is None:
            version = self.latest_version()
            if version is None:
                raise VersionNotFoundError("table has no committed versions")
        commit = self.commit_for(version)
        return read_csv(self.root / commit.data_file)

    def restore(self, version: int) -> int:
        """Re-commit an old snapshot as the newest version (rollback)."""
        frame = self.read(version)
        return self.write(
            frame, operation="restore", metadata={"restored_from": version}
        )

    def versions(self) -> list[int]:
        return [commit.version for commit in self.history()]

    def __len__(self) -> int:
        return len(self.history())
