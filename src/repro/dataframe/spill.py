"""Out-of-core shard spilling — disk-backed ChunkedColumns.

A :class:`SpillStore` serializes ``(values, mask)`` shard pairs to a
per-session spill directory and memory-maps them back on demand, keeping
an LRU cache of resident shards bounded by a byte budget. A
:class:`SpilledChunkedColumn` is a :class:`~repro.dataframe.chunked.
ChunkedColumn` whose shards live in such a store instead of RAM, so a
table far larger than the budget can be ingested, profiled, detected,
and repaired one chunk at a time.

Serialization format
--------------------
* Numeric / bool shards: two sibling ``.npy`` files per shard
  (``shard-N.values.npy`` + ``shard-N.mask.npy``) written with
  :func:`numpy.save` and loaded with ``mmap_mode="r"`` — loading a shard
  maps pages, it does not copy the payload.
* Object-backed shards (string columns, overflowed ints): one pickle
  file holding the ``(values, mask)`` pair — objects cannot be mmapped,
  so these load as owned arrays.

Crash safety
------------
Shard files are written through a tmp sibling + atomic ``os.replace``
and carry per-file blake2b checksums on their :class:`ShardHandle`;
every cold load re-hashes the file and raises :class:`SpillError`
naming the shard and path on mismatch — corrupt or truncated spill data
can never flow into kernels. Disk exhaustion (ENOSPC/EDQUOT) raises the
typed :class:`SpillCapacityError`, which the ingestion paths catch to
fall back to resident shards. Transient I/O faults (see
:mod:`repro.core.faults`) are absorbed by bounded internal retries
(``DATALENS_IO_RETRIES``, read when a store is built). Crashed sessions
leave ``datalens-spill-*`` directories behind; :func:`sweep_orphaned_spill_dirs` (run at
:class:`~repro.core.controller.DataLens` startup) removes those whose
owning pid is dead.

Residency contract
------------------
``load()`` pre-evicts least-recently-used shards until the incoming
shard fits, so resident bytes never exceed the budget as long as every
shard is smaller than the budget (a single oversized shard still loads —
the budget has a one-shard floor, never an ingestion failure). All
loads, hits, evictions, and the peak residency are counted; the peak is
what the spill benchmark asserts against.

Spill round-trips are exact: ``.npy`` preserves numeric buffers bit for
bit and pickle preserves Python payload objects, so a spilled column is
bit-identical to its resident and monolithic twins — the chunked
differential harness pins spilled ≡ resident ≡ monolithic.

Configuration
-------------
``DATALENS_SPILL_BUDGET`` turns spilling on for the ingestion paths
(:func:`~repro.dataframe.io.read_csv_chunked`, the
:class:`~repro.ingestion.loader.DataLoader`) and sets the resident
budget; ``DATALENS_SPILL_DIR`` and ``DATALENS_IO_RETRIES`` apply to
every store. See :class:`repro.settings.Settings` for their grammar
and defaults. Spilling an already in-memory frame cannot lower its peak
RSS, so ``to_chunked()`` and ``profile()`` never spill implicitly — use
:func:`spill_frame` or the explicit ``spill=`` parameters.

Dense access (``values_array()`` / ``to_monolithic()`` / mutation)
materializes the column — shards are gathered into owned dense arrays
and the spill files are released. The non-pinning overrides
(``codes()`` / ``fingerprint()`` / ``mask()`` / ``to_numpy()``) compute
their results from temporary gathers instead, so the profile → detect →
repair pipeline leaves columns spilled.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import logging
import os
import pickle
import shutil
import tempfile
import threading
import time
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import types as _types
from .chunked import (
    ChunkedColumn,
    ChunkedFrame,
    _concat_payload,
    chunk_lengths_for,
    resolve_chunk_size,
)
from ..settings import Settings, resolve
from .column import Column
from .frame import DataFrame

#: Budget used when a store is built without an explicit or environment
#: budget: big enough that small tables never churn, small enough that a
#: beyond-RAM ingest stays bounded.
DEFAULT_SPILL_BUDGET = 256 * 1024 * 1024

#: Age (seconds) after which a spill directory with no readable owner
#: file counts as orphaned for :func:`sweep_orphaned_spill_dirs`.
ORPHAN_GRACE_SECONDS = 3600

_logger = logging.getLogger(__name__)

_FAULTS = None


def _faults():
    # repro.core.faults, imported lazily: core/__init__ imports
    # artifacts, which imports this module, so a top-level import here
    # would run against a partially-initialized repro.core.
    global _FAULTS
    if _FAULTS is None:
        from ..core import faults as faults_module

        _FAULTS = faults_module
    return _FAULTS


class SpillError(RuntimeError):
    """A spilled shard could not be read back (deleted, truncated, corrupt)."""


class SpillCapacityError(SpillError):
    """The spill directory's filesystem is out of space (ENOSPC/EDQUOT)."""


def _blob_digest(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _file_digest(path: Path) -> str:
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as stream:
        while True:
            block = stream.read(1 << 20)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _atomic_write(path: Path, blob: bytes) -> None:
    """Write a shard file via tmp sibling + atomic rename.

    A crash or ENOSPC mid-write leaves at most a ``.tmp`` sibling — the
    final path either does not exist or holds the complete blob, so a
    reader can never observe a torn shard.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def resolve_spill_store(spill: "SpillStore | bool | None") -> "SpillStore | None":
    """Normalize a ``spill=`` parameter to a store or None.

    A :class:`SpillStore` passes through; ``True`` builds a fresh store
    from the environment defaults; ``None`` spills when
    ``DATALENS_SPILL_BUDGET`` is set (the ingestion-path default);
    ``False`` disables spilling regardless of the environment.
    """
    if isinstance(spill, SpillStore):
        return spill
    if spill is None:
        spill = Settings.from_env().spill_budget is not None
    return SpillStore() if spill else None


class ShardHandle:
    """Pointer to one spilled shard: identity, length, and on-disk files.

    ``checksums`` holds one blake2b hex digest per path, computed over
    the exact bytes written; loads re-hash the files and refuse to
    deserialize on mismatch, so a truncated or bit-flipped shard raises
    :class:`SpillError` instead of feeding garbage into kernels.
    """

    __slots__ = ("shard_id", "length", "nbytes", "kind", "paths", "checksums")

    def __init__(
        self,
        shard_id: int,
        length: int,
        nbytes: int,
        kind: str,
        paths: tuple[Path, ...],
        checksums: tuple[str, ...] | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.length = length
        self.nbytes = nbytes
        self.kind = kind
        self.paths = paths
        self.checksums = checksums

    def __repr__(self) -> str:
        return (
            f"ShardHandle(id={self.shard_id}, rows={self.length}, "
            f"bytes={self.nbytes}, kind={self.kind})"
        )


class SpillStore:
    """Disk store for shard pairs with a byte-bounded resident LRU cache.

    One store backs one ingestion session (all columns of a frame share
    it), owning a private spill directory that is removed when the store
    is garbage-collected or explicitly :meth:`close`\\ d.

    Thread safety: all cache and counter state is mutated under one
    lock; file writes and reads happen outside it (shard files are
    written once and never rewritten, so concurrent loads are safe).
    """

    def __init__(
        self,
        budget_bytes: int | None = None,
        directory: str | Path | None = None,
    ) -> None:
        settings = Settings.from_env()
        budget = resolve("spill_budget", budget_bytes, "budget_bytes", settings)
        self.budget_bytes = DEFAULT_SPILL_BUDGET if budget is None else budget
        self._io_retries = settings.io_retries
        base = resolve("spill_dir", directory, "directory", settings)
        if base is not None:
            Path(base).mkdir(parents=True, exist_ok=True)
        self.directory = Path(
            tempfile.mkdtemp(prefix="datalens-spill-", dir=base)
        )
        try:
            # Ownership marker for sweep_orphaned_spill_dirs: a sweeper
            # in another process removes this directory only once this
            # pid is dead.
            (self.directory / "owner.json").write_text(
                json.dumps({"pid": os.getpid(), "created": time.time()})
            )
        except OSError:
            pass
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, str(self.directory), True
        )
        self._lock = threading.Lock()
        #: shard_id -> (data, mask) for shards currently resident.
        self._resident: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = (
            OrderedDict()
        )
        self._resident_sizes: dict[int, int] = {}
        self._next_id = 0
        self.spilled_shards = 0
        self.spilled_bytes = 0
        self.loads = 0
        self.cache_hits = 0
        self.evictions = 0
        self.resident_bytes = 0
        self.peak_resident_bytes = 0
        self.peak_resident_shards = 0
        self.release_errors = 0
        self.capacity_errors = 0
        self.checksum_failures = 0
        self.transient_retries = 0
        self._release_error_logged = False

    # ------------------------------------------------------------------
    def spill(self, data: np.ndarray, mask: np.ndarray) -> ShardHandle:
        """Serialize one shard pair to disk and return its handle.

        Shards are serialized in memory first (to checksum the exact
        bytes), then written through tmp-file + atomic rename — a crash
        mid-spill never leaves a torn shard behind. ENOSPC/EDQUOT raise
        :class:`SpillCapacityError` naming the directory; transient I/O
        faults are retried internally, up to ``DATALENS_IO_RETRIES`` times
        (read when the store was built).
        """
        data = np.asarray(data)
        mask = np.asarray(mask, dtype=bool)
        if len(data) != len(mask):
            raise ValueError("shard data and mask lengths differ")
        with self._lock:
            shard_id = self._next_id
            self._next_id += 1
        stem = self.directory / f"shard-{shard_id:06d}"
        if data.dtype == object:
            blobs = [
                (
                    Path(f"{stem}.pkl"),
                    pickle.dumps((data, mask), pickle.HIGHEST_PROTOCOL),
                )
            ]
            kind = "pickle"
        else:
            values_buffer = io.BytesIO()
            np.save(values_buffer, data, allow_pickle=False)
            mask_buffer = io.BytesIO()
            np.save(mask_buffer, mask, allow_pickle=False)
            blobs = [
                (Path(f"{stem}.values.npy"), values_buffer.getvalue()),
                (Path(f"{stem}.mask.npy"), mask_buffer.getvalue()),
            ]
            kind = "npy"

        faults = _faults()

        def write_all() -> None:
            faults.maybe_fire("spill.write")
            for path, blob in blobs:
                _atomic_write(path, blob)

        try:
            _, retried = faults.with_transient_retries(write_all, self._io_retries)
        except OSError as error:
            for path, _ in blobs:
                path.unlink(missing_ok=True)
            if error.errno in (errno.ENOSPC, getattr(errno, "EDQUOT", -1)):
                with self._lock:
                    self.capacity_errors += 1
                raise SpillCapacityError(
                    f"spill directory {self.directory} is out of disk "
                    f"space while writing shard {shard_id} ({error}); "
                    "the shard stays resident"
                ) from error
            raise
        if retried:
            with self._lock:
                self.transient_retries += retried
        paths = tuple(path for path, _ in blobs)
        checksums = tuple(_blob_digest(blob) for _, blob in blobs)
        nbytes = sum(len(blob) for _, blob in blobs)
        handle_out = ShardHandle(
            shard_id, len(data), nbytes, kind, paths, checksums
        )
        with self._lock:
            self.spilled_shards += 1
            self.spilled_bytes += nbytes
        return handle_out

    def load(self, handle: ShardHandle) -> tuple[np.ndarray, np.ndarray]:
        """Return the shard pair, loading (mmap for numeric) on a miss.

        Least-recently-used shards are evicted *before* the load, so
        resident bytes peak at the budget, not the budget plus one
        shard.
        """
        with self._lock:
            pair = self._resident.get(handle.shard_id)
            if pair is not None:
                self._resident.move_to_end(handle.shard_id)
                self.cache_hits += 1
                return pair

        faults = _faults()

        def miss() -> tuple[np.ndarray, np.ndarray]:
            with self._lock:
                self._evict_down_to(self.budget_bytes - handle.nbytes)
            return self._read(handle)

        pair, retried = faults.with_transient_retries(miss, self._io_retries)
        if retried:
            with self._lock:
                self.transient_retries += retried
        with self._lock:
            if handle.shard_id not in self._resident:
                self._resident[handle.shard_id] = pair
                self._resident_sizes[handle.shard_id] = handle.nbytes
                self.resident_bytes += handle.nbytes
                self.loads += 1
                self.peak_resident_bytes = max(
                    self.peak_resident_bytes, self.resident_bytes
                )
                self.peak_resident_shards = max(
                    self.peak_resident_shards, len(self._resident)
                )
        return pair

    def load_mask(self, handle: ShardHandle) -> np.ndarray:
        """Return only the shard's mask — no payload residency for numeric.

        Mask-only consumers (missing tables, mask fingerprints) read the
        sibling ``.mask.npy`` directly; pickled object shards have one
        file, so they take the full :meth:`load` path.
        """
        with self._lock:
            pair = self._resident.get(handle.shard_id)
            if pair is not None:
                self._resident.move_to_end(handle.shard_id)
                self.cache_hits += 1
                return pair[1]
        if handle.kind == "npy":
            faults = _faults()

            def read_mask() -> np.ndarray:
                faults.maybe_fire("spill.read")
                self._verify_file(handle, 1)
                try:
                    return np.load(
                        handle.paths[1], mmap_mode="r", allow_pickle=False
                    )
                except (FileNotFoundError, OSError) as error:
                    raise self._missing_shard_error(handle, error) from error

            mask, retried = faults.with_transient_retries(
                read_mask, self._io_retries
            )
            if retried:
                with self._lock:
                    self.transient_retries += retried
            return mask
        return self.load(handle)[1]

    def release(self, handle: ShardHandle) -> None:
        """Drop a shard from the cache and delete its files.

        A shard file that cannot be unlinked is counted in
        ``stats()["release_errors"]`` (and the first occurrence per
        store is logged) — the store keeps working, but the leak is
        visible instead of silently swallowed.
        """
        with self._lock:
            if self._resident.pop(handle.shard_id, None) is not None:
                self.resident_bytes -= self._resident_sizes.pop(
                    handle.shard_id
                )
        for path in handle.paths:
            try:
                path.unlink(missing_ok=True)
            except OSError as error:
                with self._lock:
                    self.release_errors += 1
                    first = not self._release_error_logged
                    self._release_error_logged = True
                if first:
                    _logger.warning(
                        "failed to delete spilled shard file %s (%s); "
                        "further failures for this store are only "
                        "counted in stats()['release_errors']",
                        path,
                        error,
                    )

    def close(self) -> None:
        """Delete the spill directory; subsequent loads raise SpillError."""
        with self._lock:
            self._resident.clear()
            self._resident_sizes.clear()
            self.resident_bytes = 0
        self._finalizer()

    def stats(self) -> dict[str, Any]:
        """Residency and traffic counters (REST spill endpoint payload)."""
        with self._lock:
            return {
                "budget_bytes": self.budget_bytes,
                "directory": str(self.directory),
                "spilled_shards": self.spilled_shards,
                "spilled_bytes": self.spilled_bytes,
                "loads": self.loads,
                "cache_hits": self.cache_hits,
                "evictions": self.evictions,
                "resident_shards": len(self._resident),
                "resident_bytes": self.resident_bytes,
                "peak_resident_bytes": self.peak_resident_bytes,
                "peak_resident_shards": self.peak_resident_shards,
                "release_errors": self.release_errors,
                "capacity_errors": self.capacity_errors,
                "checksum_failures": self.checksum_failures,
                "transient_retries": self.transient_retries,
            }

    # ------------------------------------------------------------------
    def _evict_down_to(self, target_bytes: int) -> None:
        # Caller holds the lock.
        if self._resident and self.resident_bytes > target_bytes:
            _faults().maybe_fire("spill.evict")
        while self._resident and self.resident_bytes > target_bytes:
            shard_id, _ = self._resident.popitem(last=False)
            self.resident_bytes -= self._resident_sizes.pop(shard_id)
            self.evictions += 1

    def _verify_file(self, handle: ShardHandle, index: int) -> None:
        if not handle.checksums:
            return
        path = handle.paths[index]
        try:
            digest = _file_digest(path)
        except (FileNotFoundError, OSError) as error:
            raise self._missing_shard_error(handle, error) from error
        expected = handle.checksums[index]
        if digest != expected:
            with self._lock:
                self.checksum_failures += 1
            raise SpillError(
                f"spilled shard {handle.shard_id} is corrupt or "
                f"truncated: {path} fails its blake2b checksum "
                f"(expected {expected}, got {digest})"
            )

    def _read(self, handle: ShardHandle) -> tuple[np.ndarray, np.ndarray]:
        _faults().maybe_fire("spill.read")
        for index in range(len(handle.paths)):
            self._verify_file(handle, index)
        try:
            if handle.kind == "pickle":
                with open(handle.paths[0], "rb") as stream:
                    data, mask = pickle.load(stream)
            else:
                data = np.load(
                    handle.paths[0], mmap_mode="r", allow_pickle=False
                )
                mask = np.load(
                    handle.paths[1], mmap_mode="r", allow_pickle=False
                )
        except (FileNotFoundError, OSError, pickle.UnpicklingError) as error:
            raise self._missing_shard_error(handle, error) from error
        return data, mask

    def _missing_shard_error(
        self, handle: ShardHandle, error: Exception
    ) -> SpillError:
        return SpillError(
            f"cannot read spilled shard {handle.shard_id} under "
            f"{self.directory} — was the spill directory deleted while "
            f"the session was live? ({error})"
        )


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def sweep_orphaned_spill_dirs(
    base: str | Path | None = None,
    grace_seconds: float = ORPHAN_GRACE_SECONDS,
) -> list[Path]:
    """Remove ``datalens-spill-*`` directories left by crashed sessions.

    Live stores advertise themselves via an ``owner.json`` holding their
    pid; a directory is orphaned when that pid is dead, or — for
    directories with no readable owner file — when it has been untouched
    longer than ``grace_seconds``. ``base`` defaults to
    ``DATALENS_SPILL_DIR`` or the system temp dir (where
    :class:`SpillStore` creates its directories). Returns the removed
    paths; every failure is swallowed — sweeping is best-effort startup
    hygiene, never a reason not to start.
    """
    if base is None:
        base = Settings.from_env().spill_dir or tempfile.gettempdir()
    removed: list[Path] = []
    try:
        candidates = sorted(Path(base).glob("datalens-spill-*"))
    except OSError:
        return removed
    now = time.time()
    for candidate in candidates:
        if not candidate.is_dir():
            continue
        orphaned = False
        try:
            owner = json.loads((candidate / "owner.json").read_text())
            pid = int(owner["pid"])
            orphaned = pid != os.getpid() and not _pid_alive(pid)
        except (OSError, ValueError, TypeError, KeyError):
            try:
                orphaned = now - candidate.stat().st_mtime > grace_seconds
            except OSError:
                orphaned = False
        if orphaned:
            shutil.rmtree(candidate, ignore_errors=True)
            removed.append(candidate)
            _logger.info("removed orphaned spill directory %s", candidate)
    return removed


def _resliced_pairs(
    pairs: Iterable[tuple[np.ndarray, np.ndarray]],
    lengths: Sequence[int],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Re-cut a stream of shard pairs at new boundary lengths.

    Holds at most one source shard (plus the pieces of the pair being
    assembled), so re-chunking a spilled column never densifies it.
    """
    source = iter(pairs)
    data: np.ndarray | None = None
    mask: np.ndarray | None = None
    offset = 0
    for length in lengths:
        data_parts: list[np.ndarray] = []
        mask_parts: list[np.ndarray] = []
        need = length
        while need:
            if data is None or offset == len(data):
                data, mask = next(source)
                offset = 0
            take = min(need, len(data) - offset)
            data_parts.append(data[offset : offset + take])
            mask_parts.append(mask[offset : offset + take])
            offset += take
            need -= take
        yield (
            data_parts[0] if len(data_parts) == 1 else _concat_payload(data_parts),
            mask_parts[0] if len(mask_parts) == 1 else np.concatenate(mask_parts),
        )


class SpilledChunkedColumn(ChunkedColumn):
    """A ChunkedColumn whose shards live in a :class:`SpillStore`.

    Shards stream through the inherited chunk-aware kernels via the
    overridden :meth:`_shard_pairs`; any dense access (``values_array``,
    mutation, ``to_monolithic``) gathers the shards into owned arrays
    and **releases** the spilled state — after which the column behaves
    exactly like a dense :class:`ChunkedColumn` and ``spilled`` is
    False. ``codes()``, ``fingerprint()``, ``mask()``, and
    ``to_numpy()`` are overridden to compute from temporary gathers so
    the profile/detect pipeline does not trigger that materialization.
    """

    __slots__ = ("_handles", "_spill_store")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_handles(
        cls,
        name: str,
        dtype: str,
        handles: Iterable[ShardHandle],
        store: SpillStore,
    ) -> "SpilledChunkedColumn":
        """Wrap already-spilled shards (the streaming reader's path)."""
        if dtype not in _types.DTYPES:
            raise ValueError(f"unknown dtype {dtype!r}")
        handle_list = list(handles)
        out = cls.__new__(cls)
        out.name = name
        out.dtype = dtype
        out._codes_cache = None
        out._fingerprint_cache = None
        out._mask_fingerprint_cache = None
        out._chunk_lengths = tuple(handle.length for handle in handle_list)
        out._shard_data = None
        out._shard_masks = None
        out._dense_data = None
        out._dense_mask = None
        out._handles = handle_list
        out._spill_store = store
        return out

    @classmethod
    def from_column(
        cls,
        column: Column,
        chunk_lengths: Sequence[int],
        store: SpillStore,
    ) -> "SpilledChunkedColumn":
        """Spill an existing column at the given shard lengths.

        A chunked source streams shard by shard (re-cut at the new
        boundaries), so spilling a spilled column — ``copy()`` /
        ``rechunk()`` — never gathers it densely.
        """
        lengths = tuple(int(length) for length in chunk_lengths)
        if sum(lengths) != len(column):
            raise ValueError(
                f"chunk lengths {lengths} cover {sum(lengths)} rows, "
                f"column has {len(column)}"
            )
        if any(length < 1 for length in lengths):
            raise ValueError("chunk lengths must all be >= 1")
        if isinstance(column, ChunkedColumn):
            pairs: Iterable[tuple[np.ndarray, np.ndarray]] = column._shard_pairs()
        else:
            pairs = [
                (np.asarray(column.values_array()), np.asarray(column.mask()))
            ]
        handles: list[ShardHandle] = []
        try:
            for data, mask in _resliced_pairs(pairs, lengths):
                handles.append(store.spill(data, mask))
        except BaseException:
            # Don't leak the shards already written for this column.
            for handle in handles:
                store.release(handle)
            raise
        out = cls.from_handles(column.name, column.dtype, handles, store)
        # Content is preserved row for row, so content-derived caches
        # carry over (same rule as ChunkedColumn.from_column).
        out._codes_cache = column._codes_cache
        out._fingerprint_cache = column._fingerprint_cache
        out._mask_fingerprint_cache = column._mask_fingerprint_cache
        return out

    # ------------------------------------------------------------------
    # Spill state
    # ------------------------------------------------------------------
    @property
    def spilled(self) -> bool:
        """True while the shards still live in the spill store."""
        return self._handles is not None

    @property
    def spill_store(self) -> SpillStore:
        return self._spill_store

    def _release_spill(self) -> None:
        if self._handles is None:
            return
        handles, self._handles = self._handles, None
        for handle in handles:
            self._spill_store.release(handle)

    # ------------------------------------------------------------------
    # Dense storage — gathering releases the spilled state
    # ------------------------------------------------------------------
    def _gather_dense(self, copy: bool) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated (data, mask) straight from the spilled shards.

        ``copy=True`` guarantees owned writable arrays (a single shard
        loads as a read-only mmap, which must not become ``_data``);
        ``copy=False`` may hand back the mmap itself for read-only use.
        """
        handles = self._handles or []
        if not handles:
            return (
                np.empty(0, dtype=_types.NUMPY_DTYPES[self.dtype]),
                np.zeros(0, dtype=bool),
            )
        pairs = [self._spill_store.load(handle) for handle in handles]
        if len(pairs) == 1:
            data, mask = pairs[0]
            if copy:
                return np.array(data), np.array(mask, dtype=bool)
            return np.asarray(data), np.asarray(mask)
        data = _concat_payload([pair[0] for pair in pairs])
        mask = np.concatenate([pair[1] for pair in pairs])
        return data, mask

    def _materialize(self) -> None:
        if self._dense_data is not None:
            return
        if self._handles is None:
            super()._materialize()
            return
        data, mask = self._gather_dense(copy=True)
        self._dense_data = data
        # mask() may have gathered the dense mask already; its content is
        # identical, so keep it (previously returned views stay aligned).
        if self._dense_mask is None:
            self._dense_mask = mask
        self._release_spill()

    @property
    def _data(self) -> np.ndarray:  # type: ignore[override]
        self._materialize()
        return self._dense_data

    @_data.setter
    def _data(self, array: np.ndarray) -> None:
        self._dense_data = array
        self._shard_data = None
        self._release_spill()

    @property
    def _mask(self) -> np.ndarray:  # type: ignore[override]
        if self._dense_mask is None:
            self._materialize()
        return self._dense_mask

    @_mask.setter
    def _mask(self, array: np.ndarray) -> None:
        self._dense_mask = array
        self._shard_masks = None
        self._release_spill()

    # ------------------------------------------------------------------
    # Chunk API over spilled shards
    # ------------------------------------------------------------------
    def _shard_pairs(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        if self._handles is not None:
            for handle in self._handles:
                yield self._spill_store.load(handle)
            return
        yield from super()._shard_pairs()

    def rechunk(self, chunk_size: int | None = None) -> ChunkedColumn:
        if self._handles is None:
            return super().rechunk(chunk_size)
        size = resolve_chunk_size(chunk_size)
        return SpilledChunkedColumn.from_column(
            self, chunk_lengths_for(len(self), size), self._spill_store
        )

    def copy(self) -> ChunkedColumn:
        if self._handles is None:
            return super().copy()
        return SpilledChunkedColumn.from_column(
            self, self._chunk_lengths, self._spill_store
        )

    # ------------------------------------------------------------------
    # Non-pinning overrides: compute without keeping dense payloads
    # ------------------------------------------------------------------
    def missing_count(self) -> int:
        if self._dense_mask is None and self._handles is not None:
            return sum(
                int(np.asarray(self._spill_store.load_mask(handle)).sum())
                for handle in self._handles
            )
        return super().missing_count()

    def mask(self) -> np.ndarray:
        """Dense read-only mask, gathered without loading the payloads."""
        if self._dense_mask is None and self._handles is not None:
            handles = self._handles
            if not handles:
                self._dense_mask = np.zeros(0, dtype=bool)
            else:
                parts = [
                    np.asarray(self._spill_store.load_mask(handle))
                    for handle in handles
                ]
                self._dense_mask = (
                    np.array(parts[0], dtype=bool)
                    if len(parts) == 1
                    else np.concatenate(parts)
                )
        return super().mask()

    def mask_fingerprint(self) -> str:
        if self._mask_fingerprint_cache is None and self._handles is not None:
            self.mask()  # gathers the dense mask without pinning payloads
        return super().mask_fingerprint()

    def unique(self) -> list[Any]:
        if self._handles is None:
            return super().unique()
        data, mask = self._gather_dense(copy=False)
        temp = Column._from_arrays(self.name, self.dtype, data, mask)
        return temp.unique()

    def codes(self) -> tuple[np.ndarray, int]:
        if self._codes_cache is None and self._handles is not None:
            data, mask = self._gather_dense(copy=False)
            temp = Column._from_arrays(self.name, self.dtype, data, mask)
            self._codes_cache = temp.codes()
        return super().codes()

    def fingerprint(self) -> str:
        if self._fingerprint_cache is None and self._handles is not None:
            data, mask = self._gather_dense(copy=False)
            temp = Column._from_arrays(self.name, self.dtype, data, mask)
            self._fingerprint_cache = temp.fingerprint()
        return super().fingerprint()

    def to_numpy(self) -> np.ndarray:
        if self._handles is None or not self.is_numeric():
            return super().to_numpy()
        parts = []
        for data, mask in self._shard_pairs():
            part = np.asarray(data).astype(float)
            mask = np.asarray(mask)
            if mask.any():
                part[mask] = np.nan
            parts.append(part)
        if not parts:
            return np.empty(0, dtype=float)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def spill_frame(
    frame: DataFrame,
    store: SpillStore | None = None,
    chunk_size: int | None = None,
    budget_bytes: int | None = None,
    directory: str | Path | None = None,
) -> ChunkedFrame:
    """Spill a frame's columns into a (possibly fresh) store.

    A chunked input keeps its chunk boundaries when ``chunk_size`` is
    None; a monolithic input is cut at the resolved chunk size first.
    A column whose spill hits :class:`SpillCapacityError` (disk full)
    degrades to a resident :class:`ChunkedColumn` with a warning — the
    frame stays fully usable, it just was not moved out of RAM.
    """
    if store is None:
        store = SpillStore(budget_bytes=budget_bytes, directory=directory)
    if isinstance(frame, ChunkedFrame) and chunk_size is None:
        lengths: Sequence[int] = frame.chunk_lengths
    else:
        size = resolve_chunk_size(chunk_size)
        lengths = chunk_lengths_for(frame.num_rows, size)
    columns: list[ChunkedColumn] = []
    for name in frame.column_names:
        column = frame.column(name)
        try:
            columns.append(
                SpilledChunkedColumn.from_column(column, lengths, store)
            )
        except SpillCapacityError as error:
            _logger.warning(
                "keeping column %r resident instead of spilling: %s",
                name,
                error,
            )
            columns.append(ChunkedColumn.from_column(column, lengths))
    return ChunkedFrame(columns)


def spill_store_of(frame: DataFrame) -> SpillStore | None:
    """The store backing a frame's spilled columns, or None.

    Returns the first spilled column's store; a frame whose columns have
    all been materialized (released) no longer reports one.
    """
    for name in frame.column_names:
        column = frame.column(name)
        if isinstance(column, SpilledChunkedColumn) and column.spilled:
            return column.spill_store
    return None
