"""Out-of-core shard spilling — disk-backed ChunkedColumns.

A :class:`SpillStore` appends ``(values, mask)`` shard pairs as records
to segment files in a per-session spill directory and reads them back
on demand, keeping an LRU cache of resident shards bounded by a byte
budget. A :class:`SpilledChunkedColumn` is a :class:`~repro.dataframe.
chunked.ChunkedColumn` whose shards live in such a store instead of
RAM, so a table far larger than the budget can be ingested, profiled,
detected, and repaired one chunk at a time.

Serialization format
--------------------
Each spilled shard is one *record* appended to the store's active
*segment* file (``shard-N.seg``, named after the first shard it holds):

* Numeric / bool shards: the C-contiguous values bytes followed by the
  mask bytes. The :class:`ShardHandle` carries the dtype, row count,
  section sizes, and offset, so a load parses no header.
* Object-backed shards (string columns, overflowed ints): one pickle of
  the ``(values, mask)`` pair.

Each section has its own blake2b checksum on the handle, computed over
the bytes written. A load reads the record with one ``pread``, verifies
every section, and returns read-only :func:`numpy.frombuffer` views of
the very bytes it verified (or the unpickled pair); :meth:`SpillStore.
load_mask` reads and verifies only the mask section. Corrupt, truncated,
or deleted spill data raises :class:`SpillError` naming the shard and
path, so it can never flow into kernels.

Segments and shared records
---------------------------
A writer reserves its offset under the store lock and writes outside
it, so concurrent spills append to one file without overlapping. The
active segment rolls once it passes :data:`SEGMENT_BYTES`, and only a
segment's first record creates a file. Each segment counts its live
records — a reservation counts before its bytes are written, so no
release can unlink a segment under a write — and its file is unlinked
when its last live record is released, whether it is sealed or still
active.

Records are reference counted. :meth:`SpilledChunkedColumn.copy`
shares its records instead of writing them again, and
:meth:`SpillStore.release` frees a record (its cache entry and its
segment slot) only when its last holder lets go.

Space: a released record stays on disk until its segment empties. In
the worst case one live record pins each segment, so the segment files
(``stats()["disk_bytes"]``) can hold up to ``SEGMENT_BYTES`` plus one
record per live record, however small the live records are.

Crash safety
------------
Records need no tmp + rename: a record is reachable only through the
handle :meth:`SpillStore.spill` returns after its bytes are written,
and every read is verified, so a crash or a failed write leaves at most
unreachable bytes in a segment, never a torn record a reader can see.
Disk exhaustion (ENOSPC/EDQUOT) releases the failed reservation and
raises the typed :class:`SpillCapacityError`, which the ingestion paths
catch to fall back to resident shards. Transient I/O faults (see
:mod:`repro.core.faults`) are absorbed by bounded internal retries
(``DATALENS_IO_RETRIES``, read when a store is built); a retried write
rewrites the same offset. Crashed sessions leave ``datalens-spill-*``
directories behind; :func:`sweep_orphaned_spill_dirs` (run at
:class:`~repro.core.controller.DataLens` startup) removes those whose
owning pid is dead.

Residency contract
------------------
``load()`` evicts least-recently-used shards until the incoming shard
fits before it reads, and again under the lock just before it inserts,
so resident bytes never exceed the budget — even when threads miss at
once — as long as every shard is smaller than the budget (a single
oversized shard still loads — the budget has a one-shard floor, never
an ingestion failure). All loads, hits, evictions, and the peak
residency are counted; the peak is what the spill benchmark asserts
against.

Spill round-trips are exact: raw buffers preserve numeric payloads bit
for bit (the dtype rides on the handle) and pickle preserves Python
payload objects, so a spilled column is bit-identical to its resident
and monolithic twins — the chunked differential harness pins spilled ≡
resident ≡ monolithic.

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
and the column drops its references to its records. The non-pinning
overrides (``codes()`` / ``fingerprint()`` / ``mask()`` /
``to_numpy()``) compute their results from temporary gathers instead,
so the profile → detect → repair pipeline leaves columns spilled.
"""

from __future__ import annotations

import errno
import hashlib
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

#: Size past which the active segment file is sealed and the next record
#: starts a new one. Large enough that file creation (about half a
#: millisecond on ext4) is paid once per thousands of small shards,
#: small enough that one live record pins little dead space.
SEGMENT_BYTES = 4 * 1024 * 1024

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


def _blob_digest(blob: Any) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _write_at(path: Path, offset: int, sections: Sequence[Any]) -> None:
    """Write ``sections`` back to back at ``offset``, creating the file."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o600)
    try:
        for section in sections:
            view = memoryview(section)
            while view:
                written = os.pwrite(fd, view, offset)
                view = view[written:]
                offset += written
    finally:
        os.close(fd)


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


class _Segment:
    """One append-only segment file: bytes reserved and live records."""

    __slots__ = ("path", "size", "live")

    def __init__(self, path: Path) -> None:
        self.path = path
        self.size = 0
        self.live = 0


class ShardHandle:
    """Pointer to one spilled record: identity, shape, and place on disk.

    The record starts at ``offset`` in ``segment``'s file and holds one
    section per entry of ``sizes``: values then mask for an ``"array"``
    shard (of ``dtype``), one pickle of the pair for a ``"pickle"``
    shard. ``checksums`` holds one blake2b hex digest per section,
    computed over the exact bytes written; loads re-hash the bytes they
    read and refuse to deserialize on mismatch, so a truncated or
    bit-flipped record raises :class:`SpillError` instead of feeding
    garbage into kernels.
    """

    __slots__ = (
        "shard_id",
        "length",
        "nbytes",
        "kind",
        "dtype",
        "segment",
        "offset",
        "sizes",
        "checksums",
    )

    def __init__(
        self,
        shard_id: int,
        length: int,
        kind: str,
        dtype: np.dtype,
        segment: _Segment,
        offset: int,
        sizes: tuple[int, ...],
        checksums: tuple[str, ...],
    ) -> None:
        self.shard_id = shard_id
        self.length = length
        self.nbytes = sum(sizes)
        self.kind = kind
        self.dtype = dtype
        self.segment = segment
        self.offset = offset
        self.sizes = sizes
        self.checksums = checksums

    def __repr__(self) -> str:
        return (
            f"ShardHandle(id={self.shard_id}, rows={self.length}, "
            f"bytes={self.nbytes}, kind={self.kind})"
        )


class SpillStore:
    """Segment-file store for shard pairs with a byte-bounded LRU cache.

    One store backs one ingestion session (all columns of a frame share
    it), owning a private spill directory that is removed when the store
    is garbage-collected or explicitly :meth:`close`\\ d.

    Thread safety: all cache, reference-count, segment, and counter
    state is mutated under one lock; record writes and reads happen
    outside it (a record's bytes are written once, at an offset no
    other writer holds, before its handle exists, so concurrent loads
    are safe).
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
        #: shard_id -> number of holders, for every live record.
        self._refs: dict[int, int] = {}
        #: Segments whose files hold a live record (or will, once an
        #: in-flight write lands); the active one takes new records.
        self._segments: set[_Segment] = set()
        self._active: _Segment | None = None
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
        """Append one shard pair to the active segment; return its handle.

        The sections are checksummed in memory, then written at an
        offset reserved under the lock. ENOSPC/EDQUOT raise
        :class:`SpillCapacityError` naming the directory, with the
        reservation released; transient I/O faults are retried
        internally at the same offset, up to ``DATALENS_IO_RETRIES``
        times (read when the store was built).
        """
        data = np.asarray(data)
        mask = np.asarray(mask, dtype=bool)
        if len(data) != len(mask):
            raise ValueError("shard data and mask lengths differ")
        if data.dtype == object:
            kind = "pickle"
            sections = [pickle.dumps((data, mask), pickle.HIGHEST_PROTOCOL)]
        else:
            kind = "array"
            sections = [
                np.ascontiguousarray(part).view(np.uint8) for part in (data, mask)
            ]
        sizes = tuple(len(section) for section in sections)
        checksums = tuple(_blob_digest(section) for section in sections)
        with self._lock:
            shard_id = self._next_id
            self._next_id += 1
            segment = self._active
            if segment is None or segment.size >= SEGMENT_BYTES:
                segment = _Segment(self.directory / f"shard-{shard_id:06d}.seg")
                self._segments.add(segment)
                self._active = segment
            offset = segment.size
            segment.size += sum(sizes)
            segment.live += 1

        faults = _faults()

        def write() -> None:
            faults.maybe_fire("spill.write")
            _write_at(segment.path, offset, sections)

        try:
            _, retried = faults.with_transient_retries(write, self._io_retries)
        except BaseException as error:
            self._drop_from(segment)
            if isinstance(error, OSError) and error.errno in (
                errno.ENOSPC,
                getattr(errno, "EDQUOT", -1),
            ):
                with self._lock:
                    self.capacity_errors += 1
                raise SpillCapacityError(
                    f"spill directory {self.directory} is out of disk "
                    f"space while writing shard {shard_id} ({error}); "
                    "the shard stays resident"
                ) from error
            raise
        handle = ShardHandle(
            shard_id, len(data), kind, data.dtype, segment, offset, sizes, checksums
        )
        with self._lock:
            self._refs[shard_id] = 1
            self.transient_retries += retried
            self.spilled_shards += 1
            self.spilled_bytes += handle.nbytes
        return handle

    def retain(self, handles: Iterable[ShardHandle]) -> None:
        """Add a holder to each record: one more :meth:`release` frees it."""
        with self._lock:
            for handle in handles:
                self._refs[handle.shard_id] += 1

    def load(self, handle: ShardHandle) -> tuple[np.ndarray, np.ndarray]:
        """Return the shard pair, reading and verifying it on a miss.

        Least-recently-used shards are evicted *before* the read, so
        resident bytes peak at the budget, not the budget plus one
        shard — and again just before the insert, because another
        thread may have filled the cache in between.
        """
        with self._lock:
            pair = self._resident.get(handle.shard_id)
            if pair is not None:
                self._resident.move_to_end(handle.shard_id)
                self.cache_hits += 1
                return pair

        faults = _faults()
        room = self.budget_bytes - handle.nbytes

        def miss() -> tuple[np.ndarray, np.ndarray]:
            with self._lock:
                if self._resident and self.resident_bytes > room:
                    faults.maybe_fire("spill.evict")
                self._evict_down_to(room)
            return self._read(handle)

        pair, retried = faults.with_transient_retries(miss, self._io_retries)
        with self._lock:
            self.transient_retries += retried
            if handle.shard_id not in self._resident:
                self._evict_down_to(room)
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

        Mask-only consumers (missing tables, mask fingerprints) read and
        verify just the record's mask section; a pickled object shard is
        one section, so it takes the full :meth:`load` path.
        """
        with self._lock:
            pair = self._resident.get(handle.shard_id)
            if pair is not None:
                self._resident.move_to_end(handle.shard_id)
                self.cache_hits += 1
                return pair[1]
        if handle.kind == "pickle":
            return self.load(handle)[1]
        faults = _faults()

        def read_mask() -> np.ndarray:
            faults.maybe_fire("spill.read")
            return np.frombuffer(
                self._read_sections(handle, 1), dtype=bool, count=handle.length
            )

        mask, retried = faults.with_transient_retries(read_mask, self._io_retries)
        if retried:
            with self._lock:
                self.transient_retries += retried
        return mask

    def release(self, handle: ShardHandle) -> None:
        """Drop one holder of a record; the last one frees it.

        Freeing drops the record's cache entry and its slot in its
        segment, and unlinks the segment file once no live record is
        left in it. A file that cannot be unlinked is counted in
        ``stats()["release_errors"]`` (and the first occurrence per
        store is logged) — the store keeps working, but the leak is
        visible instead of silently swallowed.
        """
        with self._lock:
            refs = self._refs.pop(handle.shard_id, 0)
            if refs > 1:
                self._refs[handle.shard_id] = refs - 1
            if refs != 1:  # still held elsewhere, or freed already
                return
            if self._resident.pop(handle.shard_id, None) is not None:
                self.resident_bytes -= self._resident_sizes.pop(
                    handle.shard_id
                )
        self._drop_from(handle.segment)

    def close(self) -> None:
        """Delete the spill directory; subsequent loads raise SpillError."""
        with self._lock:
            self._resident.clear()
            self._resident_sizes.clear()
            self.resident_bytes = 0
            self._refs.clear()
            self._segments.clear()
            self._active = None
        self._finalizer()

    def stats(self) -> dict[str, Any]:
        """Residency, traffic, and disk counters (REST spill endpoint payload).

        ``disk_bytes`` counts every byte appended to the segment files
        still on disk, live records and released ones alike.
        """
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
                "segment_files": len(self._segments),
                "disk_bytes": sum(segment.size for segment in self._segments),
            }

    # ------------------------------------------------------------------
    def _evict_down_to(self, target_bytes: int) -> None:
        # Caller holds the lock.
        while self._resident and self.resident_bytes > target_bytes:
            shard_id, _ = self._resident.popitem(last=False)
            self.resident_bytes -= self._resident_sizes.pop(shard_id)
            self.evictions += 1

    def _drop_from(self, segment: _Segment) -> None:
        """Count one record out of ``segment``; unlink the file once empty."""
        with self._lock:
            segment.live -= 1
            if segment.live:
                return
            self._segments.discard(segment)
            if self._active is segment:
                self._active = None
        try:
            segment.path.unlink(missing_ok=True)
        except OSError as error:
            with self._lock:
                self.release_errors += 1
                first = not self._release_error_logged
                self._release_error_logged = True
            if first:
                _logger.warning(
                    "failed to delete spill segment file %s (%s); "
                    "further failures for this store are only "
                    "counted in stats()['release_errors']",
                    segment.path,
                    error,
                )

    def _read(self, handle: ShardHandle) -> tuple[np.ndarray, np.ndarray]:
        _faults().maybe_fire("spill.read")
        blob = self._read_sections(handle, 0)
        if handle.kind == "pickle":
            return pickle.loads(blob)
        data = np.frombuffer(blob, dtype=handle.dtype, count=handle.length)
        mask = np.frombuffer(
            blob, dtype=bool, count=handle.length, offset=handle.sizes[0]
        )
        return data, mask

    def _read_sections(self, handle: ShardHandle, first: int) -> bytes:
        """The record's sections from ``first`` on: one read, each verified."""
        start = handle.offset + sum(handle.sizes[:first])
        path = handle.segment.path
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                blob = os.pread(fd, sum(handle.sizes[first:]), start)
            finally:
                os.close(fd)
        except OSError as error:
            raise SpillError(
                f"cannot read spilled shard {handle.shard_id} under "
                f"{self.directory} — was the spill directory deleted while "
                f"the session was live? ({error})"
            ) from error
        view = memoryview(blob)
        at = 0
        for size, expected in zip(handle.sizes[first:], handle.checksums[first:]):
            digest = _blob_digest(view[at : at + size])
            if digest != expected:
                with self._lock:
                    self.checksum_failures += 1
                raise SpillError(
                    f"spilled shard {handle.shard_id} is corrupt or "
                    f"truncated: {path} bytes {start + at}..{start + at + size} "
                    f"fail their blake2b checksum (expected {expected}, "
                    f"got {digest})"
                )
            at += size
        return blob


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
    and **releases** the column's records — after which the column
    behaves exactly like a dense :class:`ChunkedColumn` and ``spilled``
    is False. A copy shares the records, so the other holder reads on
    unchanged. ``codes()``, ``fingerprint()``, ``mask()``, and
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
        boundaries), so re-spilling a spilled column (``rechunk()``)
        never gathers it densely.
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
        return cls.from_handles(
            column.name, column.dtype, handles, store
        )._with_caches_of(column)

    def _with_caches_of(self, column: Column) -> "SpilledChunkedColumn":
        # Content is preserved row for row, so content-derived caches
        # carry over (same rule as ChunkedColumn.from_column).
        self._codes_cache = column._codes_cache
        self._fingerprint_cache = column._fingerprint_cache
        self._mask_fingerprint_cache = column._mask_fingerprint_cache
        return self

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
        loads as a read-only view, which must not become ``_data``);
        ``copy=False`` may hand back that view itself for read-only use.
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
        """A column sharing these records: nothing is written or read."""
        if self._handles is None:
            return super().copy()
        self._spill_store.retain(self._handles)
        return SpilledChunkedColumn.from_handles(
            self.name, self.dtype, self._handles, self._spill_store
        )._with_caches_of(self)

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
