"""Content-addressed artifact cache for session-wide analysis reuse.

DataLens is an interactive loop: profile → detect → repair → re-profile
→ re-score, and every stage re-derives artifacts (per-column profiles,
histograms, correlation pairs, missing tables, detection masks, stripped
partitions, quality metrics) from the same column data. The
:class:`ArtifactStore` makes that reuse explicit: every artifact is
keyed by the *content fingerprints* of the columns it was computed from
(:meth:`repro.dataframe.Column.fingerprint`), an artifact ``kind``
string, and the kernel parameters.

Artifact / fingerprint contract
-------------------------------
* **Keys are content, not identity.** ``(kind, fingerprints, params)``
  names the value of a pure function of column content. Two frames with
  equal columns — a Delta version re-read from disk, a repaired copy's
  untouched columns, a chunked view of a monolithic frame — share
  artifacts automatically; no consumer tracks which frame object
  computed what.
* **Entries never go stale.** Mutation (``set`` / ``set_many`` /
  ``set_cells`` / ``apply_patches``) changes the touched column's
  fingerprint, so new lookups simply miss and recompute; entries for the
  old content remain valid (revisiting a Delta version re-profiles
  straight from cache) until the LRU bound evicts them. Explicit
  invalidation is therefore a memory decision, not a correctness one.
* **What dirties what.** A patch to column *C* dirties: C's per-column
  artifacts (profile section, histogram, validity, detection mask,
  single-column partition, spearman ranks), every *pairwise* artifact
  with C on either side (correlation/association pairs, multi-column
  partitions and FD errors naming C), and every *frame-level* artifact
  (duplicate rows, missing tables, consistency over rules touching C).
  Artifacts over the other columns and pairs keep hitting — that is the
  incremental re-profile path the dashboard's repair loop rides on.
* **Chunked semantics.** Fingerprints are computed over the dense
  logical content, so chunk layout is invisible: artifacts computed from
  a monolithic frame are served to its chunked twin and vice versa.
  This is sound because the chunked kernels are bit-identical to the
  monolithic ones by construction (see :mod:`repro.dataframe.chunked`).
* **Cached results are bit-identical to cold results.** The store only
  ever returns what a kernel produced for identical input content;
  consumers get deep copies of mutable artifacts (``copy=True`` puts) so
  downstream mutation cannot corrupt the cache.

Artifact kinds are namespaced by producer: ``profile:*`` (per-column
sections, histograms, duplicates, missing tables), ``corr:*`` (pairwise
correlation/association), ``detect:*`` (per-column detection masks),
``quality:*`` / ``fd:*`` (validity, violation sets, partitions), and —
since the vectorized repair-proposal engine — ``repair:tokens``
(per-column integer token codes keyed by one column fingerprint) and
``repair:cooccurrence`` (the fitted co-occurrence model keyed by every
column fingerprint), which let a detect → repair cycle over
content-identical frames tokenize and fit once.

Bounding
--------
The LRU bound is two-dimensional: ``max_entries`` caps the entry count
and ``max_bytes`` (optional, else ``DATALENS_ARTIFACT_CACHE_BYTES``)
caps the *estimated* resident bytes — entries are size-weighted via
:func:`estimate_artifact_bytes` (numpy ``nbytes`` plus a recursive
container estimate), so one row-scaled artifact (rank vector, stripped
partition) counts for what it holds. Eviction pops least-recently-used
entries until both bounds are satisfied; the newest entry always
survives, so a single artifact larger than ``max_bytes`` is cached
(one-entry floor) rather than rejected.

Disabling
---------
``DATALENS_ARTIFACT_CACHE`` (see :class:`repro.settings.Settings` for
its spellings and the other variables) can make every store constructed
without an explicit ``enabled`` flag a no-op: gets always miss, puts are
dropped, and every consumer runs its cold path — CI runs the full suite
in both modes.
"""

from __future__ import annotations

import copy as _copy
import sys
import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable

import numpy as np

from ..settings import Settings, resolve

#: Default entry bound: generous for interactive sessions (a 20-column
#: profile run populates well under 300 entries) while keeping pathological
#: loops (iterative cleaning over hundreds of candidate frames) bounded.
DEFAULT_MAX_ENTRIES = 4096


def estimate_artifact_bytes(value: Any) -> int:
    """Best-effort recursive byte estimate of one cached artifact.

    Numpy arrays count their buffer (``nbytes``); containers recurse
    over their items; arbitrary objects (stripped partitions, fitted
    co-occurrence models, report sections) recurse over their attribute
    dicts and slots. Shared sub-objects are counted once — this sizes a
    cache *entry*, approximating what evicting it would free.
    """
    return _estimate_bytes(value, set())


def _estimate_bytes(value: Any, seen: set[int]) -> int:
    if value is None or isinstance(value, (bool, int, float, complex)):
        return sys.getsizeof(value)
    if isinstance(value, (str, bytes, bytearray)):
        return sys.getsizeof(value)
    if isinstance(value, np.generic):
        return sys.getsizeof(value)
    marker = id(value)
    if marker in seen:
        return 0
    seen.add(marker)
    if isinstance(value, np.ndarray):
        total = sys.getsizeof(value)
        if not value.flags.owndata:
            total += int(value.nbytes)  # views: count the data they pin
        if value.dtype == object:
            total += sum(
                _estimate_bytes(item, seen) for item in value.flat
            )
        return total
    if isinstance(value, dict):
        return sys.getsizeof(value) + sum(
            _estimate_bytes(key, seen) + _estimate_bytes(item, seen)
            for key, item in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return sys.getsizeof(value) + sum(
            _estimate_bytes(item, seen) for item in value
        )
    total = sys.getsizeof(value)
    state = getattr(value, "__dict__", None)
    if state:
        total += sum(
            _estimate_bytes(key, seen) + _estimate_bytes(item, seen)
            for key, item in state.items()
        )
    for klass in type(value).__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for slot in slots or ():
            try:
                total += _estimate_bytes(getattr(value, slot), seen)
            except AttributeError:
                continue
    return total


Key = tuple[str, tuple[str, ...], tuple]


class ArtifactStore:
    """Bounded LRU cache of analysis artifacts keyed by column content.

    The store is deliberately duck-typed by its consumers (profiling,
    detection, quality, FD discovery take ``store=None``-defaulted
    parameters and only call :meth:`get` / :meth:`put`), so analysis
    modules carry no import dependency on the core package.

    The store lives in memory only: nothing is persisted, so no lookup
    or publish can meet an I/O fault, and the store has no fault sites.

    Thread safety: :meth:`get` / :meth:`put` / :meth:`stats` /
    :meth:`clear` hold an internal lock, so one store can be shared by
    the threaded REST server's handlers and jobs. The lock is never held
    while an artifact is *computed* — concurrent misses on one key may
    compute twice and last-put wins, which is harmless because values
    are pure functions of the key.

    The bound is entry-count *and* byte aware: ``max_entries`` caps how
    many artifacts stay resident, ``max_bytes`` (default:
    ``DATALENS_ARTIFACT_CACHE_BYTES``, else unbounded) caps their summed
    :func:`estimate_artifact_bytes` sizes — the size-weighted eviction
    that keeps long sessions over very large frames bounded by memory,
    not by entry count. The most recent entry is never evicted by the
    byte bound (one-entry floor).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        enabled: bool | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        settings = Settings.from_env()
        self.max_entries = max_entries
        self.max_bytes = resolve(
            "artifact_cache_bytes", max_bytes, "max_bytes", settings
        )
        self.enabled = settings.artifact_cache if enabled is None else bool(enabled)
        #: key -> (value, deepcopy_on_get, estimated_bytes)
        self._entries: OrderedDict[Key, tuple[Any, bool, int]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.total_bytes = 0
        self.evicted_bytes = 0
        self._by_kind: dict[str, dict[str, int]] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def make_key(
        kind: str, fingerprints: Iterable[str], params: Iterable[Any] = ()
    ) -> Key:
        """Canonical key tuple; ``params`` must be hashable values."""
        return (str(kind), tuple(fingerprints), tuple(params))

    def _kind_stats(self, kind: str) -> dict[str, int]:
        stats = self._by_kind.get(kind)
        if stats is None:
            stats = self._by_kind[kind] = {"hits": 0, "misses": 0, "puts": 0}
        return stats

    # ------------------------------------------------------------------
    def get(
        self,
        kind: str,
        fingerprints: Iterable[str],
        params: Iterable[Any] = (),
    ) -> tuple[bool, Any]:
        """Look up an artifact: ``(True, value)`` on hit, else ``(False, None)``.

        Hits refresh LRU recency. Values stored with ``copy=True`` come
        back as deep copies, so callers may mutate them freely.
        """
        if not self.enabled:
            return False, None
        key = self.make_key(kind, fingerprints, params)
        with self._lock:
            entry = self._entries.get(key)
            kind_stats = self._kind_stats(key[0])
            if entry is None:
                self.misses += 1
                kind_stats["misses"] += 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            kind_stats["hits"] += 1
            value, deep, _ = entry
        # Deep copies happen outside the lock — only the (immutable-by-
        # convention) stored reference is read under it.
        return True, (_copy.deepcopy(value) if deep else value)

    def put(
        self,
        kind: str,
        fingerprints: Iterable[str],
        params: Iterable[Any],
        value: Any,
        copy: bool = False,
    ) -> None:
        """Publish an artifact; evicts least-recently-used beyond the bound.

        ``copy=True`` snapshots the value on the way in *and* hands deep
        copies back out — use it for mutable artifacts (dicts, lists).
        Immutable artifacts (floats, tuples, read-mostly partitions) skip
        the copies.
        """
        if not self.enabled:
            return
        key = self.make_key(kind, fingerprints, params)
        snapshot = _copy.deepcopy(value) if copy else value
        # Size (and snapshot) outside the lock — only bookkeeping inside.
        nbytes = estimate_artifact_bytes(snapshot)
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.total_bytes -= previous[2]
            self._entries[key] = (snapshot, copy, nbytes)
            self.total_bytes += nbytes
            self.puts += 1
            self._kind_stats(key[0])["puts"] += 1
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None
                and self.total_bytes > self.max_bytes
                and len(self._entries) > 1
            ):
                _, (_, _, evicted_nbytes) = self._entries.popitem(last=False)
                self.total_bytes -= evicted_nbytes
                self.evictions += 1
                self.evicted_bytes += evicted_nbytes

    def cached(
        self,
        kind: str,
        fingerprints: Iterable[str],
        params: Iterable[Any],
        compute: Callable[[], Any],
        copy: bool = False,
    ) -> Any:
        """Get-or-compute convenience wrapper around :meth:`get`/:meth:`put`.

        Thread-safe by composition: it touches shared state only through
        :meth:`get` and :meth:`put` (each locking internally) and never
        holds the lock across ``compute()`` — concurrent misses may
        compute twice and last-put wins, per the class contract.
        """
        fingerprints = tuple(fingerprints)
        params = tuple(params)
        hit, value = self.get(kind, fingerprints, params)
        if hit:
            return value
        value = compute()
        self.put(kind, fingerprints, params, value, copy=copy)
        return value

    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        """Disabled stores are falsy: consumers normalize them to None.

        Every consumer entry point runs ``store = store if store else
        None``, so a disabled store takes the *true* cold path — no
        fingerprint hashing, no key construction — exactly as if no
        store were passed.
        """
        return self.enabled

    def __len__(self) -> int:
        # Taken under the lock: len(OrderedDict) is atomic in CPython,
        # but the store promises thread safety, not CPython internals.
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        with self._lock:
            self._entries.clear()
            self.total_bytes = 0

    def stats(self) -> dict[str, Any]:
        """Counters for the dashboard and ``GET /datasets/{name}/cache``.

        Exactly these keys: ``enabled``, ``entries``, ``max_entries``,
        ``max_bytes``, ``total_bytes``, ``evicted_bytes``, ``hits``,
        ``misses``, ``puts``, ``evictions``, ``hit_rate`` and
        ``by_kind`` (per artifact kind, its ``hits``, ``misses`` and
        ``puts``).
        """
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "enabled": self.enabled,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "total_bytes": self.total_bytes,
                "evicted_bytes": self.evicted_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "by_kind": {
                    kind: dict(counts)
                    for kind, counts in sorted(self._by_kind.items())
                },
            }
