"""A single named, typed column of a DataFrame.

Storage contract (the array-backed columnar engine)
---------------------------------------------------
Every column is stored as two parallel numpy arrays:

``_data``
    A typed array holding the cell payloads. The numpy backing dtype per
    logical dtype is given by :data:`repro.dataframe.types.NUMPY_DTYPES`:
    ``int`` → ``int64`` (falling back to ``object`` when a value exceeds
    the int64 range), ``float`` → ``float64``, ``bool`` → ``bool_``, and
    ``string`` → ``object``. Non-missing float cells are never ``nan`` —
    missingness lives exclusively in the mask.

``_mask``
    A boolean array of the same length; ``True`` marks a missing cell.
    Masked slots in ``_data`` hold an arbitrary fill value
    (:data:`repro.dataframe.types.FILL_VALUES`) and must never be read
    without consulting the mask.

The sequence API (``values()``, iteration, indexing, ``set``) is preserved
exactly — it materializes Python-native values with ``None`` at masked
slots — while vectorized consumers read :meth:`values_array`,
:meth:`mask`, and :meth:`codes` directly and never touch per-cell Python
objects. Batched mutation goes through :meth:`set_many`, which writes
whole index slices (repair application's fast path) with the same
coercion/widening semantics as per-cell ``set``.

Codes-based relational-ops contract
-----------------------------------
:meth:`codes` factorizes a column into dense int64 group codes; the
relational kernels in :mod:`repro.dataframe.ops` are built entirely on
them. The guarantees those kernels rely on:

* equal non-missing cells share one code, and missing cells share the
  single *highest* code — so ``None`` groups with ``None`` (group-by
  semantics) and can be recognized/excluded in one comparison (join
  semantics, where null keys never match);
* numeric/bool columns on native numpy backing get codes in *value
  order* (``np.unique``), so sorting codes sorts values; object-backed
  columns get first-seen codes and the sort kernel remaps them through
  a rank table ordered by the documented value order (numbers before
  strings, missing last);
* the result is cached per column and invalidated by ``set`` /
  ``set_many``, so repeated group-by/join/sort calls over an unchanged
  frame share one factorization.

Fingerprint contract (content addressing)
-----------------------------------------
:meth:`fingerprint` digests a column's *logical content* — name, dtype,
row count, null mask, and cell payloads — into a short hex string that
the artifact layer (:mod:`repro.core.artifacts`) uses as a cache key.
The guarantees:

* **Equal content ⇒ equal fingerprint, across representations.** A
  chunked column, a monolithic copy, and a column rebuilt from the same
  values all hash identically (the digest is computed over the dense
  ``(_data, _mask)`` pair, so chunk layout is invisible). Artifacts
  computed for one representation are therefore reusable for any other —
  which is sound precisely because the chunked kernels are bit-identical
  to the monolithic ones.
* **Different content ⇒ different fingerprint.** The encoding is
  injective over the storage contract: dtype and length are hashed
  explicitly (so ``[1, 2]`` as int, float, and string all differ), the
  mask is hashed separately from the payloads (so a missing cell never
  collides with a cell holding the fill value), and object payloads are
  hashed per-cell via ``repr`` with an out-of-band separator (so
  ``["ab", "c"]`` cannot collide with ``["a", "bc"]``). Non-object
  payloads rely on masked slots holding the canonical
  :data:`~repro.dataframe.types.FILL_VALUES` — which every construction
  path guarantees (and :meth:`ChunkedColumn.from_shards
  <repro.dataframe.chunked.ChunkedColumn.from_shards>` requires).
* **Mutation dirties exactly the touched column.** The digest is cached
  on the column and invalidated by ``set`` / ``set_many`` (hence by
  ``DataFrame.set_cells`` and ``repair.apply_patches``); a 3-cell patch
  to one column leaves every other column's cached fingerprint intact.
  :meth:`copy` carries the cached fingerprint (and codes) to the clone,
  so repair's copy-then-patch flow re-hashes only the patched columns.

Chunking contract
-----------------
Every column also exposes the shard iteration API used by the chunked
execution layer (:mod:`repro.dataframe.chunked`): :meth:`iter_chunks`
yields monolithic column shards whose concatenation is row-identical to
the column, ``n_chunks`` / ``chunk_lengths`` describe the boundaries. A
plain ``Column`` is the degenerate single-chunk case (it yields itself),
so chunk-aware kernels — per-chunk partial aggregates merged exactly for
integer counters/min/max/frequency tables, gathered compressed payloads
for float moments and quantiles — run unchanged and bit-identically on
both representations. ``codes()`` on a chunked column always factorizes
across *all* chunks (equal values in different chunks share one code);
see the :mod:`repro.dataframe.chunked` module docstring for the chunk
boundary invariants and the exact merge rules.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import types as _types


def _pack(values: list[Any], dtype: str) -> tuple[np.ndarray, np.ndarray]:
    """Pack coerced Python values into (data, mask) arrays for ``dtype``.

    ``values`` must already be coerced: every element is either None or a
    valid Python payload for the logical dtype.
    """
    n = len(values)
    mask = np.fromiter(
        (value is None for value in values), dtype=bool, count=n
    )
    fill = _types.FILL_VALUES[dtype]
    if dtype == _types.STRING:
        data = np.empty(n, dtype=object)
        data[:] = values
        return data, mask
    filled = [fill if value is None else value for value in values]
    target = _types.NUMPY_DTYPES[dtype]
    if dtype == _types.INT:
        try:
            data = np.array(filled, dtype=target)
        except OverflowError:
            data = np.empty(n, dtype=object)
            data[:] = filled
    else:
        data = np.array(filled, dtype=target)
    return data, mask


def _readonly(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class Column:
    """Ordered collection of values with one dtype and None for missing.

    Columns are the unit of storage inside :class:`~repro.dataframe.DataFrame`.
    They behave like immutable sequences for reading, with explicit mutating
    methods (``set``) used by the frame. Internally they are numpy-backed;
    see the module docstring for the storage contract.
    """

    __slots__ = ("name", "dtype", "_data", "_mask", "_codes_cache",
                 "_fingerprint_cache", "_mask_fingerprint_cache")

    def __init__(self, name: str, values: Iterable[Any], dtype: str | None = None):
        materialized = list(values)
        if dtype is None:
            dtype = _types.infer_dtype(materialized)
        if dtype not in _types.DTYPES:
            raise ValueError(f"unknown dtype {dtype!r}")
        self.name = name
        self.dtype = dtype
        coerced = [_types.coerce(value, dtype) for value in materialized]
        self._data, self._mask = _pack(coerced, dtype)
        self._codes_cache: tuple[np.ndarray, int] | None = None
        self._fingerprint_cache: str | None = None
        self._mask_fingerprint_cache: str | None = None

    @classmethod
    def _from_arrays(
        cls, name: str, dtype: str, data: np.ndarray, mask: np.ndarray
    ) -> "Column":
        """Wrap pre-validated (data, mask) arrays without re-coercing.

        The column takes ownership of the arrays; callers must pass fresh
        copies — or, as the chunked layer does for the shards it yields,
        *read-only* views — never writable views into another column's
        storage.
        """
        column = cls.__new__(cls)
        column.name = name
        column.dtype = dtype
        column._data = data
        column._mask = mask
        column._codes_cache = None
        column._fingerprint_cache = None
        column._mask_fingerprint_cache = None
        return column

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Column._from_arrays(
                self.name,
                self.dtype,
                self._data[index].copy(),
                self._mask[index].copy(),
            )
        if self._mask[index]:
            return None
        value = self._data[index]
        return value.item() if isinstance(value, np.generic) else value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (
            self.name == other.name
            and self.dtype == other.dtype
            and self._equal_values(other)
        )

    def _equal_values(self, other: "Column") -> bool:
        if len(self) != len(other):
            return False
        if not np.array_equal(self._mask, other._mask):
            return False
        return self.values() == other.values()

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self.values()[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column({self.name!r}, dtype={self.dtype}, [{preview}{suffix}])"

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def values(self) -> list[Any]:
        """Return a copy of the raw values (None marks missing)."""
        out = self._data.tolist()
        if self._mask.any():
            for index in np.flatnonzero(self._mask).tolist():
                out[index] = None
        return out

    def values_array(self) -> np.ndarray:
        """Read-only view of the typed backing array.

        Slots where :meth:`mask` is True hold fill values, not data.
        """
        return _readonly(self._data)

    def mask(self) -> np.ndarray:
        """Read-only boolean null mask (True = missing)."""
        return _readonly(self._mask)

    def set(self, index: int, value: Any) -> None:
        """Overwrite one cell, widening the dtype if necessary."""
        self._codes_cache = None
        self._fingerprint_cache = None
        self._mask_fingerprint_cache = None
        try:
            coerced = _types.coerce(value, self.dtype)
        except (ValueError, TypeError):
            widened = _types.common_dtype(self.dtype, _types.infer_dtype([value]))
            values = [_types.coerce(v, widened) for v in self.values()]
            values[index] = _types.coerce(value, widened)
            self.dtype = widened
            self._data, self._mask = _pack(values, widened)
            return
        if not -len(self._data) <= index < len(self._data):
            raise IndexError(f"index {index} out of range")
        if coerced is None:
            self._mask[index] = True
            self._data[index] = _types.FILL_VALUES[self.dtype]
            return
        try:
            self._data[index] = coerced
        except OverflowError:
            self._data = self._data.astype(object)
            self._data[index] = coerced
        self._mask[index] = False

    def set_many(self, indices: Sequence[int], values: Sequence[Any]) -> None:
        """Batched :meth:`set`: overwrite many cells in one array write.

        Equivalent to calling ``set(index, value)`` for each pair —
        masked/payload slots are written as whole array slices instead
        of per-cell Python calls, and with duplicate indices the last
        write wins, exactly like the sequential loop. Widening takes the
        lattice join over the column dtype and all non-missing patch
        values at once (the join is commutative, so the outcome never
        depends on patch order); every patch value is then coerced
        directly to the final dtype.
        """
        idx = np.asarray(indices, dtype=np.intp)
        materialized = list(values)
        if idx.size != len(materialized):
            raise ValueError(
                f"{idx.size} indices but {len(materialized)} values"
            )
        if idx.size == 0:
            return
        n = len(self._data)
        if int(idx.min()) < -n or int(idx.max()) >= n:
            raise IndexError(f"index out of range for {n} rows")
        self._codes_cache = None
        self._fingerprint_cache = None
        self._mask_fingerprint_cache = None
        try:
            coerced = [_types.coerce(v, self.dtype) for v in materialized]
        except (ValueError, TypeError):
            widened = self.dtype
            for value in materialized:
                if _types.is_missing(value):
                    continue
                widened = _types.common_dtype(
                    widened, _types.infer_dtype([value])
                )
            full = self.values()
            for position, value in zip(idx.tolist(), materialized):
                full[position] = value
            self.dtype = widened
            self._data, self._mask = _pack(
                [_types.coerce(v, widened) for v in full], widened
            )
            return
        missing = np.fromiter(
            (v is None for v in coerced), dtype=bool, count=idx.size
        )
        fill = _types.FILL_VALUES[self.dtype]
        filled = [fill if v is None else v for v in coerced]
        if self._data.dtype == object:
            payload = np.empty(idx.size, dtype=object)
            payload[:] = filled
            self._data[idx] = payload
        else:
            try:
                self._data[idx] = np.asarray(filled, dtype=self._data.dtype)
            except OverflowError:
                self._data = self._data.astype(object)
                payload = np.empty(idx.size, dtype=object)
                payload[:] = filled
                self._data[idx] = payload
        self._mask[idx] = missing

    def copy(self) -> "Column":
        out = Column._from_arrays(
            self.name, self.dtype, self._data.copy(), self._mask.copy()
        )
        # A copy has identical content: carry the content-derived caches so
        # repair's copy-then-patch flow re-derives them only for patched
        # columns. The cached codes array is shared read-only (the engine
        # never writes into it; mutation replaces the cache wholesale).
        out._codes_cache = self._codes_cache
        out._fingerprint_cache = self._fingerprint_cache
        out._mask_fingerprint_cache = self._mask_fingerprint_cache
        return out

    def astype(self, dtype: str) -> "Column":
        """Return a copy coerced to ``dtype`` (missing cells preserved)."""
        if dtype == self.dtype:
            return self.copy()
        if self.dtype == _types.INT and dtype == _types.FLOAT:
            if self._data.dtype != object:
                return Column._from_arrays(
                    self.name, dtype, self._data.astype(float), self._mask.copy()
                )
        return Column(self.name, self.values(), dtype)

    # ------------------------------------------------------------------
    # Missing data
    # ------------------------------------------------------------------
    def is_missing(self) -> list[bool]:
        return self._mask.tolist()

    def missing_count(self) -> int:
        return int(self._mask.sum())

    def non_missing(self) -> list[Any]:
        return self._data[~self._mask].tolist()

    # ------------------------------------------------------------------
    # Analytics helpers
    # ------------------------------------------------------------------
    def is_numeric(self) -> bool:
        return _types.is_numeric_dtype(self.dtype)

    def to_numpy(self) -> np.ndarray:
        """Return a numpy view; missing numeric cells become ``nan``.

        String/bool columns are returned as object arrays with None kept.
        """
        if self.is_numeric():
            out = self._data.astype(float)
            if self._mask.any():
                out[self._mask] = np.nan
            return out
        out = np.empty(len(self._data), dtype=object)
        out[:] = self.values()
        return out

    def unique(self) -> list[Any]:
        """Distinct non-missing values in first-seen order."""
        valid = self._data[~self._mask]
        if valid.size == 0:
            return []
        _, first_index = np.unique(valid, return_index=True)
        return valid[np.sort(first_index)].tolist()

    def value_counts(self) -> Counter:
        """Counter of non-missing values."""
        return Counter(self.non_missing())

    def codes(self) -> tuple[np.ndarray, int]:
        """Factorize into dense integer group codes.

        Returns ``(codes, n_groups)`` where equal non-missing values share
        one code (numeric codes follow the values' sort order, object
        codes first-seen order) and missing cells — which group together,
        matching the sequence-API semantics of ``None == None`` — share
        the single highest code. The result is cached (and invalidated by
        :meth:`set`); callers must not mutate the returned array.
        """
        if self._codes_cache is not None:
            return self._codes_cache
        n = len(self._data)
        codes = np.empty(n, dtype=np.int64)
        valid = ~self._mask
        n_groups = 0
        if valid.any():
            payload = self._data[valid]
            if payload.dtype == object:
                inverse, n_groups = _types.factorize_objects(payload)
                codes[valid] = inverse
            else:
                _, inverse = np.unique(payload, return_inverse=True)
                codes[valid] = inverse
                n_groups = int(inverse.max()) + 1
        if self._mask.any():
            codes[self._mask] = n_groups
            n_groups += 1
        self._codes_cache = (codes, n_groups)
        return self._codes_cache

    def fingerprint(self) -> str:
        """Content digest for artifact caching (see the module docstring).

        Returns a 32-hex-char blake2b digest over name, dtype, length,
        null mask, and cell payloads. Equal logical content always hashes
        equal (chunked vs monolithic, copies, rebuilt columns); any
        visible difference — values, missingness, dtype, name, order —
        hashes different. One benign corner: an int column whose mutation
        history left it object-backed can hash differently from an
        int64-backed twin — a false cache miss, never a false hit. The
        digest is cached and invalidated by :meth:`set` / :meth:`set_many`,
        so an unchanged column never pays for a second hash and a patched
        column dirties only itself.
        """
        if self._fingerprint_cache is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(self.name.encode("utf-8", "surrogatepass"))
            digest.update(b"\x00")
            digest.update(self.dtype.encode("ascii"))
            digest.update(len(self._data).to_bytes(8, "little"))
            digest.update(np.packbits(self._mask).tobytes())
            data = self._data
            if data.dtype == object:
                # Per-cell repr with an out-of-band separator: repr always
                # escapes control characters, so "\x1f" cannot appear in a
                # cell's encoding and adjacent cells cannot be resegmented
                # into a colliding payload. Masked slots hash as a marker
                # repr can never emit, independent of their fill values.
                payload = "\x1f".join(
                    "\x00" if missing else repr(value)
                    for value, missing in zip(data.tolist(), self._mask.tolist())
                )
                digest.update(payload.encode("utf-8", "surrogatepass"))
            else:
                # Masked slots hold the canonical fill values on every
                # construction path, so the raw buffer is content-stable.
                digest.update(data.dtype.str.encode("ascii"))
                digest.update(data.tobytes())
            self._fingerprint_cache = digest.hexdigest()
        return self._fingerprint_cache

    def mask_fingerprint(self) -> str:
        """Digest of the column's *missingness* only (name, length, mask).

        Artifacts that depend solely on which cells are missing — the
        missing tables of the profile report — key on this instead of
        :meth:`fingerprint`, so a repair that overwrites values without
        changing missingness leaves them cached. Invalidation follows
        the same rules as :meth:`fingerprint` (any mutation clears it;
        the mask may not actually have changed, in which case the
        recomputed digest — and the cache key — come out identical).
        """
        if self._mask_fingerprint_cache is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(self.name.encode("utf-8", "surrogatepass"))
            digest.update(b"\x00")
            digest.update(len(self._mask).to_bytes(8, "little"))
            digest.update(np.packbits(self._mask).tobytes())
            self._mask_fingerprint_cache = digest.hexdigest()
        return self._mask_fingerprint_cache

    # ------------------------------------------------------------------
    # Chunk API (degenerate single-chunk case; see repro.dataframe.chunked)
    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        return 1

    @property
    def chunk_lengths(self) -> tuple[int, ...]:
        return (len(self),)

    def iter_chunks(self) -> Iterator["Column"]:
        """Yield the column's shards in row order — here, itself.

        Chunk-aware kernels iterate this on any column; a monolithic
        column is one shard, so the per-chunk path and the dense path
        are the same code.
        """
        yield self

    def map(self, func: Callable[[Any], Any]) -> "Column":
        """Apply ``func`` to non-missing cells; missing cells stay missing."""
        mapped = [None if v is None else func(v) for v in self.values()]
        return Column(self.name, mapped)

    def take(self, indices: Sequence[int]) -> "Column":
        idx = np.asarray(indices, dtype=np.intp)
        return Column._from_arrays(
            self.name, self.dtype, self._data[idx], self._mask[idx]
        )
