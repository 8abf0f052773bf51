"""Chunked columnar frames — the sharded execution layer.

A :class:`ChunkedColumn` stores its cells as an ordered list of
``(values_array, mask)`` shards instead of one contiguous array pair, and
a :class:`ChunkedFrame` aligns those shards row-wise across columns so the
table can be processed one chunk at a time (streaming ingestion,
per-chunk partial aggregates, thread-parallel profiling).

Chunking contract
-----------------
* **Row order is preserved.** Concatenating the shards in order yields
  exactly the monolithic ``(_data, _mask)`` pair; chunk boundaries are
  invisible to every consumer of the sequence API.
* **The monolithic contract still holds.** ``ChunkedColumn`` subclasses
  :class:`~repro.dataframe.column.Column`; ``values_array()`` / ``mask()``
  lazily concatenate the shards into one dense pair (cached, with the
  shards rebased onto views of it), so any array-native consumer works
  unchanged and bit-identically.
* **Cross-chunk ``codes()``.** Factorization always runs over the whole
  logical column, so equal values in *different* chunks share one code
  and the missing group keeps the single highest code — per-chunk views
  of ``codes()`` are plain slices at the chunk boundaries.
* **Chunks are read-only views.** :meth:`ChunkedColumn.iter_chunks`
  yields Columns wrapping read-only views of the shard storage; mutating
  the parent column (``set`` / ``set_many``) invalidates previously
  yielded chunks, exactly like it invalidates ``codes()``.
* **Row access reads only the shards it needs.** ``col[i]`` reads the
  one shard holding row ``i``; the range read
  :meth:`~ChunkedColumn.row_range` (and so a slice) reads the shards
  that cover the range. A column that is already dense reads its dense
  view instead. Shard-routed ``take`` is the spilled path only:
  :meth:`SpilledChunkedColumn.take
  <repro.dataframe.spill.SpilledChunkedColumn.take>` reads each shard
  that holds a requested row once, while a resident chunked column's
  ``take`` (inherited from ``Column``) densifies it first, because
  routing indices per shard costs more than one concatenation there.
  Results equal the monolithic column's, backing dtype included: an
  int column whose shards mix int64 and object backing reads as
  object-backed Python ints, exactly like its dense concatenation.
* **Merge rules for partial aggregates.** Integer counters (count,
  missing, zeros, negatives, histogram bin counts over shared edges),
  element selections (min/max), first/last boundary values, and Counter
  frequency tables merge across chunks *exactly*. Float reductions
  (sum, mean, variance, quantiles) are **not** chunk-merged — float
  addition is non-associative, and the engine guarantees bit-identical
  results vs. the monolithic kernels — so order/moment statistics are
  computed on the gathered non-missing payload instead (one concatenate
  of the per-chunk compressed shards, which is element-identical to the
  monolithic compression).

Every derived frame (``select``/``take``/``head``/in-memory
``sort_by``/...) is monolithic; chunking is a property of the stored
table, not of query results. The one deliberate exception is the external merge sort
(:mod:`repro.dataframe.sort`): its output is emitted shard-by-shard as a
spill-backed chunked frame, because densifying the result would defeat
sorting a frame that never fit in memory in the first place.

Out-of-core spilling
--------------------
:mod:`repro.dataframe.spill` extends this layer with
:class:`~repro.dataframe.spill.SpilledChunkedColumn`, whose shards live
on disk behind the :meth:`ChunkedColumn._shard` seam instead of in
RAM. ``DATALENS_SPILL_BUDGET`` makes the streaming ingestion paths spill
their shards (see :class:`repro.settings.Settings` for every
``DATALENS_*`` variable). Spilled columns obey the full chunking
contract above — spilled ≡ resident ≡ monolithic, bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..settings import resolve
from . import types as _types
from .column import Column, _readonly
from .frame import DataFrame

#: Fallback chunk size when neither an explicit value nor
#: ``DATALENS_DEFAULT_CHUNK_SIZE`` is given: large enough that per-chunk
#: numpy dispatch overhead vanishes, small enough that a chunk of a wide
#: table stays cache-warm.
DEFAULT_CHUNK_SIZE = 65_536


def resolve_chunk_size(chunk_size: int | None = None) -> int:
    """Explicit size, else ``DATALENS_DEFAULT_CHUNK_SIZE``, else the default."""
    size = resolve("default_chunk_size", chunk_size, "chunk_size")
    return DEFAULT_CHUNK_SIZE if size is None else size


def chunk_lengths_for(n_rows: int, chunk_size: int) -> tuple[int, ...]:
    """Shard lengths covering ``n_rows``: full chunks plus one remainder.

    Zero rows means zero chunks — an empty table has no shards.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    full, remainder = divmod(n_rows, chunk_size)
    lengths = [chunk_size] * full
    if remainder:
        lengths.append(remainder)
    return tuple(lengths)


def _concat_payload(shards: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate shard payloads, normalizing mixed int64/object backing.

    An int column can be int64-backed in one shard and object-backed in
    another (huge values); the dense array must then be object-backed with
    *Python* scalars, exactly like :func:`~repro.dataframe.column._pack`
    produces on overflow — ``astype(object)`` performs that boxing.
    """
    if len(shards) == 1:
        return shards[0]
    if any(shard.dtype == object for shard in shards):
        shards = [
            shard if shard.dtype == object else shard.astype(object)
            for shard in shards
        ]
    return np.concatenate(shards)


def _checked_lengths(chunk_lengths: Sequence[int], n_rows: int) -> tuple[int, ...]:
    """Shard lengths as ints, validated to cover ``n_rows`` rows."""
    lengths = tuple(int(length) for length in chunk_lengths)
    if sum(lengths) != n_rows:
        raise ValueError(
            f"chunk lengths {lengths} cover {sum(lengths)} rows, "
            f"column has {n_rows}"
        )
    if any(length < 1 for length in lengths):
        raise ValueError("chunk lengths must all be >= 1")
    return lengths


def compressed_chunks(column: Column) -> list[np.ndarray]:
    """Per-chunk non-missing payloads as float arrays, in row order.

    Concatenating these equals the monolithic compression
    ``values_array()[~mask]`` element for element, because boolean
    selection preserves row order within and across chunks. This is the
    single gather primitive every chunk-aware float kernel (profiling
    stats, histograms, SD/IQR detection) builds on — the bit-identical
    compression invariant lives here and nowhere else.
    """
    parts = []
    for chunk in column.iter_chunks():
        mask = np.asarray(chunk.mask())
        parts.append(chunk.values_array()[~mask].astype(float))
    return parts


def gather_compressed(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate per-chunk compressed payloads (no copy for one part)."""
    nonempty = [part for part in parts if len(part)]
    if not nonempty:
        return np.empty(0, dtype=float)
    if len(nonempty) == 1:
        return nonempty[0]
    return np.concatenate(nonempty)


class ChunkedColumn(Column):
    """A :class:`Column` stored as an ordered list of (data, mask) shards.

    The shards either live as independently owned arrays (streaming
    ingestion builds the column this way) or, after the first dense
    access, as views into the concatenated ``(_data, _mask)`` pair — so
    in-place mutation through the inherited ``set`` / ``set_many`` stays
    visible to every shard and no state can go stale.
    """

    __slots__ = (
        "_chunk_lengths",
        "_starts",
        "_payload_dtype",
        "_shard_data",
        "_shard_masks",
        "_dense_data",
        "_dense_mask",
    )

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError(
            "build ChunkedColumn via from_column()/from_shards(), "
            "not the constructor"
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _bare(
        cls, name: str, dtype: str, lengths: Sequence[int], payloads: Sequence
    ) -> "ChunkedColumn":
        """A column of these shard lengths and shard backing dtypes, no storage."""
        if dtype not in _types.DTYPES:
            raise ValueError(f"unknown dtype {dtype!r}")
        out = cls.__new__(cls)
        out.name = name
        out.dtype = dtype
        out._codes_cache = out._fingerprint_cache = None
        out._mask_fingerprint_cache = None
        out._chunk_lengths = tuple(lengths)
        out._starts = tuple(accumulate(lengths, initial=0))
        # The dense concatenation's backing: object once any shard is.
        out._payload_dtype = np.dtype(
            object
            if any(payload == object for payload in payloads)
            else payloads[0] if payloads else _types.NUMPY_DTYPES[dtype]
        )
        out._shard_data = out._shard_masks = None
        out._dense_data = out._dense_mask = None
        return out

    def _with_caches_of(self, column: Column) -> "ChunkedColumn":
        # Re-chunking preserves content row for row, so the source column's
        # content-derived caches stay valid (cross-chunk codes() equal the
        # monolithic factorization by contract; fingerprints are computed
        # over the dense pair either way).
        self._codes_cache = column._codes_cache
        self._fingerprint_cache = column._fingerprint_cache
        self._mask_fingerprint_cache = column._mask_fingerprint_cache
        return self

    @classmethod
    def from_column(
        cls, column: Column, chunk_lengths: Sequence[int]
    ) -> "ChunkedColumn":
        """Chunk an existing column at the given shard lengths (copies)."""
        lengths = _checked_lengths(chunk_lengths, len(column))
        data = np.asarray(column.values_array()).copy()
        out = cls._bare(column.name, column.dtype, lengths, [data.dtype])
        out._dense_data = data
        out._dense_mask = np.asarray(column.mask()).copy()
        return out._with_caches_of(column)

    @classmethod
    def from_shards(
        cls,
        name: str,
        dtype: str,
        shards: Iterable[tuple[np.ndarray, np.ndarray]],
    ) -> "ChunkedColumn":
        """Wrap pre-packed ``(data, mask)`` shard pairs without copying.

        The column takes ownership of the arrays. Every shard must hold
        payloads already coerced to ``dtype`` with the standard fill
        values at masked slots; int shards may mix int64 and object
        backing (the dense view normalizes on materialization).
        """
        pairs = [(data, mask) for data, mask in shards]
        for data, mask in pairs:
            if len(data) != len(mask):
                raise ValueError("shard data and mask lengths differ")
            if len(data) == 0:
                raise ValueError("empty shards are not allowed")
        out = cls._bare(
            name,
            dtype,
            [len(data) for data, _ in pairs],
            [data.dtype for data, _ in pairs],
        )
        out._shard_data = [data for data, _ in pairs]
        out._shard_masks = [mask for _, mask in pairs]
        return out

    # ------------------------------------------------------------------
    # Dense storage (lazy) — shadows the parent _data/_mask slots so every
    # inherited Column method transparently sees the concatenated arrays.
    # ------------------------------------------------------------------
    def _materialize(self) -> None:
        if self._dense_data is not None:
            return
        self._dense_data, self._dense_mask = self.row_range(0, len(self))
        # From here on the shards are views of the dense pair, so in-place
        # writes through the inherited mutators stay consistent.
        self._drop_shards()

    def _drop_shards(self) -> None:
        """Forget the shard storage once the dense pair holds the column."""
        self._shard_data = None
        self._shard_masks = None

    @property
    def _data(self) -> np.ndarray:  # type: ignore[override]
        self._materialize()
        return self._dense_data

    @_data.setter
    def _data(self, array: np.ndarray) -> None:
        # Widening/overflow paths in Column.set/set_many replace the whole
        # array (same length); shard views are recomputed on demand.
        self._dense_data = array
        self._drop_shards()

    @property
    def _mask(self) -> np.ndarray:  # type: ignore[override]
        if self._dense_mask is None:
            self._materialize()
        return self._dense_mask

    @_mask.setter
    def _mask(self, array: np.ndarray) -> None:
        self._dense_mask = array
        self._drop_shards()

    # ------------------------------------------------------------------
    # Chunk API
    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        return len(self._chunk_lengths)

    @property
    def chunk_lengths(self) -> tuple[int, ...]:
        return self._chunk_lengths

    def _shard(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The raw ``(data, mask)`` pair of shard ``i``."""
        # Read each list once: a concurrent reader's _materialize may drop
        # them, and the dense pair it set first then serves the shard.
        data, masks = self._shard_data, self._shard_masks
        if data is not None and masks is not None:
            return data[i], masks[i]
        self._materialize()
        start, end = self._starts[i], self._starts[i + 1]
        return self._dense_data[start:end], self._dense_mask[start:end]

    def iter_chunks(self) -> Iterator[Column]:
        """Yield each shard as a read-only monolithic :class:`Column`."""
        for i in range(self.n_chunks):
            data, mask = self._shard(i)
            yield Column._from_arrays(
                self.name, self.dtype, _readonly(data), _readonly(mask)
            )

    def rechunk(self, chunk_size: int | None = None) -> "ChunkedColumn":
        """Return a copy re-sharded at ``chunk_size`` rows per chunk."""
        size = resolve_chunk_size(chunk_size)
        return ChunkedColumn.from_column(self, chunk_lengths_for(len(self), size))

    # ------------------------------------------------------------------
    # Row access: read only the shards that hold the requested rows
    # ------------------------------------------------------------------
    def _cell(self, index: int) -> tuple[np.ndarray, np.ndarray, int]:
        if self._dense_data is not None:
            return super()._cell(index)
        n = self._starts[-1]
        if not -n <= index < n:
            raise IndexError(f"index {index} out of range for {n} rows")
        row = index + n if index < 0 else index
        i = bisect_right(self._starts, row) - 1
        data, mask = self._shard(i)
        return data, mask, row - self._starts[i]

    def row_range(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        if self._dense_data is not None:
            return super().row_range(start, stop)
        starts = self._starts
        datas, masks = [], []
        for i in range(bisect_right(starts, start) - 1, bisect_left(starts, stop)):
            data, mask = self._shard(i)
            lo, hi = max(start, starts[i]), min(stop, starts[i + 1])
            datas.append(data[lo - starts[i] : hi - starts[i]])
            masks.append(mask[lo - starts[i] : hi - starts[i]])
        if not datas:
            return np.empty(0, self._payload_dtype), np.zeros(0, dtype=bool)
        # astype: int64 rows of a column whose other shards are objects.
        data = _concat_payload(datas).astype(self._payload_dtype, copy=False)
        return data, masks[0] if len(masks) == 1 else np.concatenate(masks)

    # ------------------------------------------------------------------
    # Cheap chunk-aware overrides (avoid materializing for metadata)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._starts[-1]

    def missing_count(self) -> int:
        if self._dense_mask is not None:
            return int(self._dense_mask.sum())
        return sum(int(mask.sum()) for mask in self._shard_masks or [])

    def value_counts(self):
        """Frequency table via exactly-merged per-chunk counters.

        Integer counts add exactly and sequential chunk scans preserve
        first-seen key order, so the merged Counter — including
        ``most_common`` tie-breaking — is identical to one dense scan.
        """
        from collections import Counter

        counts: Counter = Counter()
        for chunk in self.iter_chunks():
            counts.update(chunk.values_array()[~chunk.mask()].tolist())
        return counts

    def copy(self) -> "ChunkedColumn":
        return ChunkedColumn.from_column(self, self._chunk_lengths)


class ChunkedFrame(DataFrame):
    """A :class:`DataFrame` whose columns are row-aligned ChunkedColumns.

    All columns must share identical chunk lengths so that chunk ``i`` of
    every column covers the same row range; :meth:`iter_chunks` then
    yields one monolithic (read-only view) DataFrame per chunk.
    """

    def __init__(self, columns: Iterable[Column] = ()):  # noqa: D107
        super().__init__(columns)
        lengths: tuple[int, ...] | None = None
        for name, column in self._columns.items():
            if not isinstance(column, ChunkedColumn):
                raise TypeError(
                    f"ChunkedFrame requires ChunkedColumn, got plain "
                    f"Column {name!r}"
                )
            if lengths is None:
                lengths = column.chunk_lengths
            elif column.chunk_lengths != lengths:
                raise ValueError(
                    f"column {name!r} chunk lengths {column.chunk_lengths} "
                    f"!= {lengths}"
                )
        self._chunk_lengths: tuple[int, ...] = lengths or ()

    # ------------------------------------------------------------------
    @classmethod
    def from_frame(
        cls,
        frame: DataFrame,
        chunk_size: int | None = None,
        spill: Any = None,
    ) -> "ChunkedFrame":
        """Chunk a monolithic frame at ``chunk_size`` rows per chunk.

        ``spill`` (a :class:`~repro.dataframe.spill.SpillStore` or True)
        writes the shards to disk instead of keeping them resident. It is
        explicit-only here — ``DATALENS_SPILL_BUDGET`` applies to the
        *ingestion* paths, because spilling a frame that is already in
        memory cannot lower its peak RSS.
        """
        size = resolve_chunk_size(chunk_size)
        lengths = chunk_lengths_for(frame.num_rows, size)
        if spill is not None and spill is not False:
            from .spill import SpilledChunkedColumn, resolve_spill_store

            store = resolve_spill_store(spill)
            return cls(
                SpilledChunkedColumn.from_column(
                    frame.column(name), lengths, store
                )
                for name in frame.column_names
            )
        return cls(
            ChunkedColumn.from_column(frame.column(name), lengths)
            for name in frame.column_names
        )

    @property
    def n_chunks(self) -> int:
        return len(self._chunk_lengths)

    @property
    def chunk_lengths(self) -> tuple[int, ...]:
        return self._chunk_lengths

    def iter_chunks(self) -> Iterator[DataFrame]:
        """Yield one read-only monolithic DataFrame per chunk, in order."""
        iterators = {
            name: self._columns[name].iter_chunks() for name in self._columns
        }
        for _ in range(self.n_chunks):
            yield DataFrame(next(iterators[name]) for name in iterators)

    def rechunk(self, chunk_size: int | None = None) -> "ChunkedFrame":
        """Return a copy re-sharded at ``chunk_size`` rows per chunk.

        Dispatches through :meth:`ChunkedColumn.rechunk`, so spilled
        columns re-shard shard-by-shard and stay spilled.
        """
        size = resolve_chunk_size(chunk_size)
        return ChunkedFrame(
            self._columns[name].rechunk(size) for name in self._columns
        )

    def to_chunked(self, chunk_size: int | None = None) -> "ChunkedFrame":
        """Copy, matching :meth:`DataFrame.to_chunked` semantics exactly.

        ``None`` keeps the existing chunk lengths; either way the result
        owns fresh storage, so mutating it never touches this frame.
        """
        if chunk_size is None:
            return self.copy()
        return self.rechunk(chunk_size)

    def to_monolithic(self) -> DataFrame:
        """Consolidate into a plain DataFrame (copies the storage)."""
        return DataFrame(
            Column._from_arrays(
                column.name,
                column.dtype,
                np.asarray(column.values_array()).copy(),
                np.asarray(column.mask()).copy(),
            )
            for column in self._columns.values()
        )

    def copy(self) -> "ChunkedFrame":
        return ChunkedFrame(column.copy() for column in self._columns.values())
