"""CSV serialization for DataFrames.

CSV is the interchange format the paper's dashboard uses for uploads and for
persisting repaired datasets.

Every CSV reader and writer runs one block kernel per direction, so no
cell makes its own trip through Python.

Parsing
-------
All readers (:func:`read_csv`, :func:`read_csv_text`, the chunked
variants and :func:`read_csv_stream`) scan the source once with
``csv.reader`` and take it a block of rows at a time: ``chunk_size``
rows for the chunked readers, :data:`_BLOCK_ROWS` for the monolithic
ones, which then consolidate the result with ``to_monolithic()``. A
block is split into per-column token tuples once, and each column's
tokens are classified as a whole:

* **Few distinct tokens** (at most one per :data:`_DISTINCT_SHARE` rows,
  estimated from the block's first :data:`_SAMPLE_ROWS` tokens): each
  distinct token goes through
  :func:`~repro.dataframe.types.parse_token` and
  :func:`~repro.dataframe.types.coerce` once, and the packed distinct
  values are gathered by integer codes.
* **Numeric probes** otherwise: the tokens are stripped, null spellings
  are found by set membership on the lowered text, and the rest are
  converted in one pass with ``int`` and, failing that, with ``float``.
  A float block re-checks its integral values with ``int``, because
  ``parse_token`` returns an int for every token ``int`` accepts
  (``"-0"`` reads as ``0``, not ``-0.0``).
* **Per-token fallback** when no probe classifies a block exactly: a
  bool or string token defeats both probes; an int too large for a
  float makes ``coerce`` raise where the float probe would read
  ``inf``; and float tokens under a declared int, bool or string dtype,
  or in a column already widened to string, need ``coerce``'s rules
  value by value. The fallback is the distinct path with one code per
  distinct token, however many there are.

The probes call only the functions ``parse_token`` calls, on the same
stripped text, so a block's values, its missing cells and the dtype
flags it contributes are exactly those of ``parse_token`` per cell. The
flags fold over the ``bool < int < float < string`` lattice like
:func:`~repro.dataframe.types.infer_dtype`. Shards keep the storage
contract: ``str`` in object arrays (never numpy ``U`` arrays, which
would change fingerprints), int64 with an object fallback on overflow,
float64 with ``0.0`` fills, and ``bool_``. A cell that a declared dtype
cannot hold is raised when the scan ends, for the first such column in
header order, so every reader fails on the same cell as a whole-table
pass (a ragged row still fails at once, as it does there).

Widening
--------
Each block is packed at the column's dtype so far and remembers it; when
the scan ends, the shards packed below the final dtype are converted
once (``int → float`` and ``bool → int/float`` are array casts). A
numeric shard cannot give back every cell's text from its payload: a
bool token packs as ``1``, and an int beyond 2**53 rounds in a float
shard. So each int or float shard carries a *widening record*, the
exact string of just those cells, which is applied when the column ends
up ``string`` and dropped otherwise. The record is shaped like a shard,
a full-length object array of texts plus a mask of the recorded cells,
and is None on clean numeric data. Converting
only at the end also means an int too large for a float fails exactly
when a whole-column pass would: only if the column ends up ``float``.
With both, streamed, chunked, spilled and monolithic reads are
bit-identical, and all of them match the per-cell reference in
``benchmarks/csv_reference.py`` (pinned by
``tests/dataframe/test_csv_differential.py``).

With a spill store (an explicit ``spill=`` argument, or the
``DATALENS_SPILL_BUDGET`` environment override), each packed shard is
written to disk as soon as it is built, its widening record with it,
and the frame's columns come back as
:class:`~repro.dataframe.spill.SpilledChunkedColumn`, so an ingest holds
one block plus the store's resident budget and the CSV can be far larger
than RAM.

Rendering
---------
:func:`write_csv` and :func:`to_csv_text` stream chunk by chunk and
render each column of a chunk once: ``repr`` for floats, ``str`` for
ints, ``true``/``false`` for bools and ``""`` for missing cells. Rows are
joined with the delimiter directly. A chunk goes through ``csv.writer``
only when some cell holds the delimiter, a quote or a line break, or the
frame has a single column, whose empty fields ``csv.writer`` writes as
``""`` so they do not read back as blank lines. Without those cells
``csv.writer`` quotes nothing, so the bytes equal formatting every
row through it, as the reference does.
"""

from __future__ import annotations

import csv
import io
import logging
from itertools import compress, islice
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from . import types as _types
from .column import _pack
from .frame import DataFrame

_logger = logging.getLogger(__name__)

#: Rows per block for the monolithic readers. It bounds the tokens held
#: at once and does not follow the chunk-size environment override.
_BLOCK_ROWS = 16_384

#: A block with at most one distinct token per this many rows (in its
#: first _SAMPLE_ROWS) is parsed one distinct token at a time.
_DISTINCT_SHARE = 4
_SAMPLE_ROWS = 1024

#: Ints of larger magnitude may not survive a float64 round trip.
_EXACT_INT = 2**53


def read_csv(
    path: str | Path,
    delimiter: str = ",",
    dtypes: Mapping[str, str] | None = None,
) -> DataFrame:
    """Read a CSV file with a header row into a DataFrame.

    Values are parsed with dtype inference; tokens in
    :data:`repro.dataframe.types.NULL_TOKENS` become missing cells.
    """
    # newline="\n" splits lines exactly as io.StringIO does over the text.
    with open(path, "r", newline="\n", encoding="utf-8") as handle:
        return _parse_csv(handle, delimiter, dtypes, _BLOCK_ROWS).to_monolithic()


def read_csv_text(
    text: str,
    delimiter: str = ",",
    dtypes: Mapping[str, str] | None = None,
) -> DataFrame:
    """Parse CSV content held in a string."""
    return _parse_csv(
        io.StringIO(text), delimiter, dtypes, _BLOCK_ROWS
    ).to_monolithic()


def _object_array(values: list) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _int_or_none(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def _loses_text(value: Any, dtype: str) -> bool:
    """Whether a parsed value packed at ``dtype`` loses its string form."""
    if isinstance(value, bool):
        return True
    return (
        dtype == _types.FLOAT
        and isinstance(value, int)
        and abs(value) > _EXACT_INT
    )


def _big_int_record(ints: np.ndarray, rows: np.ndarray, n: int):
    """Widening record of the ints at ``rows`` a float64 cannot hold exactly."""
    big = (ints > _EXACT_INT) | (ints < -_EXACT_INT)
    if not big.any():
        return None
    texts = np.empty(n, dtype=object)
    texts[rows[big]] = _object_array(list(map(str, ints[big].tolist())))
    recorded = np.zeros(n, dtype=bool)
    recorded[rows[big]] = True
    return texts, recorded


class _TokenBlock:
    """Exact path: each distinct token parsed and coerced once.

    ``pack`` returns ``(data, mask, record)``; the record is None or a
    shard-shaped ``(texts, recorded)`` pair holding the exact strings of
    the cells an int or float payload cannot render back (see the module
    docstring).
    """

    def __init__(self, tokens: Sequence[str]):
        distinct = dict.fromkeys(tokens)
        self.parsed = [_types.parse_token(token) for token in distinct]
        if len(distinct) == len(tokens):
            self.codes = np.arange(len(tokens))
        else:
            lookup = dict(zip(distinct, range(len(distinct))))
            self.codes = np.fromiter(
                map(lookup.__getitem__, tokens), dtype=np.intp, count=len(tokens)
            )
        kinds = {
            type(value) for value in self.parsed if not _types.is_missing(value)
        }
        self.saw_bool = bool in kinds
        self.saw_int = int in kinds
        self.saw_float = float in kinds
        self.is_string = bool(kinds - {bool, int, float})

    def pack(self, dtype: str):
        coerced = [_types.coerce(value, dtype) for value in self.parsed]
        data, mask = _pack(coerced, dtype)
        record = None
        if dtype in (_types.INT, _types.FLOAT):
            lost = np.array(
                [_loses_text(value, dtype) for value in self.parsed], dtype=bool
            )
            if lost.any():
                texts = np.empty(len(self.parsed), dtype=object)
                texts[lost] = _object_array(
                    [
                        _types.coerce(value, _types.STRING)
                        for value in compress(self.parsed, lost.tolist())
                    ]
                )
                record = texts[self.codes], lost[self.codes]
        return data[self.codes], mask[self.codes], record


class _IntBlock:
    """Probe result: every non-missing token is one ``int`` accepts."""

    saw_bool = saw_float = is_string = False

    def __init__(self, missing: np.ndarray, values: list[int]):
        self.missing = missing
        self.values = values
        self.saw_int = bool(values)

    def pack(self, dtype: str):
        if dtype == _types.BOOL:
            return None
        record = None
        if dtype == _types.STRING:
            payload = _object_array(list(map(str, self.values)))
        else:
            try:
                payload = np.array(self.values, dtype=np.int64)
            except OverflowError:
                payload = _object_array(self.values)
            if dtype == _types.FLOAT:
                record = _big_int_record(
                    payload, np.flatnonzero(~self.missing), len(self.missing)
                )
                payload = payload.astype(np.float64)
        if not self.missing.any():
            return payload, self.missing, record
        if dtype == _types.STRING:
            data = np.empty(len(self.missing), dtype=object)
        else:
            data = np.zeros(len(self.missing), dtype=payload.dtype)
        data[~self.missing] = payload
        return data, self.missing, record


class _FloatBlock:
    """Probe result: ``float`` accepts every token, one of them not an int.

    ``rows`` are the block rows of the ``floats``; ``int_at`` indexes
    the floats whose tokens ``int`` accepts, with ``ints`` their values.
    """

    saw_bool = is_string = False
    saw_float = True

    def __init__(self, missing, rows, floats, int_at, ints):
        self.missing = missing
        self.rows = rows
        self.floats = floats
        self.int_at = int_at
        self.ints = ints
        self.saw_int = bool(ints)

    def pack(self, dtype: str):
        if dtype != _types.FLOAT:
            return None
        floats = self.floats.copy()
        # float(int(token)) == float(token), except that "-0" reads as 0.0.
        floats[self.int_at] = np.fromiter(
            map(float, self.ints), dtype=np.float64, count=len(self.ints)
        )
        nan = np.isnan(floats)
        floats[nan] = 0.0
        mask = self.missing.copy()
        mask[self.rows[nan]] = True
        data = np.zeros(len(mask), dtype=np.float64)
        data[self.rows] = floats
        record = _big_int_record(
            _object_array(self.ints), self.rows[self.int_at], len(mask)
        )
        return data, mask, record


def _probe_numeric(tokens: Sequence[str]):
    """Classify a block with whole-array ``int`` and ``float`` probes.

    Returns an :class:`_IntBlock`, a :class:`_FloatBlock`, or None when
    the block needs the per-token path.
    """
    n = len(tokens)
    stripped = list(map(str.strip, tokens))
    missing = np.fromiter(
        map(_types.NULL_TOKENS.__contains__, map(str.lower, stripped)),
        dtype=bool,
        count=n,
    )
    valid = (
        list(compress(stripped, (~missing).tolist())) if missing.any() else stripped
    )
    try:
        return _IntBlock(missing, list(map(int, valid)))
    except ValueError:
        pass
    try:
        floats = np.fromiter(map(float, valid), dtype=np.float64, count=len(valid))
    except ValueError:
        return None
    # parse_token returns an int for every token int() accepts; only
    # integral (or infinite) float values can come from such tokens.
    candidates = np.flatnonzero(floats == np.floor(floats))
    as_int = list(map(_int_or_none, [valid[i] for i in candidates.tolist()]))
    is_int = np.array([value is not None for value in as_int], dtype=bool)
    int_at = candidates[is_int]
    ints = list(compress(as_int, is_int.tolist()))
    if np.isinf(floats[int_at]).any():
        return None  # an int past float range: coerce raises, not inf
    rows = np.flatnonzero(~missing)
    nan = np.isnan(floats)
    if len(ints) + int(nan.sum()) == len(valid):
        # No float token: an int block whose "-nan" spellings are missing.
        missing = missing.copy()
        missing[rows[nan]] = True
        return _IntBlock(missing, ints)
    return _FloatBlock(missing, rows, floats, int_at, ints)


def _classify(tokens: Sequence[str]):
    """One column's block, classified as a whole (see the module docstring).

    The block's first :data:`_SAMPLE_ROWS` tokens estimate its
    cardinality; both paths are exact, the estimate only picks the faster.
    """
    head = tokens[:_SAMPLE_ROWS]
    if len(set(head)) * _DISTINCT_SHARE <= len(head):
        return _TokenBlock(tokens)
    return _probe_numeric(tokens) or _TokenBlock(tokens)


class _StreamingColumnBuilder:
    """Accumulates one column's shards during a CSV scan.

    Dtype inference is folded block by block: the ``saw_*`` flags mirror
    :func:`repro.dataframe.types.infer_dtype` (missing cells never move
    them), so the final dtype equals a whole-column inference pass. Each
    block is packed at the fold's dtype so far and remembers that dtype;
    :meth:`finish` converts the shards packed below the final dtype once,
    and each shard's widening record restores the text its payload lost.
    Because conversion waits for the final dtype, an int too large for a
    float fails exactly when a whole-column pass would: only if the
    column ends up ``float``.
    """

    def __init__(self, name: str, declared: str | None, store=None):
        self.name = name
        self.declared = declared
        #: (data, mask) pairs, or ShardHandles when spilling to a store.
        self.shards: list = []
        #: Per shard: the dtype it was packed at and its widening record
        #: (None, a (texts, recorded) pair, or the ShardHandle it was
        #: spilled to along with its shard).
        self.packed_as: list[str] = []
        self.records: list = []
        self.store = store
        #: Set to the SpillCapacityError once the disk fills mid-ingest;
        #: the builder then degrades to resident shards (see
        #: :meth:`_normalize_degraded`).
        self.degraded: Exception | None = None
        #: The first error of a declared dtype: unknown, or a value it
        #: cannot hold. finish() raises it, so the first failing column
        #: in header order fails, as in a whole-table pass.
        self.error: Exception | None = None
        if declared is not None and declared not in _types.DTYPES:
            self.error = ValueError(f"unknown dtype {declared!r}")
        #: The OverflowError of an int packed while the fold read float;
        #: raised by finish() if the column ends up float.
        self.overflow: OverflowError | None = None
        self._saw_bool = False
        self._saw_int = False
        self._saw_float = False
        self._is_string = False

    def _fold_dtype(self) -> str:
        if self._is_string:
            return _types.STRING
        if self._saw_float:
            return _types.FLOAT
        if self._saw_int:
            return _types.INT
        if self._saw_bool:
            return _types.BOOL
        return _types.STRING

    def flush(self, tokens: Sequence[str]) -> None:
        """Parse and pack one block of this column's tokens into a shard."""
        if self.error is not None:
            return
        block = _classify(tokens)
        dtype = self.declared
        if dtype is None:
            self._saw_bool |= block.saw_bool
            self._saw_int |= block.saw_int
            self._saw_float |= block.saw_float
            self._is_string |= block.is_string
            dtype = self._fold_dtype()
        try:
            packed = block.pack(dtype) or _TokenBlock(tokens).pack(dtype)
        except (ValueError, OverflowError) as error:
            if self.declared is not None:
                self.error = error
                return
            if not isinstance(error, OverflowError):
                raise
            self.overflow = self.overflow or error
            dtype = _types.STRING
            packed = _TokenBlock(tokens).pack(dtype)
        data, mask, record = packed
        self.packed_as.append(dtype)
        if self.store is not None:
            self.shards.append(self._maybe_spill((data, mask)))
            self.records.append(None if record is None else self._maybe_spill(record))
            self._normalize_degraded()
        else:
            self.shards.append((data, mask))
            self.records.append(record)

    def _maybe_spill(self, pair):
        """Spill one packed pair, degrading to resident on a full disk."""
        from .spill import SpillCapacityError

        if self.degraded is not None:
            return pair
        try:
            return self.store.spill(*pair)
        except SpillCapacityError as error:
            self.degraded = error
            return pair

    def _normalize_degraded(self) -> None:
        """After a capacity failure, pull spilled shards and widening
        records back to resident.

        A degraded builder holds a mix of ShardHandles and raw pairs;
        loading the handles back (and releasing their files, freeing
        disk) restores the all-resident invariant so the column finishes
        as a plain dense ChunkedColumn — ingest survives a full disk at
        the cost of RAM.
        """
        if self.degraded is None:
            return
        self.shards = [self._take(shard) for shard in self.shards]
        self.records = [
            None if record is None else self._take(record) for record in self.records
        ]
        _logger.warning(
            "spill store full while ingesting column %r; keeping its "
            "shards resident (%s)",
            self.name,
            self.degraded,
        )
        self.store = None

    def _take(self, shard) -> tuple[np.ndarray, np.ndarray]:
        """A shard's arrays; a spilled one is loaded and its files released."""
        from .spill import ShardHandle

        if not isinstance(shard, ShardHandle):
            return shard
        # Copy out of the read-only loaded views: the pair stays
        # resident in a column that may be written.
        data, mask = (np.array(part) for part in self.store.load(shard))
        self.store.release(shard)
        return data, mask

    def _convert(self, shard, record, old: str, new: str):
        """One shard at the final dtype, re-spilled if it was converted.

        The shard's widening record is used up: applied when the column
        ends up ``string``, released otherwise.
        """
        from .spill import ShardHandle

        if new != _types.STRING:
            if isinstance(record, ShardHandle):
                self.store.release(record)
            record = None
        if old == new:
            return shard
        data, mask = self._take(shard)
        if record is not None:
            record = self._take(record)
        pair = _convert_shard(data, mask, record, old, new)
        return pair if self.store is None else self._maybe_spill(pair)

    def finish(self):
        from .chunked import ChunkedColumn

        if self.error is not None:
            raise self.error
        dtype = self.declared or self._fold_dtype()
        if dtype == _types.FLOAT and self.overflow is not None:
            raise self.overflow
        records, self.records = self.records, []
        self.shards = [
            self._convert(shard, record, old, dtype)
            for shard, old, record in zip(self.shards, self.packed_as, records)
        ]
        self._normalize_degraded()  # a conversion may have filled the disk
        if self.store is not None:
            from .spill import SpilledChunkedColumn

            return SpilledChunkedColumn.from_handles(
                self.name, dtype, self.shards, self.store
            )
        return ChunkedColumn.from_shards(self.name, dtype, self.shards)


def _convert_shard(
    data: np.ndarray, mask: np.ndarray, record, old: str, new: str
) -> tuple[np.ndarray, np.ndarray]:
    """Re-coerce a packed shard to a wider dtype, exactly.

    Widening to string renders every payload as ``coerce(value,
    "string")`` would, then overwrites the cells in the shard's widening
    record with their exact text. Numeric widenings are array casts
    (``int → float`` and ``bool → int/float`` round-trip exactly through
    Python semantics), and a shard packed while the column was
    all-missing is all mask.
    """
    if new == _types.STRING:
        if old == _types.BOOL:
            texts = np.where(data, "true", "false").astype(object)
        else:
            texts = _object_array(list(map(str, data.tolist())))
        if old == _types.FLOAT:
            # coerce drops the ".0" of integral floats ("2.0" reads "2").
            whole = np.isfinite(data) & (data == np.floor(data))
            texts[whole] = _object_array(
                list(map(str, map(int, data[whole].tolist())))
            )
        texts[mask] = None
        if record is not None:
            exact, recorded = record
            texts[recorded] = exact[recorded]
        return texts, mask
    if old == _types.STRING:  # packed while the column was all-missing
        return _pack([None] * len(mask), new)
    # Object-backed ints cast through int.__float__, which raises on
    # overflow exactly like coerce.
    out = data.astype(_types.NUMPY_DTYPES[new])
    out[mask] = _types.FILL_VALUES[new]
    return out, mask


def read_csv_chunked(
    path: str | Path,
    delimiter: str = ",",
    dtypes: Mapping[str, str] | None = None,
    chunk_size: int | None = None,
    spill=None,
):
    """Stream a CSV file into a ChunkedFrame, ``chunk_size`` rows per shard.

    Bit-identical to :func:`read_csv` (same parsing, inference, and
    coercion) but never holds more than one chunk of tokens.
    ``spill`` may be a :class:`~repro.dataframe.spill.SpillStore`, True
    (fresh store), False (never spill), or None — the default, which
    spills when ``DATALENS_SPILL_BUDGET`` is set.
    """
    with open(path, "r", newline="", encoding="utf-8") as handle:
        return _read_csv_stream(handle, delimiter, dtypes, chunk_size, spill)


def read_csv_stream(
    lines: Iterable[str],
    delimiter: str = ",",
    dtypes: Mapping[str, str] | None = None,
    chunk_size: int | None = None,
    spill=None,
):
    """Stream CSV *lines* (any iterable of text) into a ChunkedFrame.

    The network-facing variant of :func:`read_csv_chunked`: the REST
    upload path feeds it the socket body line by line, so a CSV larger
    than RAM is parsed, packed, and (with ``spill``) written to disk one
    chunk at a time. Same parsing/inference/coercion as
    :func:`read_csv`, bit for bit.
    """
    return _read_csv_stream(lines, delimiter, dtypes, chunk_size, spill)


def _read_csv_stream(
    handle: Iterable[str],
    delimiter: str,
    dtypes: Mapping[str, str] | None,
    chunk_size: int | None,
    spill=None,
):
    """The chunked readers: the parse kernel plus the ingest fault site."""
    from .chunked import resolve_chunk_size
    from .spill import _faults, resolve_spill_store

    faults = _faults()
    size = resolve_chunk_size(chunk_size)
    store = resolve_spill_store(spill)
    return _parse_csv(handle, delimiter, dtypes, size, store, faults)


def _parse_csv(
    handle: Iterable[str],
    delimiter: str,
    dtypes: Mapping[str, str] | None,
    size: int,
    store=None,
    faults=None,
):
    """The parse kernel: ``size``-row blocks of ``handle`` into a ChunkedFrame."""
    from .chunked import ChunkedFrame

    dtypes = dtypes or {}
    reader = csv.reader(handle, delimiter=delimiter)
    header_row = next(reader, None)
    if header_row is None:
        raise ValueError("CSV input is empty (no header row)")
    header = [name.strip() for name in header_row]
    builders = [
        _StreamingColumnBuilder(name, dtypes.get(name), store=store)
        for name in header
    ]
    while rows := list(islice(reader, size)):
        if set(map(len, rows)) != {len(header)}:
            width = next(len(row) for row in rows if len(row) != len(header))
            raise ValueError(f"row has {width} fields, expected {len(header)}")
        if faults is not None:
            faults.maybe_fire("ingest.chunk")
        for builder, tokens in zip(builders, zip(*rows)):
            builder.flush(tokens)
    return ChunkedFrame(builder.finish() for builder in builders)


def write_csv(frame: DataFrame, path: str | Path, delimiter: str = ",") -> None:
    """Write a DataFrame to CSV; missing cells become empty fields.

    Streams chunk by chunk (a monolithic frame is one chunk), so a
    spilled frame is persisted without ever materializing — the output
    bytes are identical to :func:`to_csv_text` either way.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        _render_csv(frame, handle, delimiter)


def to_csv_text(frame: DataFrame, delimiter: str = ",") -> str:
    """Render a DataFrame as CSV text."""
    buffer = io.StringIO()
    _render_csv(frame, buffer, delimiter)
    return buffer.getvalue()


def _render_csv(frame: DataFrame, handle, delimiter: str) -> None:
    """The render kernel: each column of each chunk is formatted once."""
    writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
    writer.writerow(frame.column_names)
    for chunk in frame.iter_chunks():
        if not chunk.num_rows:
            continue
        columns = [_render_column(chunk.column(name)) for name in chunk.column_names]
        if len(columns) == 1 or any(
            _needs_quoting(texts, delimiter) for texts in columns
        ):
            writer.writerows(zip(*columns))
        else:
            handle.write("\n".join(map(delimiter.join, zip(*columns))))
            handle.write("\n")


def _render_column(column) -> list[str]:
    """Every cell's text: ``repr`` for floats and ints, ``true``/``false``
    for bools, strings as they are, ``""`` for missing cells."""
    data = np.asarray(column.values_array())
    missing = np.asarray(column.mask())
    if column.dtype == _types.BOOL:
        texts = np.where(data, "true", "false").astype(object)
    elif column.dtype == _types.STRING:
        texts = data.copy()
    else:
        texts = _object_array(list(map(repr, data.tolist())))
        if column.dtype == _types.FLOAT:
            missing = missing | np.isnan(data)
    texts[missing] = ""
    return texts.tolist()


def _needs_quoting(texts: list[str], delimiter: str) -> bool:
    """Whether ``csv.writer`` could quote any of these cells."""
    joined = "".join(texts)
    return any(mark in joined for mark in (delimiter, '"', "\r", "\n"))
