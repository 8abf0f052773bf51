"""Columnar DataFrame — the tabular backbone of the reproduction.

The frame is deliberately small but carries the pandas-like operations the
rest of the system needs: construction from rows/columns, cell addressing by
``(row_index, column_name)``, boolean-mask selection, iteration, and numpy
export.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .column import Column

Cell = tuple[int, str]


class DataFrame:
    """In-memory table with named, typed columns and None for missing."""

    def __init__(self, columns: Iterable[Column] = ()):  # noqa: D107
        self._columns: dict[str, Column] = {}
        length: int | None = None
        for column in columns:
            if column.name in self._columns:
                raise ValueError(f"duplicate column {column.name!r}")
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise ValueError(
                    f"column {column.name!r} has {len(column)} rows, expected {length}"
                )
            self._columns[column.name] = column

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls, data: Mapping[str, Iterable[Any]], dtypes: Mapping[str, str] | None = None
    ) -> "DataFrame":
        """Build a frame from ``{column_name: values}``."""
        dtypes = dtypes or {}
        return cls(
            Column(name, values, dtypes.get(name)) for name, values in data.items()
        )

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence[Any]],
        column_names: Sequence[str],
        dtypes: Mapping[str, str] | None = None,
    ) -> "DataFrame":
        """Build a frame from an iterable of row tuples."""
        materialized = [list(row) for row in rows]
        for row in materialized:
            if len(row) != len(column_names):
                raise ValueError(
                    f"row has {len(row)} fields, expected {len(column_names)}"
                )
        data = {
            name: [row[i] for row in materialized]
            for i, name in enumerate(column_names)
        }
        return cls.from_dict(data, dtypes)

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]]) -> "DataFrame":
        """Build a frame from dict records; the union of keys becomes columns."""
        materialized = list(records)
        names: dict[str, None] = {}
        for record in materialized:
            for key in record:
                names.setdefault(key, None)
        data = {
            name: [record.get(name) for record in materialized] for name in names
        }
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Shape and metadata
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows (0 for an empty frame)."""
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns) pair."""
        return (self.num_rows, self.num_columns)

    @property
    def column_names(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._columns)

    def dtypes(self) -> dict[str, str]:
        """Mapping of column name to logical dtype."""
        return {name: col.dtype for name, col in self._columns.items()}

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __repr__(self) -> str:
        return f"DataFrame(shape={self.shape}, columns={self.column_names})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataFrame):
            return NotImplemented
        if self.column_names != other.column_names:
            return False
        return all(self._columns[n] == other._columns[n] for n in self._columns)

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, name: str) -> Column:
        """Return the named column (KeyError with the available names)."""
        if name not in self._columns:
            raise KeyError(f"no column {name!r}; have {self.column_names}")
        return self._columns[name]

    def __getitem__(self, name: str) -> Column:
        """Dict-style access: ``frame["col"]`` is ``frame.column("col")``."""
        return self.column(name)

    def numeric_column_names(self) -> list[str]:
        return [n for n, c in self._columns.items() if c.is_numeric()]

    def categorical_column_names(self) -> list[str]:
        return [n for n, c in self._columns.items() if not c.is_numeric()]

    # ------------------------------------------------------------------
    # Cell and row access
    # ------------------------------------------------------------------
    def at(self, row: int, name: str) -> Any:
        """Read one cell."""
        return self.column(name)[row]

    def set_at(self, row: int, name: str, value: Any) -> None:
        """Write one cell in place (used by repair application)."""
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of range for {self.num_rows} rows")
        self.column(name).set(row, value)

    def set_cells(self, name: str, rows: Sequence[int], values: Sequence[Any]) -> None:
        """Batched ``set_at`` over one column — the repair-apply fast path.

        All cells are written in one vectorized slice assignment (see
        :meth:`Column.set_many`); semantics match the per-cell loop,
        including dtype widening.
        """
        row_array = np.asarray(rows, dtype=np.intp)
        if row_array.size and (
            int(row_array.min()) < 0 or int(row_array.max()) >= self.num_rows
        ):
            raise IndexError(f"row index out of range for {self.num_rows} rows")
        self.column(name).set_many(row_array, values)

    def row(self, index: int) -> dict[str, Any]:
        return {name: col[index] for name, col in self._columns.items()}

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        for i in range(self.num_rows):
            yield self.row(i)

    def to_records(self) -> list[dict[str, Any]]:
        return list(self.iter_rows())

    def to_dict(self) -> dict[str, list[Any]]:
        return {name: col.values() for name, col in self._columns.items()}

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def take(self, indices: Sequence[int]) -> "DataFrame":
        """Return the rows at ``indices`` in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= self.num_rows):
            raise IndexError(f"row index out of range for {self.num_rows} rows")
        return DataFrame(col.take(idx) for col in self._columns.values())

    def select(self, mask: np.ndarray) -> "DataFrame":
        """Boolean-mask row selection — the vectorized fast path.

        ``mask`` must be a boolean array of length ``num_rows``; each
        column is sliced in one numpy operation without materializing
        Python row objects.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_rows,):
            raise ValueError("mask length must equal number of rows")
        return DataFrame(
            Column._from_arrays(
                col.name,
                col.dtype,
                col.values_array()[mask],
                col.mask()[mask],
            )
            for col in self._columns.values()
        )

    def column_codes(
        self, columns: Sequence[str] | None = None, dense: bool = True
    ) -> tuple[np.ndarray, int]:
        """Integer row-group codes over a set of columns.

        Returns ``(codes, n_groups)`` where two rows share a code exactly
        when they agree (None matching None) on every listed column — the
        vectorized equivalent of grouping by the tuple of cell values. An
        empty column list puts every row in one group.

        With ``dense=True`` codes are re-encoded to ``0..n_groups-1``.
        ``dense=False`` skips that extra sort: codes are merely distinct
        per group and ``n_groups`` is an upper bound on their range —
        enough for grouping/duplicate detection consumers.
        """
        names = list(columns) if columns is not None else self.column_names
        n = self.num_rows
        if not names:
            return np.zeros(n, dtype=np.int64), 1 if n else 0
        codes, span = self.column(names[0]).codes()
        for name in names[1:]:
            extra, extra_span = self.column(name).codes()
            if extra_span and span > (2**62) // max(extra_span, 1):
                # Composite key would overflow int64 — re-densify first.
                uniques, inverse = np.unique(codes, return_inverse=True)
                codes = inverse.astype(np.int64, copy=False)
                span = len(uniques)
            codes = codes * extra_span + extra
            span = span * extra_span
        if dense and len(names) > 1:
            uniques, inverse = np.unique(codes, return_inverse=True)
            codes = inverse.astype(np.int64, copy=False)
            span = len(uniques)
        return codes, span

    def head(self, n: int = 5) -> "DataFrame":
        return self.take(list(range(min(n, self.num_rows))))

    def copy(self) -> "DataFrame":
        return DataFrame(col.copy() for col in self._columns.values())

    def column_fingerprints(self) -> tuple[str, ...]:
        """Per-column content fingerprints in column order.

        The tuple is the frame-level cache key used by artifacts that
        depend on every column (duplicate rows, quality summaries); see
        :meth:`Column.fingerprint
        <repro.dataframe.column.Column.fingerprint>` for the contract.
        """
        return tuple(col.fingerprint() for col in self._columns.values())

    def mask_fingerprints(self) -> tuple[str, ...]:
        """Per-column missingness fingerprints in column order.

        Key for artifacts that depend only on null masks (the missing
        tables): repairs that overwrite values without changing
        missingness keep those artifacts cached.
        """
        return tuple(col.mask_fingerprint() for col in self._columns.values())

    # ------------------------------------------------------------------
    # Chunking (see repro.dataframe.chunked for the contract)
    # ------------------------------------------------------------------
    def to_chunked(self, chunk_size: int | None = None, spill=None):
        """Return a :class:`~repro.dataframe.chunked.ChunkedFrame` copy.

        ``chunk_size`` defaults to ``DATALENS_DEFAULT_CHUNK_SIZE`` (see
        :class:`repro.settings.Settings`), else ``DEFAULT_CHUNK_SIZE``
        rows (:mod:`repro.dataframe.chunked`). ``spill`` (a
        :class:`~repro.dataframe.spill.SpillStore` or True) writes the
        shards to disk — explicit-only; ``DATALENS_SPILL_BUDGET`` applies
        to ingestion, not to in-memory conversion.
        """
        from .chunked import ChunkedFrame

        return ChunkedFrame.from_frame(self, chunk_size, spill=spill)

    def rechunk(self, chunk_size: int | None = None):
        """Alias of :meth:`to_chunked` on a monolithic frame."""
        return self.to_chunked(chunk_size)

    @property
    def n_chunks(self) -> int:
        return 1

    @property
    def chunk_lengths(self) -> tuple[int, ...]:
        return (self.num_rows,)

    def iter_chunks(self) -> Iterator["DataFrame"]:
        """Yield the frame's row chunks in order — here, itself.

        Chunk-aware consumers (profiling partials, detection shard
        loops) iterate this uniformly; a monolithic frame is a single
        chunk.
        """
        yield self

    # ------------------------------------------------------------------
    # Missing data
    # ------------------------------------------------------------------
    def missing_cells(self) -> set[Cell]:
        cells: set[Cell] = set()
        for name, col in self._columns.items():
            for row in np.flatnonzero(col.mask()).tolist():
                cells.add((row, name))
        return cells

    def missing_count(self) -> int:
        return sum(col.missing_count() for col in self._columns.values())

    # ------------------------------------------------------------------
    # Numpy export
    # ------------------------------------------------------------------
    def to_numpy(self, columns: Sequence[str] | None = None) -> np.ndarray:
        """Stack numeric columns into an (n_rows, n_cols) float matrix."""
        names = list(columns) if columns is not None else self.numeric_column_names()
        if not names:
            return np.empty((self.num_rows, 0), dtype=float)
        return np.column_stack([self.column(n).to_numpy() for n in names])

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def duplicate_row_indices(self) -> list[int]:
        """Indices of rows that repeat an earlier row exactly."""
        if self.num_rows == 0 or self.num_columns == 0:
            return []
        codes, _ = self.column_codes(dense=False)
        _, first_index = np.unique(codes, return_index=True)
        is_first = np.zeros(self.num_rows, dtype=bool)
        is_first[first_index] = True
        return np.flatnonzero(~is_first).tolist()
