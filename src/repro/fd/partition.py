"""Stripped partitions — the core data structure of TANE-style FD discovery.

A partition groups row indices by their value combination on an attribute
set; *stripped* means singleton groups are dropped. The error measure
``e(X) = ||pi_X|| - |pi_X|`` lets FD validity be decided by comparing two
integers: ``X -> A`` holds exactly when ``e(X) == e(X ∪ {A})``.

Storage contract: partitions are array-native. The equivalence classes
live in two numpy arrays — ``_rows`` (every covered row index, grouped
contiguously, ascending within each group) and ``_sizes`` (one length
per group) — built from the columnar engine's dense integer codes
(:meth:`repro.dataframe.Column.codes` /
:meth:`repro.dataframe.DataFrame.column_codes`). Equal cells share a
code and missing cells form their own group, so grouping and refinement
run as numpy sort kernels, and ``size``/``error`` are O(1). The public
``classes`` attribute (a sorted list of sorted row-index lists of plain
Python ints) is materialized lazily and cached, so consumers and tests
are unaffected.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..dataframe import DataFrame

_EMPTY = np.empty(0, dtype=np.int64)


def _group_rows_by_codes(
    codes: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group ``rows`` by integer codes into (rows, sizes) storage arrays.

    Codes need not be dense — one stable sort finds the groups. Singleton
    groups are dropped. ``rows`` must be ordered so that members of one
    code appear in ascending row order (true for positional codes and for
    refinement subsets of existing partitions). Groups come out in code
    order; the lexicographic ordering the sequence-era implementation
    exposed is applied lazily by :attr:`StrippedPartition.classes`.
    """
    n = codes.size
    if n == 0:
        return _EMPTY, _EMPTY
    order = codes.argsort(kind="stable")
    sorted_codes = codes[order]
    grouped_all = rows[order]
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=is_start[1:])
    starts_all = np.flatnonzero(is_start)
    sizes_all = np.empty(starts_all.size, dtype=np.int64)
    np.subtract(starts_all[1:], starts_all[:-1], out=sizes_all[:-1])
    sizes_all[-1] = n - starts_all[-1]
    big = sizes_all >= 2
    if not big.any():
        return _EMPTY, _EMPTY
    return grouped_all[np.repeat(big, sizes_all)], sizes_all[big]


def stripped_error(codes: np.ndarray) -> int:
    """e(pi) of the partition induced by integer codes (need not be dense).

    Singleton groups contribute one row and one class each, cancelling in
    ``||pi|| - |pi|`` — so the stripped error is simply the number of
    keys minus the number of distinct keys, one ``np.sort`` away. This is
    the cheapest way to evaluate an FD candidate when the refined
    partition itself is never needed.
    """
    n = codes.size
    if n == 0:
        return 0
    sorted_keys = np.sort(codes)
    n_groups = 1 + int(np.count_nonzero(sorted_keys[1:] != sorted_keys[:-1]))
    return n - n_groups


def error_from_columns(
    frame: DataFrame, columns: Iterable[str], store=None
) -> int:
    """e(pi_X) straight from cached column codes, skipping class building.

    With a ``store``, the error integer is cached under the fingerprints
    of the named columns — repeated FD discovery over an unchanged (or
    partially repaired) frame skips the sort entirely.
    """
    names = list(columns)
    if not store:  # falsy when disabled: cold path, no hashing
        codes, _ = frame.column_codes(names, dense=False)
        return stripped_error(codes)
    # The error integer is independent of attribute order (grouping by a
    # composite key), so the key sorts the fingerprints — {A,B} and {B,A}
    # share one entry even when callers iterate sets. num_rows rides in
    # params for the empty attribute set, which has no fingerprints to
    # encode the frame size (same guard as from_columns).
    return store.cached(
        "fd:error",
        tuple(sorted(frame.column(name).fingerprint() for name in names)),
        (frame.num_rows,),
        lambda: stripped_error(frame.column_codes(names, dense=False)[0]),
    )


class StrippedPartition:
    """Equivalence classes (size >= 2) of rows over one attribute set."""

    __slots__ = ("_rows", "_sizes", "_classes", "_ids", "n_rows")

    def __init__(self, classes: Iterable[Iterable[int]], n_rows: int) -> None:
        # Materialize each group exactly once — a group may be a generator,
        # which a separate len(list(group)) probe would silently exhaust.
        materialized = [sorted(group) for group in classes]
        kept = [group for group in materialized if len(group) >= 2]
        # Normalize ordering so equality/repr are deterministic.
        kept.sort()
        self._classes: list[list[int]] | None = kept
        self._rows = np.fromiter(
            (row for group in kept for row in group),
            dtype=np.int64,
            count=sum(len(group) for group in kept),
        )
        self._sizes = np.array([len(group) for group in kept], dtype=np.int64)
        self._ids: np.ndarray | None = None
        self.n_rows = n_rows

    @classmethod
    def _from_arrays(
        cls, rows: np.ndarray, sizes: np.ndarray, n_rows: int
    ) -> "StrippedPartition":
        partition = cls.__new__(cls)
        partition._rows = rows
        partition._sizes = sizes
        partition._classes = None
        partition._ids = None
        partition.n_rows = n_rows
        return partition

    @classmethod
    def _from_codes(cls, codes: np.ndarray, n_rows: int) -> "StrippedPartition":
        positions = np.arange(codes.size, dtype=np.int64)
        rows, sizes = _group_rows_by_codes(codes, positions)
        return cls._from_arrays(rows, sizes, n_rows)

    # ------------------------------------------------------------------
    @classmethod
    def from_column(
        cls, frame: DataFrame, column: str, store=None
    ) -> "StrippedPartition":
        """Partition over one attribute, optionally artifact-cached.

        Partitions are pure functions of column content, so with a
        ``store`` they are keyed by the column's fingerprint and shared
        across discovery runs (partition objects are read-mostly: their
        lazy ``classes``/``_ids`` materialization is idempotent, and
        refinement builds new partitions rather than mutating).
        """
        if store:
            # Same key layout as from_columns, so single-attribute
            # partitions are shared between both entry points.
            return store.cached(
                "fd:partition",
                (frame.column(column).fingerprint(),),
                (frame.num_rows,),
                lambda: cls.from_column(frame, column),
            )
        codes, _ = frame.column(column).codes()
        return cls._from_codes(codes, frame.num_rows)

    @classmethod
    def from_columns(
        cls, frame: DataFrame, columns: Iterable[str], store=None
    ) -> "StrippedPartition":
        names = list(columns)
        if store:
            # num_rows rides in params: the empty attribute set has no
            # column fingerprints to encode the row count (pi_∅ covers
            # every row), and it keeps distinct-shape frames distinct.
            return store.cached(
                "fd:partition",
                tuple(frame.column(name).fingerprint() for name in names),
                (frame.num_rows,),
                lambda: cls.from_columns(frame, names),
            )
        if not names:
            # pi_∅ is one class containing every row.
            return cls([list(range(frame.num_rows))], frame.num_rows)
        codes, _ = frame.column_codes(names, dense=False)
        return cls._from_codes(codes, frame.num_rows)

    # ------------------------------------------------------------------
    @property
    def classes(self) -> list[list[int]]:
        """Equivalence classes as a sorted list of sorted row lists."""
        if self._classes is None:
            flat = self._rows.tolist()
            out: list[list[int]] = []
            start = 0
            for size in self._sizes.tolist():
                out.append(flat[start : start + size])
                start += size
            out.sort()
            self._classes = out
        return self._classes

    @property
    def num_classes(self) -> int:
        return int(self._sizes.size)

    @property
    def size(self) -> int:
        """||pi||: number of rows covered by non-singleton classes."""
        return int(self._rows.size)

    @property
    def error(self) -> int:
        """e(pi) = ||pi|| - |pi| — zero iff the attribute set is a superkey."""
        return self.size - self.num_classes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StrippedPartition):
            return NotImplemented
        # Internal group order varies with construction path; the lazily
        # sorted classes view is the canonical form.
        return self.n_rows == other.n_rows and self.classes == other.classes

    def __repr__(self) -> str:
        return (
            f"StrippedPartition(classes={self.num_classes}, "
            f"size={self.size}, rows={self.n_rows})"
        )

    # ------------------------------------------------------------------
    def _group_ids(self) -> np.ndarray:
        """Per-covered-row group id, parallel to ``_rows`` (cached)."""
        if self._ids is None:
            self._ids = np.repeat(
                np.arange(self._sizes.size, dtype=np.int64), self._sizes
            )
        return self._ids

    def product(self, other: "StrippedPartition") -> "StrippedPartition":
        """Refinement pi_X * pi_Y = pi_{X ∪ Y} (vectorized code pairing).

        Rows outside one of self's classes get a unique negative owner
        sentinel, so their pair keys are distinct — they fall into
        singleton groups that the grouping kernel strips for free.
        """
        if self.n_rows != other.n_rows:
            raise ValueError("partitions cover different row counts")
        if not self._sizes.size or not other._sizes.size:
            return StrippedPartition._from_arrays(_EMPTY, _EMPTY, self.n_rows)
        owner = np.arange(-1, -self.n_rows - 1, -1, dtype=np.int64)
        owner[self._rows] = self._group_ids()
        pair_key = owner[other._rows] * other._sizes.size + other._group_ids()
        grouped, sizes = _group_rows_by_codes(pair_key, other._rows)
        return StrippedPartition._from_arrays(grouped, sizes, self.n_rows)

    def product_error(self, other: "StrippedPartition") -> int:
        """e(pi_X * pi_Y) without materializing the refined partition.

        Used for the deepest lattice level TANE explores, where only the
        error integer is ever read — a plain ``np.sort`` over the pair
        keys replaces the argsort + row gathering of :meth:`product`.
        """
        if self.n_rows != other.n_rows:
            raise ValueError("partitions cover different row counts")
        if not self._sizes.size or not other._sizes.size:
            return 0
        owner = np.arange(-1, -self.n_rows - 1, -1, dtype=np.int64)
        owner[self._rows] = self._group_ids()
        pair_key = owner[other._rows] * other._sizes.size + other._group_ids()
        return stripped_error(pair_key)

    def violation_pair(self, codes: np.ndarray) -> tuple[int, int] | None:
        """First row pair disagreeing on ``codes`` inside one class.

        Scans classes in order and returns ``(anchor, offender)`` — the
        class's first row and its first row whose code differs — or None
        when every class is constant on ``codes`` (i.e. X -> A holds).
        """
        if not self._rows.size:
            return None
        anchors = np.repeat(
            self._rows[np.cumsum(self._sizes) - self._sizes], self._sizes
        )
        differing = np.flatnonzero(codes[self._rows] != codes[anchors])
        if not differing.size:
            return None
        position = int(differing[0])
        return int(anchors[position]), int(self._rows[position])
