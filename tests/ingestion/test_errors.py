"""Error-injection tests: masks must exactly describe the corruption."""

import numpy as np
import pytest

from repro.dataframe import Cell, DataFrame
from repro.detection import DetectionResult, summarize_by_column
from repro.ingestion import (
    DISGUISED,
    MISSING,
    NUMERIC_SENTINELS,
    OUTLIER,
    SUBTLE,
    SWAP,
    TYPO,
    ErrorInjector,
    make_dirty,
    nasa,
)


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


class TestInjector:
    def test_mask_matches_changed_cells(self):
        clean = nasa(200)
        injector = ErrorInjector(
            missing_rate=0.05, outlier_rate=0.05, disguised_rate=0.03, seed=4
        )
        dirty, cells_by_type = injector.inject(clean)
        mask = set()
        for cells in cells_by_type.values():
            mask |= cells
        changed = {
            (row, name)
            for name in clean.column_names
            for row in range(clean.num_rows)
            if dirty.at(row, name) != clean.at(row, name)
        }
        assert changed <= mask
        # Every masked cell was actually modified except degenerate cases
        # (swap with single category); for NASA numeric errors all change.
        assert mask == changed

    def test_missing_cells_are_none(self):
        clean = nasa(150)
        dirty, cells = ErrorInjector(missing_rate=0.1, seed=1).inject(clean)
        for row, name in cells[MISSING]:
            assert dirty.at(row, name) is None

    def test_outliers_are_extreme(self):
        clean = nasa(300)
        dirty, cells = ErrorInjector(
            outlier_rate=0.05, column_jitter=False, seed=2
        ).inject(clean)
        import numpy as np

        for row, name in cells[OUTLIER]:
            values = clean.column(name).to_numpy()
            spread = float(np.std(values)) or 1.0
            assert abs(dirty.at(row, name) - float(np.mean(values))) > 3 * spread

    def test_disguised_uses_sentinels(self):
        clean = nasa(150)
        dirty, cells = ErrorInjector(disguised_rate=0.05, seed=3).inject(clean)
        for row, name in cells[DISGUISED]:
            assert float(dirty.at(row, name)) in [float(s) for s in NUMERIC_SENTINELS]

    def test_subtle_values_stay_in_domain(self):
        clean = nasa(300)
        dirty, cells = ErrorInjector(subtle_rate=0.05, seed=5).inject(clean)
        for row, name in cells[SUBTLE]:
            domain = set(clean.column(name).non_missing())
            assert dirty.at(row, name) in domain

    def test_typos_on_strings(self):
        clean = DataFrame.from_dict({"s": ["alpha", "beta", "gamma"] * 20})
        dirty, cells = ErrorInjector(typo_rate=0.2, seed=6).inject(clean)
        assert cells[TYPO]
        for row, name in cells[TYPO]:
            assert dirty.at(row, name) != clean.at(row, name)

    def test_swap_uses_other_category(self):
        clean = DataFrame.from_dict({"s": ["a", "b", "c"] * 30})
        dirty, cells = ErrorInjector(swap_rate=0.2, seed=7).inject(clean)
        for row, name in cells[SWAP]:
            assert dirty.at(row, name) in {"a", "b", "c"}
            assert dirty.at(row, name) != clean.at(row, name)

    def test_no_double_corruption(self):
        clean = nasa(100)
        injector = ErrorInjector(
            missing_rate=0.2, outlier_rate=0.2, disguised_rate=0.2, seed=8
        )
        _, cells_by_type = injector.inject(clean)
        groups = list(cells_by_type.values())
        for i, left in enumerate(groups):
            for right in groups[i + 1 :]:
                assert not (left & right)

    def test_columns_filter(self):
        clean = nasa(100)
        injector = ErrorInjector(
            missing_rate=0.2, columns=["Angle"], seed=9
        )
        _, cells = injector.inject(clean)
        assert all(name == "Angle" for _, name in cells[MISSING])

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ErrorInjector(missing_rate=1.5)

    def test_deterministic(self):
        clean = nasa(120)
        a = ErrorInjector(missing_rate=0.1, seed=11).inject(clean)
        b = ErrorInjector(missing_rate=0.1, seed=11).inject(clean)
        assert a[0] == b[0]
        assert a[1] == b[1]


class TestFDViolationInjection:
    def test_breaks_dependency(self):
        from repro.fd import FunctionalDependency
        from repro.ingestion import hospital

        frame = hospital(300).copy()
        cells = inject_fd_violations(frame, "ZipCode", "City", rate=0.05, seed=0)
        assert cells
        assert FunctionalDependency(("ZipCode",), "City").violations(frame)


class TestMakeDirty:
    def test_bundle_consistency(self, nasa_dirty):
        assert nasa_dirty.clean.shape == nasa_dirty.dirty.shape
        assert nasa_dirty.task == "regression"
        assert nasa_dirty.target == "Sound Pressure"
        assert 0.03 < nasa_dirty.error_rate < 0.25

    def test_error_type_lookup(self, nasa_dirty):
        """Every corrupted cell carries exactly one error type."""
        groups = nasa_dirty.cells_by_type
        assert sum(len(cells) for cells in groups.values()) == len(
            nasa_dirty.mask
        )
        cell = next(iter(groups[MISSING]))
        assert [t for t, cells in groups.items() if cell in cells] == [MISSING]
        assert nasa_dirty.dirty.at(*cell) is None
        assert (-1, "nope") not in nasa_dirty.mask

    def test_column_error_rates(self, nasa_dirty):
        """Figure 4's per-column rates over the injected mask."""
        truth = DetectionResult("truth", nasa_dirty.mask)
        rates = summarize_by_column({"truth": truth}, nasa_dirty.dirty)["truth"]
        assert set(rates) == set(nasa_dirty.dirty.column_names)
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())
        n_rows = nasa_dirty.dirty.num_rows
        assert sum(rates.values()) * n_rows == pytest.approx(
            len(nasa_dirty.mask)
        )

    def test_overrides(self):
        bundle = make_dirty("nasa", seed=0, overrides={"missing_rate": 0.0})
        assert MISSING not in bundle.cells_by_type
