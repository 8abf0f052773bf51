"""Descriptive statistics tests (cross-checked against numpy/scipy)."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.dataframe import Column, DataFrame, SpillStore
from repro.profiling import (
    categorical_summary,
    column_summary,
    numeric_summary,
    profile,
)


class TestNumericSummary:
    def test_basic_moments(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        summary = numeric_summary(Column("x", values))
        assert summary["mean"] == pytest.approx(3.0)
        assert summary["std"] == pytest.approx(np.std(values, ddof=1))
        assert summary["median"] == pytest.approx(3.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 5.0
        assert summary["iqr"] == pytest.approx(2.0)

    def test_skewness_matches_scipy(self):
        rng = np.random.default_rng(0)
        values = list(rng.exponential(2.0, 500))
        summary = numeric_summary(Column("x", values))
        assert summary["skewness"] == pytest.approx(
            scipy_stats.skew(values), rel=1e-6
        )

    def test_kurtosis_matches_scipy(self):
        rng = np.random.default_rng(1)
        values = list(rng.normal(0, 1, 500))
        summary = numeric_summary(Column("x", values))
        assert summary["kurtosis"] == pytest.approx(
            scipy_stats.kurtosis(values), rel=1e-6, abs=1e-6
        )

    def test_zeros_and_negatives(self):
        summary = numeric_summary(Column("x", [-1.0, 0.0, 0.0, 2.0]))
        assert summary["zeros"] == 2
        assert summary["negatives"] == 1

    def test_missing_skipped(self):
        summary = numeric_summary(Column("x", [1.0, None, 3.0]))
        assert summary["count"] == 2
        assert summary["mean"] == pytest.approx(2.0)

    def test_empty_column(self):
        assert numeric_summary(Column("x", [None], dtype="float")) == {"count": 0}

    def test_monotonic_flags(self):
        assert numeric_summary(Column("x", [1, 2, 3]))["monotonic_increasing"]
        assert numeric_summary(Column("x", [3, 2, 1]))["monotonic_decreasing"]


    def test_seam_values_profile_identically_on_every_layout(self, tmp_path):
        """Row 6 starts a shard at chunk sizes 2 and 3. The column's only
        zero ends the shard before it, its only negative value starts it,
        and the one decrease between them crosses that seam."""
        values = [None] * 5 + [0.0, -1.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        frame = DataFrame.from_dict({"x": values})
        spilled = frame.to_chunked(
            2, spill=SpillStore(budget_bytes=64, directory=tmp_path)
        )
        assert spilled.column("x").spilled
        reference = profile(frame).to_dict()
        stats = reference["columns"][0]["statistics"]
        assert (stats["zeros"], stats["negatives"]) == (1, 1)
        assert not stats["monotonic_increasing"]
        assert not stats["monotonic_decreasing"]
        for layout in (frame.to_chunked(2), frame.to_chunked(3), spilled):
            assert profile(layout).to_dict() == reference


class TestCategoricalSummary:
    def test_mode_and_distinct(self):
        summary = categorical_summary(Column("c", ["a", "a", "b", None]))
        assert summary["mode"] == "a"
        assert summary["mode_count"] == 2
        assert summary["distinct"] == 2
        assert summary["count"] == 3

    def test_top_frequencies_sorted(self):
        summary = categorical_summary(Column("c", ["a"] * 5 + ["b"] * 3 + ["c"]))
        tops = summary["top_frequencies"]
        assert tops[0] == {"value": "a", "count": 5}
        assert tops[1]["value"] == "b"

    def test_entropy_uniform_maximal(self):
        uniform = categorical_summary(Column("c", ["a", "b", "c", "d"]))
        skewed = categorical_summary(Column("c", ["a", "a", "a", "b"]))
        assert uniform["entropy"] > skewed["entropy"]
        assert uniform["entropy"] == pytest.approx(2.0)

    def test_lengths(self):
        summary = categorical_summary(Column("c", ["ab", "abcd"]))
        assert summary["min_length"] == 2
        assert summary["max_length"] == 4
        assert summary["mean_length"] == pytest.approx(3.0)


class TestColumnSummary:
    def test_numeric_dispatch(self):
        summary = column_summary(Column("x", [1.0, 2.0]))
        assert summary["is_numeric"]
        assert "mean" in summary["statistics"]

    def test_categorical_dispatch(self):
        summary = column_summary(Column("c", ["a", "b"]))
        assert not summary["is_numeric"]
        assert "mode" in summary["statistics"]

    def test_missing_fraction(self):
        summary = column_summary(Column("x", [1, None, None, 4]))
        assert summary["missing_fraction"] == pytest.approx(0.5)


class TestNumericEdgeCases:
    """Regressions found while vectorizing the summary kernels."""

    def test_cv_all_zero_column_is_zero(self):
        # All values identical (zero) means zero relative variation —
        # the old implementation returned inf for any zero mean.
        summary = numeric_summary(Column("x", [0.0, 0.0, 0.0, 0.0]))
        assert summary["coefficient_of_variation"] == 0.0

    def test_cv_zero_mean_with_spread_is_inf(self):
        summary = numeric_summary(Column("x", [-1.0, 1.0, -2.0, 2.0]))
        assert summary["mean"] == pytest.approx(0.0)
        assert summary["coefficient_of_variation"] == float("inf")

    def test_cv_single_zero_value(self):
        summary = numeric_summary(Column("x", [0]))
        assert summary["coefficient_of_variation"] == 0.0

    def test_cv_nonzero_mean(self):
        summary = numeric_summary(Column("x", [2.0, 4.0]))
        expected = summary["std"] / summary["mean"]
        assert summary["coefficient_of_variation"] == pytest.approx(expected)

    def test_single_value_column_no_warnings(self):
        # ddof=1 on one observation divides by zero inside numpy; the
        # summary must special-case it silently.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = numeric_summary(Column("x", [7.5]))
        assert summary["count"] == 1
        assert summary["std"] == 0.0
        assert summary["variance"] == 0.0
        assert summary["skewness"] == 0.0
        assert summary["kurtosis"] == 0.0

    def test_single_value_after_missing_no_warnings(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = numeric_summary(Column("x", [None, 3, None]))
        assert summary["count"] == 1
        assert summary["std"] == 0.0
