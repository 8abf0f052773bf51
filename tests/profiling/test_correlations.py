"""Correlation measure tests (cross-checked against scipy).

Each measure is read off the matrix the profile builds, so the scipy
cross-checks exercise the kernels production runs.
"""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.dataframe import DataFrame
from repro.profiling import (
    categorical_association_matrix,
    correlation_matrix,
    highly_correlated_pairs,
)


def _numeric(values):
    return [None if np.isnan(v) else float(v) for v in values]


def pearson(x, y):
    frame = DataFrame.from_dict({"x": _numeric(x), "y": _numeric(y)})
    return correlation_matrix(frame, "pearson")[1][0, 1]


def spearman(x, y):
    frame = DataFrame.from_dict({"x": _numeric(x), "y": _numeric(y)})
    return correlation_matrix(frame, "spearman")[1][0, 1]


def cramers_v(left, right):
    frame = DataFrame.from_dict(
        {"l": left, "r": right}, dtypes={"l": "string", "r": "string"}
    )
    return categorical_association_matrix(frame)[1][0, 1]


class TestPearson:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        y = 0.7 * x + rng.normal(scale=0.5, size=200)
        expected = scipy_stats.pearsonr(x, y).statistic
        assert pearson(x, y) == pytest.approx(expected, rel=1e-9)

    def test_pairwise_complete(self):
        x = np.array([1.0, 2.0, np.nan, 4.0])
        y = np.array([2.0, 4.0, 6.0, 8.0])
        assert pearson(x, y) == pytest.approx(1.0)

    def test_constant_is_zero(self):
        assert pearson(np.ones(10), np.arange(10.0)) == 0.0


class TestSpearman:
    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=150)
        y = x**3 + rng.normal(scale=0.1, size=150)
        expected = scipy_stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected, rel=1e-6)

    def test_ties_handled_like_scipy(self):
        x = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        expected = scipy_stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected, rel=1e-9)

    def test_monotone_is_one(self):
        x = np.arange(20.0)
        assert spearman(x, np.exp(x / 5.0)) == pytest.approx(1.0)


class TestCramersV:
    def test_perfect_association(self):
        left = ["a", "b", "a", "b"] * 20
        right = ["x", "y", "x", "y"] * 20
        assert cramers_v(left, right) > 0.9

    def test_independent_near_zero(self):
        rng = np.random.default_rng(2)
        left = [str(v) for v in rng.choice(["a", "b"], 400)]
        right = [str(v) for v in rng.choice(["x", "y"], 400)]
        assert cramers_v(left, right) < 0.2

    def test_single_level_is_zero(self):
        assert cramers_v(["a"] * 10, ["x", "y"] * 5) == 0.0

    def test_missing_pairs_dropped(self):
        left = ["a", None, "b", "a"]
        right = ["x", "y", None, "x"]
        assert 0.0 <= cramers_v(left, right) <= 1.0


class TestMatrices:
    def test_correlation_matrix_symmetric_unit_diagonal(self, nasa_dirty):
        names, matrix = correlation_matrix(nasa_dirty.dirty)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)
        assert len(names) == 6

    def test_spearman_matrix(self, nasa_dirty):
        _, matrix = correlation_matrix(nasa_dirty.dirty, "spearman")
        assert np.all(np.abs(matrix) <= 1.0 + 1e-9)

    def test_unknown_method(self, nasa_dirty):
        with pytest.raises(ValueError):
            correlation_matrix(nasa_dirty.dirty, "kendall")

    def test_categorical_matrix(self, hospital_dirty):
        names, matrix = categorical_association_matrix(hospital_dirty.dirty)
        assert len(names) >= 2
        assert np.allclose(matrix, matrix.T)

    def test_highly_correlated_pairs(self):
        frame = DataFrame.from_dict(
            {"a": [1.0, 2.0, 3.0, 4.0], "b": [2.0, 4.0, 6.0, 8.0], "c": [5, 1, 4, 2]}
        )
        pairs = highly_correlated_pairs(frame, threshold=0.99)
        assert ("a", "b", pytest.approx(1.0)) in [
            (left, right, value) for left, right, value in pairs
        ]
