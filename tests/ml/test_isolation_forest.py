"""Isolation forest behaviour tests."""

import numpy as np
import pytest

from repro.ml import IsolationForest


def _data_with_outliers(seed: int = 0):
    rng = np.random.default_rng(seed)
    inliers = rng.normal(0.0, 1.0, size=(200, 2))
    outliers = np.array([[8.0, 8.0], [-9.0, 7.0], [10.0, -10.0]])
    return np.vstack([inliers, outliers])


class TestIsolationForest:
    def test_outliers_score_higher(self):
        data = _data_with_outliers()
        forest = IsolationForest(n_estimators=50, seed=1).fit(data)
        scores = forest.score_samples(data)
        assert scores[200:].min() > np.median(scores[:200])

    def test_predict_flags_planted_outliers(self):
        data = _data_with_outliers()
        forest = IsolationForest(
            n_estimators=50, contamination=0.02, seed=1
        ).fit(data)
        flags = forest.outliers(forest.score_samples(data))
        assert flags[200:].all()

    def test_contamination_bounds(self):
        with pytest.raises(ValueError):
            IsolationForest(contamination=0.0)
        with pytest.raises(ValueError):
            IsolationForest(contamination=0.7)

    def test_deterministic_given_seed(self):
        data = _data_with_outliers()
        a = IsolationForest(n_estimators=20, seed=3).fit(data).score_samples(data)
        b = IsolationForest(n_estimators=20, seed=3).fit(data).score_samples(data)
        assert np.allclose(a, b)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            IsolationForest().score_samples(np.zeros((1, 2)))

    def test_scores_in_unit_interval(self):
        data = _data_with_outliers()
        scores = IsolationForest(seed=0).fit(data).score_samples(data)
        assert np.all(scores > 0.0)
        assert np.all(scores <= 1.0)

    def test_constant_data_no_flags(self):
        data = np.zeros((50, 2))
        forest = IsolationForest(n_estimators=10, seed=0).fit(data)
        assert not forest.outliers(forest.score_samples(data)).any()
