"""Gradient boosting tests."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    mean_squared_error,
)


def _regression_data(seed: int = 0, n: int = 250):
    rng = np.random.default_rng(seed)
    features = rng.uniform(0, 6, size=(n, 2))
    target = (
        np.sin(features[:, 0]) * 3.0
        + 0.5 * features[:, 1]
        + rng.normal(0, 0.2, n)
    )
    return features, target


class TestGradientBoostingRegressor:
    def test_beats_single_shallow_tree(self):
        features, target = _regression_data()
        stump = DecisionTreeRegressor(max_depth=3).fit(features, target)
        boosted = GradientBoostingRegressor(
            n_estimators=40, max_depth=3, seed=0
        ).fit(features, target)
        mse_stump = mean_squared_error(target, stump.predict(features))
        mse_boost = mean_squared_error(target, boosted.predict(features))
        assert mse_boost < mse_stump

    def test_more_estimators_fit_better_in_sample(self):
        features, target = _regression_data(seed=1)
        small = GradientBoostingRegressor(n_estimators=5, seed=0).fit(
            features, target
        )
        large = GradientBoostingRegressor(n_estimators=60, seed=0).fit(
            features, target
        )
        assert mean_squared_error(
            target, large.predict(features)
        ) < mean_squared_error(target, small.predict(features))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.zeros((1, 2)))

    def test_constant_target(self):
        model = GradientBoostingRegressor(n_estimators=5).fit(
            np.zeros((10, 1)), [4.0] * 10
        )
        assert model.predict(np.zeros((1, 1)))[0] == pytest.approx(4.0, abs=1e-6)


class TestGradientBoostingClassifier:
    def test_binary_separable(self):
        rng = np.random.default_rng(0)
        left = rng.normal(0, 0.6, size=(60, 2))
        right = rng.normal(3, 0.6, size=(60, 2))
        features = np.vstack([left, right])
        labels = ["a"] * 60 + ["b"] * 60
        model = GradientBoostingClassifier(n_estimators=20, seed=0)
        model.fit(features, labels)
        assert np.mean(np.asarray(model.predict(features)) == labels) >= 0.97

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(1)
        centers = {(0.0, 0.0): "a", (4.0, 0.0): "b", (0.0, 4.0): "c"}
        features, labels = [], []
        for (cx, cy), label in centers.items():
            features.append(rng.normal([cx, cy], 0.5, size=(50, 2)))
            labels += [label] * 50
        features = np.vstack(features)
        model = GradientBoostingClassifier(n_estimators=25, seed=0)
        model.fit(features, labels)
        assert np.mean(np.asarray(model.predict(features)) == labels) >= 0.95

    def test_probabilities_normalized(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]] * 10)
        labels = ["x", "x", "y", "y"] * 10
        model = GradientBoostingClassifier(n_estimators=10, seed=0)
        model.fit(features, labels)
        proba = model.predict_proba(features[:5])
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all(proba >= 0.0)

    def test_nonlinear_boundary(self):
        """XOR-style data a linear model cannot separate."""
        rng = np.random.default_rng(2)
        features = rng.uniform(-1, 1, size=(300, 2))
        labels = [
            "pos" if (x > 0) == (y > 0) else "neg" for x, y in features
        ]
        model = GradientBoostingClassifier(
            n_estimators=40, max_depth=3, seed=0
        ).fit(features, labels)
        assert np.mean(np.asarray(model.predict(features)) == labels) >= 0.9

    def test_usable_as_downstream_model(self, beers_dirty):
        from repro.core import DownstreamScorer

        scorer = DownstreamScorer(
            "classification",
            "style",
            model="gradient_boosting",
            reference=beers_dirty.clean,
            seed=0,
        )
        f1 = scorer.score(beers_dirty.clean)
        assert f1 > 0.6
