"""Model tests: trees, kNN, linear, and forests."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    KNeighborsClassifier,
    KNeighborsRegressor,
    LinearRegression,
    LogisticRegression,
    RandomForestClassifier,
    RandomForestRegressor,
    mean_squared_error,
)


def _blobs(seed: int = 0, n: int = 120):
    """Two well-separated Gaussian clusters with labels."""
    rng = np.random.default_rng(seed)
    left = rng.normal(0.0, 0.5, size=(n // 2, 2))
    right = rng.normal(4.0, 0.5, size=(n // 2, 2))
    features = np.vstack([left, right])
    labels = ["a"] * (n // 2) + ["b"] * (n // 2)
    return features, labels


class TestDecisionTreeClassifier:
    def test_separable_data(self):
        features, labels = _blobs()
        model = DecisionTreeClassifier(max_depth=3).fit(features, labels)
        assert np.mean(np.asarray(model.predict(features)) == labels) >= 0.98

    def test_depth_limit_respected(self):
        features, labels = _blobs()
        model = DecisionTreeClassifier(max_depth=2).fit(features, labels)
        assert model.depth() <= 2

    def test_single_class(self):
        model = DecisionTreeClassifier().fit(np.zeros((5, 2)), ["x"] * 5)
        assert model.predict(np.zeros((2, 2))) == ["x", "x"]

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((3, 2)), ["a"] * 2)

    def test_xor_needs_depth_two(self):
        features = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 8, dtype=float)
        labels = [int(a) ^ int(b) for a, b in features]
        model = DecisionTreeClassifier(max_depth=3).fit(features, labels)
        assert np.mean(np.asarray(model.predict(features)) == labels) == 1.0


class TestDecisionTreeRegressor:
    def test_step_function(self):
        features = np.arange(40, dtype=float).reshape(-1, 1)
        target = [0.0 if x < 20 else 10.0 for x in features[:, 0]]
        model = DecisionTreeRegressor(max_depth=2).fit(features, target)
        predictions = model.predict(features)
        assert mean_squared_error(target, predictions) < 0.5

    def test_smooth_function_improves_with_depth(self):
        rng = np.random.default_rng(1)
        features = rng.uniform(0, 10, size=(300, 1))
        target = np.sin(features[:, 0])
        shallow = DecisionTreeRegressor(max_depth=2).fit(features, target)
        deep = DecisionTreeRegressor(max_depth=8).fit(features, target)
        mse_shallow = mean_squared_error(target, shallow.predict(features))
        mse_deep = mean_squared_error(target, deep.predict(features))
        assert mse_deep < mse_shallow

    def test_constant_target(self):
        model = DecisionTreeRegressor().fit(np.zeros((4, 1)), [5.0] * 4)
        assert model.predict(np.zeros((1, 1)))[0] == pytest.approx(5.0)


class TestKNN:
    def test_classifier_majority(self):
        features, labels = _blobs()
        model = KNeighborsClassifier(n_neighbors=5).fit(features, labels)
        assert model.predict(np.array([[0.0, 0.0]]))[0] == "a"
        assert model.predict(np.array([[4.0, 4.0]]))[0] == "b"

    def test_regressor_mean(self):
        features = np.array([[0.0], [1.0], [10.0]])
        model = KNeighborsRegressor(n_neighbors=2).fit(features, [0.0, 2.0, 100.0])
        assert model.predict(np.array([[0.5]]))[0] == pytest.approx(1.0)

    def test_k_larger_than_data(self):
        model = KNeighborsClassifier(n_neighbors=50).fit(
            np.zeros((3, 1)), ["a", "a", "b"]
        )
        assert model.predict(np.zeros((1, 1)))[0] == "a"

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(n_neighbors=0)

    def test_tie_breaks_deterministically(self):
        features = np.array([[0.0], [1.0]])
        model = KNeighborsClassifier(n_neighbors=2).fit(features, ["b", "a"])
        assert model.predict(np.array([[0.5]]))[0] == "a"

    def test_distance_ties_take_lowest_train_indices(self):
        # four equidistant points; stable selection keeps train order,
        # so the first two (both "a") win over the later "b"s.
        features = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        model = KNeighborsClassifier(n_neighbors=2).fit(
            features, ["a", "a", "b", "b"]
        )
        assert model.predict(np.array([[0.0]]))[0] == "a"

    def test_nan_features_fall_back_to_stable_argsort(self):
        features = np.array([[0.0], [1.0], [2.0]])
        model = KNeighborsClassifier(n_neighbors=2).fit(
            features, ["a", "b", "c"]
        )
        prediction = model.predict(np.array([[np.nan], [0.1]]))
        # NaN distances sort last either way; the finite query behaves
        # exactly like the batched path.
        assert prediction[1] == "a"
        assert prediction[0] in {"a", "b", "c"}

    def test_batched_predict_matches_per_row(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(40, 3))
        labels = [f"l{int(v)}" for v in rng.integers(0, 4, 40)]
        model = KNeighborsClassifier(n_neighbors=5).fit(features, labels)
        queries = rng.normal(size=(17, 3))
        batched = model.predict(queries)
        per_row = [model.predict(row)[0] for row in queries]
        assert batched == per_row


class TestLinear:
    def test_exact_line(self):
        features = np.array([[1.0], [2.0], [3.0]])
        model = LinearRegression().fit(features, [3.0, 5.0, 7.0])
        assert model.coef_[0] == pytest.approx(2.0)
        assert model.intercept_ == pytest.approx(1.0)

    def test_no_intercept(self):
        features = np.array([[1.0], [2.0]])
        model = LinearRegression(fit_intercept=False).fit(features, [2.0, 4.0])
        assert model.intercept_ == 0.0
        assert model.coef_[0] == pytest.approx(2.0)

    def test_logistic_separable(self):
        features, labels = _blobs()
        model = LogisticRegression(n_iterations=200).fit(features, labels)
        assert np.mean(np.asarray(model.predict(features)) == labels) >= 0.97

    def test_logistic_probabilities_sum_to_one(self):
        features, labels = _blobs()
        model = LogisticRegression(n_iterations=50).fit(features, labels)
        proba = model.predict_proba(features[:5])
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_logistic_multiclass(self):
        rng = np.random.default_rng(0)
        centers = {(0.0, 0.0): "a", (5.0, 0.0): "b", (0.0, 5.0): "c"}
        features, labels = [], []
        for (cx, cy), label in centers.items():
            features.append(rng.normal([cx, cy], 0.4, size=(40, 2)))
            labels += [label] * 40
        features = np.vstack(features)
        model = LogisticRegression(n_iterations=300).fit(features, labels)
        assert np.mean(np.asarray(model.predict(features)) == labels) >= 0.95


class TestForests:
    def test_classifier_beats_chance(self):
        features, labels = _blobs(seed=3)
        model = RandomForestClassifier(n_estimators=5, max_depth=3).fit(
            features, labels
        )
        assert np.mean(np.asarray(model.predict(features)) == labels) >= 0.95

    def test_regressor_reduces_variance(self):
        rng = np.random.default_rng(2)
        features = rng.uniform(0, 10, size=(200, 1))
        target = 2.0 * features[:, 0] + rng.normal(0, 0.5, 200)
        model = RandomForestRegressor(n_estimators=8, max_depth=6).fit(
            features, target
        )
        mse = mean_squared_error(target, model.predict(features))
        assert mse < float(np.var(target))

    def test_deterministic_given_seed(self):
        features, labels = _blobs(seed=4)
        a = RandomForestClassifier(n_estimators=4, seed=9).fit(features, labels)
        b = RandomForestClassifier(n_estimators=4, seed=9).fit(features, labels)
        assert a.predict(features) == b.predict(features)
