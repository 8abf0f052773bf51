"""Tree ensembles: random forests and the isolation forest core.

The isolation forest here is the anomaly-scoring engine behind the paper's
"IF" outlier detector; the random forests serve as stronger downstream
models for the iterative-cleaning search space.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Sequence

import numpy as np

from .tree import DecisionTreeClassifier, DecisionTreeRegressor


class _BaseRandomForest:
    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int = 8,
        max_features: int | None = None,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.seed = seed
        self._trees: list[Any] = []

    def _make_tree(self, seed: int) -> Any:
        raise NotImplementedError

    def fit(self, features: np.ndarray, target: Sequence[Any]):
        matrix = np.asarray(features, dtype=float)
        labels = list(target)
        if matrix.shape[0] != len(labels):
            raise ValueError("features and target disagree on sample count")
        rng = np.random.default_rng(self.seed)
        n = matrix.shape[0]
        self._trees = []
        for i in range(self.n_estimators):
            indices = rng.integers(0, n, size=n)
            tree = self._make_tree(self.seed + i)
            tree.fit(matrix[indices], [labels[int(j)] for j in indices])
            self._trees.append(tree)
        return self

    def _tree_predictions(self, features: np.ndarray) -> list[list[Any]]:
        if not self._trees:
            raise RuntimeError("forest is not fitted")
        return [tree.predict(features) for tree in self._trees]


class RandomForestClassifier(_BaseRandomForest):
    """Bagged CART classifiers with majority voting."""

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            max_depth=self.max_depth, max_features=self.max_features, seed=seed
        )

    def predict(self, features: np.ndarray) -> list[Any]:
        votes = self._tree_predictions(features)
        out = []
        for i in range(len(votes[0])):
            counts = Counter(vote[i] for vote in votes)
            best = max(counts.values())
            winners = [label for label, count in counts.items() if count == best]
            out.append(sorted(winners, key=str)[0])
        return out


class RandomForestRegressor(_BaseRandomForest):
    """Bagged CART regressors with mean aggregation."""

    def _make_tree(self, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth, max_features=self.max_features, seed=seed
        )

    def predict(self, features: np.ndarray) -> list[float]:
        votes = np.asarray(self._tree_predictions(features), dtype=float)
        return [float(v) for v in votes.mean(axis=0)]


# ----------------------------------------------------------------------
# Isolation forest
# ----------------------------------------------------------------------
class _IsolationNode:
    __slots__ = ("feature", "threshold", "left", "right", "size")

    def __init__(self, size: int) -> None:
        self.feature: int | None = None
        self.threshold: float = 0.0
        self.left: "_IsolationNode | None" = None
        self.right: "_IsolationNode | None" = None
        self.size = size


def _average_path_length(n: int) -> float:
    """Expected path length of an unsuccessful BST search (Liu et al. 2008)."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = np.log(n - 1) + np.euler_gamma
    return 2.0 * harmonic - 2.0 * (n - 1) / n


class IsolationForest:
    """Isolation forest anomaly scorer.

    ``score_samples`` returns the standard anomaly score in (0, 1]; larger
    means more anomalous. ``outliers`` flags the top ``contamination``
    fraction of those scores.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_samples: int = 256,
        contamination: float = 0.05,
        seed: int = 0,
    ) -> None:
        if not 0.0 < contamination < 0.5:
            raise ValueError("contamination must be in (0, 0.5)")
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.contamination = contamination
        self.seed = seed
        self._trees: list[_IsolationNode] = []
        self._subsample_size = 0

    def fit(self, matrix: np.ndarray) -> "IsolationForest":
        data = np.asarray(matrix, dtype=float)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError("matrix must be non-empty and 2-D")
        rng = np.random.default_rng(self.seed)
        n = data.shape[0]
        self._subsample_size = min(self.max_samples, n)
        height_limit = int(np.ceil(np.log2(max(2, self._subsample_size))))
        self._trees = []
        for _ in range(self.n_estimators):
            indices = rng.choice(n, size=self._subsample_size, replace=False)
            self._trees.append(self._grow(data[indices], 0, height_limit, rng))
        return self

    def _grow(
        self,
        data: np.ndarray,
        depth: int,
        height_limit: int,
        rng: np.random.Generator,
    ) -> _IsolationNode:
        node = _IsolationNode(size=data.shape[0])
        if depth >= height_limit or data.shape[0] <= 1:
            return node
        spans = data.max(axis=0) - data.min(axis=0)
        candidates = np.flatnonzero(spans > 0)
        if len(candidates) == 0:
            return node
        feature = int(rng.choice(candidates))
        low = float(data[:, feature].min())
        high = float(data[:, feature].max())
        threshold = float(rng.uniform(low, high))
        mask = data[:, feature] < threshold
        if not mask.any() or mask.all():
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(data[mask], depth + 1, height_limit, rng)
        node.right = self._grow(data[~mask], depth + 1, height_limit, rng)
        return node

    def _path_length(self, row: np.ndarray, node: _IsolationNode, depth: int) -> float:
        while node.feature is not None:
            node = node.left if row[node.feature] < node.threshold else node.right
            depth += 1
        return depth + _average_path_length(node.size)

    def score_samples(self, matrix: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("forest is not fitted")
        data = np.asarray(matrix, dtype=float)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        expected = _average_path_length(self._subsample_size)
        scores = []
        for row in data:
            mean_path = float(
                np.mean([self._path_length(row, tree, 0) for tree in self._trees])
            )
            scores.append(2.0 ** (-mean_path / max(expected, 1e-9)))
        return np.array(scores)

    def outliers(self, scores: np.ndarray) -> np.ndarray:
        """Boolean outlier mask over the rows :meth:`score_samples` gave
        ``scores``: those above both the ``1 - contamination`` quantile
        and 0.5."""
        threshold = np.quantile(scores, 1.0 - self.contamination)
        return scores > max(threshold, 0.5)
