"""CART decision trees — the paper's downstream model and numeric imputer.

The implementation is a straightforward CART: greedy binary splits chosen
by impurity reduction (Gini for classification, variance for regression),
with depth / minimum-samples stopping rules. Split-point candidates are
midpoints between sorted unique feature values, subsampled for speed on
large columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

_MAX_SPLIT_CANDIDATES = 32


@dataclass
class _Node:
    feature: int | None = None
    threshold: float | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None
    prediction: Any = None

    def is_leaf(self) -> bool:
        return self.feature is None


class _BaseDecisionTree:
    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        seed: int = 0,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.seed = seed
        self._root: _Node | None = None
        self._rng = np.random.default_rng(seed)

    # -- subclass hooks -------------------------------------------------
    def _leaf_prediction(self, target: np.ndarray) -> Any:
        raise NotImplementedError

    def _impurity(self, target: np.ndarray) -> float:
        raise NotImplementedError

    def _prepare_target(self, target: Sequence[Any]) -> np.ndarray:
        raise NotImplementedError

    # -- API -------------------------------------------------------------
    def fit(self, features: np.ndarray, target: Sequence[Any]):
        """Grow the tree on an (n_samples, n_features) matrix and target."""
        matrix = np.asarray(features, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        prepared = self._prepare_target(target)
        if matrix.shape[0] != prepared.shape[0]:
            raise ValueError("features and target disagree on sample count")
        if matrix.shape[0] == 0:
            raise ValueError("cannot fit on zero samples")
        self._root = self._build(matrix, prepared, depth=0)
        return self

    def predict(self, features: np.ndarray) -> list[Any]:
        """Predict one value per row (1-D input treated as a single row).

        Batched: rows are routed through the tree as index frontiers —
        one vectorized threshold comparison per node over the rows that
        reach it — instead of one Python descent per row. Comparison
        semantics (``<=`` goes left, NaN goes right) and outputs are
        identical to the per-row descent kept as the oracle in
        ``benchmarks/repair_reference.py``.
        """
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        matrix = np.asarray(features, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        out = np.empty(matrix.shape[0], dtype=object)
        frontier: list[tuple[_Node | None, np.ndarray]] = [
            (self._root, np.arange(matrix.shape[0], dtype=np.intp))
        ]
        while frontier:
            node, indices = frontier.pop()
            if indices.size == 0:
                continue
            if node is None or node.is_leaf():
                prediction = None if node is None else node.prediction
                if isinstance(prediction, (list, tuple, np.ndarray)):
                    for i in indices.tolist():
                        out[i] = prediction
                else:
                    out[indices] = prediction
                continue
            left = matrix[indices, node.feature] <= node.threshold
            frontier.append((node.left, indices[left]))
            frontier.append((node.right, indices[~left]))
        return out.tolist()

    def depth(self) -> int:
        """Actual depth of the fitted tree (leaf-only tree has depth 0)."""

        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf():
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)

    # -- construction ----------------------------------------------------
    def _build(self, matrix: np.ndarray, target: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=self._leaf_prediction(target))
        if (
            depth >= self.max_depth
            or len(target) < self.min_samples_split
            or self._impurity(target) == 0.0
        ):
            return node
        split = self._best_split(matrix, target)
        if split is None:
            return node
        feature, threshold, left_mask = split
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(matrix[left_mask], target[left_mask], depth + 1)
        node.right = self._build(matrix[~left_mask], target[~left_mask], depth + 1)
        return node

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self._rng.choice(n_features, size=self.max_features, replace=False)

    def _best_split(
        self, matrix: np.ndarray, target: np.ndarray
    ) -> tuple[int, float, np.ndarray] | None:
        parent_impurity = self._impurity(target)
        n = len(target)
        best_gain = -1.0
        best: tuple[int, float, np.ndarray] | None = None
        for feature in self._candidate_features(matrix.shape[1]):
            column = matrix[:, feature]
            values = np.unique(column[~np.isnan(column)])
            if len(values) < 2:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            if len(thresholds) > _MAX_SPLIT_CANDIDATES:
                picks = np.linspace(
                    0, len(thresholds) - 1, _MAX_SPLIT_CANDIDATES
                ).astype(int)
                thresholds = thresholds[picks]
            for threshold in thresholds:
                left_mask = column <= threshold
                n_left = int(left_mask.sum())
                if (
                    n_left < self.min_samples_leaf
                    or n - n_left < self.min_samples_leaf
                ):
                    continue
                impurity_left = self._impurity(target[left_mask])
                impurity_right = self._impurity(target[~left_mask])
                child = (n_left * impurity_left + (n - n_left) * impurity_right) / n
                gain = parent_impurity - child
                # Zero-gain splits are accepted (CART behaviour): they can
                # unlock informative splits deeper down, e.g. XOR targets.
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best = (int(feature), float(threshold), left_mask)
        if best_gain < -1e-12:
            return None
        return best


class DecisionTreeClassifier(_BaseDecisionTree):
    """CART classifier with Gini impurity."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.classes_: list[Any] = []

    def _prepare_target(self, target: Sequence[Any]) -> np.ndarray:
        labels = list(target)
        self.classes_ = sorted(set(labels), key=str)
        index = {label: i for i, label in enumerate(self.classes_)}
        return np.array([index[label] for label in labels], dtype=int)

    def _leaf_prediction(self, target: np.ndarray) -> Any:
        counts = Counter(int(code) for code in target)
        code, _ = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
        return self.classes_[code]

    def _impurity(self, target: np.ndarray) -> float:
        if len(target) == 0:
            return 0.0
        _, counts = np.unique(target, return_counts=True)
        proportions = counts / len(target)
        return float(1.0 - np.sum(proportions**2))

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Degenerate probabilities from hard leaf predictions."""
        predictions = self.predict(features)
        index = {label: i for i, label in enumerate(self.classes_)}
        proba = np.zeros((len(predictions), len(self.classes_)))
        for row, label in enumerate(predictions):
            proba[row, index[label]] = 1.0
        return proba


class DecisionTreeRegressor(_BaseDecisionTree):
    """CART regressor with variance impurity and mean-leaf prediction."""

    def _prepare_target(self, target: Sequence[Any]) -> np.ndarray:
        return np.asarray(list(target), dtype=float)

    def _leaf_prediction(self, target: np.ndarray) -> float:
        return float(np.mean(target))

    def _impurity(self, target: np.ndarray) -> float:
        if len(target) == 0:
            return 0.0
        return float(np.var(target))
