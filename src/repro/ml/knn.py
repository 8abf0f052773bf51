"""k-nearest-neighbour models — the paper's categorical imputer.

``predict`` is batched: query blocks compute all pairwise distances by
broadcasting (``(block, n_train, n_features)`` difference cube, summed
over the feature axis with the same reduction the historical per-row
path used, so distances are bit-identical), and the k nearest are
selected with ``np.partition`` plus an explicit stable tie-break —
strictly-closer points first, then boundary ties in ascending train
index order, exactly the membership a stable argsort produces. The
classifier aggregates votes with one ``bincount`` over (row, class)
codes; the regressor gathers neighbour targets in stable distance order
so its means match the historical per-row ``np.mean`` bit-for-bit.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Sequence

import numpy as np

#: Element budget for one (block, n_train, n_features) distance cube —
#: small enough to stay cache-friendly (larger cubes measured slower).
_BLOCK_ELEMENTS = 2_000_000


class _BaseKNN:
    def __init__(self, n_neighbors: int = 5) -> None:
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        self.n_neighbors = n_neighbors
        self._train: np.ndarray | None = None
        self._target: list[Any] = []

    def fit(self, features: np.ndarray, target: Sequence[Any]):
        """Memorize the training matrix and targets (lazy learner)."""
        matrix = np.asarray(features, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        labels = list(target)
        if matrix.shape[0] != len(labels):
            raise ValueError("features and target disagree on sample count")
        if not labels:
            raise ValueError("cannot fit on zero samples")
        self._train = matrix
        self._target = labels
        self._label_cache: Any = None
        return self

    def predict(self, features: np.ndarray) -> list[Any]:
        """Aggregate the k nearest neighbours' targets per query row."""
        if self._train is None:
            raise RuntimeError("model is not fitted")
        matrix = np.asarray(features, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        n_queries = matrix.shape[0]
        if n_queries == 0:
            return []
        n_train, n_features = self._train.shape
        k = min(self.n_neighbors, len(self._target))
        block = max(1, int(_BLOCK_ELEMENTS // max(1, n_train * max(1, n_features))))
        out: list[Any] = []
        for start in range(0, n_queries, block):
            queries = matrix[start : start + block]
            diff = self._train[None, :, :] - queries[:, None, :]
            # In-place square and sqrt: bit-identical to the historical
            # ``sqrt(sum((train - row) ** 2))`` without extra cube copies.
            np.multiply(diff, diff, out=diff)
            distances = np.sum(diff, axis=2)
            np.sqrt(distances, out=distances)
            out.extend(self._aggregate_block(distances, k))
        return out

    # ------------------------------------------------------------------
    def _aggregate_block(self, distances: np.ndarray, k: int) -> list[Any]:
        """Aggregate one (block, n_train) distance matrix; overridable."""
        return [
            self._aggregate(self._stable_nearest_labels(row, k))
            for row in distances
        ]

    def _stable_nearest_labels(self, distances: np.ndarray, k: int) -> list[Any]:
        nearest = np.argsort(distances, kind="stable")[:k]
        return [self._target[int(i)] for i in nearest]

    @staticmethod
    def _stable_topk_mask(distances: np.ndarray, k: int) -> np.ndarray:
        """Boolean (block, n_train) membership of the stable k nearest.

        Strictly closer points are always in; ties at the k-th distance
        are taken in ascending train-index order until k is reached —
        the same set a stable argsort's first k indices select.
        """
        kth = np.partition(distances, k - 1, axis=1)[:, k - 1 : k]
        closer = distances < kth
        need = k - closer.sum(axis=1)
        tied = distances == kth
        take_tied = tied & (np.cumsum(tied, axis=1) <= need[:, None])
        return closer | take_tied

    def _aggregate(self, labels: list[Any]) -> Any:
        raise NotImplementedError


class KNeighborsClassifier(_BaseKNN):
    """Majority vote over the k nearest training points."""

    def _aggregate(self, labels: list[Any]) -> Any:
        counts = Counter(labels)
        best_count = max(counts.values())
        tied = sorted(
            (label for label, count in counts.items() if count == best_count),
            key=str,
        )
        return tied[0]

    def _class_codes(self) -> tuple[list[Any], np.ndarray]:
        """Distinct labels in str order plus one code per train row."""
        if getattr(self, "_label_cache", None) is None:
            classes = sorted(set(self._target), key=str)
            index = {label: i for i, label in enumerate(classes)}
            codes = np.fromiter(
                (index[label] for label in self._target),
                dtype=np.int64,
                count=len(self._target),
            )
            self._label_cache = (classes, codes)
        return self._label_cache

    def _aggregate_block(self, distances: np.ndarray, k: int) -> list[Any]:
        if np.isnan(distances).any():
            # NaN distances defeat the partition tie-break; fall back to
            # the per-row stable argsort (NaN sorts last either way).
            return super()._aggregate_block(distances, k)
        mask = self._stable_topk_mask(distances, k)
        classes, codes = self._class_codes()
        n_classes = len(classes)
        row_idx, train_idx = np.nonzero(mask)
        votes = np.bincount(
            row_idx * n_classes + codes[train_idx],
            minlength=distances.shape[0] * n_classes,
        ).reshape(distances.shape[0], n_classes)
        # classes are in str order, so the first maximum is the Counter
        # tie-break (smallest str among the most common labels).
        best = votes.argmax(axis=1)
        return [classes[i] for i in best.tolist()]


class KNeighborsRegressor(_BaseKNN):
    """Mean of the k nearest targets."""

    def _aggregate(self, labels: list[Any]) -> float:
        return float(np.mean([float(label) for label in labels]))

    def _target_floats(self) -> np.ndarray:
        if getattr(self, "_label_cache", None) is None:
            self._label_cache = np.asarray(
                [float(label) for label in self._target], dtype=float
            )
        return self._label_cache

    def _aggregate_block(self, distances: np.ndarray, k: int) -> list[Any]:
        order = np.argsort(distances, axis=1, kind="stable")[:, :k]
        gathered = self._target_floats()[order]
        return [float(v) for v in np.mean(gathered, axis=1)]
