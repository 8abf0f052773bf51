"""Agglomerative clustering — the engine behind RAHA sampling."""

from __future__ import annotations

import numpy as np


class AgglomerativeClustering:
    """Bottom-up hierarchical clustering with average linkage.

    RAHA clusters cells of one column by their feature vectors and then
    propagates user labels within each cluster; this class provides the
    dendrogram cut at ``n_clusters``.
    """

    def __init__(self, n_clusters: int = 2, linkage: str = "average") -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if linkage not in ("average", "single", "complete"):
            raise ValueError("linkage must be average, single, or complete")
        self.n_clusters = n_clusters
        self.linkage = linkage
        self.labels_: np.ndarray | None = None

    def fit_predict(self, matrix: np.ndarray) -> np.ndarray:
        data = np.asarray(matrix, dtype=float)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError("matrix must be non-empty and 2-D")
        n = data.shape[0]
        k = min(self.n_clusters, n)
        clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
        distances = self._initial_distances(data)
        while len(clusters) > k:
            (a, b), _ = min(distances.items(), key=lambda kv: (kv[1], kv[0]))
            clusters[a] = clusters[a] + clusters[b]
            del clusters[b]
            distances = {
                pair: dist
                for pair, dist in distances.items()
                if b not in pair and pair != (a, b)
            }
            for other in clusters:
                if other == a:
                    continue
                pair = (min(a, other), max(a, other))
                distances[pair] = self._cluster_distance(
                    data, clusters[a], clusters[other]
                )
        labels = np.zeros(n, dtype=int)
        for label, (_, members) in enumerate(sorted(clusters.items())):
            for member in members:
                labels[member] = label
        self.labels_ = labels
        return labels

    def _initial_distances(self, data: np.ndarray) -> dict[tuple[int, int], float]:
        n = data.shape[0]
        diffs = ((data[:, None, :] - data[None, :, :]) ** 2).sum(axis=2)
        matrix = np.sqrt(diffs)
        return {
            (i, j): float(matrix[i, j]) for i in range(n) for j in range(i + 1, n)
        }

    def _cluster_distance(
        self, data: np.ndarray, left: list[int], right: list[int]
    ) -> float:
        block = np.sqrt(
            ((data[left][:, None, :] - data[right][None, :, :]) ** 2).sum(axis=2)
        )
        if self.linkage == "single":
            return float(block.min())
        if self.linkage == "complete":
            return float(block.max())
        return float(block.mean())


def cluster_by_vector(matrix: np.ndarray, n_clusters: int) -> np.ndarray:
    """Group identical feature vectors first, then cluster the distinct ones.

    This is the exact trick RAHA uses: cells of a column often share feature
    vectors, so hierarchical clustering runs on the (much smaller) set of
    distinct vectors and the assignment is broadcast back to all cells.
    """
    data = np.asarray(matrix, dtype=float)
    distinct, inverse = np.unique(data, axis=0, return_inverse=True)
    if len(distinct) <= n_clusters:
        return inverse.astype(int)
    model = AgglomerativeClustering(n_clusters=n_clusters)
    distinct_labels = model.fit_predict(distinct)
    return distinct_labels[inverse]
