"""Clustering tests: agglomerative and RAHA's vector grouping."""

import numpy as np
import pytest

from repro.ml import AgglomerativeClustering, cluster_by_vector


def _three_blobs(seed: int = 0):
    rng = np.random.default_rng(seed)
    centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]
    points = np.vstack(
        [rng.normal(center, 0.3, size=(30, 2)) for center in centers]
    )
    truth = np.repeat([0, 1, 2], 30)
    return points, truth


def _clusters_match(labels, truth) -> bool:
    """Same partition up to label renaming."""
    mapping = {}
    for label, expected in zip(labels, truth):
        if label in mapping and mapping[label] != expected:
            return False
        mapping[label] = expected
    return len(set(mapping.values())) == len(set(truth))


class TestAgglomerative:
    def test_recovers_blobs(self):
        points, truth = _three_blobs()
        # Subsample for the O(n^2) hierarchy.
        labels = AgglomerativeClustering(n_clusters=3).fit_predict(points[::3])
        assert _clusters_match(labels, truth[::3])

    def test_n_clusters_respected(self):
        points, _ = _three_blobs()
        labels = AgglomerativeClustering(n_clusters=4).fit_predict(points[::5])
        assert len(set(labels)) == 4

    def test_linkage_validation(self):
        with pytest.raises(ValueError):
            AgglomerativeClustering(linkage="ward")

    def test_single_linkage_chains(self):
        points = np.array([[0.0], [1.0], [2.0], [10.0]])
        labels = AgglomerativeClustering(
            n_clusters=2, linkage="single"
        ).fit_predict(points)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] != labels[0]


class TestClusterByVector:
    def test_identical_vectors_share_cluster(self):
        matrix = np.array([[1, 0], [1, 0], [0, 1], [0, 1], [1, 1]], dtype=float)
        labels = cluster_by_vector(matrix, n_clusters=3)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]

    def test_fewer_distinct_than_clusters(self):
        matrix = np.array([[0.0], [0.0], [1.0]])
        labels = cluster_by_vector(matrix, n_clusters=5)
        assert len(set(labels)) == 2

    def test_large_duplication_is_fast(self):
        matrix = np.tile(np.eye(4), (250, 1))
        labels = cluster_by_vector(matrix, n_clusters=2)
        assert len(labels) == 1000
