"""Deterministic train/test splitting."""

from __future__ import annotations

import numpy as np


def train_test_split_indices(
    n_samples: int, test_size: float = 0.2, seed: int = 0
) -> tuple[list[int], list[int]]:
    """Return deterministic shuffled (train_indices, test_indices)."""
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be in (0, 1)")
    if n_samples < 2:
        raise ValueError("need at least two samples to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_samples)
    n_test = max(1, int(round(n_samples * test_size)))
    n_test = min(n_test, n_samples - 1)
    test = sorted(int(i) for i in order[:n_test])
    train = sorted(int(i) for i in order[n_test:])
    return train, test
