"""Train/test index split tests."""

import pytest

from repro.ml import train_test_split_indices


class TestTrainTestSplit:
    def test_partition_covers_everything(self):
        train, test = train_test_split_indices(100, 0.25, seed=1)
        assert sorted(train + test) == list(range(100))
        assert len(test) == 25

    def test_deterministic(self):
        assert train_test_split_indices(50, 0.2, seed=7) == train_test_split_indices(
            50, 0.2, seed=7
        )

    def test_different_seeds_differ(self):
        a = train_test_split_indices(50, 0.2, seed=1)
        b = train_test_split_indices(50, 0.2, seed=2)
        assert a != b

    def test_bad_test_size(self):
        with pytest.raises(ValueError):
            train_test_split_indices(10, 1.5)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            train_test_split_indices(1, 0.5)
