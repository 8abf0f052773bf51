"""Metric correctness tests, cross-checked against closed forms."""

import pytest

from repro.ml import detection_scores, macro_f1_score, mean_squared_error
from repro.ml.metrics import _binary_f1


class TestRegression:
    def test_mse(self):
        assert mean_squared_error([1, 2, 3], [1, 2, 5]) == pytest.approx(4 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_squared_error([1], [1, 2])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_squared_error([], [])


class TestClassification:
    def test_precision_recall_f1(self):
        truth = [1, 1, 0, 0, 1]
        pred = [1, 0, 1, 0, 1]
        # Class 1: precision 2/3, recall 2/3; class 0: precision 1/2,
        # recall 1/2 — F1 equals both when precision equals recall.
        assert _binary_f1(truth, pred, positive=1) == pytest.approx(2 / 3)
        assert _binary_f1(truth, pred, positive=0) == pytest.approx(0.5)
        assert macro_f1_score(truth, pred) == pytest.approx((2 / 3 + 0.5) / 2)

    def test_labels_only_predicted_are_not_scored(self):
        # "c" never occurs in the truth, so only class "a" is averaged:
        # precision 1, recall 1/2 -> F1 2/3.
        assert macro_f1_score(["a", "a"], ["a", "c"]) == pytest.approx(2 / 3)

    def test_macro_f1_empty_raises(self):
        with pytest.raises(ValueError, match="at least one sample"):
            macro_f1_score([], [])

    def test_macro_f1_averages_classes(self):
        truth = ["a", "a", "b", "b"]
        pred = ["a", "a", "a", "b"]
        # a: precision 2/3, recall 1 -> F1 0.8; b: precision 1,
        # recall 1/2 -> F1 2/3.
        assert macro_f1_score(truth, pred) == pytest.approx((0.8 + 2 / 3) / 2)

    def test_f1_zero_when_no_positives_predicted(self):
        assert macro_f1_score([1, 1], [0, 0]) == 0.0


class TestDetectionScores:
    def test_perfect(self):
        scores = detection_scores({(0, "a")}, {(0, "a")})
        assert scores == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_half_precision(self):
        scores = detection_scores({(0, "a"), (1, "a")}, {(0, "a")})
        assert scores["precision"] == pytest.approx(0.5)
        assert scores["recall"] == pytest.approx(1.0)

    def test_empty_detection(self):
        scores = detection_scores(set(), {(0, "a")})
        assert scores["f1"] == 0.0

    def test_empty_truth(self):
        scores = detection_scores({(0, "a")}, set())
        assert scores["recall"] == 0.0
