"""Evaluation metrics for regression, classification, and detection.

These back both the iterative-cleaning scoring function (MSE / F1 per the
paper's §4) and the detection-quality measurements of Figure 3.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Sequence

import numpy as np


def _as_float_arrays(
    y_true: Sequence[float], y_pred: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    true = np.asarray(list(y_true), dtype=float)
    pred = np.asarray(list(y_pred), dtype=float)
    if true.shape != pred.shape:
        raise ValueError(f"shape mismatch: {true.shape} vs {pred.shape}")
    if true.size == 0:
        raise ValueError("metrics need at least one sample")
    return true, pred


# ----------------------------------------------------------------------
# Regression
# ----------------------------------------------------------------------
def mean_squared_error(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    true, pred = _as_float_arrays(y_true, y_pred)
    return float(np.mean((true - pred) ** 2))


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def _binary_f1(
    y_true: Sequence[Hashable], y_pred: Sequence[Hashable], positive: Hashable
) -> float:
    """F1 of ``positive`` against every other label (0.0 when undefined)."""
    tp = fp = fn = 0
    for t, p in zip(y_true, y_pred):
        if p == positive and t == positive:
            tp += 1
        elif p == positive:
            fp += 1
        elif t == positive:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def macro_f1_score(y_true: Sequence[Hashable], y_pred: Sequence[Hashable]) -> float:
    """Unweighted mean of per-class F1 — the multi-class score used for Beers."""
    true = list(y_true)
    pred = list(y_pred)
    labels = sorted(set(true), key=str)
    if not labels:
        raise ValueError("metrics need at least one sample")
    return float(np.mean([_binary_f1(true, pred, label) for label in labels]))


# ----------------------------------------------------------------------
# Detection (cell-set) metrics — Figure 3 / detection suite
# ----------------------------------------------------------------------
def detection_scores(
    detected: Iterable[Any], actual: Iterable[Any]
) -> dict[str, float]:
    """Precision/recall/F1 of a detected cell set against ground truth."""
    detected_set = set(detected)
    actual_set = set(actual)
    tp = len(detected_set & actual_set)
    precision = tp / len(detected_set) if detected_set else 0.0
    recall = tp / len(actual_set) if actual_set else 0.0
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return {"precision": precision, "recall": recall, "f1": f1}
