"""SD / IQR / isolation-forest detector tests."""

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.detection import (
    DetectionContext,
    IQRDetector,
    IsolationForestDetector,
    SDDetector,
)
from repro.ingestion import OUTLIER
from repro.ml import IsolationForest, detection_scores


def frame_with_outlier():
    values = [float(v) for v in np.random.default_rng(0).normal(10, 1, 100)]
    values[7] = 100.0
    return DataFrame.from_dict({"x": values, "label": ["a"] * 100})


class TestSD:
    def test_flags_planted_outlier(self):
        result = SDDetector(k=3.0).detect(frame_with_outlier())
        assert (7, "x") in result.cells

    def test_ignores_categorical(self):
        result = SDDetector().detect(frame_with_outlier())
        assert all(column == "x" for _, column in result.cells)

    def test_k_controls_sensitivity(self):
        frame = frame_with_outlier()
        loose = SDDetector(k=2.0).detect(frame)
        strict = SDDetector(k=4.0).detect(frame)
        assert strict.cells <= loose.cells

    def test_scores_are_z_values(self):
        result = SDDetector(k=3.0).detect(frame_with_outlier())
        assert result.scores[(7, "x")] > 3.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SDDetector(k=0.0)

    def test_constant_column_no_flags(self):
        frame = DataFrame.from_dict({"x": [5.0] * 50})
        assert len(SDDetector().detect(frame).cells) == 0

    def test_column_subset(self):
        frame = DataFrame.from_dict(
            {"x": [1.0] * 20 + [100.0], "y": [1.0] * 20 + [100.0]}
        )
        result = SDDetector(columns=["x"]).detect(frame)
        assert all(column == "x" for _, column in result.cells)


class TestIQR:
    def test_flags_planted_outlier(self):
        result = IQRDetector().detect(frame_with_outlier())
        assert (7, "x") in result.cells

    def test_factor_controls_sensitivity(self):
        frame = frame_with_outlier()
        loose = IQRDetector(factor=1.0).detect(frame)
        strict = IQRDetector(factor=3.0).detect(frame)
        assert strict.cells <= loose.cells

    def test_missing_cells_not_flagged(self):
        frame = DataFrame.from_dict({"x": [1.0, 2.0, None, 3.0, 2.5, 1.5]})
        result = IQRDetector().detect(frame)
        assert (2, "x") not in result.cells

    def test_recall_on_injected_outliers(self, nasa_dirty):
        result = IQRDetector().detect(nasa_dirty.dirty)
        outliers = nasa_dirty.cells_by_type[OUTLIER]
        recall = len(result.cells & outliers) / len(outliers)
        assert recall > 0.8


class TestIsolationForestDetector:
    def test_univariate_flags_injected_outliers(self, nasa_dirty):
        detector = IsolationForestDetector(
            contamination=0.05, n_estimators=25, seed=0
        )
        result = detector.detect(nasa_dirty.dirty, DetectionContext())
        scores = detection_scores(result.cells, nasa_dirty.cells_by_type[OUTLIER])
        assert scores["recall"] > 0.5

    def test_multivariate_mode_flags_rows(self):
        frame = frame_with_outlier()
        detector = IsolationForestDetector(
            multivariate=True, contamination=0.03, n_estimators=30, seed=0
        )
        result = detector.detect(frame)
        assert 7 in result.rows()

    def test_small_frame_no_crash(self):
        frame = DataFrame.from_dict({"x": [1.0, 2.0, 3.0]})
        result = IsolationForestDetector().detect(frame)
        assert result.cells == set()

    @pytest.mark.parametrize("multivariate", [False, True])
    def test_each_column_is_scored_once(self, nasa_dirty, monkeypatch, multivariate):
        """One ``score_samples`` call per column (one in multivariate
        mode), with the cells and scores of flagging and then scoring in
        two passes."""
        frame = nasa_dirty.dirty.head(300)
        detector = IsolationForestDetector(
            n_estimators=10, multivariate=multivariate, seed=0
        )
        score_samples = IsolationForest.score_samples
        calls = []

        def counted(self, matrix):
            calls.append(len(matrix))
            return score_samples(self, matrix)

        monkeypatch.setattr(IsolationForest, "score_samples", counted)
        result = detector.detect(frame, DetectionContext())
        monkeypatch.undo()
        names = frame.numeric_column_names()
        assert len(calls) == (1 if multivariate else len(names))
        cells, scores = _predict_then_score(frame, names, detector)
        assert result.cells and result.cells == cells
        assert result.scores == scores


def _predict_then_score(frame, names, detector):
    """The detector's cells and scores computed the old way: one
    ``score_samples`` pass flags the rows above the threshold, then a
    second pass scores them."""

    def forest(data):
        return IsolationForest(
            n_estimators=detector.n_estimators,
            contamination=detector.contamination,
            seed=detector.seed,
        ).fit(data)

    def predict(fitted, data):
        scores = fitted.score_samples(data)
        threshold = np.quantile(scores, 1.0 - fitted.contamination)
        return scores > max(threshold, 0.5)

    cells, scores = set(), {}
    if detector.multivariate:
        matrix = frame.to_numpy(names)
        filled = np.where(np.isnan(matrix), np.nanmean(matrix, axis=0), matrix)
        fitted = forest(filled)
        flags, row_scores = predict(fitted, filled), fitted.score_samples(filled)
        for row in np.flatnonzero(flags):
            for name in names:
                cells.add((int(row), name))
                scores[(int(row), name)] = float(row_scores[row])
        return cells, scores
    for name in names:
        values = frame.column(name).to_numpy()
        present = ~np.isnan(values)
        data = values[present].reshape(-1, 1)
        if len(data) < 8 or float(np.std(data)) == 0.0:
            continue
        fitted = forest(data)
        flags, row_scores = predict(fitted, data), fitted.score_samples(data)
        for local, row in enumerate(np.flatnonzero(present)):
            if flags[local]:
                cells.add((int(row), name))
                scores[(int(row), name)] = float(row_scores[local])
    return cells, scores
