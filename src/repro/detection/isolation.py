"""Isolation-forest outlier detection (the paper's "IF" tool)."""

from __future__ import annotations

from typing import Any

import numpy as np

from ..dataframe import Cell, DataFrame
from ..ml import IsolationForest
from .base import DetectionContext, Detector


class IsolationForestDetector(Detector):
    """Per-column univariate isolation forests for cell-level outliers.

    In ``multivariate`` mode a single forest runs over all numeric columns
    jointly and every numeric cell of an anomalous row is flagged.
    """

    name = "isolation_forest"

    def __init__(
        self,
        contamination: float = 0.05,
        n_estimators: int = 50,
        multivariate: bool = False,
        columns: list[str] | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(
            contamination=contamination,
            n_estimators=n_estimators,
            multivariate=multivariate,
            columns=columns,
            seed=seed,
        )
        self.contamination = contamination
        self.n_estimators = n_estimators
        self.multivariate = multivariate
        self.columns = columns
        self.seed = seed

    def _detect(
        self, frame: DataFrame, context: DetectionContext
    ) -> tuple[set[Cell], dict[Cell, float], dict[str, Any]]:
        names = [
            name
            for name in (self.columns or frame.numeric_column_names())
            if name in frame and frame.column(name).is_numeric()
        ]
        if not names or frame.num_rows < 8:
            return set(), {}, {"columns_checked": names}
        if self.multivariate:
            return self._detect_multivariate(frame, names)
        return self._detect_univariate(frame, names)

    def _detect_univariate(
        self, frame: DataFrame, names: list[str]
    ) -> tuple[set[Cell], dict[Cell, float], dict[str, Any]]:
        cells: set[Cell] = set()
        scores: dict[Cell, float] = {}
        for name in names:
            values = frame.column(name).to_numpy()
            present = ~np.isnan(values)
            data = values[present].reshape(-1, 1)
            if len(data) < 8 or float(np.std(data)) == 0.0:
                continue
            forest = IsolationForest(
                n_estimators=self.n_estimators,
                contamination=self.contamination,
                seed=self.seed,
            ).fit(data)
            sample_scores = forest.score_samples(data)
            flags = forest.outliers(sample_scores)
            rows = np.flatnonzero(present)
            for local, row in enumerate(rows):
                if flags[local]:
                    cell = (int(row), name)
                    cells.add(cell)
                    scores[cell] = float(sample_scores[local])
        return cells, scores, {"columns_checked": names, "mode": "univariate"}

    def _detect_multivariate(
        self, frame: DataFrame, names: list[str]
    ) -> tuple[set[Cell], dict[Cell, float], dict[str, Any]]:
        matrix = frame.to_numpy(names)
        means = np.nanmean(matrix, axis=0)
        filled = np.where(np.isnan(matrix), means, matrix)
        forest = IsolationForest(
            n_estimators=self.n_estimators,
            contamination=self.contamination,
            seed=self.seed,
        ).fit(filled)
        sample_scores = forest.score_samples(filled)
        flags = forest.outliers(sample_scores)
        cells: set[Cell] = set()
        scores: dict[Cell, float] = {}
        for row in np.flatnonzero(flags):
            for name in names:
                cell = (int(row), name)
                cells.add(cell)
                scores[cell] = float(sample_scores[row])
        return cells, scores, {"columns_checked": names, "mode": "multivariate"}
