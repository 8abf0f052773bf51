"""ML-based imputation — decision trees for numerics, k-NN for categoricals.

Exactly the paper's split (§3): "the system employs Decision Tree
algorithms for numerical columns and k-nearest Neighbors (k-NN) for
categorical columns". Each corrupted column gets its own model trained on
the rows whose cell in that column is trusted, using every other column
(encoded numerically) as features.

The engine is batched end to end: every column is encoded **once** (the
historical path re-encoded all features for every target, an
O(columns²) tax), per-target feature matrices are assembled by stacking
those shared encodings, and predictions run through the vectorized
``predict`` paths of :class:`~repro.ml.tree._BaseDecisionTree` and
:class:`~repro.ml.knn._BaseKNN` — no per-row Python on the proposal hot
path. ``n_jobs`` fits/predicts the per-column models on a thread pool
(numpy releases the GIL in the distance and split kernels), with results
merged deterministically per column — outputs are bit-identical to the
serial path.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np

from ..dataframe import Cell, DataFrame
from ..ml import DecisionTreeRegressor, FrameEncoder, KNeighborsClassifier
from .base import Repairer, group_cells_by_column, mask_cells


def resolve_jobs(n_jobs: int | None) -> int:
    """Worker count: None/0/1 → serial, -1 → all cores, n → n."""
    if n_jobs is None or n_jobs == 0:
        return 1
    if n_jobs < 0:
        return os.cpu_count() or 1
    return n_jobs


class MLImputer(Repairer):
    """Per-column model-based imputation over masked detected cells."""

    name = "ml_imputer"

    def __init__(
        self,
        tree_depth: int = 8,
        n_neighbors: int = 5,
        min_train_rows: int = 10,
        seed: int = 0,
        n_jobs: int | None = None,
    ) -> None:
        super().__init__(
            tree_depth=tree_depth,
            n_neighbors=n_neighbors,
            min_train_rows=min_train_rows,
            seed=seed,
            n_jobs=n_jobs,
        )
        self.tree_depth = tree_depth
        self.n_neighbors = n_neighbors
        self.min_train_rows = min_train_rows
        self.seed = seed
        self.n_jobs = n_jobs

    def _repair(
        self, frame: DataFrame, cells: set[Cell], store: Any = None
    ) -> tuple:
        masked = mask_cells(frame, cells)
        grouped = group_cells_by_column(cells)
        names = frame.column_names
        tasks = [
            (column_name, rows)
            for column_name, rows in grouped.items()
            if len(names) > 1
        ]
        # One encoding per column, shared by every target's feature matrix.
        encoded: dict[str, np.ndarray] = {}
        if tasks:
            for name in names:
                encoded[name] = FrameEncoder([name]).fit_transform(masked)

        def impute_column(task: tuple[str, list[int]]):
            column_name, rows = task
            target_column = masked.column(column_name)
            train_rows = np.flatnonzero(~target_column.mask()).tolist()
            if len(train_rows) < self.min_train_rows:
                fallback = self._fallback(target_column)
                return column_name, rows, [fallback] * len(rows), "fallback_constant"
            feature_names = [n for n in names if n != column_name]
            matrix = np.column_stack([encoded[n] for n in feature_names])
            target_list = target_column.values()
            target_values = [target_list[row] for row in train_rows]
            if target_column.is_numeric():
                model: Any = DecisionTreeRegressor(
                    max_depth=self.tree_depth, seed=self.seed
                )
                model_name = "decision_tree"
                train_targets: list[Any] = [float(v) for v in target_values]
            else:
                model = KNeighborsClassifier(n_neighbors=self.n_neighbors)
                model_name = "knn"
                train_targets = target_values
            model.fit(matrix[train_rows], train_targets)
            predictions = model.predict(matrix[rows])
            column_values: list[Any] = []
            for prediction in predictions:
                value = prediction
                if target_column.dtype == "int" and value is not None:
                    value = int(round(float(value)))
                column_values.append(value)
            return column_name, rows, column_values, model_name

        workers = resolve_jobs(self.n_jobs)
        if workers > 1 and len(tasks) > 1:
            with ThreadPoolExecutor(max_workers=workers) as executor:
                outcomes = list(executor.map(impute_column, tasks))
        else:
            outcomes = [impute_column(task) for task in tasks]

        repairs: dict[Cell, Any] = {}
        patches: dict[str, tuple[list[int], list[Any]]] = {}
        models_used: dict[str, str] = {}
        for column_name, rows, column_values, model_name in outcomes:
            models_used[column_name] = model_name
            patches[column_name] = (rows, column_values)
            for row, value in zip(rows, column_values):
                repairs[(row, column_name)] = value
        return repairs, {"models": models_used}, patches

    @staticmethod
    def _fallback(column: Any) -> Any:
        mask = np.asarray(column.mask())
        valid = ~mask
        count = int(valid.sum())
        if count == 0:
            return 0.0 if column.is_numeric() else "Dummy"
        if column.is_numeric():
            data = np.asarray(column.values_array())[valid].astype(float)
            # cumsum reproduces the historical left-to-right Python sum
            # bit-for-bit (np.sum's pairwise accumulation does not).
            total = np.cumsum(np.concatenate(([0.0], data)))[-1]
            return float(total / count)
        return column.value_counts().most_common(1)[0][0]
