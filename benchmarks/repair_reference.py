"""Retained pure-Python reference for the repair-proposal engine.

This module preserves the historical per-cell implementations that the
vectorized codes-based engine replaced: per-value tokenization, the
Counter-based co-occurrence fit (O(rows · cols²) Python triple loop),
per-candidate ``log_score`` scoring for detection and repair, and the
row-at-a-time KNN / decision-tree prediction loops of the ML imputer.

It is the ground truth for two consumers:

* ``tests/repair/test_proposal_equivalence.py`` pins the vectorized
  engine bit-identical to these semantics over random and adversarial
  frames;
* ``benchmarks/bench_repair_scale.py`` times the engine against this
  reference at 50k×10 / 1%-dirty-cells scale (the ≥ 15x acceptance
  budget) and re-checks bit-identity at that scale.

The shared workload builders (frame shape, dirty-cell sampling) live
here too, so budget and benchmark always measure the same workload.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Hashable

import numpy as np

from repro.dataframe import DataFrame
from repro.detection.holoclean import HoloCleanDetector, _MISSING
from repro.ml import DecisionTreeRegressor, FrameEncoder, KNeighborsClassifier
from repro.repair.base import group_cells_by_column, mask_cells

# ----------------------------------------------------------------------
# Shared workload: the 50k×10 repair benchmark frame
# ----------------------------------------------------------------------

N_REPAIR_COLUMNS = 10
DIRTY_FRACTION = 0.01


def make_repair_frame(n_rows: int, seed: int = 23) -> DataFrame:
    """10-column frame with real co-occurrence structure.

    Two correlated city→country style string pairs, two correlated int
    code columns, and four numerics (two correlated pairs) — so the
    posterior repair has signal to exploit, like the hospital dataset.
    """
    rng = np.random.default_rng(seed)
    city = rng.integers(0, 40, n_rows)
    region = city // 4
    brand = rng.integers(0, 30, n_rows)
    style = brand % 6
    code = rng.integers(0, 25, n_rows)
    base = rng.normal(0.0, 1.0, n_rows)
    return DataFrame.from_dict(
        {
            "city": [f"city{int(v)}" for v in city],
            "country": [f"country{int(v)}" for v in region],
            "brand": [f"brand{int(v)}" for v in brand],
            "style": [f"style{int(v)}" for v in style],
            "code": [int(v) for v in code],
            "group": [int(v) * 3 for v in code // 5],
            "num0": [float(v) for v in base],
            "num1": [float(2.0 * v + e) for v, e in zip(base, rng.normal(0, 0.3, n_rows))],
            "num2": [float(v) for v in rng.normal(5.0, 2.0, n_rows)],
            "num3": [float(v) for v in rng.uniform(-1.0, 1.0, n_rows)],
        }
    )


def sample_dirty_cells(frame: DataFrame, seed: int = 5, fraction: float = DIRTY_FRACTION):
    """Uniformly random ``fraction`` of all cells, as a detected-cell set."""
    rng = np.random.default_rng(seed)
    total = frame.num_rows * frame.num_columns
    n_dirty = int(total * fraction)
    flat = rng.choice(total, size=n_dirty, replace=False)
    names = frame.column_names
    return {
        (int(index // frame.num_columns), names[int(index % frame.num_columns)])
        for index in flat
    }


# ----------------------------------------------------------------------
# Historical co-occurrence engine (per-value tokens, Counter statistics)
# ----------------------------------------------------------------------


class ReferenceCooccurrenceModel:
    """The retained dict-of-Counters co-occurrence model."""

    def __init__(self, alpha: float = 1.0) -> None:
        self.alpha = alpha
        self._counts: dict[tuple[str, str], dict[Hashable, Counter]] = defaultdict(
            lambda: defaultdict(Counter)
        )
        self._domains: dict[str, set[Hashable]] = defaultdict(set)

    def fit(self, tokens: dict[str, list[Hashable]]) -> "ReferenceCooccurrenceModel":
        columns = list(tokens)
        n_rows = len(tokens[columns[0]]) if columns else 0
        for target in columns:
            for value in tokens[target]:
                if value != _MISSING:
                    self._domains[target].add(value)
        for target in columns:
            for other in columns:
                if target == other:
                    continue
                pair = self._counts[(target, other)]
                for row in range(n_rows):
                    target_value = tokens[target][row]
                    other_value = tokens[other][row]
                    if target_value == _MISSING or other_value == _MISSING:
                        continue
                    pair[other_value][target_value] += 1
        return self

    def domain(self, column: str) -> set[Hashable]:
        return self._domains[column]

    def log_score(
        self, column: str, candidate: Hashable, row_tokens: dict[str, Hashable]
    ) -> float:
        total = 0.0
        domain_size = max(1, len(self._domains[column]))
        for other, other_value in row_tokens.items():
            if other == column or other_value == _MISSING:
                continue
            counter = self._counts[(column, other)].get(other_value)
            count = counter[candidate] if counter else 0
            seen = sum(counter.values()) if counter else 0
            total += float(
                np.log((count + self.alpha) / (seen + self.alpha * domain_size))
            )
        return total


def reference_tokenize(frame: DataFrame, n_bins: int = 12) -> dict[str, list[Hashable]]:
    """The historical per-value tokenizer (quantile bins / raw values)."""
    tokens: dict[str, list[Hashable]] = {}
    for name in frame.column_names:
        column = frame.column(name)
        if column.is_numeric():
            values = column.to_numpy()
            finite = values[~np.isnan(values)]
            if len(finite) == 0:
                tokens[name] = [_MISSING] * frame.num_rows
                continue
            quantiles = np.unique(
                np.quantile(finite, np.linspace(0, 1, n_bins + 1))
            )
            edges = quantiles[1:-1]
            binned: list[Hashable] = []
            for value in values:
                if np.isnan(value):
                    binned.append(_MISSING)
                else:
                    binned.append(f"bin{int(np.searchsorted(edges, value))}")
            tokens[name] = binned
        else:
            tokens[name] = [
                _MISSING if v is None else v for v in column.values()
            ]
    return tokens


def _prune_domain(
    domain: set[Hashable], observed: Hashable, max_domain: int
) -> list[Hashable]:
    candidates = sorted(domain, key=str)
    if len(candidates) > max_domain:
        candidates = candidates[:max_domain]
    if observed not in candidates:
        candidates.append(observed)
    return candidates


def reference_holoclean_detect(
    frame: DataFrame,
    noisy: set,
    n_bins: int = 12,
    alpha: float = 1.0,
    posterior_margin: float = 2.0,
    max_domain: int = 24,
):
    """Historical posterior-margin scoring over precompiled noisy cells.

    Signal compilation (rules / IQR / nulls) is orthogonal to the
    proposal engine and shared with the vectorized path, so callers pass
    the noisy set in (``HoloCleanDetector.compile_signals``).
    """
    tokens = reference_tokenize(frame, n_bins)
    model = ReferenceCooccurrenceModel(alpha=alpha).fit(tokens)
    cells: set = set()
    scores: dict = {}
    for row, column in noisy:
        observed = tokens[column][row]
        row_tokens = {name: tokens[name][row] for name in frame.column_names}
        if observed == _MISSING:
            cells.add((row, column))
            scores[(row, column)] = 1.0
            continue
        domain = model.domain(column)
        if len(domain) < 2:
            continue
        candidates = _prune_domain(domain, observed, max_domain)
        observed_score = model.log_score(column, observed, row_tokens)
        best_score = max(
            model.log_score(column, candidate, row_tokens)
            for candidate in candidates
        )
        if best_score - observed_score >= np.log(posterior_margin):
            cells.add((row, column))
            scores[(row, column)] = float(best_score - observed_score)
    return cells, scores, {"noisy_candidates": len(noisy)}


def _reference_bin_representatives(
    frame: DataFrame, tokens: dict[str, list[Hashable]]
) -> dict[tuple[str, Hashable], float]:
    """Per-row list-append bin means (the pre-vectorization semantics)."""
    bins: dict[tuple[str, Hashable], list[float]] = defaultdict(list)
    for name in frame.numeric_column_names():
        column = frame.column(name)
        values = column.values()
        for token, value in zip(tokens[name], values):
            if token != _MISSING and value is not None:
                bins[(name, token)].append(float(value))
    return {key: float(np.mean(values)) for key, values in bins.items()}


def _reference_fallback(column: Any) -> Any:
    values = column.non_missing()
    if not values:
        return 0.0 if column.is_numeric() else "Dummy"
    if column.is_numeric():
        return float(np.mean([float(v) for v in values]))
    return column.value_counts().most_common(1)[0][0]


def reference_holoclean_repair(
    frame: DataFrame, cells: set, n_bins: int = 12, alpha: float = 1.0
):
    """Historical per-candidate argmax repair; returns (repairs, patches)."""
    masked = mask_cells(frame, cells)
    tokens = reference_tokenize(masked, n_bins)
    model = ReferenceCooccurrenceModel(alpha=alpha).fit(tokens)
    bin_values = _reference_bin_representatives(masked, tokens)
    repairs: dict = {}
    patches: dict = {}
    for column_name, rows in group_cells_by_column(cells).items():
        column = masked.column(column_name)
        domain = sorted(model.domain(column_name), key=str)
        column_values: list[Any] = []
        for row in rows:
            if not domain:
                value = _reference_fallback(column)
            else:
                row_tokens = {
                    name: tokens[name][row] for name in frame.column_names
                }
                best = max(
                    domain,
                    key=lambda candidate: model.log_score(
                        column_name, candidate, row_tokens
                    ),
                )
                if not column.is_numeric():
                    value = best
                else:
                    mean = bin_values.get((column_name, best))
                    if mean is None:
                        value = _reference_fallback(column)
                    elif column.dtype == "int":
                        value = int(round(mean))
                    else:
                        value = mean
            column_values.append(value)
            repairs[(row, column_name)] = value
        patches[column_name] = (rows, column_values)
    return repairs, patches


# ----------------------------------------------------------------------
# Historical ML-imputer prediction loops (row-at-a-time predict)
# ----------------------------------------------------------------------


def _neighbor_labels(model: KNeighborsClassifier, row: np.ndarray) -> list:
    """Targets of the ``n_neighbors`` training rows nearest to ``row``."""
    distances = np.sqrt(np.sum((model._train - row) ** 2, axis=1))
    k = min(model.n_neighbors, len(model._target))
    nearest = np.argsort(distances, kind="stable")[:k]
    return [model._target[int(i)] for i in nearest]


def _reference_knn_predict(model: KNeighborsClassifier, matrix: np.ndarray):
    """Per-row distance + stable argsort + Counter vote (the old path)."""
    out = []
    for row in np.asarray(matrix, dtype=float):
        labels = _neighbor_labels(model, row)
        counts = Counter(labels)
        best_count = max(counts.values())
        tied = sorted(
            (label for label, count in counts.items() if count == best_count),
            key=str,
        )
        out.append(tied[0])
    return out


def _predict_row(model: DecisionTreeRegressor, row: np.ndarray):
    """Walk the fitted tree from the root for one row (the old path)."""
    node = model._root
    while node is not None and not node.is_leaf():
        if row[node.feature] <= node.threshold:
            node = node.left
        else:
            node = node.right
    return node.prediction if node is not None else None


def _reference_tree_predict(model: DecisionTreeRegressor, matrix: np.ndarray):
    return [_predict_row(model, row) for row in np.asarray(matrix, dtype=float)]


def reference_ml_impute(
    frame: DataFrame,
    cells: set,
    tree_depth: int = 8,
    n_neighbors: int = 5,
    min_train_rows: int = 10,
    seed: int = 0,
):
    """Historical MLImputer._repair: per-target re-encoding, per-row predict."""
    masked = mask_cells(frame, cells)
    repairs: dict = {}
    patches: dict = {}
    models_used: dict[str, str] = {}
    for column_name, rows in group_cells_by_column(cells).items():
        target_column = masked.column(column_name)
        feature_names = [n for n in frame.column_names if n != column_name]
        if not feature_names:
            continue
        encoder = FrameEncoder(feature_names)
        matrix = encoder.fit_transform(masked)
        train_rows = np.flatnonzero(~target_column.mask()).tolist()
        if len(train_rows) < min_train_rows:
            models_used[column_name] = "fallback_constant"
            values = target_column.non_missing()
            if not values:
                fallback = 0.0 if target_column.is_numeric() else "Dummy"
            elif target_column.is_numeric():
                fallback = float(sum(float(v) for v in values) / len(values))
            else:
                fallback = target_column.value_counts().most_common(1)[0][0]
            patches[column_name] = (rows, [fallback] * len(rows))
            for row in rows:
                repairs[(row, column_name)] = fallback
            continue
        target_list = target_column.values()
        target_values = [target_list[row] for row in train_rows]
        if target_column.is_numeric():
            model: Any = DecisionTreeRegressor(max_depth=tree_depth, seed=seed)
            models_used[column_name] = "decision_tree"
            model.fit(matrix[train_rows], [float(v) for v in target_values])
            predictions = _reference_tree_predict(model, matrix[rows])
        else:
            model = KNeighborsClassifier(n_neighbors=n_neighbors)
            models_used[column_name] = "knn"
            model.fit(matrix[train_rows], target_values)
            predictions = _reference_knn_predict(model, matrix[rows])
        column_values: list[Any] = []
        for row, prediction in zip(rows, predictions):
            value = prediction
            if target_column.dtype == "int" and value is not None:
                value = int(round(float(value)))
            column_values.append(value)
            repairs[(row, column_name)] = value
        patches[column_name] = (rows, column_values)
    return repairs, patches, models_used


def compile_noisy(frame: DataFrame, context) -> set:
    """Shared signal compilation for detect-equivalence comparisons."""
    return HoloCleanDetector().compile_signals(frame, context)
