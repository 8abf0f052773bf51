"""Detector interfaces shared by every error-detection tool.

All tools consume a DataFrame plus a :class:`DetectionContext` (rules,
user labels, tagged values, knowledge base) and emit a
:class:`DetectionResult` — a set of ``(row, column)`` cells with optional
per-cell scores. The uniform interface is what lets the dashboard run any
subset of tools and consolidate their output (§3), and what lets the
iterative cleaner treat tools as hyperparameters (§4).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..dataframe import Cell, DataFrame
from ..fd import FunctionalDependency, ValueRule


@dataclass
class DetectionContext:
    """Shared inputs the user-in-the-loop module can supply to detectors."""

    rules: list[FunctionalDependency] = field(default_factory=list)
    value_rules: list[ValueRule] = field(default_factory=list)
    labels: dict[Cell, bool] = field(default_factory=dict)
    tagged_values: set[Any] = field(default_factory=set)
    knowledge_base: Any = None
    labeler: Callable[[int, DataFrame], dict[Cell, bool]] | None = None
    labeling_budget: int = 20
    seed: int = 0
    #: Optional :class:`~repro.core.artifacts.ArtifactStore` (duck-typed):
    #: per-column detectors publish/reuse detection masks keyed by column
    #: content fingerprint, making repeated runs over unchanged columns
    #: cache hits.
    artifact_store: Any = None


@dataclass
class DetectionResult:
    """Output of one detection tool."""

    tool: str
    cells: set[Cell]
    config: dict[str, Any] = field(default_factory=dict)
    scores: dict[Cell, float] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.cells = set(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def rows(self) -> set[int]:
        return {row for row, _ in self.cells}

    def columns(self) -> set[str]:
        return {column for _, column in self.cells}

    def restricted_to(self, frame: DataFrame) -> "DetectionResult":
        """Drop cells that fall outside the frame (defensive consolidation)."""
        valid = {
            (row, column)
            for row, column in self.cells
            if 0 <= row < frame.num_rows and column in frame
        }
        return DetectionResult(
            tool=self.tool,
            cells=valid,
            config=dict(self.config),
            scores={c: s for c, s in self.scores.items() if c in valid},
            runtime_seconds=self.runtime_seconds,
            metadata=dict(self.metadata),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "tool": self.tool,
            "config": self.config,
            "num_cells": len(self.cells),
            "cells": sorted(self.cells),
            "runtime_seconds": self.runtime_seconds,
            "metadata": self.metadata,
        }


class Detector:
    """Base class: subclasses implement ``_detect`` and set ``name``."""

    name = "detector"

    def __init__(self, **config: Any) -> None:
        self.config: dict[str, Any] = dict(config)

    def detect(
        self, frame: DataFrame, context: DetectionContext | None = None
    ) -> DetectionResult:
        """Run the tool and wrap its cells with timing metadata."""
        context = context or DetectionContext()
        start = time.perf_counter()
        cells, scores, metadata = self._detect(frame, context)
        elapsed = time.perf_counter() - start
        result = DetectionResult(
            tool=self.name,
            cells=cells,
            config=dict(self.config),
            scores=scores,
            runtime_seconds=elapsed,
            metadata=metadata,
        )
        return result.restricted_to(frame)

    def _detect(
        self, frame: DataFrame, context: DetectionContext
    ) -> tuple[set[Cell], dict[Cell, float], dict[str, Any]]:
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "config": dict(self.config)}


def merge_results(results: list[DetectionResult]) -> set[Cell]:
    """Union of all result cells — DataLens's automatic deduplication.

    The dashboard executes selected tools sequentially and "consolidates
    their detections into a single array, filtering out duplicates" (§3);
    set union is exactly that.
    """
    merged: set[Cell] = set()
    for result in results:
        merged |= result.cells
    return merged


DetectorFactory = Callable[[], Detector]


def summarize_by_column(
    results: Mapping[str, DetectionResult], frame: DataFrame
) -> dict[str, dict[str, float]]:
    """Per-column detection rate per tool — the Figure 4 data series.

    One pass over each result's cells counts every column at once.
    """
    n_rows = frame.num_rows
    summary: dict[str, dict[str, float]] = {}
    for label, result in results.items():
        hits = Counter(column for _, column in result.cells)
        summary[label] = {
            column: hits[column] / n_rows if n_rows else 0.0
            for column in frame.column_names
        }
    return summary
