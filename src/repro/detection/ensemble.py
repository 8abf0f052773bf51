"""Ensemble detectors: Min-K voting and its union special case.

The paper's Min-K "combines the detections of multiple methods" (§3): a
cell counts as an error when at least ``k`` member tools flag it. ``k=1``
is the plain deduplicated union DataLens computes when several tools are
selected; ``k = len(members)`` is the intersection.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from ..dataframe import Cell, DataFrame
from .base import DetectionContext, DetectionResult, Detector


class MinKEnsemble(Detector):
    """Vote across member detectors; keep cells with >= k votes."""

    name = "min_k"

    def __init__(self, members: list[Detector], k: int = 2) -> None:
        if not members:
            raise ValueError("ensemble needs at least one member")
        if not 1 <= k <= len(members):
            raise ValueError("k must be between 1 and the number of members")
        super().__init__(
            k=k, members=[member.describe() for member in members]
        )
        self.members = members
        self.k = k

    def _detect(
        self, frame: DataFrame, context: DetectionContext
    ) -> tuple[set[Cell], dict[Cell, float], dict[str, Any]]:
        votes: Counter = Counter()
        member_results: list[DetectionResult] = []
        for member in self.members:
            result = member.detect(frame, context)
            member_results.append(result)
            votes.update(result.cells)
        cells = {cell for cell, count in votes.items() if count >= self.k}
        scores = {
            cell: count / len(self.members)
            for cell, count in votes.items()
            if count >= self.k
        }
        metadata = {
            "member_cells": {
                result.tool: len(result.cells) for result in member_results
            },
            "votes": {str(cell): count for cell, count in votes.most_common(20)},
        }
        return cells, scores, metadata


class UnionEnsemble(MinKEnsemble):
    """Deduplicated union of member detections (Min-K with k=1)."""

    name = "union"

    def __init__(self, members: list[Detector]) -> None:
        super().__init__(members, k=1)
        self.name = "union"
