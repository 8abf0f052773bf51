"""KATARA-style knowledge-based error detection.

KATARA aligns table columns with a curated knowledge base (KB): columns are
matched to semantic types by value coverage, and column pairs are matched to
KB relations; cells that disagree with the aligned knowledge are flagged.
The KB here is a small networkx-backed store with typed value nodes and
binary relations — enough to exercise the same alignment/flagging pipeline
the real system runs against web-scale KBs.
"""

from __future__ import annotations

from typing import Any, Iterable

import networkx as nx

from ..dataframe import Cell, DataFrame
from .base import DetectionContext, Detector


class KnowledgeBase:
    """Typed value dictionaries plus binary relations between them."""

    def __init__(self) -> None:
        self.graph = nx.DiGraph()
        self._types: dict[str, set[str]] = {}
        self._relations: dict[tuple[str, str], dict[str, set[str]]] = {}

    # ------------------------------------------------------------------
    def add_type(self, type_name: str, values: Iterable[Any]) -> None:
        """Register a semantic type and its valid surface forms."""
        normalized = {self._norm(v) for v in values}
        self._types.setdefault(type_name, set()).update(normalized)
        for value in normalized:
            self.graph.add_node((type_name, value), kind="value")

    def add_relation(
        self, left_type: str, right_type: str, pairs: Iterable[tuple[Any, Any]]
    ) -> None:
        """Register valid (left, right) pairs, e.g. city -> state."""
        key = (left_type, right_type)
        table = self._relations.setdefault(key, {})
        for left, right in pairs:
            left_n, right_n = self._norm(left), self._norm(right)
            table.setdefault(left_n, set()).add(right_n)
            self._types.setdefault(left_type, set()).add(left_n)
            self._types.setdefault(right_type, set()).add(right_n)
            self.graph.add_edge(
                (left_type, left_n), (right_type, right_n), relation=key
            )

    @staticmethod
    def _norm(value: Any) -> str:
        return str(value).strip().lower()

    # ------------------------------------------------------------------
    def values_of(self, type_name: str) -> set[str]:
        return self._types.get(type_name, set())

    def match_column(
        self, values: list[Any], min_coverage: float = 0.6
    ) -> tuple[str | None, float]:
        """Best-covering semantic type for a column.

        Coverage is row-weighted (fraction of non-missing cells whose value
        appears in the type's vocabulary), so a handful of typo variants
        cannot mask an otherwise well-aligned column.
        """
        normalized = [self._norm(v) for v in values if v is not None]
        if not normalized:
            return None, 0.0
        best_type, best_coverage = None, 0.0
        for type_name, vocabulary in sorted(self._types.items()):
            hits = sum(1 for value in normalized if value in vocabulary)
            coverage = hits / len(normalized)
            if coverage > best_coverage:
                best_type, best_coverage = type_name, coverage
        if best_coverage >= min_coverage:
            return best_type, best_coverage
        return None, best_coverage

    def relation_for(
        self, left_type: str, right_type: str
    ) -> dict[str, set[str]] | None:
        return self._relations.get((left_type, right_type))


def default_knowledge_base() -> KnowledgeBase:
    """KB covering the bundled datasets (US geography + beer styles)."""
    kb = KnowledgeBase()
    city_state = [
        ("BIRMINGHAM", "AL"), ("DOTHAN", "AL"), ("BOAZ", "AL"),
        ("FLORENCE", "AL"), ("SHEFFIELD", "AL"), ("OPP", "AL"),
        ("LUVERNE", "AL"), ("CENTRE", "AL"), ("GADSDEN", "AL"),
        ("JACKSONVILLE", "FL"), ("MIAMI", "FL"), ("TAMPA", "FL"),
        ("ATLANTA", "GA"), ("SAVANNAH", "GA"), ("MACON", "GA"),
    ]
    kb.add_type("us_state", [state for _, state in city_state])
    kb.add_type("us_city", [city for city, _ in city_state])
    kb.add_relation("us_city", "us_state", city_state)
    kb.add_type(
        "beer_style",
        [
            "American IPA", "American Pale Ale", "Stout", "Porter",
            "Lager", "Hefeweizen", "Pilsner", "Saison",
        ],
    )
    kb.add_type(
        "medical_condition",
        [
            "Heart Attack", "Heart Failure", "Pneumonia",
            "Surgical Infection Prevention",
        ],
    )
    return kb


class KATARADetector(Detector):
    """Flag cells that disagree with the aligned knowledge base."""

    name = "katara"

    def __init__(self, min_coverage: float = 0.6) -> None:
        super().__init__(min_coverage=min_coverage)
        self.min_coverage = min_coverage

    def _detect(
        self, frame: DataFrame, context: DetectionContext
    ) -> tuple[set[Cell], dict[Cell, float], dict[str, Any]]:
        kb: KnowledgeBase = context.knowledge_base or default_knowledge_base()
        cells: set[Cell] = set()
        alignments: dict[str, str] = {}
        for name in frame.categorical_column_names():
            column_values = frame.column(name).values()
            type_name, coverage = kb.match_column(
                column_values, min_coverage=self.min_coverage
            )
            if type_name is None:
                continue
            alignments[name] = type_name
            vocabulary = kb.values_of(type_name)
            for row, value in enumerate(column_values):
                if value is None:
                    continue
                if KnowledgeBase._norm(value) not in vocabulary:
                    cells.add((row, name))
        cells |= self._relation_violations(frame, kb, alignments)
        scores = {cell: 1.0 for cell in cells}
        return cells, scores, {"alignments": alignments}

    def _relation_violations(
        self, frame: DataFrame, kb: KnowledgeBase, alignments: dict[str, str]
    ) -> set[Cell]:
        cells: set[Cell] = set()
        columns = list(alignments)
        for left_col in columns:
            for right_col in columns:
                if left_col == right_col:
                    continue
                table = kb.relation_for(alignments[left_col], alignments[right_col])
                if table is None:
                    continue
                for row in range(frame.num_rows):
                    left = frame.at(row, left_col)
                    right = frame.at(row, right_col)
                    if left is None or right is None:
                        continue
                    allowed = table.get(KnowledgeBase._norm(left))
                    if allowed is not None and KnowledgeBase._norm(right) not in allowed:
                        cells.add((row, right_col))
        return cells
