"""Explainability for detections and repairs (paper future work 2).

Answers "why was this cell flagged?" and "how was this correction made?"
from the evidence the tools already produce (per-cell scores, configs,
metadata) plus cheap recomputation of the statistical context (column
mean/std/quartiles, violated rules, matched tags).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..dataframe import Cell, DataFrame
from ..detection import DetectionResult
from ..fd import FunctionalDependency


@dataclass
class Evidence:
    """One tool's reason for flagging a cell."""

    tool: str
    reason: str
    score: float | None = None
    details: dict[str, Any] = field(default_factory=dict)


@dataclass
class CellExplanation:
    """Everything known about one detected (and possibly repaired) cell."""

    cell: Cell
    value: Any
    evidence: list[Evidence] = field(default_factory=list)
    repair: dict[str, Any] | None = None

    def summary(self) -> str:
        row, column = self.cell
        lines = [f"cell ({row}, {column}) = {self.value!r}"]
        for item in self.evidence:
            score = f" (score {item.score:.2f})" if item.score is not None else ""
            lines.append(f"  [{item.tool}] {item.reason}{score}")
        if self.repair is not None:
            lines.append(
                f"  repaired by {self.repair['tool']} -> "
                f"{self.repair['new_value']!r} ({self.repair['method']})"
            )
        return "\n".join(lines)


def _column_context(frame: DataFrame, column: str) -> dict[str, float]:
    if column not in frame or not frame.column(column).is_numeric():
        return {}
    values = frame.column(column).to_numpy()
    finite = values[~np.isnan(values)]
    if len(finite) < 2:
        return {}
    q1, q3 = np.quantile(finite, [0.25, 0.75])
    return {
        "mean": float(np.mean(finite)),
        "std": float(np.std(finite)),
        "q1": float(q1),
        "q3": float(q3),
        "iqr": float(q3 - q1),
    }


def _statistical_reason(
    tool: str, value: Any, context: dict[str, float], config: dict[str, Any]
) -> str:
    if not context or value is None or isinstance(value, str):
        return "flagged by statistical screening"
    value = float(value)
    if tool == "sd":
        std = context["std"] or 1.0
        z = abs(value - context["mean"]) / std
        return (
            f"value deviates {z:.1f} standard deviations from the column "
            f"mean {context['mean']:.3g} (threshold k={config.get('k', 3.0)})"
        )
    if tool == "iqr":
        factor = config.get("factor", 1.5)
        low = context["q1"] - factor * context["iqr"]
        high = context["q3"] + factor * context["iqr"]
        return (
            f"value lies outside the robust band [{low:.3g}, {high:.3g}] "
            f"(IQR factor {factor})"
        )
    if tool == "isolation_forest":
        return "value isolates in very few random splits (anomaly score high)"
    return "flagged by statistical screening"


_TOOL_REASONS = {
    "mv_detector": "cell is missing or spells a null token",
    "fahes": "value matches a disguised-missing pattern "
             "(sentinel / detached repeated value / null-like spelling)",
    "katara": "value disagrees with the aligned knowledge-base type or relation",
    "holoclean": "observed value is far less probable than the best candidate "
                 "under attribute co-occurrence",
    "raha": "the per-column classifier trained on propagated user labels "
            "predicts this cell dirty",
    "user_tags": "value was tagged as dirty by the user",
    "min_k": "flagged by at least k member tools",
    "union": "flagged by at least one member tool",
}


def explain_cell(
    frame: DataFrame,
    cell: Cell,
    detection_results: dict[str, DetectionResult],
    rules: list[FunctionalDependency] | None = None,
    repair_result: Any = None,
    *,
    context: dict[str, float] | None = None,
    violations: dict[FunctionalDependency, set[Cell]] | None = None,
) -> CellExplanation:
    """Build the explanation for one cell from session artifacts.

    ``context`` (the statistics of the cell's column) and ``violations``
    (each rule's violation set) are computed here when omitted;
    :func:`explain_session` computes them once for all its cells.
    """
    rules = rules or []
    if context is None:
        context = _column_context(frame, cell[1])
    if violations is None:
        violations = _rule_violations(frame, [cell], detection_results, rules)
    row, column = cell
    value = frame.at(row, column) if column in frame else None
    explanation = CellExplanation(cell=cell, value=value)

    for tool, result in detection_results.items():
        if cell not in result.cells:
            continue
        score = result.scores.get(cell)
        if tool in ("sd", "iqr", "isolation_forest"):
            reason = _statistical_reason(tool, value, context, result.config)
        elif tool == "nadeef":
            reason = _rule_reason(cell, rules, result, violations)
        else:
            reason = _TOOL_REASONS.get(tool, "flagged by this tool")
        explanation.evidence.append(
            Evidence(tool=tool, reason=reason, score=score,
                     details={"config": result.config})
        )

    if repair_result is not None and cell in repair_result.repairs:
        method = repair_result.metadata.get("models", {}).get(column)
        if method is None:
            fills = repair_result.metadata.get("fill_values", {})
            method = (
                f"column fill value {fills[column]}"
                if column in fills
                else repair_result.tool
            )
        explanation.repair = {
            "tool": repair_result.tool,
            "new_value": repair_result.repairs[cell],
            "old_value": value,
            "method": method,
        }
    return explanation


def _rule_reason(
    cell: Cell,
    rules: list[FunctionalDependency],
    result: DetectionResult,
    violations: dict[FunctionalDependency, set[Cell]],
) -> str:
    violated = [str(rule) for rule in rules if cell in violations[rule]]
    if violated:
        return f"violates rule(s): {', '.join(violated)}"
    per_rule = result.metadata.get("violations_per_rule", {})
    active = [name for name, count in per_rule.items() if count]
    if active:
        return f"violates one of the discovered rules ({', '.join(active[:3])})"
    return "violates a quality rule"


def _rule_violations(
    frame: DataFrame,
    cells: list[Cell],
    detection_results: dict[str, DetectionResult],
    rules: list[FunctionalDependency],
) -> dict[FunctionalDependency, set[Cell]]:
    """Each rule's violation set, scanned only when NADEEF flagged a cell."""
    nadeef = detection_results.get("nadeef")
    if nadeef is None or not any(cell in nadeef.cells for cell in cells):
        return {}
    return {rule: rule.violations(frame) for rule in rules}


def explain_session(session: Any, limit: int = 20) -> list[CellExplanation]:
    """Explanations for the first ``limit`` detected cells of a session.

    Each rule's violation set and each column's context are computed
    once, not once per explained cell.
    """
    frame = session.frame
    results = session.detection_results
    cells = session.ordered_detections()[:limit]
    rules = session.rule_set.active_rules()
    violations = _rule_violations(frame, cells, results, rules)
    columns = {column for _, column in cells}
    contexts = {column: _column_context(frame, column) for column in columns}
    return [
        explain_cell(
            frame,
            cell,
            results,
            rules,
            session.repair_result,
            context=contexts[cell[1]],
            violations=violations,
        )
        for cell in cells
    ]
