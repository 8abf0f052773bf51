"""Ongoing quality monitoring across dataset versions.

"Maintaining data quality is not a one-time task" (paper §1): this module
walks a Delta table's history, computes the quality panel for every
version, and reports regressions and drift between consecutive versions —
turning the reproducibility substrate into a monitoring loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..fd import FunctionalDependency
from ..profiling.compare import DriftFinding, compare_frames
from ..versioning import DeltaTable
from .quality import quality_summary


@dataclass
class VersionQuality:
    """Quality panel of one committed version."""

    version: int
    operation: str
    metrics: dict[str, float]
    num_rows: int
    num_columns: int


@dataclass
class QualityRegression:
    """A quality dimension that worsened between two versions."""

    metric: str
    from_version: int
    to_version: int
    before: float
    after: float

    @property
    def drop(self) -> float:
        return self.before - self.after


@dataclass
class MonitoringReport:
    """History-wide quality trajectory plus findings."""

    timeline: list[VersionQuality] = field(default_factory=list)
    regressions: list[QualityRegression] = field(default_factory=list)
    drift: dict[tuple[int, int], list[DriftFinding]] = field(
        default_factory=dict
    )

    def latest(self) -> VersionQuality | None:
        return self.timeline[-1] if self.timeline else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "timeline": [
                {
                    "version": entry.version,
                    "operation": entry.operation,
                    "metrics": entry.metrics,
                    "shape": [entry.num_rows, entry.num_columns],
                }
                for entry in self.timeline
            ],
            "regressions": [
                {
                    "metric": regression.metric,
                    "from_version": regression.from_version,
                    "to_version": regression.to_version,
                    "drop": round(regression.drop, 4),
                }
                for regression in self.regressions
            ],
            "drift_findings": {
                f"{a}->{b}": [finding.message for finding in findings]
                for (a, b), findings in self.drift.items()
            },
        }


class QualityMonitor:
    """Compute quality/drift across every version of a Delta table."""

    def __init__(
        self,
        rules: list[FunctionalDependency] | None = None,
        regression_threshold: float = 0.01,
    ) -> None:
        self.rules = list(rules or [])
        self.regression_threshold = regression_threshold

    def run(self, table: DeltaTable) -> MonitoringReport:
        """Profile every version and diff consecutive pairs."""
        report = MonitoringReport()
        previous_frame = None
        previous_entry: VersionQuality | None = None
        for commit in table.history():
            frame = table.read(commit.version)
            metrics = quality_summary(frame, rules=self.rules)
            entry = VersionQuality(
                version=commit.version,
                operation=commit.operation,
                metrics=metrics,
                num_rows=frame.num_rows,
                num_columns=frame.num_columns,
            )
            report.timeline.append(entry)
            if previous_entry is not None and previous_frame is not None:
                for metric, after in metrics.items():
                    before = previous_entry.metrics.get(metric)
                    if (
                        before is not None
                        and before - after > self.regression_threshold
                    ):
                        report.regressions.append(
                            QualityRegression(
                                metric=metric,
                                from_version=previous_entry.version,
                                to_version=entry.version,
                                before=before,
                                after=after,
                            )
                        )
                if frame.column_names == previous_frame.column_names:
                    findings = compare_frames(previous_frame, frame)
                    if findings:
                        report.drift[
                            (previous_entry.version, entry.version)
                        ] = findings
            previous_frame = frame
            previous_entry = entry
        return report
