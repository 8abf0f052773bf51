"""DataSheets — JSON records that make cleaning runs reproducible (§5).

A DataSheet compiles the dataset's name and paths, its shape, the
detection tools applied (with configurations), the number of erroneous
cells found, the repair tools executed, the rules in force, quality
metrics, the Delta versions before detection and after repair, and any
iterative-cleaning hyperparameters. ``replay`` rebuilds the exact tools
from the registry and reruns the pipeline on a frame.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..dataframe import DataFrame
from ..detection import DetectionContext, merge_results
from ..fd import FunctionalDependency
from .registry import make_detector, make_repairer

SCHEMA_VERSION = 1


@dataclass
class DataSheet:
    """Serializable record of one detect-and-repair pipeline execution."""

    dataset_name: str
    #: The workspace's ``dirty.csv``, which holds the latest upload.
    dirty_path: str = ""
    #: The repair version's data file in the Delta table; empty before
    #: a repair.
    repaired_path: str = ""
    num_rows: int = 0
    num_columns: int = 0
    detection_tools: list[dict[str, Any]] = field(default_factory=list)
    num_erroneous_cells: int = 0
    repair_tools: list[dict[str, Any]] = field(default_factory=list)
    rules: list[dict[str, Any]] = field(default_factory=list)
    tagged_values: list[str] = field(default_factory=list)
    quality_before: dict[str, float] = field(default_factory=dict)
    quality_after: dict[str, float] = field(default_factory=dict)
    version_before_detection: int | None = None
    version_after_repair: int | None = None
    hyperparameters: dict[str, Any] = field(default_factory=dict)
    created_at: float = field(default_factory=time.time)
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "dataset": {
                "name": self.dataset_name,
                "dirty_path": self.dirty_path,
                "repaired_path": self.repaired_path,
                "num_rows": self.num_rows,
                "num_columns": self.num_columns,
            },
            "detection": {
                "tools": self.detection_tools,
                "num_erroneous_cells": self.num_erroneous_cells,
            },
            "repair": {"tools": self.repair_tools},
            "rules": self.rules,
            "tagged_values": self.tagged_values,
            "quality": {
                "before": self.quality_before,
                "after": self.quality_after,
            },
            "versions": {
                "before_detection": self.version_before_detection,
                "after_repair": self.version_after_repair,
            },
            "hyperparameters": self.hyperparameters,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DataSheet":
        dataset = data.get("dataset", {})
        detection = data.get("detection", {})
        quality = data.get("quality", {})
        versions = data.get("versions", {})
        return cls(
            dataset_name=dataset.get("name", "unknown"),
            dirty_path=dataset.get("dirty_path", ""),
            repaired_path=dataset.get("repaired_path", ""),
            num_rows=int(dataset.get("num_rows", 0)),
            num_columns=int(dataset.get("num_columns", 0)),
            detection_tools=list(detection.get("tools", [])),
            num_erroneous_cells=int(detection.get("num_erroneous_cells", 0)),
            repair_tools=list(data.get("repair", {}).get("tools", [])),
            rules=list(data.get("rules", [])),
            tagged_values=list(data.get("tagged_values", [])),
            quality_before=dict(quality.get("before", {})),
            quality_after=dict(quality.get("after", {})),
            version_before_detection=versions.get("before_detection"),
            version_after_repair=versions.get("after_repair"),
            hyperparameters=dict(data.get("hyperparameters", {})),
            created_at=float(data.get("created_at", time.time())),
            schema_version=int(data.get("schema_version", SCHEMA_VERSION)),
        )

    @classmethod
    def load(cls, path: str | Path) -> "DataSheet":
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )

    # ------------------------------------------------------------------
    def replay(
        self, frame: DataFrame, context: DetectionContext | None = None
    ) -> DataFrame:
        """Re-execute the recorded pipeline on ``frame``.

        Detectors and repairers are rebuilt from their serialized configs;
        rules recorded in the sheet are restored into the context so
        rule-based tools behave identically.
        """
        context = context or DetectionContext()
        if not context.rules and self.rules:
            context.rules = [
                FunctionalDependency.from_dict(rule) for rule in self.rules
            ]
        results = []
        for spec in self.detection_tools:
            detector = make_detector(spec["name"], **spec.get("config", {}))
            results.append(detector.detect(frame, context))
        cells = merge_results(results)
        repaired = frame
        for spec in self.repair_tools:
            repairer = make_repairer(spec["name"], **spec.get("config", {}))
            repaired = repairer.repair(repaired, cells).apply_to(repaired)
        return repaired
