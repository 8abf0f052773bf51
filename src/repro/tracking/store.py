"""File-backed experiment tracking (MLflow substitute).

Runs are grouped into named experiments — DataLens uses "Detection" and
"Repair" (§5) — and each run stores params, (stepped) metrics, tags, and
artifacts under a directory tree:

    <root>/<experiment_id>/meta.json
    <root>/<experiment_id>/<run_id>/meta.json
    <root>/<experiment_id>/<run_id>/params.json
    <root>/<experiment_id>/<run_id>/metrics.json
    <root>/<experiment_id>/<run_id>/artifacts/...

Every file is written to a tmp sibling and renamed into place, so a
concurrent reader sees the previous content or the new one, never a
torn file. A run's ``meta.json`` is written last, because readers list
runs by it.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ACTIVE = "active"
FINISHED = "finished"
FAILED = "failed"


@dataclass
class RunRecord:
    """In-memory view of one tracked run."""

    run_id: str
    experiment_id: str
    name: str
    status: str = ACTIVE
    start_time: float = field(default_factory=time.time)
    end_time: float | None = None
    params: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    tags: dict[str, str] = field(default_factory=dict)

    def latest_metrics(self) -> dict[str, float]:
        return {
            key: history[-1][1] for key, history in self.metrics.items() if history
        }


def _atomic_write(path: Path, blob: bytes) -> None:
    """Write a file via tmp sibling + atomic rename.

    A crash or ENOSPC mid-write leaves at most a ``.tmp`` sibling — the
    final path either does not exist or holds the complete blob, so a
    reader can never observe a torn file.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    _atomic_write(path, text.encode("utf-8"))


class TrackingStore:
    """Persistence layer for experiments and runs."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._experiments_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Experiments
    # ------------------------------------------------------------------
    def create_experiment(self, name: str) -> str:
        with self._experiments_lock:
            existing = self.experiment_id_by_name(name)
            if existing is not None:
                return existing
            experiment_id = f"exp_{len(self.list_experiments()):04d}"
            path = self.root / experiment_id
            path.mkdir(parents=True, exist_ok=True)
            _write_text(
                path / "meta.json",
                json.dumps({"experiment_id": experiment_id, "name": name}),
            )
            return experiment_id

    def experiment_id_by_name(self, name: str) -> str | None:
        for experiment in self.list_experiments():
            if experiment["name"] == name:
                return experiment["experiment_id"]
        return None

    def list_experiments(self) -> list[dict[str, Any]]:
        experiments = []
        for meta_path in sorted(self.root.glob("exp_*/meta.json")):
            experiments.append(json.loads(meta_path.read_text(encoding="utf-8")))
        return experiments

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def create_run(self, experiment_id: str, name: str) -> RunRecord:
        if not (self.root / experiment_id / "meta.json").exists():
            raise KeyError(f"unknown experiment {experiment_id!r}")
        run = RunRecord(
            run_id=uuid.uuid4().hex[:12],
            experiment_id=experiment_id,
            name=name,
        )
        self.save_run(run)
        return run

    def run_dir(self, run: RunRecord) -> Path:
        return self.root / run.experiment_id / run.run_id

    def save_run(self, run: RunRecord) -> None:
        path = self.run_dir(run)
        path.mkdir(parents=True, exist_ok=True)
        _write_text(path / "params.json", json.dumps(run.params, default=str))
        _write_text(path / "metrics.json", json.dumps(run.metrics))
        _write_text(
            path / "meta.json",
            json.dumps(
                {
                    "run_id": run.run_id,
                    "experiment_id": run.experiment_id,
                    "name": run.name,
                    "status": run.status,
                    "start_time": run.start_time,
                    "end_time": run.end_time,
                    "tags": run.tags,
                }
            ),
        )

    def load_run(self, experiment_id: str, run_id: str) -> RunRecord:
        path = self.root / experiment_id / run_id
        if not path.exists():
            raise KeyError(f"unknown run {run_id!r}")
        meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
        params = json.loads((path / "params.json").read_text(encoding="utf-8"))
        metrics_raw = json.loads((path / "metrics.json").read_text(encoding="utf-8"))
        run = RunRecord(
            run_id=meta["run_id"],
            experiment_id=meta["experiment_id"],
            name=meta["name"],
            status=meta["status"],
            start_time=meta["start_time"],
            end_time=meta["end_time"],
            params=params,
            metrics={
                key: [(int(step), float(value)) for step, value in history]
                for key, history in metrics_raw.items()
            },
            tags=dict(meta.get("tags", {})),
        )
        return run

    def list_runs(self, experiment_id: str) -> list[RunRecord]:
        base = self.root / experiment_id
        runs = []
        if not base.exists():
            return runs
        for run_dir in sorted(base.iterdir()):
            if run_dir.is_dir() and (run_dir / "meta.json").exists():
                runs.append(self.load_run(experiment_id, run_dir.name))
        return runs

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    def log_artifact_text(
        self, run: RunRecord, file_name: str, content: str
    ) -> Path:
        artifact_dir = self.run_dir(run) / "artifacts"
        artifact_dir.mkdir(parents=True, exist_ok=True)
        path = artifact_dir / file_name
        _write_text(path, content)
        return path
