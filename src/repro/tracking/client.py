"""High-level tracking client with MLflow-style ergonomics."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from .store import ACTIVE, FAILED, FINISHED, RunRecord, TrackingStore

#: Experiment groups DataLens uses out of the box (§5).
DETECTION_EXPERIMENT = "Detection"
REPAIR_EXPERIMENT = "Repair"


class TrackingClient:
    """Log params/metrics/artifacts into a :class:`TrackingStore`.

    The active run is per thread: one client serves every session of a
    :class:`~repro.core.controller.DataLens`, and jobs on different
    datasets run their stages on different worker threads at once.
    """

    def __init__(self, root: str | Path) -> None:
        self.store = TrackingStore(root)
        self._local = threading.local()

    # ------------------------------------------------------------------
    @contextmanager
    def start_run(self, experiment: str, name: str) -> Iterator[RunRecord]:
        """Context manager around one run; marks failure on exception."""
        experiment_id = self.store.create_experiment(experiment)
        run = self.store.create_run(experiment_id, name)
        previous = getattr(self._local, "run", None)
        self._local.run = run
        try:
            yield run
        except Exception:
            run.status = FAILED
            raise
        else:
            run.status = FINISHED
        finally:
            run.end_time = time.time()
            self.store.save_run(run)
            self._local.run = previous

    def _require_active(self) -> RunRecord:
        run = getattr(self._local, "run", None)
        if run is None or run.status != ACTIVE:
            raise RuntimeError("no active run; use start_run()")
        return run

    # ------------------------------------------------------------------
    def log_param(self, key: str, value: Any) -> None:
        run = self._require_active()
        run.params[key] = value

    def log_params(self, params: dict[str, Any]) -> None:
        run = self._require_active()
        run.params.update(params)

    def log_metric(self, key: str, value: float, step: int | None = None) -> None:
        run = self._require_active()
        history = run.metrics.setdefault(key, [])
        next_step = step if step is not None else len(history)
        history.append((int(next_step), float(value)))

    def log_text_artifact(self, file_name: str, content: str) -> Path:
        run = self._require_active()
        return self.store.log_artifact_text(run, file_name, content)

    # ------------------------------------------------------------------
    def search_runs(
        self, experiment: str, status: str | None = None
    ) -> list[RunRecord]:
        experiment_id = self.store.experiment_id_by_name(experiment)
        if experiment_id is None:
            return []
        runs = self.store.list_runs(experiment_id)
        if status is not None:
            runs = [run for run in runs if run.status == status]
        return runs
