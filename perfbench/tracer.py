"""Spans the benchmark records around calls into the program's layers.

The program has no tracing of its own, so the benchmark wraps the entry
point of each layer from the outside (``install``). A function is
replaced under every name that refers to it in a loaded ``repro``
module, because callers look names up in their own module:
``ingestion/loader.py`` and ``versioning/table.py`` bind ``write_csv``
at import time, so wrapping ``repro.dataframe.io`` alone would miss
them. Methods are wrapped once, on their class.

Each span records its duration and its self time (duration minus the
time of its direct child spans on the same thread). Spans are kept per
thread, so the server's dispatch and job threads each get their own
parent chain. Aggregates stay in memory and are returned by
``Tracer.snapshot`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable

_now = time.perf_counter_ns

#: Modules whose names are scanned for wrapped functions.
_PROGRAM_MODULES = (
    "repro.api.app",
    "repro.api.http",
    "repro.api.jobs",
    "repro.core",
    "repro.core.controller",
    "repro.dataframe",
    "repro.dataframe.io",
    "repro.dataframe.joins",
    "repro.dataframe.ops",
    "repro.dataframe.sort",
    "repro.dataframe.spill",
    "repro.detection",
    "repro.ingestion.loader",
    "repro.profiling",
    "repro.profiling.report",
    "repro.repair",
    "repro.tracking",
    "repro.versioning",
    "repro.versioning.table",
)

#: Spans whose individual call durations are kept (cold vs warm profile).
KEEP_CALLS = ("profiling.profile",)


class Tracer:
    """Per-name span aggregates plus plain counters, thread-safe."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, total_ns, self_ns]
        self._spans: dict[str, list[int]] = {}
        #: name -> inclusive duration (ns) of every call, in call order,
        #: for the span names listed in ``KEEP_CALLS``.
        self._calls: dict[str, list[int]] = {name: [] for name in KEEP_CALLS}
        self._counters: dict[str, float] = {}
        self.spill_stores: list[Any] = []

    def _stack(self) -> list[list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, duration: int, own: int) -> None:
        with self._lock:
            entry = self._spans.get(name)
            if entry is None:
                entry = self._spans[name] = [0, 0, 0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
            if name in self._calls:
                self._calls[name].append(duration)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def run(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack()
        children = [0]
        stack.append(children)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = _now() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            self._record(name, duration, duration - children[0])

    def snapshot(self) -> dict[str, Any]:
        """Aggregates in seconds: ``spans[name] = [calls, total_s, self_s]``."""
        with self._lock:
            return {
                "spans": {
                    name: [calls, total / 1e9, own / 1e9]
                    for name, (calls, total, own) in self._spans.items()
                },
                "calls": {
                    name: [duration / 1e9 for duration in durations]
                    for name, durations in self._calls.items()
                },
                "counters": dict(self._counters),
            }


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _replace_everywhere(original: Callable, replacement: Callable) -> int:
    """Rebind every module-level name in ``repro`` that holds ``original``."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


def _wrap_function(module_name: str, attr: str, wrapper_for) -> None:
    original = getattr(importlib.import_module(module_name), attr)
    if _replace_everywhere(original, wrapper_for(original)) == 0:
        raise RuntimeError(f"{module_name}.{attr} is bound nowhere")


def _wrap_method(cls: type, attr: str, wrapper_for) -> None:
    setattr(cls, attr, wrapper_for(getattr(cls, attr)))


def _spanned(tracer: Tracer, name: str | Callable[..., str]):
    """Wrapper factory: run the original inside a span.

    ``name`` may be a callable receiving the call's arguments, for spans
    named after the receiver (``detection.<tool>``) or the request
    (``http.dispatch.<route>``).
    """

    def wrapper_for(original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            return tracer.run(label, original, *args, **kwargs)

        return traced

    return wrapper_for


def route_of(path: str) -> str:
    """Short route label for a REST path (``/datasets/d/profile`` -> profile)."""
    parts = [part for part in path.strip("/").split("/") if part]
    if parts[:1] == ["jobs"]:
        return "job_poll"
    if parts[:1] == ["datasets"] and len(parts) >= 2:
        rest = parts[2:]
        if not rest:
            return "preview"
        if rest == ["versions", "restore"]:
            return "restore"
        return "_".join(rest)
    return "_".join(parts) or "root"


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark reports."""
    from repro.api.http import Router
    from repro.api.jobs import JobQueue, RWLock
    from repro.core.controller import DataLens, DataLensSession
    from repro.dataframe.spill import SpillStore
    from repro.detection.base import Detector
    from repro.repair.base import RepairResult, Repairer
    from repro.tracking.client import TrackingClient
    from repro.tracking.store import TrackingStore
    from repro.versioning.table import DeltaTable

    for module_name in _PROGRAM_MODULES:
        importlib.import_module(module_name)

    # controller: one span per session stage (inclusive time is reported).
    for cls, attr, stage in (
        (DataLens, "ingest_frame", "ingest"),
        (DataLens, "ingest_csv_stream", "ingest"),
        (DataLensSession, "profile", "profile"),
        (DataLensSession, "quality_metrics", "quality"),
        (DataLensSession, "run_detection", "detect"),
        (DataLensSession, "run_repair", "repair"),
        (DataLensSession, "load_version", "load_version"),
        (DataLensSession, "version_history", "history"),
    ):
        _wrap_method(cls, attr, _spanned(tracer, f"controller.{stage}"))

    # io: CSV render/parse, wrapped wherever the name is bound.
    def write_csv_wrapper(original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(frame, *args: Any, **kwargs: Any) -> Any:
            tracer.count("io.write_csv_rows", frame.num_rows)
            return tracer.run("io.write_csv", original, frame, *args, **kwargs)

        return traced

    _wrap_function("repro.dataframe.io", "write_csv", write_csv_wrapper)
    for attr in ("read_csv", "read_csv_stream", "read_csv_chunked"):
        _wrap_function("repro.dataframe.io", attr, _spanned(tracer, f"io.{attr}"))

    # versioning: Delta commits, reads, log scans.
    for attr in ("write", "read", "history", "restore"):
        _wrap_method(DeltaTable, attr, _spanned(tracer, f"versioning.{attr}"))

    # profiling, detection, repair, tracking.
    _wrap_function(
        "repro.profiling.report", "profile", _spanned(tracer, "profiling.profile")
    )
    _wrap_method(
        Detector,
        "detect",
        _spanned(tracer, lambda self, *a, **k: f"detection.{self.name}"),
    )
    _wrap_method(Repairer, "repair", _spanned(tracer, "repair.fit"))
    _wrap_method(RepairResult, "apply_to", _spanned(tracer, "repair.apply"))
    for attr in ("log_param", "log_params", "log_metric", "log_text_artifact"):
        _wrap_method(TrackingClient, attr, _spanned(tracer, "tracking.log"))
    for attr in ("create_experiment", "create_run", "save_run", "log_artifact_text"):
        _wrap_method(TrackingStore, attr, _spanned(tracer, "tracking.log"))

    # spill: shard writes and loads; stores are kept for their counters.
    original_init = SpillStore.__init__

    @functools.wraps(original_init)
    def init(self, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        with tracer._lock:
            tracer.spill_stores.append(self)

    SpillStore.__init__ = init
    _wrap_method(SpillStore, "spill", _spanned(tracer, "spill.spill"))
    _wrap_method(SpillStore, "load", _spanned(tracer, "spill.load"))
    _wrap_method(SpillStore, "load_mask", _spanned(tracer, "spill.load"))

    # joins, sort, ops: the relational operators and the join planner.
    _wrap_function("repro.dataframe.joins", "join", _spanned(tracer, "joins.join"))
    _wrap_function(
        "repro.dataframe.joins",
        "semi_join_mask",
        _spanned(tracer, "joins.semi_join"),
    )

    def planner_wrapper(original: Callable) -> Callable:
        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> str:
            strategy = original(*args, **kwargs)
            tracer.count(f"joins.strategy.{strategy}")
            return strategy

        return counted

    _wrap_function("repro.dataframe.joins", "resolve_join_strategy", planner_wrapper)
    _wrap_function("repro.dataframe.ops", "sort_by", _spanned(tracer, "sort.sort"))
    _wrap_function("repro.dataframe.ops", "group_by", _spanned(tracer, "ops.group_by"))

    # http: one span per dispatched request, named by route.
    _wrap_method(
        Router,
        "dispatch",
        _spanned(
            tracer,
            lambda self, request: "http.dispatch."
            + route_of(request.path),
        ),
    )

    # jobs: queue wait (submit -> first run), run time, lock acquisition.
    original_run = JobQueue._run

    @functools.wraps(original_run)
    def run_job(self, job, work):
        tracer.count("jobs.queue_wait_s", max(0.0, time.time() - job.submitted_at))
        return tracer.run("jobs.run", original_run, self, job, work)

    JobQueue._run = run_job

    def lock_wrapper(original: Callable) -> Callable:
        @contextmanager
        @functools.wraps(original)
        def timed(self):
            start = _now()
            with original(self):
                tracer.count("jobs.lock_wait_s", (_now() - start) / 1e9)
                yield

        return timed

    _wrap_method(RWLock, "read_lock", lock_wrapper)
    _wrap_method(RWLock, "write_lock", lock_wrapper)
