"""Background jobs and per-dataset locking for the async REST layer.

This module holds the concurrency machinery that lets the serving layer
(:mod:`repro.api.app` over :mod:`repro.api.http`) answer requests while
heavy pipeline work runs elsewhere:

``JobQueue``
    A bounded :class:`~concurrent.futures.ThreadPoolExecutor` executing
    profiling / detection / repair / iterative-clean work off the HTTP
    event loop. ``POST …?async=1`` submits a job and returns ``202``
    with a job id; ``GET /jobs/{id}`` polls it. Job lifecycle::

        queued ──> running ──> done      (result carries the payload)
                     │   └───> failed    (error carries the detail)
                     └─> retrying ──> running ──> …

    The worker count comes from the ``workers`` argument, else
    ``DATALENS_SERVER_WORKERS`` (see :class:`repro.settings.Settings`
    for every variable and its default). Finished jobs are retained
    (newest first) up to ``max_retained`` so polls after completion
    still answer.

    Overload and failure handling:

    * The queue is **depth-bounded** (``max_depth``, else
      ``DATALENS_JOB_QUEUE_DEPTH`` active jobs): submitting beyond it raises
      :class:`JobQueueFullError`, which the REST layer maps to ``429`` +
      ``Retry-After`` instead of queueing unboundedly.
    * Jobs failing with a **transient** error (see
      :func:`repro.core.faults.is_transient`) are retried automatically
      with exponential backoff + seeded jitter, up to ``retries``, else
      ``DATALENS_JOB_RETRIES``, extra attempts; every attempt
      is recorded in ``Job.attempts`` and visible via ``GET /jobs/{id}``.
    * :meth:`JobQueue.shutdown` with a ``drain_timeout`` stops accepting
      (:class:`JobQueueClosedError` → ``503``), waits for active jobs up
      to the deadline, fails whatever is still queued with a
      ``cancelled`` error, then force-cancels the pool — no silently
      abandoned work.

``RWLock`` / ``LockRegistry``
    Per-dataset reader/writer locks: any number of read-only requests
    proceed concurrently, while mutating requests (ingest, detect,
    repair, restore, labels, tags, rules) serialize against both
    readers and each other. Writer-preference keeps a stream of reads
    from starving a pending mutation. The registry hands out one lock
    per ``(tenant, dataset)`` key.
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterator

from ..core import faults as _faults
from ..settings import VARIABLES, resolve

QUEUED = "queued"
RUNNING = "running"
RETRYING = "retrying"
DONE = "done"
FAILED = "failed"

#: Statuses that count against the queue-depth bound.
ACTIVE_STATUSES = (QUEUED, RUNNING, RETRYING)


class JobQueueFullError(RuntimeError):
    """The queue is at its depth bound (mapped to HTTP 429 + Retry-After)."""

    def __init__(self, depth: int) -> None:
        super().__init__(
            f"job queue is full ({depth} active jobs); retry shortly or "
            f"raise {VARIABLES['job_queue_depth'].env}"
        )
        self.depth = depth


class JobQueueClosedError(RuntimeError):
    """The queue is shutting down and accepts no new work (HTTP 503)."""

    def __init__(self) -> None:
        super().__init__("job queue is shutting down; no new work accepted")


class JobNotFoundError(KeyError):
    """Unknown job id (mapped to HTTP 404 by the REST app)."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"no job with id {job_id!r}")
        self.job_id = job_id

    def __str__(self) -> str:  # KeyError would add quotes around the message
        return self.args[0]


@dataclass
class Job:
    """One queued unit of pipeline work and its lifecycle record."""

    id: str
    kind: str
    dataset: str | None
    tenant: str
    status: str = QUEUED
    result: Any = None
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: One record per failed attempt: ``{"attempt", "error",
    #: "started_at", "finished_at", "backoff_seconds"}`` —
    #: ``backoff_seconds`` is None on the final (non-retried) failure.
    attempts: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "dataset": self.dataset,
            "tenant": self.tenant,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": [dict(record) for record in self.attempts],
        }
        if self.status == DONE:
            payload["result"] = self.result
        if self.status == FAILED:
            payload["error"] = self.error
        return payload


class JobQueue:
    """Bounded worker pool with pollable job records.

    Thread safety: all job-state transitions happen under one lock, and
    a condition variable backs :meth:`wait`. Work callables run on the
    pool; an exception marks the job ``failed`` with
    ``"ExcType: detail"`` as the error (it never escapes the worker).
    """

    def __init__(
        self,
        workers: int | None = None,
        max_retained: int = 512,
        max_depth: int | None = None,
        retries: int | None = None,
        retry_base_delay: float = 0.05,
    ) -> None:
        self.workers = resolve("server_workers", workers, "workers")
        if max_retained < 1:
            raise ValueError(f"max_retained must be >= 1, got {max_retained}")
        self._max_retained = max_retained
        self.max_depth = resolve("job_queue_depth", max_depth, "max_depth")
        self.retries = resolve("job_retries", retries, "retries")
        self.retry_base_delay = retry_base_delay
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="datalens-job"
        )
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._accepting = True
        self.rejected_full = 0
        self.rejected_closed = 0
        self.retried_attempts = 0
        # Seeded so backoff jitter — and thus chaos-suite timing — is
        # reproducible run to run.
        self._jitter_rng = random.Random(0)

    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        work: Callable[[], Any],
        dataset: str | None = None,
        tenant: str = "default",
    ) -> Job:
        """Queue ``work`` on the pool; returns the (still queued) job.

        Raises :class:`JobQueueClosedError` once :meth:`shutdown` has
        begun and :class:`JobQueueFullError` when active (queued /
        running / retrying) jobs have reached ``max_depth``.
        """
        job = Job(id=uuid.uuid4().hex, kind=kind, dataset=dataset, tenant=tenant)
        with self._lock:
            if not self._accepting:
                self.rejected_closed += 1
                raise JobQueueClosedError()
            active = sum(
                1
                for existing in self._jobs.values()
                if existing.status in ACTIVE_STATUSES
            )
            if active >= self.max_depth:
                self.rejected_full += 1
                raise JobQueueFullError(active)
            self._jobs[job.id] = job
            self._prune_locked()
        self._pool.submit(self._run, job, work)
        return job

    def _run(self, job: Job, work: Callable[[], Any]) -> None:
        attempt = 0
        while True:
            with self._changed:
                if job.status == FAILED:
                    # Cancelled while queued/sleeping (drain deadline).
                    return
                job.status = RUNNING
                if job.started_at is None:
                    job.started_at = time.time()
                attempt_started = time.time()
                self._changed.notify_all()
            try:
                _faults.maybe_fire("job.run")
                result = work()
            except BaseException as error:  # noqa: BLE001 — a job failure
                # must land in the job record, not kill the worker thread.
                detail = getattr(error, "detail", None) or str(error)
                message = f"{type(error).__name__}: {detail}"
                retry = (
                    _faults.is_transient(error)
                    and attempt < self.retries
                )
                with self._changed:
                    if job.status == FAILED:
                        return
                    retry = retry and self._accepting
                    backoff = None
                    if retry:
                        backoff = self.retry_base_delay * (2**attempt) + (
                            self.retry_base_delay * self._jitter_rng.random()
                        )
                        job.status = RETRYING
                        self.retried_attempts += 1
                    else:
                        job.status = FAILED
                        job.error = message
                        job.finished_at = time.time()
                    job.attempts.append(
                        {
                            "attempt": attempt + 1,
                            "error": message,
                            "started_at": attempt_started,
                            "finished_at": time.time(),
                            "backoff_seconds": backoff,
                        }
                    )
                    self._changed.notify_all()
                if not retry:
                    return
                time.sleep(backoff)
                attempt += 1
            else:
                with self._changed:
                    if job.status == FAILED:
                        return
                    job.status = DONE
                    job.result = result
                    job.finished_at = time.time()
                    self._changed.notify_all()
                return

    def _prune_locked(self) -> None:
        finished = [
            job_id
            for job_id, job in self._jobs.items()
            if job.status in (DONE, FAILED)
        ]
        excess = len(self._jobs) - self._max_retained
        for job_id in finished[: max(0, excess)]:
            del self._jobs[job_id]

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        return job

    def list(
        self, tenant: str | None = None, dataset: str | None = None
    ) -> list[Job]:
        """Matching jobs, newest submission first."""
        with self._lock:
            jobs = list(self._jobs.values())
        if tenant is not None:
            jobs = [job for job in jobs if job.tenant == tenant]
        if dataset is not None:
            jobs = [job for job in jobs if job.dataset == dataset]
        return sorted(jobs, key=lambda job: job.submitted_at, reverse=True)

    def wait(self, job_id: str, timeout: float = 30.0) -> Job:
        """Block until the job finishes; raises TimeoutError otherwise."""
        deadline = time.monotonic() + timeout
        job = self.get(job_id)
        with self._changed:
            while job.status not in (DONE, FAILED):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id!r} still {job.status} after {timeout}s"
                    )
                self._changed.wait(remaining)
        return job

    def shutdown(
        self, wait: bool = True, drain_timeout: float | None = None
    ) -> bool:
        """Stop accepting work and wind the pool down.

        Without ``drain_timeout`` this is the historical behavior:
        block (or not, per ``wait``) until the pool exits. With a
        ``drain_timeout``, active jobs get that many seconds to finish;
        whatever is still queued or retrying at the deadline is marked
        ``failed`` with a ``cancelled`` error (pollable afterwards) and
        the pool is force-cancelled. Returns True when every job
        finished on its own.
        """
        with self._changed:
            self._accepting = False
            self._changed.notify_all()
        if drain_timeout is None:
            self._pool.shutdown(wait=wait)
            return True
        deadline = time.monotonic() + drain_timeout
        with self._changed:
            while True:
                active = [
                    job
                    for job in self._jobs.values()
                    if job.status in ACTIVE_STATUSES
                ]
                if not active:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(remaining)
            drained = not active
            now = time.time()
            for job in active:
                job.status = FAILED
                job.error = (
                    "CancelledError: cancelled — server shut down before "
                    "the job could finish"
                )
                job.finished_at = now
            if active:
                self._changed.notify_all()
        self._pool.shutdown(wait=False, cancel_futures=True)
        return drained


class RWLock:
    """Writer-preference reader/writer lock (not reentrant).

    Any number of readers share the lock; a writer excludes readers and
    other writers. A waiting writer blocks *new* readers, so mutations
    cannot starve behind a stream of reads.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read_lock(self) -> Iterator[None]:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write_lock(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class LockRegistry:
    """One :class:`RWLock` per key, created on first use."""

    def __init__(self) -> None:
        self._locks: dict[Hashable, RWLock] = {}
        self._guard = threading.Lock()

    def of(self, *key: Hashable) -> RWLock:
        with self._guard:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = RWLock()
            return lock
