"""REST endpoints exposing the DataLens controller (§3's integration API).

The paper integrates external data-preparation tools through REST: POST
forwards tasks, GET retrieves results, PUT updates request state. This
app exposes that surface over the in-process controller so BI/ML
platforms (or the bundled dashboard) can drive the pipeline remotely —
now as an async job-queue server rather than one blocking thread per
request.

API reference
-------------
Datasets (all paths URL-decode ``{name}``, so spaces/unicode work):

==========  =====================================  =============================
Method      Path                                   Purpose
==========  =====================================  =============================
GET         /health                                liveness + dataset listing
GET         /datasets                              list datasets (this tenant)
POST        /datasets                              ingest ``records`` /
                                                   ``csv_text`` / ``preloaded``
POST        /datasets/{name}/upload                **streaming** CSV upload
                                                   (Content-Type ``text/csv``)
GET         /datasets/{name}                       preview (``?limit=``,
                                                   ``?sort_by=a,b``,
                                                   ``?descending=1``,
                                                   ``?sort_strategy=``)
GET         /datasets/{name}/profile               profile report [async-able]
GET         /datasets/{name}/quality               quality metrics
GET         /datasets/{name}/cache                 artifact-cache counters
GET         /datasets/{name}/spill                 spill-store counters
POST        /datasets/{name}/rules/discover        FD discovery
GET/PUT     /datasets/{name}/rules                 list / add / set status
POST        /datasets/{name}/rules/parse           natural-language rule
GET         /datasets/{name}/explanations          detection explanations
POST        /datasets/{name}/tags                  tag a value
PUT         /datasets/{name}/labels                label a cell
POST        /datasets/{name}/detect                run detectors [async-able]
GET         /datasets/{name}/detections            consolidated detections
POST        /datasets/{name}/repair                run a repairer [async-able]
GET         /datasets/{name}/datasheet             DataSheet (§5)
GET         /datasets/{name}/dashboard             dashboard HTML
GET         /datasets/{name}/drift                 version drift report
GET         /datasets/{name}/versions              Delta history
POST        /datasets/{name}/versions/restore      time travel
POST        /datasets/{name}/iterative             iterative clean [async-able]
GET         /jobs                                  this tenant's jobs
GET         /jobs/{job_id}                         poll one job
==========  =====================================  =============================

Async vs sync mode
    Endpoints marked *async-able* accept ``?async=1``: instead of
    holding the socket for the duration of the pipeline work, the
    request returns ``202`` with a job id immediately and the work runs
    on the bounded job pool. Poll ``GET /jobs/{id}`` for the lifecycle
    ``queued → running → done|failed`` — ``done`` carries the same
    payload the sync call would have returned, ``failed`` carries the
    error detail. Without the flag the call is synchronous and
    identical to the historical behavior.

    Jobs that fail with a *transient* error (connection resets,
    timeouts, injected :class:`~repro.core.faults.TransientFaultError`)
    are retried automatically with exponential backoff + jitter, up to
    ``DATALENS_JOB_RETRIES`` extra attempts; between
    attempts the job polls as ``retrying``, and every attempt's error,
    timing, and backoff is listed under ``attempts`` in the
    ``GET /jobs/{id}`` payload. A job still queued when the server
    shuts down polls as ``failed`` with a ``cancelled`` error.

Overload & degradation
    The serving path sheds load instead of queueing unboundedly:

    * ``429`` + ``Retry-After`` — the job queue is at its depth bound
      (``DATALENS_JOB_QUEUE_DEPTH`` active jobs).
    * ``503`` + ``Retry-After`` — the per-request deadline
      (``DATALENS_REQUEST_TIMEOUT``) elapsed
      before the handler finished, the server is draining for
      shutdown, or a transient fault surfaced; all are safe to retry.
    * ``507`` — storage exhaustion: the spill directory
      (:class:`~repro.dataframe.spill.SpillCapacityError`) or artifact
      cache (:class:`~repro.core.artifacts.ArtifactCapacityError`) is
      out of space.
    * ``500`` — a spilled shard failed its checksum
      (:class:`~repro.dataframe.spill.SpillError` names the shard and
      path): the server *refuses* to serve data it cannot verify.

    Every error above is a JSON body with a ``detail`` key — overload
    never surfaces as a hung socket or a non-JSON reply. Graceful
    shutdown (``shutdown(drain_timeout=…)`` on both the HTTP server and
    the job queue) stops intake, drains in-flight requests and running
    jobs up to the deadline, then force-cancels the remainder.

Fault injection (chaos testing)
    Setting ``DATALENS_FAULT_INJECT`` activates deterministic fault
    injection at named sites (``spill.read``, ``spill.write``,
    ``spill.evict``, ``artifact.get``, ``artifact.put``,
    ``ingest.chunk``, ``job.run``, ``http.write``). The spec grammar is
    ``rule(;rule)*`` with comma-separated ``key=value`` fields:
    ``site=<fnmatch pattern>`` (required), ``error=transient|fault|
    oserror|enospc|timeout|connection``, ``prob=<0..1>`` (seeded RNG),
    ``count=<max fires>``, ``after=<skip first N>``,
    ``latency=<seconds>``, ``seed=<int>`` — e.g.
    ``site=spill.*,error=transient,prob=0.01,seed=7``. Transient faults
    at storage sites are absorbed by bounded internal retries
    (``DATALENS_IO_RETRIES``), so responses stay bit-identical to a
    fault-free run; see :mod:`repro.core.faults`.

Concurrency model
    Each ``(tenant, dataset)`` pair has a reader/writer lock: read-only
    requests run concurrently while mutating requests (ingest, detect,
    repair, restore, labels, tags, rules, iterative) serialize against
    readers and each other — a detect and a repair hammering one
    dataset can interleave in any order but never corrupt session
    state. Job bodies acquire the same locks when they run, so async
    and sync traffic serialize together. On a *spilled* frame even
    read-only requests take the exclusive lock: a dense access
    materializes columns and releases their spilled records, which must
    not race with another reader still iterating them.

Multi-tenancy
    The tenant is the ``X-Tenant`` header (or ``?tenant=`` query
    parameter), defaulting to ``default``. Each tenant gets an isolated
    :class:`~repro.core.DataLens` workspace (``tenants/<name>/`` under
    the base workspace) — datasets, sessions, versions, and jobs are
    invisible across tenants. The content-addressed
    :class:`~repro.core.ArtifactStore` is deliberately *shared*:
    artifact keys are column fingerprints, so identical columns
    uploaded by different tenants hit the same cache entries.

Error semantics
    ``404`` unknown dataset/job (typed ``DatasetNotFoundError`` /
    ``JobNotFoundError`` — a stray ``KeyError`` from a handler bug is a
    logged ``500``), ``422`` missing/malformed fields and parameters
    (the detail names the offending parameter; negative limits are
    clamped to 0 instead of erroring), ``400`` domain errors
    (``ValueError`` / ``RuntimeError`` from the pipeline).

Environment knobs
    Every ``DATALENS_*`` variable, with its meaning, default and reader,
    is listed in :class:`repro.settings.Settings`.
"""

from __future__ import annotations

import heapq
import io
import re
from typing import Any, Callable

from ..core import ArtifactStore, DataLens, DatasetNotFoundError
from ..core.artifacts import ArtifactCapacityError
from ..core.faults import TransientFaultError
from ..dataframe import DataFrame, read_csv_text
from ..dataframe.spill import SpillCapacityError, SpillError
from .http import RETRY_AFTER_SECONDS, HTTPError, Request, Response, Router
from .jobs import (
    JobNotFoundError,
    JobQueue,
    JobQueueClosedError,
    JobQueueFullError,
    LockRegistry,
)

DEFAULT_TENANT = "default"
TENANT_HEADER = "x-tenant"
_TENANT_PATTERN = re.compile(r"^[A-Za-z0-9._\-]+$")
_TRUTHY = {"1", "true", "yes", "on"}


class TenantRegistry:
    """Per-tenant controllers over one shared, fingerprint-keyed cache.

    The ``default`` tenant is the controller handed to
    :func:`create_app`; any other tenant lazily gets its own
    :class:`~repro.core.DataLens` rooted at
    ``<base>/tenants/<tenant>`` with the same chunk/spill/seed
    configuration. All controllers share one
    :class:`~repro.core.ArtifactStore` — see the module docstring.
    """

    def __init__(self, base: DataLens) -> None:
        import threading

        if base.artifact_store is None:
            base.artifact_store = ArtifactStore()
        self.shared_artifacts = base.artifact_store
        self._base = base
        self._tenants: dict[str, DataLens] = {DEFAULT_TENANT: base}
        self._lock = threading.Lock()

    def lens_for(self, tenant: str) -> DataLens:
        with self._lock:
            lens = self._tenants.get(tenant)
            if lens is None:
                base = self._base
                lens = DataLens(
                    base.workspace_dir / "tenants" / tenant,
                    seed=base.seed,
                    chunk_size=base.loader.chunk_size,
                    profile_jobs=base.profile_jobs,
                    spill_budget=base.loader.spill_budget,
                    spill_dir=base.loader.spill_dir,
                    artifact_store=self.shared_artifacts,
                )
                self._tenants[tenant] = lens
            return lens

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)


# ----------------------------------------------------------------------
# Request parsing helpers (422 with the offending parameter named)
# ----------------------------------------------------------------------
def _require(body: Any, key: str) -> Any:
    if not isinstance(body, dict) or key not in body:
        raise HTTPError(422, f"missing required field {key!r}")
    return body[key]


def _int_param(
    source: Any, name: str, default: int | None, minimum: int | None = 0
) -> int | None:
    """Parse an optional integer parameter; 422 names it when malformed.

    Values below ``minimum`` are clamped rather than rejected, so a
    negative ``limit`` degrades to an empty listing instead of erroring.
    Pass ``minimum=None`` where clamping would change semantics (row
    indices, version numbers) — out-of-range values then fail in the
    handler with their usual status.
    """
    raw = (source or {}).get(name)
    if raw is None:
        return default
    if isinstance(raw, bool) or isinstance(raw, float):
        raise HTTPError(
            422, f"invalid integer for parameter {name!r}: {raw!r}"
        )
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise HTTPError(
            422, f"invalid integer for parameter {name!r}: {raw!r}"
        ) from None
    return value if minimum is None else max(minimum, value)


def _required_int(body: Any, name: str, minimum: int | None = 0) -> int:
    _require(body, name)
    value = _int_param(body, name, None, minimum=minimum)
    assert value is not None
    return value


def _float_param(source: Any, name: str, default: float) -> float:
    raw = (source or {}).get(name)
    if raw is None:
        return default
    if isinstance(raw, bool):
        raise HTTPError(422, f"invalid number for parameter {name!r}: {raw!r}")
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise HTTPError(
            422, f"invalid number for parameter {name!r}: {raw!r}"
        ) from None


def _tenant_of(request: Request) -> str:
    raw = (
        request.headers.get(TENANT_HEADER)
        or request.query.get("tenant")
        or DEFAULT_TENANT
    )
    if not _TENANT_PATTERN.match(raw):
        raise HTTPError(
            422,
            f"invalid tenant {raw!r}: use letters, digits, '.', '_', '-'",
        )
    return raw


def _wants_async(request: Request) -> bool:
    return request.query.get("async", "").strip().lower() in _TRUTHY


def _frame_preview(frame: DataFrame, limit: int = 20) -> dict[str, Any]:
    return {
        "num_rows": frame.num_rows,
        "num_columns": frame.num_columns,
        "columns": frame.column_names,
        "dtypes": frame.dtypes(),
        "rows": frame.head(limit).to_records(),
    }


def create_app(
    lens: DataLens,
    workers: int | None = None,
    job_queue: JobQueue | None = None,
) -> Router:
    """Build the REST router bound to one DataLens workspace.

    The returned router carries its serving collaborators as
    attributes: ``router.job_queue`` (bounded worker pool for
    ``?async=1`` submissions), ``router.locks`` (per-(tenant, dataset)
    reader/writer locks), and ``router.tenants`` (the
    :class:`TenantRegistry` with the shared artifact store). The job
    pool has ``workers`` threads, else ``DATALENS_SERVER_WORKERS``; its
    depth and retry budget, like every other ``DATALENS_*`` variable,
    come from :class:`repro.settings.Settings`.
    """
    router = Router()
    registry = TenantRegistry(lens)
    queue = job_queue if job_queue is not None else JobQueue(workers=workers)
    locks = LockRegistry()
    router.job_queue = queue
    router.locks = locks
    router.tenants = registry
    router.map_exception(DatasetNotFoundError, 404)
    router.map_exception(JobNotFoundError, 404)
    # Degradation mappings (subclasses before their bases): overload and
    # shutdown answer with Retry-After so well-behaved clients back off;
    # storage exhaustion is 507 Insufficient Storage; a corrupt spilled
    # shard is a server-side data fault (500), never silently wrong data.
    router.map_exception(JobQueueFullError, 429, retry_after=RETRY_AFTER_SECONDS)
    router.map_exception(
        JobQueueClosedError, 503, retry_after=RETRY_AFTER_SECONDS
    )
    router.map_exception(
        TransientFaultError, 503, retry_after=RETRY_AFTER_SECONDS
    )
    router.map_exception(SpillCapacityError, 507)
    router.map_exception(ArtifactCapacityError, 507)
    router.map_exception(SpillError, 500)

    # -- shared plumbing ------------------------------------------------
    def _session(request: Request):
        """Resolve (tenant, name, session); 404s before any job submit."""
        tenant = _tenant_of(request)
        name = request.path_params["name"]
        session = registry.lens_for(tenant).session(name)
        return tenant, name, session

    def _read_guard(tenant: str, name: str, session: Any):
        """Read lock — upgraded to exclusive while the frame is spilled.

        A "read" on a spilled frame is not storage-neutral: a dense
        access materializes the columns and *drops their references to
        the spilled records* (a segment file goes only once no column,
        copy included, holds a record in it), so two concurrent readers
        could release shards out from under each other. The
        spilled→dense transition happens exactly once,
        under this exclusive lock; once dense (``spill_store_of`` is
        None), reads are storage-neutral and run concurrently again.
        """
        from ..dataframe import spill_store_of

        lock = locks.of(tenant, name)
        if spill_store_of(session.frame) is not None:
            return lock.write_lock()
        return lock.read_lock()

    def _read(request: Request, fn: Callable[[Any], Any]):
        tenant, name, session = _session(request)
        with _read_guard(tenant, name, session):
            return fn(session)

    def _write(request: Request, fn: Callable[[Any], Any]):
        tenant, name, session = _session(request)
        with locks.of(tenant, name).write_lock():
            return fn(session)

    def _maybe_async(
        request: Request, kind: str, work: Callable[[], Any]
    ) -> Any:
        """Run ``work`` inline, or queue it when ``?async=1`` is set.

        ``work`` must do its own locking — it may execute later on a
        job-pool thread, where the request-time lock would be useless.
        """
        if not _wants_async(request):
            return work()
        tenant = _tenant_of(request)
        job = queue.submit(
            kind,
            work,
            dataset=request.path_params.get("name"),
            tenant=tenant,
        )
        return Response(
            202,
            {"job_id": job.id, "status": job.status, "poll": f"/jobs/{job.id}"},
        )

    # ------------------------------------------------------------------
    @router.get("/health")
    def health(request: Request) -> dict:
        tenant = _tenant_of(request)
        return {
            "status": "ok",
            "datasets": registry.lens_for(tenant).list_datasets(),
            "workers": queue.workers,
        }

    @router.get("/datasets")
    def list_datasets(request: Request) -> dict:
        tenant = _tenant_of(request)
        return {"datasets": registry.lens_for(tenant).list_datasets()}

    @router.post("/datasets")
    def ingest(request: Request) -> dict:
        tenant = _tenant_of(request)
        lens_t = registry.lens_for(tenant)
        body = request.body
        if "preloaded" in (body or {}):
            target = _require(body, "preloaded")
        else:
            target = _require(body, "name")
        if not isinstance(target, str) or not target:
            raise HTTPError(422, "dataset name must be a non-empty string")
        with locks.of(tenant, target).write_lock():
            if "records" in body:
                frame = DataFrame.from_records(body["records"])
                session = lens_t.ingest_frame(target, frame)
            elif "csv_text" in body:
                frame = read_csv_text(body["csv_text"])
                session = lens_t.ingest_frame(target, frame)
            elif "preloaded" in body:
                session = lens_t.ingest_preloaded(body["preloaded"])
            else:
                raise HTTPError(
                    422, "provide 'records', 'csv_text', or 'preloaded'"
                )
            return {"dataset": session.name, "shape": list(session.frame.shape)}

    @router.post("/datasets/{name}/upload")
    def upload(request: Request) -> dict:
        """Streaming chunked-CSV upload (Content-Type ``text/csv``).

        The body flows socket → chunked parser → (optionally spilled)
        shards in one pass, so uploads far larger than RAM ingest under
        the controller's chunk-size and spill configuration without ever
        materializing.
        """
        tenant = _tenant_of(request)
        name = request.path_params["name"]
        if not _TENANT_PATTERN.match(name):
            raise HTTPError(
                422,
                f"invalid dataset name {name!r}: use letters, digits, "
                "'.', '_', '-'",
            )
        if request.stream is not None:
            lines: Any = io.TextIOWrapper(
                request.stream, encoding="utf-8", newline=""
            )
        elif isinstance(request.body, str) and request.body:
            lines = io.StringIO(request.body)
        else:
            raise HTTPError(
                422, "provide a non-empty text/csv request body"
            )
        lens_t = registry.lens_for(tenant)
        with locks.of(tenant, name).write_lock():
            session = lens_t.ingest_csv_stream(name, lines)
            payload = {
                "dataset": session.name,
                "shape": list(session.frame.shape),
                "spill": session.spill_stats(),
            }
        return payload

    @router.get("/datasets/{name}")
    def preview(request: Request) -> dict:
        """Preview rows, optionally sorted server-side.

        ``?sort_by=col_a,col_b`` sorts before slicing ``limit`` rows;
        ``?descending=1`` flips the order and ``?sort_strategy=`` forces
        ``memory``/``external`` (default ``auto``: external when the
        frame is spilled, so sorting never densifies the stored frame).
        """
        limit = _int_param(request.query, "limit", 20)
        sort_spec = request.query.get("sort_by", "").strip()
        sort_columns = [c.strip() for c in sort_spec.split(",") if c.strip()]
        descending = (
            request.query.get("descending", "").strip().lower() in _TRUTHY
        )
        strategy = request.query.get("sort_strategy") or None

        def work(session: Any) -> dict:
            frame = session.frame
            if sort_columns:
                from ..dataframe import sort_by

                try:
                    frame = sort_by(
                        frame,
                        sort_columns,
                        descending=descending,
                        strategy=strategy,
                    )
                except KeyError as exc:
                    raise HTTPError(422, str(exc.args[0])) from exc
                except ValueError as exc:
                    raise HTTPError(422, str(exc)) from exc
            return _frame_preview(frame, limit)

        return _read(request, work)

    # ------------------------------------------------------------------
    @router.get("/datasets/{name}/profile")
    def get_profile(request: Request) -> Any:
        tenant, name, session = _session(request)

        def work() -> dict:
            with _read_guard(tenant, name, session):
                report = session.profile_report
                if report is None:
                    report = session.profile()
                return report.to_dict()

        return _maybe_async(request, "profile", work)

    @router.get("/datasets/{name}/quality")
    def get_quality(request: Request) -> dict:
        return _read(request, lambda session: session.quality_metrics())

    @router.get("/datasets/{name}/cache")
    def get_cache_stats(request: Request) -> dict:
        """Artifact-cache counters (shared store: hits/misses/evictions)."""
        return _read(request, lambda session: session.cache_stats())

    @router.get("/datasets/{name}/spill")
    def get_spill_stats(request: Request) -> dict:
        """Spill-store residency counters for the session's working frame."""
        return _read(request, lambda session: session.spill_stats())

    # ------------------------------------------------------------------
    @router.post("/datasets/{name}/rules/discover")
    def discover_rules(request: Request) -> dict:
        body = request.body or {}
        algorithm = body.get("algorithm", "approximate")
        max_lhs = _int_param(body, "max_lhs_size", 1, minimum=1)
        tolerance = _float_param(body, "tolerance", 0.1)

        def work(session) -> dict:
            rules = session.discover_rules(
                algorithm=algorithm, max_lhs_size=max_lhs, tolerance=tolerance
            )
            return {"rules": [rule.to_dict() for rule in rules]}

        return _write(request, work)

    @router.get("/datasets/{name}/rules")
    def list_rules(request: Request) -> dict:
        return _read(
            request,
            lambda session: {
                "rules": [
                    managed.to_dict() for managed in session.rule_set.managed
                ]
            },
        )

    @router.put("/datasets/{name}/rules")
    def put_rule(request: Request) -> dict:
        determinants = _require(request.body, "determinants")
        dependent = _require(request.body, "dependent")
        status = (request.body or {}).get("status")

        def work(session) -> dict:
            if status in ("confirmed", "rejected"):
                from ..fd import FunctionalDependency

                rule = FunctionalDependency(tuple(determinants), dependent)
                if status == "confirmed":
                    session.confirm_rule(rule)
                else:
                    session.reject_rule(rule)
                return {"rule": rule.to_dict(), "status": status}
            try:
                rule = session.add_custom_rule(
                    determinants,
                    dependent,
                    note=(request.body or {}).get("note", ""),
                )
            except KeyError as error:  # unknown column → not found
                raise HTTPError(404, str(error.args[0])) from None
            return {"rule": rule.to_dict(), "status": "confirmed"}

        return _write(request, work)

    @router.post("/datasets/{name}/rules/parse")
    def parse_nl_rule(request: Request) -> dict:
        """Natural-language rule definition (future work 1)."""
        from ..core.nlrules import RuleParseError

        text = _require(request.body, "text")

        def work(session) -> dict:
            try:
                parsed = session.add_rule_from_text(text)
            except RuleParseError as error:
                raise HTTPError(422, str(error)) from error
            return {"kind": parsed.kind, "rule": parsed.describe()}

        return _write(request, work)

    @router.get("/datasets/{name}/explanations")
    def get_explanations(request: Request) -> dict:
        """Explainability (future work 2)."""
        limit = _int_param(request.query, "limit", 20)

        def work(session) -> dict:
            explanations = session.explain_detections(limit=limit)
            return {
                "explanations": [
                    {
                        "row": exp.cell[0],
                        "column": exp.cell[1],
                        "value": exp.value,
                        "evidence": [
                            {
                                "tool": ev.tool,
                                "reason": ev.reason,
                                "score": ev.score,
                            }
                            for ev in exp.evidence
                        ],
                        "repair": exp.repair,
                    }
                    for exp in explanations
                ]
            }

        return _read(request, work)

    # ------------------------------------------------------------------
    @router.post("/datasets/{name}/tags")
    def add_tag(request: Request) -> dict:
        value = _require(request.body, "value")

        def work(session) -> dict:
            session.tag_value(value)
            return {"tagged_values": [str(v) for v in session.tags.values()]}

        return _write(request, work)

    @router.put("/datasets/{name}/labels")
    def put_label(request: Request) -> dict:
        row = _required_int(request.body, "row", minimum=None)
        column = _require(request.body, "column")
        is_dirty = bool(_require(request.body, "is_dirty"))

        def work(session) -> dict:
            try:
                session.label_cell(row, column, is_dirty)
            except KeyError as error:  # cell out of range → not found
                raise HTTPError(404, str(error.args[0])) from None
            return {"labels": len(session.labels)}

        return _write(request, work)

    # ------------------------------------------------------------------
    @router.post("/datasets/{name}/detect")
    def detect(request: Request) -> Any:
        tools = _require(request.body, "tools")
        if not isinstance(tools, list) or not tools or not all(
            isinstance(tool, str) for tool in tools
        ):
            raise HTTPError(
                422, "field 'tools' must be a non-empty list of tool names"
            )
        tenant, name, session = _session(request)

        def work() -> dict:
            with locks.of(tenant, name).write_lock():
                try:
                    cells = session.run_detection(tools)
                except KeyError as error:  # unknown detector name
                    raise HTTPError(422, str(error.args[0])) from None
                return {
                    "num_cells": len(cells),
                    "per_tool": {
                        tool: len(result.cells)
                        for tool, result in session.detection_results.items()
                    },
                }

        return _maybe_async(request, "detect", work)

    @router.get("/datasets/{name}/detections")
    def get_detections(request: Request) -> dict:
        limit = _int_param(request.query, "limit", 200)

        def work(session) -> dict:
            cells = heapq.nsmallest(limit, session.detected_cells)
            return {
                "num_cells": len(session.detected_cells),
                "cells": [
                    {"row": row, "column": column} for row, column in cells
                ],
                "summary": session.detection_summary(),
            }

        return _read(request, work)

    # ------------------------------------------------------------------
    @router.post("/datasets/{name}/repair")
    def repair(request: Request) -> Any:
        body = request.body or {}
        tool = body.get("tool", "ml_imputer")
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise HTTPError(422, "field 'params' must be an object")
        tenant, name, session = _session(request)

        def work() -> dict:
            with locks.of(tenant, name).write_lock():
                try:
                    repaired = session.run_repair(tool, **params)
                except KeyError as error:  # unknown repairer name
                    raise HTTPError(422, str(error.args[0])) from None
                return {
                    "tool": tool,
                    "num_repairs": len(session.repair_result.repairs),
                    "version_after_repair": session.version_after_repair,
                    "shape": list(repaired.shape),
                }

        return _maybe_async(request, "repair", work)

    # ------------------------------------------------------------------
    @router.get("/datasets/{name}/datasheet")
    def get_datasheet(request: Request) -> dict:
        return _read(
            request, lambda session: session.generate_datasheet().to_dict()
        )

    @router.get("/datasets/{name}/dashboard")
    def get_dashboard(request: Request) -> dict:
        """Figure-2 main window as standalone HTML (returned as JSON field)."""
        from ..dashboard import render_dashboard

        return _read(request, lambda session: {"html": render_dashboard(session)})

    @router.get("/datasets/{name}/drift")
    def get_drift(request: Request) -> dict:
        """Drift report between two Delta versions (monitoring loop)."""
        from ..profiling import drift_report

        baseline = _int_param(request.query, "baseline", 0)

        def work(session) -> dict:
            latest = session.delta.latest_version() or 0
            current = _int_param(request.query, "current", latest)
            return drift_report(
                session.delta.read(baseline), session.delta.read(current)
            )

        return _read(request, work)

    @router.get("/datasets/{name}/versions")
    def get_versions(request: Request) -> dict:
        return _read(
            request, lambda session: {"versions": session.version_history()}
        )

    @router.post("/datasets/{name}/versions/restore")
    def restore_version(request: Request) -> dict:
        version = _required_int(request.body, "version", minimum=None)

        def work(session) -> dict:
            new_version = session.delta.restore(version)
            # load_version both swaps the working frame and resets
            # frame-derived state (profile report, detections, repair
            # proposal), so the next GET /profile reflects the restored
            # content — incrementally, via the session artifact store.
            session.load_version(new_version)
            return {"restored_from": version, "new_version": new_version}

        return _write(request, work)

    # ------------------------------------------------------------------
    @router.post("/datasets/{name}/iterative")
    def iterative(request: Request) -> Any:
        body = request.body or {}
        task = _require(body, "task")
        target = _require(body, "target")
        n_iterations = _int_param(body, "n_iterations", 10, minimum=1)
        model = body.get("model", "decision_tree")
        sampler = body.get("sampler", "tpe")
        tenant, name, session = _session(request)

        def work() -> dict:
            with locks.of(tenant, name).write_lock():
                result = session.iterative_clean(
                    task=task,
                    target=target,
                    n_iterations=n_iterations,
                    model=model,
                    sampler=sampler,
                )
                return {
                    "best_score": result.best_score,
                    "best_params": result.best_params,
                    "baseline_dirty": result.baseline_dirty,
                    "n_iterations": result.n_iterations,
                    "search_runtime_seconds": result.search_runtime_seconds,
                }

        return _maybe_async(request, "iterative", work)

    # ------------------------------------------------------------------
    @router.get("/jobs")
    def list_jobs(request: Request) -> dict:
        tenant = _tenant_of(request)
        dataset = request.query.get("dataset")
        return {
            "jobs": [
                job.to_dict()
                for job in queue.list(tenant=tenant, dataset=dataset)
            ]
        }

    @router.get("/jobs/{job_id}")
    def get_job(request: Request) -> dict:
        tenant = _tenant_of(request)
        job_id = request.path_params["job_id"]
        job = queue.get(job_id)
        if job.tenant != tenant:  # don't leak other tenants' jobs
            raise JobNotFoundError(job_id)
        return job.to_dict()

    return router
