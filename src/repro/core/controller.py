"""The DataLens dashboard controller (Figure 1).

``DataLens`` owns the workspace (datasets on disk, Delta tables, tracking
store) and hands out per-dataset :class:`DataLensSession` objects that walk
through the paper's pipeline: ingest → profile → extract rules → detect
(multi-tool, consolidated) → user-in-the-loop → repair → version → emit
DataSheets, with every detection/repair run logged to the "Detection" /
"Repair" tracking experiments (§5).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from ..dataframe import Cell, DataFrame, sweep_orphaned_spill_dirs
from ..detection import (
    DetectionContext,
    DetectionResult,
    Detector,
    merge_results,
    summarize_by_column,
)
from ..fd import (
    FunctionalDependency,
    RuleSet,
    approximate_fds,
    discover_fds,
    discover_fds_hyfd,
)
from ..ingestion import DataLoader
from ..profiling import ProfileReport, profile
from ..repair import RepairResult
from ..tracking import DETECTION_EXPERIMENT, REPAIR_EXPERIMENT, TrackingClient
from ..versioning import DeltaTable
from .artifacts import ArtifactStore
from .datasheet import DataSheet
from .iterative import IterativeCleaner, IterativeCleaningResult
from .labeling import LabelingOutcome, LabelingSession
from .quality import quality_summary
from .registry import make_detector, make_repairer
from .tagging import TagRegistry


class DatasetNotFoundError(KeyError):
    """Unknown dataset name (the REST layer maps this to HTTP 404).

    Subclasses ``KeyError`` so historical ``except KeyError`` callers
    keep working, while letting the HTTP dispatcher distinguish "no such
    dataset" from a genuine handler bug raising ``KeyError``.
    """

    def __init__(self, name: str) -> None:
        super().__init__(f"no dataset named {name!r}")
        self.dataset = name

    def __str__(self) -> str:  # KeyError.__str__ would repr-quote the message
        return self.args[0]


class DataLensSession:
    """All state the dashboard holds for one ingested dataset.

    The session owns a content-addressed :class:`ArtifactStore`
    (``self.artifacts``): profiling, detection, quality scoring, and FD
    discovery all publish/reuse per-column and per-pair artifacts keyed
    by column fingerprints, so the paper's interactive loop (profile →
    detect → repair → re-profile → re-score) recomputes only what the
    last action actually changed. Because keys are content fingerprints,
    mutation and time travel never serve stale artifacts — a patched
    column simply misses and recomputes, while revisiting an old Delta
    version hits the entries computed for it earlier.
    """

    def __init__(
        self,
        controller: "DataLens",
        name: str,
        frame: DataFrame | None = None,
    ) -> None:
        self.controller = controller
        self.name = name
        self.workspace = controller.loader.workspace_for(name)
        # ``frame`` short-circuits the disk load for streaming ingestion:
        # the uploaded CSV was already parsed (and possibly spilled) on
        # its way into the workspace, so re-reading it would double the
        # ingest cost.
        self.frame: DataFrame = (
            frame if frame is not None else controller.loader.load(name)
        )
        self.delta = DeltaTable(self.workspace.delta_path)
        if self.delta.latest_version() is None:
            self.delta.write(self.frame, operation="upload")
        self.rule_set = RuleSet()
        self.tags = TagRegistry()
        self.labels: dict[Cell, bool] = {}
        # The controller may inject a store shared across sessions (and,
        # in the REST layer, across tenants): artifact keys are content
        # fingerprints, so identical columns uploaded by different users
        # deduplicate into the same cache entries.
        self.artifacts = (
            controller.artifact_store
            if controller.artifact_store is not None
            else ArtifactStore()
        )
        self.profile_report: ProfileReport | None = None
        self.detection_results: dict[str, DetectionResult] = {}
        self.detected_cells: set[Cell] = set()
        self.repair_result: RepairResult | None = None
        self.repaired_frame: DataFrame | None = None
        self.version_before_detection: int | None = None
        self.version_after_repair: int | None = None
        self.iterative_result: IterativeCleaningResult | None = None

    # ------------------------------------------------------------------
    # Versioning (§5, Delta Lake)
    # ------------------------------------------------------------------
    def load_version(self, version: int) -> DataFrame:
        """Time travel: make an earlier Delta version the working frame.

        Frame-derived state (profile report, detection results and
        consolidated cells, repair proposal) describes the *previous*
        working frame and is reset so no stale results leak into the new
        one. The artifact store survives: its keys are content
        fingerprints, so the loaded version re-profiles from the cache
        entries computed when its content was last seen.
        """
        self.frame = self.delta.read(version)
        self.invalidate_derived_state()
        return self.frame

    def invalidate_derived_state(self) -> None:
        """Drop analysis results tied to the previous working frame."""
        self.profile_report = None
        self.detection_results = {}
        self.detected_cells = set()
        self.repair_result = None

    def cache_stats(self) -> dict[str, Any]:
        """Hit/miss/eviction counters of the session's artifact store."""
        return self.artifacts.stats()

    def spill_stats(self) -> dict[str, Any]:
        """Residency counters of the working frame's spill store.

        ``{"enabled": False}`` when the frame is not spilled — never
        loaded with a spill configuration, or already materialized by a
        dense access.
        """
        from ..dataframe import spill_store_of

        store = spill_store_of(self.frame)
        if store is None:
            return {"enabled": False}
        return {"enabled": True, **store.stats()}

    def version_history(self) -> list[dict[str, Any]]:
        return [commit.to_dict() for commit in self.delta.history()]

    # ------------------------------------------------------------------
    # Profiling and rule extraction (§3)
    # ------------------------------------------------------------------
    def profile(self, n_jobs: int | None = None) -> ProfileReport:
        """Profile the working frame (chunk-aware, optionally parallel).

        ``n_jobs`` defaults to the controller-level ``profile_jobs``
        setting; frames ingested through a chunked loader profile via
        per-chunk partial aggregates either way. Runs through the
        session artifact store, so after a repair only artifacts
        touching patched columns recompute (bit-identically).
        """
        if n_jobs is None:
            n_jobs = self.controller.profile_jobs
        self.profile_report = profile(
            self.frame, n_jobs=n_jobs, store=self.artifacts
        )
        return self.profile_report

    def discover_rules(
        self,
        algorithm: str = "tane",
        max_lhs_size: int = 2,
        tolerance: float = 0.15,
    ) -> list[FunctionalDependency]:
        """Automated rule extraction; results await user validation."""
        if algorithm == "tane":
            rules = discover_fds(
                self.frame, max_lhs_size=max_lhs_size, store=self.artifacts
            )
        elif algorithm == "hyfd":
            rules = discover_fds_hyfd(
                self.frame, max_lhs_size=max_lhs_size, store=self.artifacts
            )
        elif algorithm == "approximate":
            rules = approximate_fds(
                self.frame, tolerance=tolerance, max_lhs_size=max_lhs_size
            )
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        self.rule_set.add_discovered(rules)
        return rules

    def confirm_rule(self, rule: FunctionalDependency) -> None:
        self.rule_set.set_status(rule, "confirmed")

    def reject_rule(self, rule: FunctionalDependency) -> None:
        self.rule_set.set_status(rule, "rejected")

    def add_custom_rule(
        self, determinants: Iterable[str], dependent: str, note: str = ""
    ) -> FunctionalDependency:
        """User-defined rule: at least one determinant plus one dependent."""
        determinants = tuple(determinants)
        if not determinants:
            raise ValueError("a custom rule needs at least one determinant")
        for column in (*determinants, dependent):
            if column not in self.frame:
                raise KeyError(f"unknown column {column!r}")
        rule = FunctionalDependency(determinants, dependent)
        self.rule_set.add_custom(rule, note=note)
        return rule

    def add_rule_from_text(self, text: str):
        """Natural-language rule definition (future work 1).

        FD sentences become confirmed custom rules; constraint sentences
        become value rules evaluated by NADEEF-style detection.
        """
        from .nlrules import parse_rule

        parsed = parse_rule(text, self.frame)
        if parsed.kind == "fd":
            self.rule_set.add_custom(parsed.rule, note=f"parsed from: {text}")
        else:
            self.rule_set.value_rules.append(parsed.rule)
        return parsed

    def explain_detections(self, limit: int = 20):
        """Explainability (future work 2): why cells were flagged/repaired."""
        from .explain import explain_session

        return explain_session(self, limit=limit)

    # ------------------------------------------------------------------
    # User-in-the-loop (§3)
    # ------------------------------------------------------------------
    def tag_value(self, value: Any) -> None:
        self.tags.tag(value)

    def label_cell(self, row: int, column: str, is_dirty: bool) -> None:
        if column not in self.frame or not 0 <= row < self.frame.num_rows:
            raise KeyError(f"cell ({row}, {column}) out of range")
        self.labels[(row, column)] = bool(is_dirty)

    def run_labeling_session(
        self,
        labeler: Callable[[int, DataFrame], dict[Cell, bool]],
        budget: int = 20,
        clusters_per_column: int | None = None,
    ) -> LabelingOutcome:
        """Interactive RAHA labeling; detections land in the result set."""
        session = LabelingSession(
            budget=budget,
            clusters_per_column=clusters_per_column,
            seed=self.controller.seed,
            initial_labels=self.labels,
        )
        outcome = session.run(self.frame, labeler)
        self.labels.update(outcome.labels)
        self._record_detection("raha", outcome.detection)
        return outcome

    # ------------------------------------------------------------------
    # Detection (§3)
    # ------------------------------------------------------------------
    def detection_context(self) -> DetectionContext:
        return DetectionContext(
            rules=self.rule_set.active_rules(),
            value_rules=list(self.rule_set.value_rules),
            labels=dict(self.labels),
            tagged_values=set(self.tags.values()),
            seed=self.controller.seed,
            artifact_store=self.artifacts,
        )

    def run_detection(
        self,
        tools: Iterable[str | Detector],
        include_tags: bool = True,
    ) -> set[Cell]:
        """Execute the selected tools sequentially and consolidate.

        Detections are merged into a single deduplicated set; tagged values
        contribute their own ``user_tags`` result. Mirrors the sequential
        backend execution described in §3.
        """
        if self.version_before_detection is None:
            self.version_before_detection = self.delta.latest_version()
        context = self.detection_context()
        for tool in tools:
            detector = tool if isinstance(tool, Detector) else make_detector(tool)
            result = detector.detect(self.frame, context)
            self._record_detection(detector.name, result)
        if include_tags and len(self.tags):
            self._record_detection("user_tags", self.tags.search(self.frame))
        self.detected_cells = merge_results(list(self.detection_results.values()))
        return set(self.detected_cells)

    def _record_detection(self, name: str, result: DetectionResult) -> None:
        self.detection_results[name] = result
        self.detected_cells |= result.cells
        tracker = self.controller.tracking
        with tracker.start_run(DETECTION_EXPERIMENT, f"{self.name}:{name}"):
            tracker.log_params({"dataset": self.name, "tool": name, **result.config})
            tracker.log_metric("num_cells", float(len(result.cells)))
            tracker.log_metric("runtime_seconds", result.runtime_seconds)

    def detection_summary(self) -> dict[str, dict[str, float]]:
        """Per-tool, per-column detection rates (Figure 4's series)."""
        return summarize_by_column(self.detection_results, self.frame)

    # ------------------------------------------------------------------
    # Repair (§3)
    # ------------------------------------------------------------------
    def run_repair(self, tool: str = "ml_imputer", **params: Any) -> DataFrame:
        """Repair the consolidated detections; store and version the output.

        The session artifact store rides along: HoloClean repair reuses
        the ``repair:tokens`` / ``repair:cooccurrence`` artifacts the
        detector published for the same column content, so a detect →
        repair cycle whose detected cells are already null fits the
        co-occurrence model exactly once.
        """
        if not self.detected_cells:
            raise RuntimeError("run detection before repair")
        repairer = make_repairer(tool, **params)
        result = repairer.repair(
            self.frame, self.detected_cells, store=self.artifacts
        )
        repaired = result.apply_to(self.frame)
        self.repair_result = result
        self.repaired_frame = repaired
        path = self.controller.loader.save_repaired(self.name, repaired)
        self.version_after_repair = self.delta.write(
            repaired, operation="repair", metadata={"tool": tool}
        )
        tracker = self.controller.tracking
        with tracker.start_run(REPAIR_EXPERIMENT, f"{self.name}:{tool}"):
            tracker.log_params({"dataset": self.name, "tool": tool, **result.config})
            tracker.log_metric("num_repairs", float(len(result.repairs)))
            tracker.log_metric("runtime_seconds", result.runtime_seconds)
            tracker.log_text_artifact("repaired_path.txt", str(path))
        return repaired

    # ------------------------------------------------------------------
    # Quality, iterative cleaning, DataSheets
    # ------------------------------------------------------------------
    def quality_metrics(self, frame: DataFrame | None = None) -> dict[str, float]:
        target = frame if frame is not None else self.frame
        return quality_summary(
            target,
            rules=self.rule_set.confirmed_rules(),
            store=self.artifacts,
        )

    def iterative_clean(
        self,
        task: str,
        target: str,
        n_iterations: int = 20,
        model: str = "decision_tree",
        sampler: str = "tpe",
        reference: DataFrame | None = None,
        **kwargs: Any,
    ) -> IterativeCleaningResult:
        """Delegate to the iterative cleaning module (§4)."""
        cleaner = IterativeCleaner(
            task=task,
            target=target,
            model=model,
            sampler=sampler,
            seed=self.controller.seed,
            **kwargs,
        )
        result = cleaner.clean(
            self.frame,
            n_iterations=n_iterations,
            reference=reference,
            context=self.detection_context(),
        )
        self.iterative_result = result
        return result

    def generate_datasheet(self) -> DataSheet:
        """Compile the §5 DataSheet for the session's current pipeline."""
        sheet = DataSheet(
            dataset_name=self.name,
            dirty_path=str(self.workspace.dirty_path),
            repaired_path=str(self.workspace.repaired_path()),
            num_rows=self.frame.num_rows,
            num_columns=self.frame.num_columns,
            detection_tools=[
                {"name": name, "config": result.config}
                for name, result in self.detection_results.items()
                if name != "user_tags"
            ],
            num_erroneous_cells=len(self.detected_cells),
            repair_tools=(
                [
                    {
                        "name": self.repair_result.tool,
                        "config": self.repair_result.config,
                    }
                ]
                if self.repair_result is not None
                else []
            ),
            rules=[rule.to_dict() for rule in self.rule_set.confirmed_rules()],
            tagged_values=[str(v) for v in self.tags.values()],
            quality_before=self.quality_metrics(self.frame),
            quality_after=(
                self.quality_metrics(self.repaired_frame)
                if self.repaired_frame is not None
                else {}
            ),
            version_before_detection=self.version_before_detection,
            version_after_repair=self.version_after_repair,
            hyperparameters=(
                dict(self.iterative_result.best_params)
                if self.iterative_result is not None
                else {}
            ),
        )
        return sheet

    def save_datasheet(self, file_name: str = "datasheet.json") -> Path:
        sheet = self.generate_datasheet()
        return sheet.save(self.workspace.root / file_name)


class DataLens:
    """Workspace-level entry point: ingestion plus shared services.

    ``chunk_size`` makes every session load its dataset as a streamed
    :class:`~repro.dataframe.ChunkedFrame` (sharded storage, per-chunk
    profiling partials); ``spill_budget`` / ``spill_dir`` additionally
    spill the shards to disk behind a byte-bounded resident cache (see
    :mod:`repro.dataframe.spill`), which is how a dataset larger than
    RAM is served; ``profile_jobs`` sets the default thread count for
    :meth:`DataLensSession.profile` (None/1 = serial, -1 = all cores).
    All default to off, and results are bit-identical either way.
    """

    def __init__(
        self,
        workspace_dir: str | Path,
        seed: int = 0,
        chunk_size: int | None = None,
        profile_jobs: int | None = None,
        spill_budget: int | None = None,
        spill_dir: str | Path | None = None,
        artifact_store: ArtifactStore | None = None,
    ) -> None:
        self.workspace_dir = Path(workspace_dir)
        self.loader = DataLoader(
            self.workspace_dir / "datasets",
            chunk_size=chunk_size,
            spill_budget=spill_budget,
            spill_dir=spill_dir,
        )
        self.tracking = TrackingClient(self.workspace_dir / "mlruns")
        self.seed = seed
        self.profile_jobs = profile_jobs
        #: When set, every session shares this store instead of owning
        #: one — the multi-tenant REST layer passes the same store to
        #: every tenant's controller so identical column content
        #: deduplicates across users (keys are content fingerprints).
        self.artifact_store = artifact_store
        self._sessions: dict[str, DataLensSession] = {}
        # Guards lazy session opening: two concurrent requests touching
        # a dataset for the first time must share one session object,
        # not race ``_open`` into two divergent copies of its state.
        self._session_lock = threading.RLock()
        # Startup hygiene: reclaim spill directories abandoned by
        # crashed sessions (best-effort; never blocks startup).
        try:
            sweep_orphaned_spill_dirs()
        except Exception:  # noqa: BLE001 — sweeping is opportunistic
            pass

    # ------------------------------------------------------------------
    def ingest_frame(self, name: str, frame: DataFrame) -> DataLensSession:
        self.loader.ingest_frame(name, frame)
        return self._open(name)

    def ingest_csv(self, path: str | Path) -> DataLensSession:
        workspace = self.loader.ingest_csv(path)
        return self._open(workspace.name)

    def ingest_preloaded(self, name: str) -> DataLensSession:
        self.loader.ingest_preloaded(name)
        return self._open(name)

    def ingest_sql(self, database: str | Path, table: str) -> DataLensSession:
        workspace = self.loader.ingest_sql(database, table)
        return self._open(workspace.name)

    def ingest_csv_stream(
        self, name: str, lines: Iterator[str] | Iterable[str]
    ) -> DataLensSession:
        """Stream CSV lines into a dataset in one pass (REST upload path).

        The lines are tee'd to the workspace's ``dirty.csv`` while being
        parsed by the chunked reader under the controller's chunk/spill
        configuration, so an upload larger than RAM is persisted and
        packed (spilled shard by shard) without ever materializing — the
        session then starts from the already-parsed frame.
        """
        workspace, frame = self.loader.ingest_csv_stream(name, lines)
        return self._open(workspace.name, frame=frame)

    def _open(self, name: str, frame: DataFrame | None = None) -> DataLensSession:
        with self._session_lock:
            session = DataLensSession(self, name, frame=frame)
            self._sessions[name] = session
            return session

    def session(self, name: str) -> DataLensSession:
        with self._session_lock:
            if name not in self._sessions:
                if name in self.loader.list_datasets():
                    return self._open(name)
                raise DatasetNotFoundError(name)
            return self._sessions[name]

    def list_datasets(self) -> list[str]:
        return self.loader.list_datasets()
