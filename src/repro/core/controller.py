"""The DataLens dashboard controller (Figure 1).

``DataLens`` owns the workspace (datasets on disk, Delta tables, tracking
store) and hands out per-dataset :class:`DataLensSession` objects that walk
through the paper's pipeline: ingest → profile → extract rules → detect
(multi-tool, consolidated) → user-in-the-loop → repair → version → emit
DataSheets, with every detection/repair run logged to the "Detection" /
"Repair" tracking experiments (§5).
"""

from __future__ import annotations

import copy
import sqlite3
import threading
from pathlib import Path
from typing import Any, Callable, Iterable

from ..dataframe import (
    Cell,
    DataFrame,
    SpillStore,
    csv_lines,
    sweep_orphaned_spill_dirs,
)
from ..dataframe.spill import resolve_spill_store
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
from ..ingestion import PRELOADED, DataLoader, load_clean
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

    The session uses its lens's content-addressed :class:`ArtifactStore`
    (``self.artifacts``): profiling, detection, quality scoring, and FD
    discovery all publish/reuse per-column and per-pair artifacts keyed
    by column fingerprints, so the paper's interactive loop (profile →
    detect → repair → re-profile → re-score) recomputes only what the
    last action actually changed. Because keys are content fingerprints,
    mutation and time travel never serve stale artifacts — a patched
    column simply misses and recomputes, while revisiting an old Delta
    version hits the entries computed for it earlier.
    """

    def __init__(self, controller: "DataLens", name: str, frame: DataFrame) -> None:
        self.controller = controller
        self.name = name
        self.workspace = controller.loader.workspace_for(name)
        self.frame = frame
        self.delta = DeltaTable(self.workspace.delta_path)
        self.rule_set = RuleSet()
        self.tags = TagRegistry()
        self.labels: dict[Cell, bool] = {}
        self.artifacts = controller.artifact_store
        self.profile_report: ProfileReport | None = None
        self.detection_results: dict[str, DetectionResult] = {}
        self.detected_cells: set[Cell] = set()
        self._ordered_cells: list[Cell] | None = None
        self._summary: dict[str, dict[str, float]] | None = None
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
        self._detections_changed()
        self.repair_result = None

    def cache_stats(self) -> dict[str, Any]:
        """Hit/miss/eviction counters of the lens's artifact store."""
        return self.artifacts.stats()

    def spill_stats(self) -> dict[str, Any]:
        """Counters of the lens's spill store, shared by all it serves.

        ``{"enabled": False}`` when the working frame is not spilled —
        never loaded with a spill configuration, or already materialized
        by a dense access.
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
    def profile(self) -> ProfileReport:
        """Profile the working frame (chunk-aware).

        Runs through the session artifact store, so after a repair only
        artifacts touching patched columns recompute (bit-identically).
        """
        self.profile_report = profile(self.frame, store=self.artifacts)
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
        self._detections_changed()
        return set(self.detected_cells)

    def _record_detection(self, name: str, result: DetectionResult) -> None:
        self.detection_results[name] = result
        self.detected_cells |= result.cells
        self._detections_changed()
        tracker = self.controller.tracking
        with tracker.start_run(DETECTION_EXPERIMENT, f"{self.name}:{name}"):
            tracker.log_params({"dataset": self.name, "tool": name, **result.config})
            tracker.log_metric("num_cells", float(len(result.cells)))
            tracker.log_metric("runtime_seconds", result.runtime_seconds)

    def _detections_changed(self) -> None:
        """Forget the ordered cells and the summary; the next read
        recomputes them."""
        self._ordered_cells = None
        self._summary = None

    def ordered_detections(self) -> list[Cell]:
        """The consolidated detected cells in (row, column) order.

        Computed once per detection state and shared by every reader,
        which slices it and must not change it.
        """
        if self._ordered_cells is None:
            self._ordered_cells = sorted(self.detected_cells)
        return self._ordered_cells

    def detection_summary(self) -> dict[str, dict[str, float]]:
        """Per-tool, per-column detection rates (Figure 4's series).

        Computed once per detection state, like :meth:`ordered_detections`.
        """
        if self._summary is None:
            self._summary = summarize_by_column(self.detection_results, self.frame)
        return self._summary

    # ------------------------------------------------------------------
    # Repair (§3)
    # ------------------------------------------------------------------
    def run_repair(self, tool: str = "ml_imputer", **params: Any) -> DataFrame:
        """Repair the consolidated detections and commit the output.

        The repaired frame is rendered once, as the ``repair`` version;
        the tracked run's ``repaired_path.txt`` names that data file.

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
        self.version_after_repair = self.delta.write(
            repaired, operation="repair", metadata={"tool": tool}
        )
        path = self.delta.data_path(self.version_after_repair)
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
            repaired_path=(
                str(self.delta.data_path(self.version_after_repair))
                if self.version_after_repair is not None
                else ""
            ),
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
    :class:`~repro.dataframe.ChunkedFrame` (sharded storage);
    ``spill_budget`` / ``spill_dir``, else ``DATALENS_SPILL_BUDGET``
    (read here, not on each load), build its
    :class:`~repro.dataframe.SpillStore`, which keeps shards on disk
    behind a byte-bounded resident cache so data larger than RAM is
    served. Both default to off, and results are bit-identical either
    way.

    Every session, load and :meth:`tenant` lens shares that one spill
    store and one :class:`ArtifactStore`, so the budgets bound the
    process. Building a lens first sweeps orphaned spill directories
    where its store is (or would be) built.
    """

    def __init__(
        self,
        workspace_dir: str | Path,
        seed: int = 0,
        chunk_size: int | None = None,
        spill_budget: int | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        self.seed = seed
        try:  # startup hygiene, never a reason not to start
            sweep_orphaned_spill_dirs(spill_dir)
        except Exception:  # noqa: BLE001 — sweeping is opportunistic
            pass
        spills = spill_budget is not None or spill_dir is not None
        store = SpillStore(spill_budget, spill_dir) if spills else None
        self.spill_store = resolve_spill_store(store)
        self.artifact_store = ArtifactStore()
        self._root(workspace_dir, chunk_size)

    def _root(self, workspace_dir: str | Path, chunk_size: int | None) -> None:
        self.workspace_dir = Path(workspace_dir)
        self.loader = DataLoader(
            self.workspace_dir / "datasets", chunk_size, self.spill_store
        )
        self.tracking = TrackingClient(self.workspace_dir / "mlruns")
        self._sessions: dict[str, DataLensSession] = {}
        # Guards lazy session opening: two concurrent requests touching
        # a dataset for the first time must share one session object,
        # not race into two divergent copies of its state.
        self._session_lock = threading.RLock()

    def tenant(self, name: str) -> "DataLens":
        """A lens rooted at ``tenants/<name>`` with this one's stores and settings."""
        lens = copy.copy(self)
        lens._root(self.workspace_dir / "tenants" / name, self.loader.chunk_size)
        return lens

    # ------------------------------------------------------------------
    def ingest_frame(self, name: str, frame: DataFrame) -> DataLensSession:
        """Ingest an in-memory frame (records, preloaded data, SQL): its
        CSV, rendered a slice at a time, takes the one ingest path, so the
        session holds the parse of that CSV."""
        return self._ingest(name, csv_lines(frame))

    def ingest_preloaded(self, name: str) -> DataLensSession:
        """Ingest one of the datasets that ship with the dashboard."""
        if name not in PRELOADED:
            raise KeyError(f"unknown preloaded dataset {name!r}")
        return self.ingest_frame(name, load_clean(name))

    def ingest_sql(self, database: str | Path, table: str) -> DataLensSession:
        """Ingest a table of a SQLite database as the dataset ``table``
        (§2: a database table is treated like an uploaded file)."""
        if not table.replace("_", "").isalnum():
            raise ValueError(f"suspicious table name {table!r}")
        with sqlite3.connect(str(database)) as connection:
            cursor = connection.execute(f"SELECT * FROM {table}")
            column_names = [desc[0] for desc in cursor.description]
            rows = cursor.fetchall()
        return self.ingest_frame(table, DataFrame.from_rows(rows, column_names))

    def ingest_csv_stream(self, name: str, lines: Iterable[str]) -> DataLensSession:
        """Ingest CSV lines: an upload, ``csv_text`` or a file, as in
        ``ingest_csv_stream(stem, open(path, newline=""))``.

        An upload larger than RAM is parsed once, packed and spilled
        shard by shard under the lens's configuration while it is
        written to the workspace, and the session starts from that parse.
        """
        return self._ingest(name, lines)

    def _ingest(self, name: str, lines: Iterable[str]) -> DataLensSession:
        """The one ingest path: a new upload version and a session on it."""
        frame = self.loader.ingest_csv_stream(name, lines)
        with self._session_lock:
            session = self._sessions[name] = DataLensSession(self, name, frame)
            return session

    def session(self, name: str) -> DataLensSession:
        """The dataset's session; a reopen reads its newest version and
        commits none."""
        with self._session_lock:
            if name not in self._sessions:
                if name not in self.loader.list_datasets():
                    raise DatasetNotFoundError(name)
                self._sessions[name] = DataLensSession(
                    self, name, self.loader.load(name)
                )
            return self._sessions[name]

    def list_datasets(self) -> list[str]:
        return self.loader.list_datasets()
