"""DataLens core: controller, iterative cleaning, user-in-the-loop, DataSheets."""

from .artifacts import ArtifactStore, estimate_artifact_bytes
from .controller import DataLens, DataLensSession, DatasetNotFoundError
from .faults import (
    FAULT_INJECT_ENV,
    FaultError,
    FaultPlan,
    FaultRule,
    TransientFaultError,
    fault_stats,
    inject,
    is_transient,
    maybe_fire,
)
from .datasheet import DataSheet
from .explain import CellExplanation, Evidence, explain_cell, explain_session
from .iterative import (
    CLASSIFICATION,
    DEFAULT_DETECTOR_CHOICES,
    DEFAULT_REPAIRER_CHOICES,
    DownstreamScorer,
    IterativeCleaner,
    IterativeCleaningResult,
    REGRESSION,
    TrialOutcome,
)
from .labeling import LabelingOutcome, LabelingSession, SimulatedUser
from .monitoring import (
    MonitoringReport,
    QualityMonitor,
    QualityRegression,
    VersionQuality,
)
from .nlrules import ParsedRule, RuleParseError, parse_rule
from .quality import (
    accuracy_against,
    completeness,
    consistency,
    quality_summary,
    uniqueness,
    validity,
)
from .registry import (
    COMPOSITE_PRESETS,
    detector_names,
    make_detector,
    make_repairer,
    register_detector,
    register_repairer,
    repairer_names,
)
from .tagging import TagRegistry

__all__ = [
    "ArtifactStore",
    "FAULT_INJECT_ENV",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "TransientFaultError",
    "fault_stats",
    "inject",
    "is_transient",
    "maybe_fire",
    "CLASSIFICATION",
    "COMPOSITE_PRESETS",
    "estimate_artifact_bytes",
    "CellExplanation",
    "Evidence",
    "ParsedRule",
    "RuleParseError",
    "explain_cell",
    "explain_session",
    "parse_rule",
    "DEFAULT_DETECTOR_CHOICES",
    "DEFAULT_REPAIRER_CHOICES",
    "DataLens",
    "DataLensSession",
    "DataSheet",
    "DatasetNotFoundError",
    "DownstreamScorer",
    "IterativeCleaner",
    "IterativeCleaningResult",
    "LabelingOutcome",
    "LabelingSession",
    "MonitoringReport",
    "QualityMonitor",
    "QualityRegression",
    "REGRESSION",
    "VersionQuality",
    "SimulatedUser",
    "TagRegistry",
    "TrialOutcome",
    "accuracy_against",
    "completeness",
    "consistency",
    "detector_names",
    "make_detector",
    "make_repairer",
    "quality_summary",
    "register_detector",
    "register_repairer",
    "repairer_names",
    "uniqueness",
    "validity",
]
