"""Automated error detection tools (§3 of the paper)."""

from .base import (
    DetectionContext,
    DetectionResult,
    Detector,
    merge_results,
    summarize_by_column,
)
from .ensemble import MinKEnsemble, UnionEnsemble
from .fahes import FAHESDetector, pattern_signature
from .holoclean import CooccurrenceModel, HoloCleanDetector
from .isolation import IsolationForestDetector
from .katara import KATARADetector, KnowledgeBase, default_knowledge_base
from .mvdetector import MVDetector
from .nadeef import NADEEFDetector
from .outliers import IQRDetector, SDDetector
from .raha import RAHADetector, featurize_column
from .referential import ReferentialIntegrityDetector

__all__ = [
    "CooccurrenceModel",
    "DetectionContext",
    "DetectionResult",
    "Detector",
    "FAHESDetector",
    "HoloCleanDetector",
    "IQRDetector",
    "IsolationForestDetector",
    "KATARADetector",
    "KnowledgeBase",
    "MVDetector",
    "MinKEnsemble",
    "NADEEFDetector",
    "RAHADetector",
    "ReferentialIntegrityDetector",
    "SDDetector",
    "UnionEnsemble",
    "default_knowledge_base",
    "featurize_column",
    "merge_results",
    "pattern_signature",
    "summarize_by_column",
]
