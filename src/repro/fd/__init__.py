"""Functional-dependency discovery (Metanome / TANE / HyFD substitute)."""

from .approximate import approximate_fds, g3_error
from .hyfd import HyFDResult, discover_fds_hyfd, hyfd
from .partition import StrippedPartition
from .rules import (
    CONFIRMED,
    PENDING,
    REJECTED,
    FunctionalDependency,
    ManagedRule,
    RuleSet,
    ValueRule,
)
from .tane import TaneResult, discover_fds, tane

__all__ = [
    "CONFIRMED",
    "FunctionalDependency",
    "approximate_fds",
    "g3_error",
    "HyFDResult",
    "ManagedRule",
    "PENDING",
    "REJECTED",
    "RuleSet",
    "StrippedPartition",
    "TaneResult",
    "ValueRule",
    "discover_fds",
    "discover_fds_hyfd",
    "hyfd",
    "tane",
]
