"""Automated data profiling (ydata-profiling substitute)."""

from .alerts import (
    Alert,
    CONSTANT,
    DUPLICATE_ROWS,
    HIGH_CARDINALITY,
    HIGH_CORRELATION,
    HIGH_MISSING,
    IMBALANCE,
    SKEWED,
    SUSPICIOUS_SENTINEL,
    UNIQUE,
    ZEROS,
    generate_alerts,
)
from .compare import (
    DriftFinding,
    categorical_shift,
    compare_frames,
    drift_report,
    population_stability_index,
)
from .correlations import (
    categorical_association_matrix,
    correlation_matrix,
    highly_correlated_pairs,
)
from .histogram import categorical_histogram, histogram, numeric_histogram
from .missing import missing_patterns, missing_summary
from .report import ProfileReport, profile
from .stats import categorical_summary, column_summary, numeric_summary

__all__ = [
    "Alert",
    "CONSTANT",
    "DUPLICATE_ROWS",
    "DriftFinding",
    "HIGH_CARDINALITY",
    "HIGH_CORRELATION",
    "HIGH_MISSING",
    "IMBALANCE",
    "ProfileReport",
    "SKEWED",
    "SUSPICIOUS_SENTINEL",
    "UNIQUE",
    "ZEROS",
    "categorical_association_matrix",
    "categorical_histogram",
    "categorical_shift",
    "categorical_summary",
    "compare_frames",
    "drift_report",
    "population_stability_index",
    "column_summary",
    "correlation_matrix",
    "generate_alerts",
    "highly_correlated_pairs",
    "histogram",
    "missing_patterns",
    "missing_summary",
    "numeric_histogram",
    "numeric_summary",
    "profile",
]
