"""The profile report object — DataLens's "Data Profile" tab payload.

``profile()`` is chunk-aware: frames are profiled through their chunk
iterator (with the ``DATALENS_DEFAULT_CHUNK_SIZE`` environment override
auto-chunking plain frames), and every result is assembled in
deterministic column/pair order, bit-identical to the monolithic frame.

With a ``store`` (an :class:`~repro.core.artifacts.ArtifactStore`),
profiling becomes *incremental*: per-column sections, correlation pairs,
the missing tables, and the duplicate-row artifact are looked up by
column content fingerprints before computing and published afterwards,
so re-profiling after a repair recomputes only the artifacts that touch
a patched column. The cached path returns bit-identical reports — the
store only ever replays what the same kernels produced for identical
column content.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from html import escape
from typing import Any

from ..dataframe import DataFrame
from ..settings import Settings
from .alerts import CORRELATION_ALERT_THRESHOLD, Alert, generate_alerts
from .correlations import (
    categorical_association_matrix,
    correlation_matrix,
    pairs_from_matrix,
)
from .histogram import histogram
from .missing import missing_patterns, missing_summary
from .stats import column_summary


@dataclass
class ProfileReport:
    """Aggregated dataset profile: overview, columns, correlations, alerts."""

    overview: dict[str, Any]
    columns: list[dict[str, Any]]
    correlations: dict[str, Any]
    missing: dict[str, Any]
    alerts: list[Alert] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "overview": self.overview,
            "columns": self.columns,
            "correlations": self.correlations,
            "missing": self.missing,
            "alerts": [alert.to_dict() for alert in self.alerts],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def to_html(self) -> str:
        """Minimal standalone HTML rendering of the profile."""
        parts = ["<section class='profile'>", "<h2>Data Profile</h2>"]
        overview_rows = "".join(
            f"<tr><th>{escape(str(key))}</th><td>{escape(str(value))}</td></tr>"
            for key, value in self.overview.items()
        )
        parts.append(f"<table class='overview'>{overview_rows}</table>")
        if self.alerts:
            items = "".join(
                f"<li class='alert alert-{escape(alert.kind)}'>"
                f"{escape(alert.message)}</li>"
                for alert in self.alerts
            )
            parts.append(f"<h3>Alerts</h3><ul>{items}</ul>")
        parts.append("<h3>Columns</h3>")
        for column in self.columns:
            parts.append(_column_html(column))
        parts.append("</section>")
        return "".join(parts)


def _column_html(column: dict[str, Any]) -> str:
    stats = column["statistics"]
    rows = "".join(
        f"<tr><th>{escape(str(key))}</th><td>{escape(str(value))}</td></tr>"
        for key, value in stats.items()
        if not isinstance(value, (list, dict))
    )
    return (
        f"<div class='column'><h4>{escape(str(column['name']))} "
        f"<small>({escape(str(column['dtype']))})</small></h4>"
        f"<p>missing: {column['missing']} "
        f"({column['missing_fraction']:.1%}), "
        f"distinct: {column['distinct']}</p>"
        f"<table>{rows}</table></div>"
    )


def duplicate_row_artifact(frame: DataFrame, store) -> tuple[int, ...]:
    """Duplicate-row indices via the shared ``frame:duplicates`` entry.

    The single definition of this artifact's key and payload shape —
    profiling and quality scoring (:mod:`repro.core.quality`) both call
    it, so one session store serves one entry to both subsystems. Stored
    as an immutable tuple with ``copy=False``: cache hits cost nothing,
    and consumers needing a list take a shallow copy.

    A miss runs :meth:`DataFrame.duplicate_row_indices
    <repro.dataframe.frame.DataFrame.duplicate_row_indices>`, whose
    per-column codes each column caches itself; a repaired copy keeps
    them on every column it did not patch, so only the patched columns
    re-encode.
    """
    return store.cached(
        "frame:duplicates",
        frame.column_fingerprints(),
        (),
        lambda: tuple(frame.duplicate_row_indices()),
    )


def profile(
    frame: DataFrame, histogram_bins: int = 20, store=None
) -> ProfileReport:
    """Profile a frame: the automated data profiling module of Figure 1.

    ``store`` enables incremental profiling through a content-addressed
    :class:`~repro.core.artifacts.ArtifactStore`: unchanged columns (and
    pairs of unchanged columns) are served from cache bit-identically.
    """
    env_chunk = Settings.from_env().default_chunk_size
    caller_frame = frame
    if env_chunk is not None and frame.n_chunks == 1 and frame.num_rows:
        # A disabled store is falsy (ArtifactStore.__bool__): every store
        # check below is a truthiness check, so the kill-switch path is
        # the true cold path — no fingerprint hashing at all.
        if store:
            # Warm the fingerprint caches on the caller's columns first:
            # to_chunked carries them over, so repeated profile() calls on
            # a session frame hash each column once, not once per call.
            frame.column_fingerprints()
        frame = frame.to_chunked(env_chunk)

    def _column_section(name: str) -> dict[str, Any]:
        summary = column_summary(frame.column(name))
        summary["histogram"] = histogram(frame.column(name), bins=histogram_bins)
        return summary

    names = frame.column_names
    sections: dict[str, dict[str, Any]] = {}
    todo = list(names)
    if store:
        todo = []
        for name in names:
            hit, value = store.get(
                "profile:column",
                (frame.column(name).fingerprint(),),
                (histogram_bins,),
            )
            if hit:
                sections[name] = value
            else:
                todo.append(name)
    for name in todo:
        summary = _column_section(name)
        if store:
            store.put(
                "profile:column",
                (frame.column(name).fingerprint(),),
                (histogram_bins,),
                summary,
                copy=True,
            )
        sections[name] = summary
    columns = [sections[name] for name in names]
    summaries_by_name = dict(zip(names, columns))

    pearson_names, pearson_matrix = correlation_matrix(
        frame, "pearson", store=store
    )
    spearman_names, spearman_matrix = correlation_matrix(
        frame, "spearman", store=store
    )
    cramers_names, cramers_matrix = categorical_association_matrix(
        frame, store=store
    )
    if store:
        # Alerts expect the historical list, so take a shallow copy of
        # the immutable shared artifact. It is computed on the caller's
        # frame, not a chunked copy of it, so the column codes it caches
        # stay on columns that a repaired copy() carries them from.
        duplicates = list(duplicate_row_artifact(caller_frame, store))
        # Missing tables depend only on null masks, so they key on the
        # mask fingerprints: value-only repairs keep them cached.
        missing_section = store.cached(
            "frame:missing",
            frame.mask_fingerprints(),
            (),
            lambda: {
                "summary": missing_summary(frame),
                "patterns": missing_patterns(frame),
            },
            copy=True,
        )
    else:
        duplicates = frame.duplicate_row_indices()
        missing_section = {
            "summary": missing_summary(frame),
            "patterns": missing_patterns(frame),
        }
    correlation_pairs = pairs_from_matrix(
        pearson_names, pearson_matrix, CORRELATION_ALERT_THRESHOLD
    )

    overview = {
        "rows": frame.num_rows,
        "columns": frame.num_columns,
        "missing_cells": frame.missing_count(),
        "missing_fraction": (
            frame.missing_count() / (frame.num_rows * frame.num_columns)
            if frame.num_rows and frame.num_columns
            else 0.0
        ),
        "duplicate_rows": len(duplicates),
        "numeric_columns": len(frame.numeric_column_names()),
        "categorical_columns": len(frame.categorical_column_names()),
    }
    return ProfileReport(
        overview=overview,
        columns=columns,
        correlations={
            "pearson": {
                "columns": pearson_names,
                "matrix": [[float(v) for v in row] for row in pearson_matrix],
            },
            "spearman": {
                "columns": spearman_names,
                "matrix": [[float(v) for v in row] for row in spearman_matrix],
            },
            "cramers_v": {
                "columns": cramers_names,
                "matrix": [[float(v) for v in row] for row in cramers_matrix],
            },
        },
        missing=missing_section,
        alerts=generate_alerts(
            frame,
            column_summaries=summaries_by_name,
            duplicate_rows=duplicates,
            correlation_pairs=correlation_pairs,
        ),
    )
