"""HTML rendering of the DataLens main window (Figure 2).

The page layout mirrors the paper's dashboard: a left panel for upload and
tool selection, a tabbed center (Data Overview / Data Profile / Error
Detection Results / DataSheets), and a right panel with data-quality
gauges. The output is a self-contained static HTML document.
"""

from __future__ import annotations

from html import escape
from typing import Any

import numpy as np

from ..core.controller import DataLensSession
from ..core.registry import detector_names, repairer_names
from .charts import bar_chart, stacked_bar_chart

_PAGE_STYLE = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 0;
       background: #f4f6f8; color: #1c2733; }
header { background: #173753; color: white; padding: 12px 24px; }
.layout { display: flex; gap: 16px; padding: 16px; align-items: flex-start; }
.panel { background: white; border-radius: 8px; padding: 16px;
         box-shadow: 0 1px 3px rgba(0,0,0,.12); }
.left { width: 220px; } .right { width: 260px; } .center { flex: 1; }
.tab { margin-bottom: 28px; border-top: 3px solid #4e79a7; padding-top: 8px; }
table { border-collapse: collapse; font-size: 12px; width: 100%; }
th, td { border: 1px solid #d8dee5; padding: 3px 7px; text-align: left; }
th { background: #eef2f6; }
.metric { display: flex; justify-content: space-between; margin: 6px 0; }
.metric .bar { background: #e3e8ee; width: 130px; height: 10px;
               border-radius: 5px; overflow: hidden; }
.metric .fill { background: #59a14f; height: 100%; }
.alert { color: #9a3412; font-size: 12px; }
.badge { display:inline-block; background:#eef2f6; border-radius: 4px;
         padding: 1px 6px; margin: 2px; font-size: 11px; }
"""


def _table(rows: list[dict[str, Any]], columns: list[str], limit: int = 15) -> str:
    head = "".join(f"<th>{escape(str(c))}</th>" for c in columns)
    body_rows = []
    for row in rows[:limit]:
        cells = "".join(
            f"<td>{escape('' if row.get(c) is None else str(row.get(c)))}</td>"
            for c in columns
        )
        body_rows.append(f"<tr>{cells}</tr>")
    return f"<table><thead><tr>{head}</tr></thead><tbody>{''.join(body_rows)}</tbody></table>"


def render_left_panel(session: DataLensSession) -> str:
    detectors = "".join(
        f"<span class='badge'>{escape(name)}</span>" for name in detector_names()
    )
    repairers = "".join(
        f"<span class='badge'>{escape(name)}</span>" for name in repairer_names()
    )
    stats = session.cache_stats()
    cache_line = (
        f"<p class='cache'>entries: {stats['entries']}; "
        f"hit rate: {stats['hit_rate']:.0%} "
        f"({stats['hits']} hits / {stats['misses']} misses)</p>"
        if stats["enabled"]
        else "<p class='cache'>disabled</p>"
    )
    return (
        "<div class='panel left'><h3>Data Upload</h3>"
        f"<p>dataset: <b>{escape(session.name)}</b><br>"
        f"shape: {session.frame.num_rows} × {session.frame.num_columns}</p>"
        f"<h3>Detection Tools</h3><p>{detectors}</p>"
        f"<h3>Repair Tools</h3><p>{repairers}</p>"
        f"<h3>Artifact Cache</h3>{cache_line}</div>"
    )


def _affected_rows_table(session: DataLensSession, limit: int = 8) -> str:
    """The first ``limit`` rows holding a detected cell, via select().

    Only the rows shown are selected, so a spilled frame reads just the
    shards that hold them.
    """
    frame = session.frame
    if not session.detected_cells or not frame.num_rows:
        return ""
    affected = sorted({row for row, _ in session.detected_cells})
    shown = np.zeros(frame.num_rows, dtype=bool)
    shown[affected[:limit]] = True
    records = frame.select(shown).to_records()
    for record, row_index in zip(records, affected):
        record["row"] = row_index
    return (
        f"<h3>Rows with detected errors ({len(affected)} rows)</h3>"
        + _table(records, ["row", *frame.column_names])
    )


def render_overview_tab(session: DataLensSession) -> str:
    frame = session.frame
    rows = frame.head(12).to_records()
    detected = session.ordered_detections()[:20]
    detected_rows = [{"row": r, "column": c} for r, c in detected]
    labeling = (
        f"<p>user labels collected: {len(session.labels)}; "
        f"tagged values: {', '.join(map(escape, map(str, session.tags.values()))) or '—'}</p>"
    )
    detections_html = (
        _table(detected_rows, ["row", "column"])
        if detected_rows
        else "<p>no detections yet</p>"
    )
    return (
        "<section class='tab'><h2>Data Overview</h2>"
        + _table(rows, frame.column_names)
        + f"<h3>Detected errors ({len(session.detected_cells)} cells)</h3>"
        + detections_html
        + _affected_rows_table(session)
        + "<h3>User labeling</h3>"
        + labeling
        + "</section>"
    )


def render_profile_tab(session: DataLensSession) -> str:
    report = session.profile_report
    if report is None:
        return (
            "<section class='tab'><h2>Data Profile</h2>"
            "<p>profile not generated yet</p></section>"
        )
    rules = session.rule_set.managed
    rule_rows = [
        {
            "rule": str(managed.rule),
            "status": managed.status,
            "source": managed.source,
        }
        for managed in rules
    ]
    rules_html = (
        _table(rule_rows, ["rule", "status", "source"])
        if rule_rows
        else "<p>no FD rules discovered yet</p>"
    )
    return (
        "<section class='tab'><h2>Data Profile</h2>"
        + report.to_html()
        + "<h3>Functional dependency rules</h3>"
        + rules_html
        + "</section>"
    )


def render_detection_tab(session: DataLensSession) -> str:
    if not session.detection_results:
        return (
            "<section class='tab'><h2>Error Detection Results</h2>"
            "<p>no detection results yet</p></section>"
        )
    summary = session.detection_summary()
    columns = session.frame.column_names
    categories = {
        "Outlier": ("sd", "iqr", "isolation_forest"),
        "Missing Values": ("mv_detector",),
        "User Tagging": ("user_tags",),
        "Others": tuple(
            name
            for name in summary
            if name
            not in ("sd", "iqr", "isolation_forest", "mv_detector", "user_tags")
        ),
    }
    series = {}
    for label, tools in categories.items():
        series[label] = [
            sum(summary.get(tool, {}).get(column, 0.0) for tool in tools)
            for column in columns
        ]
    chart = stacked_bar_chart(
        columns, series, title="Distribution of detections across attributes"
    )
    per_tool = bar_chart(
        list(summary.keys()),
        [len(session.detection_results[name].cells) for name in summary],
        title="Detected cells per tool",
    )
    tool_rows = [
        {
            "tool": name,
            "cells": len(result.cells),
            "runtime_s": f"{result.runtime_seconds:.3f}",
        }
        for name, result in session.detection_results.items()
    ]
    return (
        "<section class='tab'><h2>Error Detection Results</h2>"
        + chart
        + per_tool
        + _table(tool_rows, ["tool", "cells", "runtime_s"])
        + "</section>"
    )


def render_datasheet_tab(session: DataLensSession) -> str:
    sheet = session.generate_datasheet()
    return (
        "<section class='tab'><h2>DataSheets</h2>"
        f"<pre style='font-size:11px'>{escape(sheet.to_json())}</pre>"
        "</section>"
    )


def render_quality_panel(session: DataLensSession) -> str:
    metrics = session.quality_metrics()
    bars = []
    for key, value in metrics.items():
        percent = max(0.0, min(1.0, float(value))) * 100.0
        bars.append(
            f"<div class='metric'><span>{escape(key)}</span>"
            f"<span class='bar'><span class='fill' "
            f"style='width:{percent:.0f}%'></span></span>"
            f"<span>{value:.2f}</span></div>"
        )
    return (
        "<div class='panel right'><h3>Data Quality</h3>"
        + "".join(bars)
        + "</div>"
    )


def render_dashboard(session: DataLensSession) -> str:
    """Full main-window HTML for a session."""
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>DataLens — {escape(session.name)}</title>"
        f"<style>{_PAGE_STYLE}</style></head><body>"
        "<header><h1>DataLens</h1></header>"
        "<div class='layout'>"
        + render_left_panel(session)
        + "<div class='panel center'>"
        + render_overview_tab(session)
        + render_profile_tab(session)
        + render_detection_tab(session)
        + render_datasheet_tab(session)
        + "</div>"
        + render_quality_panel(session)
        + "</div></body></html>"
    )
