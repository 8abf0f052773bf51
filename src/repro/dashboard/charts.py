"""Tiny standalone SVG chart generation for the dashboard.

Covers the visual idiom the dashboard tabs use: grouped/stacked bars
(Figure 4's per-attribute error distribution).
"""

from __future__ import annotations

from html import escape
from typing import Mapping, Sequence

PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2",
    "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
]


def _scale(value: float, maximum: float, span: float) -> float:
    if maximum <= 0:
        return 0.0
    return value / maximum * span


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str = "",
    width: int = 560,
    height: int = 260,
    color: str = PALETTE[0],
) -> str:
    """Simple vertical bar chart as an SVG string."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    margin = 40
    plot_width = width - 2 * margin
    plot_height = height - 2 * margin
    maximum = max(values) if values else 1.0
    n = max(1, len(values))
    slot = plot_width / n
    bar_width = slot * 0.7
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
        f"height='{height}' viewBox='0 0 {width} {height}'>",
        f"<text x='{width / 2}' y='18' text-anchor='middle' "
        f"font-size='13'>{escape(title)}</text>",
    ]
    for i, (label, value) in enumerate(zip(labels, values)):
        bar_height = _scale(float(value), maximum, plot_height)
        x = margin + i * slot + (slot - bar_width) / 2
        y = margin + plot_height - bar_height
        parts.append(
            f"<rect x='{x:.1f}' y='{y:.1f}' width='{bar_width:.1f}' "
            f"height='{bar_height:.1f}' fill='{color}'/>"
        )
        parts.append(
            f"<text x='{x + bar_width / 2:.1f}' y='{height - margin + 14}' "
            f"text-anchor='middle' font-size='9'>{escape(str(label))}</text>"
        )
    parts.append(
        f"<line x1='{margin}' y1='{margin + plot_height}' "
        f"x2='{width - margin}' y2='{margin + plot_height}' stroke='#333'/>"
    )
    parts.append("</svg>")
    return "".join(parts)


def stacked_bar_chart(
    categories: Sequence[str],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    width: int = 640,
    height: int = 300,
) -> str:
    """Stacked bars: one bar per category, one colored segment per series.

    This is the Figure 4 layout — error rate per attribute stacked by
    error source (Outlier / Missing Values / User Tagging / Others).
    """
    margin = 46
    plot_width = width - 2 * margin
    plot_height = height - 2 * margin - 20
    totals = [
        sum(values[i] for values in series.values())
        for i in range(len(categories))
    ]
    maximum = max(totals) if totals else 1.0
    n = max(1, len(categories))
    slot = plot_width / n
    bar_width = slot * 0.66
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
        f"height='{height}' viewBox='0 0 {width} {height}'>",
        f"<text x='{width / 2}' y='16' text-anchor='middle' "
        f"font-size='13'>{escape(title)}</text>",
    ]
    for legend_index, name in enumerate(series):
        color = PALETTE[legend_index % len(PALETTE)]
        lx = margin + legend_index * 130
        parts.append(
            f"<rect x='{lx}' y='24' width='10' height='10' fill='{color}'/>"
        )
        parts.append(
            f"<text x='{lx + 14}' y='33' font-size='10'>{escape(name)}</text>"
        )
    base_y = margin + 20 + plot_height
    for i, category in enumerate(categories):
        x = margin + i * slot + (slot - bar_width) / 2
        stack_y = base_y
        for series_index, (name, values) in enumerate(series.items()):
            segment = _scale(float(values[i]), maximum, plot_height)
            stack_y -= segment
            color = PALETTE[series_index % len(PALETTE)]
            parts.append(
                f"<rect x='{x:.1f}' y='{stack_y:.1f}' width='{bar_width:.1f}' "
                f"height='{segment:.1f}' fill='{color}'/>"
            )
        parts.append(
            f"<text x='{x + bar_width / 2:.1f}' y='{base_y + 14}' "
            f"text-anchor='middle' font-size='9'>{escape(str(category))}</text>"
        )
    parts.append(
        f"<line x1='{margin}' y1='{base_y}' x2='{width - margin}' "
        f"y2='{base_y}' stroke='#333'/>"
    )
    parts.append("</svg>")
    return "".join(parts)
