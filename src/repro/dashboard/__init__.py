"""Dashboard rendering (Figure 2): HTML tabs + SVG charts."""

from .charts import PALETTE, bar_chart, stacked_bar_chart
from .views import (
    render_dashboard,
    render_datasheet_tab,
    render_detection_tab,
    render_left_panel,
    render_overview_tab,
    render_profile_tab,
    render_quality_panel,
)

__all__ = [
    "PALETTE",
    "bar_chart",
    "render_dashboard",
    "render_datasheet_tab",
    "render_detection_tab",
    "render_left_panel",
    "render_overview_tab",
    "render_profile_tab",
    "render_quality_panel",
    "stacked_bar_chart",
]
