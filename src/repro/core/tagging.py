"""User data tagging — flagging known-bad values (§3, user-in-the-loop).

Users tag values they know encode errors (e.g. ``-1``, ``0``, ``99999``);
DataLens searches the whole dataset for those values, appends the matching
cell indices to the detection list, and feeds the tags to ML-based tools
as supplementary labels.
"""

from __future__ import annotations

import time
from typing import Any, Iterable

from ..dataframe import Cell, DataFrame
from ..detection import DetectionResult

TOOL_NAME = "user_tags"


class TagRegistry:
    """The set of user-tagged dirty values, with dataset search."""

    def __init__(self, values: Iterable[Any] = ()) -> None:
        self._values: set[Any] = set()
        for value in values:
            self.tag(value)

    # ------------------------------------------------------------------
    def tag(self, value: Any) -> None:
        """Register one known-dirty value (numbers also match their float)."""
        self._values.add(value)

    def values(self) -> list[Any]:
        return sorted(self._values, key=str)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Any) -> bool:
        return self._matches(value)

    def _matches(self, value: Any) -> bool:
        if value is None:
            return False
        if value in self._values:
            return True
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return any(
                isinstance(tagged, (int, float))
                and not isinstance(tagged, bool)
                and float(tagged) == float(value)
                for tagged in self._values
            )
        if isinstance(value, str):
            lowered = value.strip().lower()
            return any(
                isinstance(tagged, str) and tagged.strip().lower() == lowered
                for tagged in self._values
            )
        return False

    # ------------------------------------------------------------------
    def search(self, frame: DataFrame) -> DetectionResult:
        """Comprehensive search for tagged values across the dataset."""
        start = time.perf_counter()
        cells: set[Cell] = set()
        for name in frame.column_names:
            for row, value in enumerate(frame.column(name)):
                if self._matches(value):
                    cells.add((row, name))
        return DetectionResult(
            tool=TOOL_NAME,
            cells=cells,
            config={"tagged_values": [str(v) for v in self.values()]},
            scores={cell: 1.0 for cell in cells},
            runtime_seconds=time.perf_counter() - start,
            metadata={"num_tagged_values": len(self._values)},
        )
