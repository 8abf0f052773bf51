"""Cross-table referential-integrity detection.

First consumer of the chunk-native join operators
(:mod:`repro.dataframe.joins`): every child row whose foreign key has no
match in the parent table is flagged. The membership test is a semi join,
so it runs partitioned (spilling key buckets through the session
:class:`~repro.dataframe.spill.SpillStore`) when either table is spilled
and never densifies non-key columns — referential checks scale past RAM
along with the frames themselves.

Null semantics follow SQL foreign keys: a child row with a missing value
in any key column is *not* a violation (it simply asserts no reference),
mirroring how missing-key rows never match in the join operators.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..dataframe import Cell, DataFrame
from ..dataframe.joins import semi_join_mask
from .base import DetectionContext, Detector


class ReferentialIntegrityDetector(Detector):
    """Flag child rows whose key combination is absent from a parent table.

    ``on`` names the child key columns; ``parent_on`` optionally renames
    them on the parent side (positional pairing). Cells are reported for
    every key column of each violating row so consolidation and repair
    see the full foreign key, not a single column.
    """

    name = "referential_integrity"

    def __init__(
        self,
        on: Sequence[str] = (),
        parent: DataFrame | None = None,
        parent_on: Sequence[str] | None = None,
    ) -> None:
        super().__init__(
            on=list(on),
            parent_on=list(parent_on) if parent_on is not None else None,
        )
        self.on = list(on)
        self.parent = parent
        self.parent_on = list(parent_on) if parent_on is not None else None

    def _detect(
        self, frame: DataFrame, context: DetectionContext
    ) -> tuple[set[Cell], dict[Cell, float], dict[str, Any]]:
        parent = self.parent
        if parent is None:
            raise ValueError(
                "referential_integrity requires a parent table "
                "(pass parent= at construction)"
            )
        if not self.on:
            raise ValueError("referential_integrity requires key columns (on=)")
        matched = semi_join_mask(frame, parent, self.on, right_on=self.parent_on)
        # Rows with a missing key cell assert no reference — skip them.
        checkable = np.ones(frame.num_rows, dtype=bool)
        for name in self.on:
            checkable &= ~frame.column(name).mask()
        violating = np.flatnonzero(checkable & ~matched)
        cells = {
            (int(row), name) for row in violating for name in self.on
        }
        scores = {cell: 1.0 for cell in cells}
        metadata = {
            "keys": list(self.on),
            "parent_keys": list(self.parent_on or self.on),
            "parent_rows": parent.num_rows,
            "checked_rows": int(checkable.sum()),
            "violating_rows": int(len(violating)),
        }
        return cells, scores, metadata
