"""Feature preprocessing: frame-to-matrix assembly.

``FrameEncoder`` — the hot feature-assembly path for every optimizer
trial — encodes categorical columns through ``Column.codes()``: the
fitted ``{value: code}`` mapping is applied once per *distinct* value to
build a lookup table, then gathered across rows in one numpy indexing
operation instead of a per-cell dict probe.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..dataframe import Column, DataFrame


class FrameEncoder:
    """Encode a DataFrame into a dense numeric matrix for model training.

    Numeric columns pass through (missing → column mean); categorical columns
    are label-encoded (missing → dedicated code). The encoder is fit once on
    training data and can transform compatible frames afterwards.
    """

    _MISSING = "__missing__"

    def __init__(self, columns: Sequence[str] | None = None) -> None:
        self.columns = list(columns) if columns is not None else None
        self._numeric: dict[str, float] = {}
        self._categorical: dict[str, dict[Any, int]] = {}
        self.fitted_columns: list[str] = []

    def fit(self, frame: DataFrame) -> "FrameEncoder":
        names = self.columns if self.columns is not None else frame.column_names
        self.fitted_columns = list(names)
        self._numeric.clear()
        self._categorical.clear()
        for name in names:
            column = frame.column(name)
            if column.is_numeric():
                values = column.non_missing()
                self._numeric[name] = float(np.mean(values)) if values else 0.0
            else:
                levels = sorted(set(column.non_missing()), key=str)
                mapping = {value: i for i, value in enumerate(levels)}
                mapping[self._MISSING] = len(mapping)
                self._categorical[name] = mapping
        return self

    def transform(self, frame: DataFrame) -> np.ndarray:
        if not self.fitted_columns:
            raise RuntimeError("encoder is not fitted")
        columns = []
        for name in self.fitted_columns:
            column = frame.column(name)
            if name in self._numeric:
                fill = self._numeric[name]
                array = column.to_numpy()
                array = np.where(np.isnan(array), fill, array)
                columns.append(array)
            else:
                columns.append(self._encode_categorical(name, column))
        return np.column_stack(columns) if columns else np.empty((frame.num_rows, 0))

    def _encode_categorical(self, name: str, column: Column) -> np.ndarray:
        """Gather the fitted value→code mapping through ``Column.codes``.

        The mapping dict is probed once per distinct value (building a
        per-code lookup table) instead of once per row; missing cells and
        unseen values both map to the dedicated missing/unknown code.
        """
        mapping = self._categorical[name]
        unknown = mapping[self._MISSING]
        codes, n_groups = column.codes()
        if not len(codes):
            return np.empty(0, dtype=float)
        mask = column.mask()
        lookup = np.full(n_groups, float(unknown))
        valid = ~mask
        if valid.any():
            payload = column.values_array()[valid]
            valid_codes = codes[valid]
            _, first_index = np.unique(valid_codes, return_index=True)
            for code, value in enumerate(payload[first_index].tolist()):
                lookup[code] = float(mapping.get(value, unknown))
        # Missing cells share the highest code; it stays at ``unknown``,
        # which is exactly the fitted missing slot.
        return lookup[codes]

    def fit_transform(self, frame: DataFrame) -> np.ndarray:
        return self.fit(frame).transform(frame)
