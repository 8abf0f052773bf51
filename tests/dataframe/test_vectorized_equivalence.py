"""Property tests: the numpy-backed engine matches sequence semantics.

A minimal pure-Python reference implementation (plain lists + the shared
coercion rules from ``repro.dataframe.types``) is run side by side with
the array-backed :class:`Column`/:class:`DataFrame` on seeded random
inputs across every dtype — including all-None and empty columns — and
the results must be *identical*, value for value and type for type.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dataframe import Column, DataFrame
from repro.dataframe import types as dtypes


# ----------------------------------------------------------------------
# Pure-Python reference (the sequence-era behaviour)
# ----------------------------------------------------------------------
class ReferenceColumn:
    """List-backed column with the pre-vectorization semantics."""

    def __init__(self, name, values, dtype=None):
        materialized = list(values)
        if dtype is None:
            dtype = dtypes.infer_dtype(materialized)
        self.name = name
        self.dtype = dtype
        self.values_list = [dtypes.coerce(v, dtype) for v in materialized]

    def set(self, index, value):
        try:
            self.values_list[index] = dtypes.coerce(value, self.dtype)
        except (ValueError, TypeError):
            widened = dtypes.common_dtype(
                self.dtype, dtypes.infer_dtype([value])
            )
            self.values_list = [
                dtypes.coerce(v, widened) for v in self.values_list
            ]
            self.dtype = widened
            self.values_list[index] = dtypes.coerce(value, widened)

    def is_missing(self):
        return [dtypes.is_missing(v) for v in self.values_list]

    def non_missing(self):
        return [v for v in self.values_list if not dtypes.is_missing(v)]

    def unique(self):
        seen = {}
        for value in self.values_list:
            if dtypes.is_missing(value):
                continue
            if value not in seen:
                seen[value] = None
        return list(seen)


def _assert_values_identical(actual: list, expected: list):
    """Element-wise equality including exact Python types."""
    assert len(actual) == len(expected)
    for mine, ref in zip(actual, expected):
        assert type(mine) is type(ref), (mine, ref)
        if isinstance(ref, float) and math.isnan(ref):
            assert math.isnan(mine)
        else:
            assert mine == ref


CASES = [
    (dtype, seed, n, missing)
    for dtype in ("int", "float", "bool", "string")
    for seed, n, missing in [(0, 37, 0.0), (1, 64, 0.25), (2, 11, 0.6)]
]


@pytest.mark.parametrize("dtype,seed,n,missing", CASES)
class TestColumnEquivalence:
    @pytest.fixture(autouse=True)
    def _bind_generator(self, random_values):
        # Shared seeded generator from tests/conftest.py.
        self._random_values = random_values

    def _pair(self, dtype, seed, n, missing):
        values = self._random_values(
            np.random.default_rng(seed), dtype, n, missing
        )
        return Column("x", values), ReferenceColumn("x", values), values

    def test_construction_and_values(self, dtype, seed, n, missing):
        column, reference, _ = self._pair(dtype, seed, n, missing)
        assert column.dtype == reference.dtype
        _assert_values_identical(column.values(), reference.values_list)

    def test_iteration_and_getitem(self, dtype, seed, n, missing):
        column, reference, _ = self._pair(dtype, seed, n, missing)
        _assert_values_identical(list(column), reference.values_list)
        picked = [column[i] for i in range(len(reference.values_list))]
        _assert_values_identical(picked, reference.values_list)

    def test_slicing(self, dtype, seed, n, missing):
        column, reference, _ = self._pair(dtype, seed, n, missing)
        for sl in (slice(None), slice(2, 9), slice(None, None, 3), slice(5, 1)):
            _assert_values_identical(
                column[sl].values(), reference.values_list[sl]
            )

    def test_missing_handling(self, dtype, seed, n, missing):
        column, reference, _ = self._pair(dtype, seed, n, missing)
        assert column.is_missing() == reference.is_missing()
        assert column.missing_count() == sum(reference.is_missing())
        _assert_values_identical(column.non_missing(), reference.non_missing())

    def test_unique_first_seen_order(self, dtype, seed, n, missing):
        column, reference, _ = self._pair(dtype, seed, n, missing)
        _assert_values_identical(column.unique(), reference.unique())

    def test_set_within_dtype(self, dtype, seed, n, missing):
        column, reference, values = self._pair(dtype, seed, n, missing)
        rng = np.random.default_rng(seed + 100)
        replacements = self._random_values(rng, dtype, 5, missing=0.3)
        for replacement in replacements:
            index = int(rng.integers(0, len(values)))
            column.set(index, replacement)
            reference.set(index, replacement)
        assert column.dtype == reference.dtype
        _assert_values_identical(column.values(), reference.values_list)

    def test_set_widening(self, dtype, seed, n, missing):
        column, reference, _ = self._pair(dtype, seed, n, missing)
        column.set(3, "widen me")
        reference.set(3, "widen me")
        assert column.dtype == reference.dtype == "string"
        _assert_values_identical(column.values(), reference.values_list)

    def test_equality(self, dtype, seed, n, missing):
        column, _, values = self._pair(dtype, seed, n, missing)
        twin = Column("x", values)
        assert column == twin
        twin.set(0, None)
        if values[0] is not None:
            assert column != twin

    def test_take_and_to_numpy(self, dtype, seed, n, missing):
        column, reference, _ = self._pair(dtype, seed, n, missing)
        rng = np.random.default_rng(seed + 7)
        indices = [int(i) for i in rng.integers(0, len(reference.values_list), 9)]
        _assert_values_identical(
            column.take(indices).values(),
            [reference.values_list[i] for i in indices],
        )
        exported = column.to_numpy()
        if dtype in ("int", "float"):
            expected = [
                float("nan") if v is None else float(v)
                for v in reference.values_list
            ]
            assert exported.dtype == np.float64
            for mine, ref in zip(exported.tolist(), expected):
                assert (math.isnan(mine) and math.isnan(ref)) or mine == ref
        else:
            assert exported.dtype == object
            _assert_values_identical(exported.tolist(), reference.values_list)

    def test_codes_group_exactly_like_values(self, dtype, seed, n, missing):
        column, reference, _ = self._pair(dtype, seed, n, missing)
        codes, n_groups = column.codes()
        assert len(codes) == len(reference.values_list)
        if len(codes):
            assert int(codes.max()) < n_groups
        # Two rows share a code exactly when their values match
        # (None matching None) in the reference.
        tokens = [
            ("__missing__",) if dtypes.is_missing(v) else v
            for v in reference.values_list
        ]
        by_code: dict[int, set] = {}
        for code, token in zip(codes.tolist(), tokens):
            by_code.setdefault(code, set()).add(token)
        assert all(len(group) == 1 for group in by_code.values())
        assert len(by_code) == len(set(tokens))


class TestDegenerateColumns:
    def test_empty_column(self):
        column = Column("x", [])
        assert column.dtype == "string"
        assert column.values() == []
        assert column.is_missing() == []
        assert column.missing_count() == 0
        assert column.unique() == []
        assert list(column.codes()[0]) == []
        assert column.codes()[1] == 0
        assert column[0:2].values() == []

    def test_all_none_column(self):
        for dtype in (None, "int", "float", "bool", "string"):
            column = Column("x", [None, None, None], dtype)
            assert column.values() == [None, None, None]
            assert column.missing_count() == 3
            assert column.non_missing() == []
            assert column.unique() == []
            codes, n_groups = column.codes()
            assert n_groups == 1
            assert list(codes) == [0, 0, 0]

    def test_nan_is_missing_in_float_columns(self):
        column = Column("x", [1.0, float("nan"), 3.0])
        assert column.values() == [1.0, None, 3.0]
        assert column.missing_count() == 1

    def test_huge_ints_fall_back_to_object_backing(self):
        big = 10**30
        column = Column("x", [1, big, None])
        assert column.dtype == "int"
        assert column.values() == [1, big, None]
        assert column.values_array().dtype == object
        column.set(0, big * 2)
        assert column.values() == [big * 2, big, None]

    def test_set_overflow_on_int64_backing(self):
        column = Column("x", [1, 2, 3])
        assert column.values_array().dtype == np.int64
        column.set(1, 10**30)
        assert column.values() == [1, 10**30, 3]

    def test_values_array_and_mask_are_readonly(self):
        column = Column("x", [1, None, 3])
        with pytest.raises(ValueError):
            column.values_array()[0] = 9
        with pytest.raises(ValueError):
            column.mask()[0] = True


class TestDataFrameEquivalence:
    @pytest.fixture(autouse=True)
    def _bind_generator(self, random_values):
        # Shared seeded generator from tests/conftest.py.
        self._random_values = random_values

    def _frame(self, seed=0, n=40):
        rng = np.random.default_rng(seed)
        return DataFrame.from_dict(
            {
                "i": self._random_values(rng, "int", n, 0.2),
                "f": self._random_values(rng, "float", n, 0.2),
                "b": self._random_values(rng, "bool", n, 0.2),
                "s": self._random_values(rng, "string", n, 0.2),
            }
        )

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_select_matches_python_filter(self, seed):
        frame = self._frame(seed)
        rng = np.random.default_rng(seed + 1)
        mask = rng.random(frame.num_rows) < 0.4
        fast = frame.select(mask)
        indices = [i for i, keep in enumerate(mask.tolist()) if keep]
        slow_records = [frame.row(i) for i in indices]
        assert fast.to_records() == slow_records
        assert fast.dtypes() == frame.dtypes()

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_filter_list_input_matches_select(self, seed):
        frame = self._frame(seed)
        rng = np.random.default_rng(seed + 2)
        mask = (rng.random(frame.num_rows) < 0.5).tolist()
        assert frame.select(mask) == frame.select(np.asarray(mask))

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_column_codes_group_like_row_tuples(self, seed):
        frame = self._frame(seed)
        codes, _ = frame.column_codes()
        by_code: dict[int, set] = {}
        for i, code in enumerate(codes.tolist()):
            key = tuple(
                ("__missing__",) if frame.at(i, c) is None else frame.at(i, c)
                for c in frame.column_names
            )
            by_code.setdefault(code, set()).add(key)
        assert all(len(group) == 1 for group in by_code.values())

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_duplicate_rows_match_python_scan(self, seed):
        rng = np.random.default_rng(seed)
        frame = DataFrame.from_dict(
            {
                "a": [int(v) for v in rng.integers(0, 3, 60)],
                "b": [
                    None if rng.random() < 0.3 else f"t{int(rng.integers(0, 2))}"
                    for _ in range(60)
                ],
            }
        )
        seen: set = set()
        expected = []
        for i in range(frame.num_rows):
            key = tuple(frame.row(i).values())
            if key in seen:
                expected.append(i)
            else:
                seen.add(key)
        assert frame.duplicate_row_indices() == expected

    def test_select_validates_mask_length(self):
        frame = self._frame()
        with pytest.raises(ValueError):
            frame.select(np.ones(frame.num_rows + 1, dtype=bool))

    def test_empty_frame_select(self):
        frame = DataFrame()
        assert frame.select(np.zeros(0, dtype=bool)).num_rows == 0
