"""Tests for the Column container."""

import pytest

from repro.dataframe import Column


class TestConstruction:
    def test_infers_dtype(self):
        assert Column("x", [1, 2, 3]).dtype == "int"

    def test_explicit_dtype_coerces(self):
        column = Column("x", [1, 2], dtype="float")
        assert column.values() == [1.0, 2.0]

    def test_unknown_dtype_raises(self):
        with pytest.raises(ValueError):
            Column("x", [1], dtype="datetime")

    def test_length_and_iteration(self):
        column = Column("x", [1, None, 3])
        assert len(column) == 3
        assert list(column) == [1, None, 3]


class TestMissing:
    def test_missing_count(self):
        assert Column("x", [1, None, None]).missing_count() == 2

    def test_is_missing_mask(self):
        assert Column("x", [1, None]).is_missing() == [False, True]

    def test_non_missing(self):
        assert Column("x", [None, 5, None]).non_missing() == [5]


class TestMutation:
    def test_set_within_dtype(self):
        column = Column("x", [1, 2])
        column.set(0, 7)
        assert column.values() == [7, 2]

    def test_set_widens_dtype(self):
        column = Column("x", [1, 2])
        column.set(1, "seven")
        assert column.dtype == "string"
        assert column.values() == ["1", "seven"]

    def test_set_float_into_int_widens(self):
        column = Column("x", [1, 2])
        column.set(0, 2.5)
        assert column.dtype == "float"
        assert column.values() == [2.5, 2.0]

    def test_set_none(self):
        column = Column("x", [1, 2])
        column.set(0, None)
        assert column.values() == [None, 2]


class TestAnalytics:
    def test_unique_preserves_order(self):
        assert Column("x", ["b", "a", "b", None]).unique() == ["b", "a"]

    def test_value_counts(self):
        counts = Column("x", ["a", "a", "b", None]).value_counts()
        assert counts["a"] == 2
        assert counts["b"] == 1
        assert None not in counts

    def test_to_numpy_numeric_nan(self):
        import numpy as np

        array = Column("x", [1, None, 3]).to_numpy()
        assert array[0] == 1.0
        assert np.isnan(array[1])

    def test_map_skips_missing(self):
        mapped = Column("x", [1, None]).map(lambda v: v * 2)
        assert mapped.values() == [2, None]

    def test_take(self):
        assert Column("x", [10, 20, 30]).take([2, 0]).values() == [30, 10]

    def test_equality(self):
        assert Column("x", [1, None]) == Column("x", [1, None])
        assert Column("x", [1]) != Column("y", [1])

    def test_astype(self):
        assert Column("x", [1, 2]).astype("string").values() == ["1", "2"]
