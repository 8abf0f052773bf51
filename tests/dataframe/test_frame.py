"""Tests for the DataFrame container."""

import pytest

from repro.dataframe import Column, DataFrame


class TestConstruction:
    def test_from_dict(self, mixed_frame):
        assert mixed_frame.shape == (6, 4)
        assert mixed_frame.column_names == ["id", "score", "city", "flag"]

    def test_from_rows(self):
        frame = DataFrame.from_rows([(1, "a"), (2, "b")], ["n", "s"])
        assert frame.shape == (2, 2)
        assert frame.at(1, "s") == "b"

    def test_from_rows_ragged_raises(self):
        with pytest.raises(ValueError):
            DataFrame.from_rows([(1,), (2, 3)], ["a", "b"])

    def test_from_records_union_of_keys(self):
        frame = DataFrame.from_records([{"a": 1}, {"b": 2}])
        assert frame.column_names == ["a", "b"]
        assert frame.at(0, "b") is None

    def test_duplicate_column_raises(self):
        with pytest.raises(ValueError):
            DataFrame([Column("x", [1]), Column("x", [2])])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            DataFrame([Column("x", [1]), Column("y", [1, 2])])

    def test_empty(self):
        frame = DataFrame()
        assert frame.shape == (0, 0)


class TestAccess:
    def test_at_and_set_at(self, mixed_frame):
        assert mixed_frame.at(0, "id") == 1
        mixed_frame.set_at(0, "id", 99)
        assert mixed_frame.at(0, "id") == 99

    def test_set_at_out_of_range(self, mixed_frame):
        with pytest.raises(IndexError):
            mixed_frame.set_at(100, "id", 1)

    def test_unknown_column(self, mixed_frame):
        with pytest.raises(KeyError):
            mixed_frame.column("nope")

    def test_row(self, mixed_frame):
        row = mixed_frame.row(2)
        assert row["score"] is None
        assert row["city"] == "a"

    def test_numeric_and_categorical_names(self, mixed_frame):
        assert mixed_frame.numeric_column_names() == ["id", "score"]
        assert mixed_frame.categorical_column_names() == ["city", "flag"]


class TestSelection:
    def test_take_order(self, mixed_frame):
        taken = mixed_frame.take([5, 0])
        assert taken.column("id").values() == [6, 1]

    def test_take_out_of_range(self, mixed_frame):
        with pytest.raises(IndexError):
            mixed_frame.take([99])

    def test_filter_mask(self, mixed_frame):
        kept = mixed_frame.select([True, False, True, False, False, False])
        assert kept.num_rows == 2

    def test_filter_mask_wrong_length(self, mixed_frame):
        with pytest.raises(ValueError):
            mixed_frame.select([True])

    def test_head(self, mixed_frame):
        assert mixed_frame.head(2).num_rows == 2


class TestMissing:
    def test_missing_cells(self, mixed_frame):
        cells = mixed_frame.missing_cells()
        assert (2, "score") in cells
        assert (3, "city") in cells
        assert (5, "flag") in cells
        assert len(cells) == 3

    def test_missing_count(self, mixed_frame):
        assert mixed_frame.missing_count() == 3


class TestMisc:
    def test_copy_is_independent(self, mixed_frame):
        clone = mixed_frame.copy()
        clone.set_at(0, "id", -1)
        assert mixed_frame.at(0, "id") == 1

    def test_equality(self, mixed_frame):
        assert mixed_frame == mixed_frame.copy()
        assert mixed_frame != mixed_frame.head(3)

    def test_duplicate_row_indices(self):
        frame = DataFrame.from_dict({"a": [1, 2, 1, 1], "b": ["x", "y", "x", "z"]})
        assert frame.duplicate_row_indices() == [2]

    def test_to_numpy_shape(self, mixed_frame):
        matrix = mixed_frame.to_numpy()
        assert matrix.shape == (6, 2)
