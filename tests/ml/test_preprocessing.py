"""FrameEncoder tests."""

import pytest

from repro.dataframe import DataFrame
from repro.ml import FrameEncoder


class TestFrameEncoder:
    def test_numeric_passthrough_with_mean_fill(self):
        frame = DataFrame.from_dict({"x": [1.0, None, 3.0]})
        matrix = FrameEncoder().fit_transform(frame)
        assert matrix[1, 0] == pytest.approx(2.0)

    def test_categorical_codes(self):
        frame = DataFrame.from_dict({"c": ["b", "a", "b"]})
        matrix = FrameEncoder().fit_transform(frame)
        assert matrix[0, 0] == matrix[2, 0]
        assert matrix[0, 0] != matrix[1, 0]

    def test_missing_category_gets_own_code(self):
        frame = DataFrame.from_dict({"c": ["a", None]})
        matrix = FrameEncoder().fit_transform(frame)
        assert matrix[0, 0] != matrix[1, 0]

    def test_column_subset_and_order(self):
        frame = DataFrame.from_dict({"a": [1], "b": [2], "c": [3]})
        encoder = FrameEncoder(["c", "a"])
        matrix = encoder.fit_transform(frame)
        assert matrix.tolist() == [[3.0, 1.0]]

    def test_transform_unseen_category_maps_to_missing_code(self):
        train = DataFrame.from_dict({"c": ["a", "b"]})
        test = DataFrame.from_dict({"c": ["z", "a"]})
        encoder = FrameEncoder().fit(train)
        matrix = encoder.transform(test)
        missing_code = 2.0  # a=0, b=1, __missing__=2
        assert matrix[0, 0] == missing_code

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            FrameEncoder().transform(DataFrame.from_dict({"a": [1]}))
