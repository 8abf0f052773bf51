"""Min-K / union / intersection ensemble tests."""

import pytest

from repro.dataframe import DataFrame
from repro.detection import (
    DetectionContext,
    Detector,
    IQRDetector,
    MinKEnsemble,
    MVDetector,
    SDDetector,
    UnionEnsemble,
)


class FixedDetector(Detector):
    def __init__(self, name, cells):
        super().__init__()
        self.name = name
        self._cells = cells

    def _detect(self, frame, context):
        return set(self._cells), {}, {}


@pytest.fixture
def members():
    return [
        FixedDetector("d1", {(0, "a"), (1, "a")}),
        FixedDetector("d2", {(1, "a"), (2, "a")}),
        FixedDetector("d3", {(1, "a"), (3, "a")}),
    ]


@pytest.fixture
def frame():
    return DataFrame.from_dict({"a": [1, 2, 3, 4, 5]})


class TestMinK:
    def test_vote_threshold(self, members, frame):
        result = MinKEnsemble(members, k=2).detect(frame)
        assert result.cells == {(1, "a")}

    def test_k1_equals_union(self, members, frame):
        min_k = MinKEnsemble(members, k=1).detect(frame).cells
        union = UnionEnsemble(members).detect(frame).cells
        assert min_k == union == {(0, "a"), (1, "a"), (2, "a"), (3, "a")}

    def test_k_equals_members_is_intersection(self, members, frame):
        min_k = MinKEnsemble(members, k=3).detect(frame).cells
        assert min_k == {(1, "a")}

    def test_k_bounds_validated(self, members):
        with pytest.raises(ValueError):
            MinKEnsemble(members, k=0)
        with pytest.raises(ValueError):
            MinKEnsemble(members, k=4)

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            MinKEnsemble([], k=1)

    def test_scores_are_vote_fractions(self, members, frame):
        result = MinKEnsemble(members, k=1).detect(frame)
        assert result.scores[(1, "a")] == pytest.approx(1.0)
        assert result.scores[(0, "a")] == pytest.approx(1 / 3)

    def test_member_stats_in_metadata(self, members, frame):
        result = MinKEnsemble(members, k=2).detect(frame)
        assert result.metadata["member_cells"] == {"d1": 2, "d2": 2, "d3": 2}


class TestOnRealData:
    def test_union_improves_recall_over_singles(self, nasa_dirty):
        from repro.ml import detection_scores

        singles = [SDDetector(), IQRDetector(), MVDetector()]
        union = UnionEnsemble(
            [SDDetector(), IQRDetector(), MVDetector()]
        ).detect(nasa_dirty.dirty, DetectionContext())
        union_recall = detection_scores(union.cells, nasa_dirty.mask)["recall"]
        for single in singles:
            result = single.detect(nasa_dirty.dirty, DetectionContext())
            recall = detection_scores(result.cells, nasa_dirty.mask)["recall"]
            assert union_recall >= recall

    def test_min_k_improves_precision_over_union(self, nasa_dirty):
        from repro.ml import detection_scores

        def fresh_members():
            return [SDDetector(k=2.5), IQRDetector(), MVDetector()]

        union = UnionEnsemble(fresh_members()).detect(nasa_dirty.dirty)
        min_k = MinKEnsemble(fresh_members(), k=2).detect(nasa_dirty.dirty)
        union_precision = detection_scores(union.cells, nasa_dirty.mask)[
            "precision"
        ]
        min_k_precision = detection_scores(min_k.cells, nasa_dirty.mask)[
            "precision"
        ]
        assert min_k_precision >= union_precision
