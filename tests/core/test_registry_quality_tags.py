"""Tool registry, quality metrics, and tag registry tests."""

import pytest

from repro.core import (
    TagRegistry,
    accuracy_against,
    completeness,
    consistency,
    detector_names,
    make_detector,
    make_repairer,
    quality_summary,
    register_detector,
    register_repairer,
    repairer_names,
    uniqueness,
    validity,
)
from repro.dataframe import DataFrame
from repro.detection import Detector, MinKEnsemble, UnionEnsemble
from repro.fd import FunctionalDependency


class TestRegistry:
    def test_every_detector_name_constructs(self):
        for name in detector_names():
            detector = make_detector(name)
            assert detector is not None

    def test_every_repairer_name_constructs(self):
        for name in repairer_names():
            assert make_repairer(name) is not None

    def test_params_forwarded(self):
        detector = make_detector("sd", k=2.5)
        assert detector.config["k"] == 2.5

    def test_composites_resolve(self):
        union = make_detector("union_broad")
        assert isinstance(union, UnionEnsemble)
        min_k = make_detector("min_k2")
        assert isinstance(min_k, MinKEnsemble)
        assert min_k.k == 2

    def test_unknown_names(self):
        with pytest.raises(KeyError):
            make_detector("deep_clean_9000")
        with pytest.raises(KeyError):
            make_repairer("magic")

    def test_register_custom_detector(self):
        class NullDetector(Detector):
            name = "null_detector_test"

            def _detect(self, frame, context):
                return set(), {}, {}

        register_detector("null_detector_test", NullDetector)
        assert isinstance(make_detector("null_detector_test"), NullDetector)
        with pytest.raises(ValueError):
            register_detector("null_detector_test", NullDetector)

    def test_register_duplicate_repairer_rejected(self):
        with pytest.raises(ValueError):
            register_repairer("ml_imputer", lambda: None)


class TestQualityMetrics:
    def test_completeness(self):
        frame = DataFrame.from_dict({"a": [1, None, 3, 4]})
        assert completeness(frame) == pytest.approx(0.75)

    def test_uniqueness(self):
        frame = DataFrame.from_dict({"a": [1, 1, 2], "b": ["x", "x", "y"]})
        assert uniqueness(frame) == pytest.approx(2 / 3)

    def test_validity_penalizes_outliers(self):
        clean = DataFrame.from_dict({"x": [float(v) for v in range(50)]})
        dirty = clean.copy()
        dirty.set_at(0, "x", 1e9)
        assert validity(dirty) < validity(clean)

    def test_consistency_with_rules(self):
        frame = DataFrame.from_dict(
            {"zip": ["1", "1", "2"], "city": ["x", "y", "z"]}
        )
        rule = FunctionalDependency(("zip",), "city")
        assert consistency(frame, [rule]) < 1.0
        assert consistency(frame, []) == 1.0

    def test_accuracy_against_reference(self):
        frame = DataFrame.from_dict({"a": [1, 2, 3, 4]})
        reference = DataFrame.from_dict({"a": [1, 2, 0, 4]})
        assert accuracy_against(frame, reference) == pytest.approx(0.75)

    def test_accuracy_shape_mismatch(self):
        a = DataFrame.from_dict({"a": [1]})
        b = DataFrame.from_dict({"a": [1, 2]})
        with pytest.raises(ValueError):
            accuracy_against(a, b)

    def test_summary_overall(self):
        frame = DataFrame.from_dict({"a": [1, 2, 3]})
        summary = quality_summary(frame)
        assert set(summary) == {
            "completeness", "uniqueness", "validity", "consistency", "overall",
        }
        assert summary["overall"] == pytest.approx(1.0)

    def test_repair_improves_quality(self, nasa_dirty):
        from repro.detection import MVDetector
        from repro.repair import StandardImputer

        cells = MVDetector().detect(nasa_dirty.dirty).cells
        repaired = StandardImputer().repair(
            nasa_dirty.dirty, cells
        ).apply_to(nasa_dirty.dirty)
        before = quality_summary(nasa_dirty.dirty)
        after = quality_summary(repaired)
        assert after["completeness"] > before["completeness"]


class TestTagRegistry:
    def test_search_finds_tagged_numbers(self):
        frame = DataFrame.from_dict({"x": [1.0, -1.0, 3.0, -1.0]})
        tags = TagRegistry([-1])
        result = tags.search(frame)
        assert result.cells == {(1, "x"), (3, "x")}
        assert result.tool == "user_tags"

    def test_search_strings_case_insensitive(self):
        frame = DataFrame.from_dict({"c": ["ok", "N/A", "n/a"]})
        tags = TagRegistry(["N/A"])
        assert tags.search(frame).cells == {(1, "c"), (2, "c")}

    def test_numeric_cross_type_match(self):
        tags = TagRegistry([99999])
        assert 99999.0 in tags

    def test_none_never_matches(self):
        frame = DataFrame.from_dict({"x": [None, 1.0]})
        tags = TagRegistry([0])
        assert tags.search(frame).cells == set()

    def test_finds_injected_sentinels(self, nasa_dirty):
        from repro.ingestion import DISGUISED, NUMERIC_SENTINELS

        tags = TagRegistry(list(NUMERIC_SENTINELS))
        found = tags.search(nasa_dirty.dirty).cells
        assert nasa_dirty.cells_by_type[DISGUISED] <= found
