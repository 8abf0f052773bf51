"""NADEEF and KATARA detector tests."""

from repro.dataframe import DataFrame
from repro.detection import (
    DetectionContext,
    KATARADetector,
    KnowledgeBase,
    NADEEFDetector,
    default_knowledge_base,
)
from repro.fd import FunctionalDependency, ValueRule
from repro.ml import detection_scores


class TestNADEEF:
    def test_uses_context_rules(self):
        frame = DataFrame.from_dict(
            {"zip": ["1", "1", "2"], "city": ["x", "y", "z"]}
        )
        context = DetectionContext(rules=[FunctionalDependency(("zip",), "city")])
        result = NADEEFDetector(auto_discover=False).detect(frame, context)
        assert result.cells == {(1, "city")} or result.cells == {(0, "city")}

    def test_value_rules_evaluated(self):
        frame = DataFrame.from_dict({"age": [30, -4]})
        rule = ValueRule("age", ("age",), lambda row: row["age"] >= 0)
        context = DetectionContext(value_rules=[rule])
        result = NADEEFDetector(auto_discover=False).detect(frame, context)
        assert (1, "age") in result.cells

    def test_auto_discovery_on_hospital(self, hospital_dirty):
        result = NADEEFDetector().detect(hospital_dirty.dirty, DetectionContext())
        assert result.metadata["rules_discovered"] > 0
        scores = detection_scores(result.cells, hospital_dirty.mask)
        assert scores["precision"] > 0.3
        assert scores["recall"] > 0.2

    def test_no_rules_no_detection_when_disabled(self, hospital_dirty):
        result = NADEEFDetector(auto_discover=False).detect(
            hospital_dirty.dirty, DetectionContext()
        )
        assert result.cells == set()

    def test_violations_per_rule_reported(self):
        frame = DataFrame.from_dict(
            {"zip": ["1", "1", "2"], "city": ["x", "y", "z"]}
        )
        context = DetectionContext(rules=[FunctionalDependency(("zip",), "city")])
        result = NADEEFDetector(auto_discover=False).detect(frame, context)
        assert "[zip] -> city" in result.metadata["violations_per_rule"]


class TestKnowledgeBase:
    def test_type_matching_weighted_by_rows(self):
        kb = KnowledgeBase()
        kb.add_type("color", ["red", "green", "blue"])
        values = ["red"] * 50 + ["green"] * 40 + [f"typo{i}" for i in range(9)]
        type_name, coverage = kb.match_column(values)
        assert type_name == "color"
        assert coverage > 0.9

    def test_no_match_below_threshold(self):
        kb = KnowledgeBase()
        kb.add_type("color", ["red"])
        type_name, _ = kb.match_column(["x", "y", "z", "red"])
        assert type_name is None

    def test_relation_lookup(self):
        kb = KnowledgeBase()
        kb.add_relation("city", "state", [("springfield", "il")])
        table = kb.relation_for("city", "state")
        assert table == {"springfield": {"il"}}

    def test_default_kb_has_geography(self):
        kb = default_knowledge_base()
        assert kb.values_of("us_state")
        assert kb.relation_for("us_city", "us_state") is not None


class TestKATARA:
    def test_flags_out_of_vocabulary_cells(self, hospital_dirty):
        result = KATARADetector().detect(hospital_dirty.dirty, DetectionContext())
        scores = detection_scores(result.cells, hospital_dirty.mask)
        assert len(result.cells) > 0
        assert scores["precision"] > 0.8

    def test_relation_violations(self):
        frame = DataFrame.from_dict(
            {
                "City": ["MIAMI", "MIAMI", "ATLANTA", "MIAMI"],
                "State": ["FL", "GA", "GA", "FL"],
            }
        )
        result = KATARADetector(min_coverage=0.5).detect(frame)
        assert (1, "State") in result.cells

    def test_alignments_reported(self, hospital_dirty):
        result = KATARADetector().detect(hospital_dirty.dirty)
        assert "City" in result.metadata["alignments"]

    def test_custom_kb_via_context(self):
        kb = KnowledgeBase()
        kb.add_type("fruit", ["apple", "pear"])
        frame = DataFrame.from_dict(
            {"f": ["apple", "pear", "apple", "rock"]}
        )
        context = DetectionContext(knowledge_base=kb)
        result = KATARADetector(min_coverage=0.5).detect(frame, context)
        assert result.cells == {(3, "f")}
