"""Tests for the paper's future-work extensions: NL rules, explainability,
and the bandit sampler for dynamic tool selection."""

import pytest

from repro.core import (
    DataLens,
    RuleParseError,
    explain_cell,
    parse_rule,
)
from repro.dataframe import DataFrame
from repro.fd import FunctionalDependency


@pytest.fixture
def frame():
    return DataFrame.from_dict(
        {
            "ZipCode": ["1", "1", "2", "2"],
            "City": ["x", "x", "y", "z"],
            "age": [30, -4, 200, 41],
            "abv": [5.0, -1.0, 6.0, 7.0],
            "state": ["AL", "FL", "XX", "GA"],
        }
    )


class TestNLRuleParsing:
    def test_determines_sentence(self, frame):
        parsed = parse_rule("ZipCode determines City", frame)
        assert parsed.kind == "fd"
        assert parsed.rule == FunctionalDependency(("ZipCode",), "City")

    def test_arrow_syntax(self, frame):
        parsed = parse_rule("ZipCode -> City", frame)
        assert parsed.kind == "fd"

    def test_depends_on(self, frame):
        parsed = parse_rule("City depends on ZipCode", frame)
        assert parsed.rule.determinants == ("ZipCode",)
        assert parsed.rule.dependent == "City"

    def test_multi_determinant(self, frame):
        parsed = parse_rule("ZipCode, City determine state", frame)
        assert set(parsed.rule.determinants) == {"ZipCode", "City"}

    def test_case_insensitive_columns(self, frame):
        parsed = parse_rule("zipcode determines city", frame)
        assert parsed.rule.determinants == ("ZipCode",)

    def test_range_rule_flags_violations(self, frame):
        parsed = parse_rule("age between 0 and 120", frame)
        assert parsed.kind == "range"
        cells = parsed.rule.violations(frame)
        assert cells == {(1, "age"), (2, "age")}

    def test_sign_rule(self, frame):
        parsed = parse_rule("abv is positive", frame)
        assert parsed.kind == "sign"
        assert parsed.rule.violations(frame) == {(1, "abv")}

    def test_domain_rule(self, frame):
        parsed = parse_rule("state in {AL, FL, GA}", frame)
        assert parsed.kind == "domain"
        assert parsed.rule.violations(frame) == {(2, "state")}

    def test_forbidden_value(self, frame):
        parsed = parse_rule("age is not 200", frame)
        assert parsed.kind == "forbidden"
        assert parsed.rule.violations(frame) == {(2, "age")}

    def test_quoted_column_names(self):
        spaced = DataFrame.from_dict({"Chord Length": [1.0, -2.0]})
        parsed = parse_rule("'Chord Length' is positive", spaced)
        assert parsed.rule.violations(spaced) == {(1, "Chord Length")}

    def test_unknown_column_rejected(self, frame):
        with pytest.raises(RuleParseError):
            parse_rule("ghost determines City", frame)

    def test_gibberish_rejected(self, frame):
        with pytest.raises(RuleParseError):
            parse_rule("make the data nicer please", frame)

    def test_inverted_range_rejected(self, frame):
        with pytest.raises(RuleParseError):
            parse_rule("age between 120 and 0", frame)

    def test_missing_values_do_not_violate_constraints(self):
        data = DataFrame.from_dict({"age": [None, 50]})
        parsed = parse_rule("age between 0 and 120", data)
        assert parsed.rule.violations(data) == set()


class TestControllerNLIntegration:
    def test_fd_text_becomes_confirmed_rule(self, tmp_path, hospital_dirty):
        lens = DataLens(tmp_path / "ws", seed=0)
        session = lens.ingest_frame("hospital", hospital_dirty.dirty)
        parsed = session.add_rule_from_text("ZipCode determines City")
        assert parsed.rule in session.rule_set.confirmed_rules()

    def test_value_rule_feeds_detection(self, tmp_path):
        frame = DataFrame.from_dict(
            {"age": [30, -4, 200, 41, 33, 28], "name": list("abcdef")}
        )
        lens = DataLens(tmp_path / "ws", seed=0)
        session = lens.ingest_frame("people", frame)
        session.add_rule_from_text("age between 0 and 120")
        cells = session.run_detection(["nadeef"])
        assert (1, "age") in cells
        assert (2, "age") in cells


class TestExplainability:
    def test_statistical_evidence(self, tmp_path, nasa_dirty):
        lens = DataLens(tmp_path / "ws", seed=0)
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.run_detection(["iqr", "sd", "mv_detector"])
        session.run_repair("standard_imputer")
        explanations = session.explain_detections(limit=10)
        assert len(explanations) == 10
        for explanation in explanations:
            assert explanation.evidence
            assert explanation.repair is not None
            assert explanation.repair["tool"] == "standard_imputer"
            text = explanation.summary()
            assert "cell (" in text

    def test_rule_evidence_names_the_rule(self, tmp_path):
        frame = DataFrame.from_dict(
            {"zip": ["1", "1", "1", "2"] * 5, "city": (["x"] * 3 + ["y"]) * 5}
        )
        frame.set_at(2, "city", "z")
        lens = DataLens(tmp_path / "ws", seed=0)
        session = lens.ingest_frame("geo", frame)
        session.add_custom_rule(["zip"], "city")
        session.run_detection(["nadeef"])
        explanations = session.explain_detections()
        reasons = " ".join(
            ev.reason for exp in explanations for ev in exp.evidence
        )
        assert "[zip] -> city" in reasons

    def test_tag_evidence(self, tmp_path):
        frame = DataFrame.from_dict({"x": [1.0, 99999.0, 2.0] * 4})
        lens = DataLens(tmp_path / "ws", seed=0)
        session = lens.ingest_frame("t", frame)
        session.tag_value(99999)
        session.run_detection([])
        explanation = explain_cell(
            session.frame, (1, "x"), session.detection_results
        )
        assert any(ev.tool == "user_tags" for ev in explanation.evidence)

    def test_multi_tool_cell_lists_all_evidence(self, tmp_path, nasa_dirty):
        lens = DataLens(tmp_path / "ws", seed=0)
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.run_detection(["iqr", "sd"])
        both = None
        for cell in sorted(session.detected_cells):
            in_iqr = cell in session.detection_results["iqr"].cells
            in_sd = cell in session.detection_results["sd"].cells
            if in_iqr and in_sd:
                both = cell
                break
        assert both is not None
        explanation = explain_cell(
            session.frame, both, session.detection_results
        )
        assert {ev.tool for ev in explanation.evidence} == {"iqr", "sd"}


class TestBanditSampler:
    def test_bandit_concentrates_on_best_arm(self):
        from repro.optimize import BanditSampler, MINIMIZE, Study

        study = Study(
            MINIMIZE, sampler=BanditSampler(epsilon=0.2), seed=0
        )

        def objective(trial):
            arm = trial.suggest_categorical("arm", ["good", "bad", "awful"])
            noise = trial.suggest_float("noise", 0.0, 0.1)
            base = {"good": 0.0, "bad": 5.0, "awful": 20.0}[arm]
            return base + noise

        study.optimize(objective, 30)
        tail = [t.params["arm"] for t in study.trials[15:]]
        assert tail.count("good") > len(tail) / 2
        assert study.best_value < 0.2

    def test_bandit_validation(self):
        from repro.optimize import BanditSampler

        with pytest.raises(ValueError):
            BanditSampler(epsilon=1.5)
        with pytest.raises(ValueError):
            BanditSampler(decay=0.0)

    def test_bandit_in_iterative_cleaner(self, nasa_dirty):
        from repro.core import IterativeCleaner

        cleaner = IterativeCleaner(
            task="regression",
            target="Sound Pressure",
            sampler="bandit",
            detector_choices=["iqr", "mv_detector", "union_statistical"],
            repairer_choices=["standard_imputer"],
            seed=0,
        )
        result = cleaner.clean(nasa_dirty.dirty, n_iterations=5)
        assert result.best_score < result.baseline_dirty


class TestExplanationEndpoints:
    def test_rest_parse_and_explain(self, tmp_path, nasa_dirty):
        from repro.api import TestClient, create_app

        lens = DataLens(tmp_path / "ws", seed=0)
        lens.ingest_frame("nasa", nasa_dirty.dirty)
        client = TestClient(create_app(lens))

        parsed = client.post(
            "/datasets/nasa/rules/parse",
            {"text": "'Sound Pressure' between 0 and 250"},
        )
        assert parsed.status == 200
        assert parsed.body["kind"] == "range"

        bad = client.post(
            "/datasets/nasa/rules/parse", {"text": "please fix everything"}
        )
        assert bad.status == 422

        client.post("/datasets/nasa/detect", {"tools": ["iqr"]})
        explanations = client.get(
            "/datasets/nasa/explanations", query={"limit": "5"}
        )
        assert explanations.status == 200
        assert len(explanations.body["explanations"]) == 5
        first = explanations.body["explanations"][0]
        assert first["evidence"][0]["tool"] == "iqr"
