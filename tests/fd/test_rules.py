"""Rule object tests: FDs, value rules, and the managed rule set."""

import pytest

from repro.dataframe import DataFrame
from repro.fd import (
    CONFIRMED,
    FunctionalDependency,
    PENDING,
    REJECTED,
    RuleSet,
    ValueRule,
    approximate_fds,
    g3_error,
)


class TestFunctionalDependency:
    def test_str(self):
        rule = FunctionalDependency(("b", "a"), "c")
        assert str(rule) == "[a, b] -> c"

    def test_determinants_sorted(self):
        assert FunctionalDependency(("z", "a"), "m").determinants == ("a", "z")

    def test_dependent_in_lhs_rejected(self):
        with pytest.raises(ValueError):
            FunctionalDependency(("a",), "a")

    def test_holds_in(self, fd_frame):
        assert not FunctionalDependency(("A",), "B").violations(fd_frame)
        assert FunctionalDependency(("C",), "B").violations(fd_frame)

    def test_violations_flag_minority_cells(self):
        frame = DataFrame.from_dict(
            {"zip": ["1", "1", "1", "2"], "city": ["x", "x", "y", "z"]}
        )
        cells = FunctionalDependency(("zip",), "city").violations(frame)
        assert cells == {(2, "city")}

    def test_serialization_roundtrip(self):
        rule = FunctionalDependency(("a", "b"), "c")
        assert FunctionalDependency.from_dict(rule.to_dict()) == rule

    def test_missing_values_distinct(self):
        frame = DataFrame.from_dict({"a": [1, 1], "b": [None, "x"]})
        assert FunctionalDependency(("a",), "b").violations(frame)


class TestValueRule:
    def test_violations(self):
        frame = DataFrame.from_dict({"age": [30, -5, 200]})
        rule = ValueRule(
            name="age_range",
            columns=("age",),
            check=lambda row: 0 <= row["age"] <= 120,
        )
        assert rule.violations(frame) == {(1, "age"), (2, "age")}

    def test_exception_counts_as_violation(self):
        frame = DataFrame.from_dict({"age": [None, 30]})
        rule = ValueRule(
            name="age_range",
            columns=("age",),
            check=lambda row: row["age"] > 0,
        )
        assert (0, "age") in rule.violations(frame)


class TestRuleSet:
    def test_lifecycle(self):
        rules = RuleSet()
        fd = FunctionalDependency(("a",), "b")
        rules.add_discovered([fd])
        assert rules.managed[0].status == PENDING
        rules.set_status(fd, CONFIRMED)
        assert rules.confirmed_rules() == [fd]
        rules.set_status(fd, REJECTED)
        assert rules.active_rules() == []

    def test_no_duplicate_discovery(self):
        rules = RuleSet()
        fd = FunctionalDependency(("a",), "b")
        rules.add_discovered([fd])
        rules.add_discovered([fd])
        assert len(rules) == 1

    def test_custom_rules_confirmed(self):
        rules = RuleSet()
        fd = FunctionalDependency(("a",), "b")
        managed = rules.add_custom(fd, note="domain knowledge")
        assert managed.status == CONFIRMED
        assert managed.source == "user"

    def test_unknown_rule_status(self):
        rules = RuleSet()
        with pytest.raises(KeyError):
            rules.set_status(FunctionalDependency(("a",), "b"), CONFIRMED)

    def test_invalid_status(self):
        rules = RuleSet()
        fd = FunctionalDependency(("a",), "b")
        rules.add_discovered([fd])
        with pytest.raises(ValueError):
            rules.set_status(fd, "maybe")


class TestApproximateFDs:
    def test_g3_error_exact_rule(self, fd_frame):
        assert g3_error(fd_frame, FunctionalDependency(("A",), "B")) == 0.0

    def test_g3_error_fraction(self):
        frame = DataFrame.from_dict(
            {"a": [1] * 10, "b": ["x"] * 9 + ["y"]}
        )
        rule = FunctionalDependency(("a",), "b")
        assert g3_error(frame, rule) == pytest.approx(0.1)

    def test_tolerance_filters(self):
        frame = DataFrame.from_dict(
            {"a": [1] * 10 + [2] * 10, "b": ["x"] * 9 + ["y"] + ["z"] * 10}
        )
        strict = approximate_fds(frame, tolerance=0.01)
        lenient = approximate_fds(frame, tolerance=0.10)
        rule_strings_strict = {str(r) for r in strict}
        rule_strings_lenient = {str(r) for r in lenient}
        assert "[a] -> b" not in rule_strings_strict
        assert "[a] -> b" in rule_strings_lenient

    def test_key_like_determinants_skipped(self):
        frame = DataFrame.from_dict(
            {"id": list(range(20)), "v": ["x"] * 20}
        )
        rules = approximate_fds(frame, tolerance=0.0)
        assert all(rule.determinants != ("id",) for rule in rules)
