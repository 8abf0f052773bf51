"""FD discovery: TANE and HyFD against the brute-force oracle."""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame
from repro.fd import (
    FunctionalDependency,
    discover_fds,
    discover_fds_hyfd,
    hyfd,
    tane,
)
from repro.ingestion import hospital


def brute_force_fds(
    frame: DataFrame, max_lhs_size: int | None = None
) -> list[FunctionalDependency]:
    """Reference oracle: enumerate and check every candidate FD.

    Exponential — only for small schemas. Returns minimal FDs.
    """
    attributes = frame.column_names
    limit = len(attributes) - 1 if max_lhs_size is None else max_lhs_size
    valid: list[FunctionalDependency] = []
    for dependent in attributes:
        others = [a for a in attributes if a != dependent]
        minimal: list[frozenset[str]] = []
        for size in range(0, limit + 1):
            for combo in combinations(others, size):
                lhs = frozenset(combo)
                if any(m <= lhs for m in minimal):
                    continue
                fd = FunctionalDependency(tuple(combo), dependent)
                if not fd.violations(frame):
                    minimal.append(lhs)
                    valid.append(fd)
    return valid


def _canon(rules):
    return sorted(str(rule) for rule in rules)


class TestTane:
    def test_simple_dependency(self, fd_frame):
        rules = _canon(discover_fds(fd_frame))
        assert "[A] -> B" in rules
        assert "[B] -> A" in rules

    def test_matches_brute_force(self, fd_frame):
        assert _canon(discover_fds(fd_frame)) == _canon(brute_force_fds(fd_frame))

    def test_key_produces_fds(self):
        frame = DataFrame.from_dict({"id": [1, 2, 3], "v": ["a", "a", "b"]})
        rules = _canon(discover_fds(frame))
        assert "[id] -> v" in rules

    def test_max_lhs_size(self):
        rng = np.random.default_rng(5)
        frame = DataFrame.from_dict(
            {c: [int(v) for v in rng.integers(0, 4, 30)] for c in "ABCD"}
        )
        rules = discover_fds(frame, max_lhs_size=1)
        assert all(len(rule.determinants) <= 1 for rule in rules)

    def test_empty_frame(self):
        assert discover_fds(DataFrame()) == []

    def test_constant_column_empty_lhs(self):
        frame = DataFrame.from_dict({"a": [1, 1, 1], "b": [1, 2, 3]})
        rules = discover_fds(frame)
        assert any(
            rule.determinants == () and rule.dependent == "a" for rule in rules
        )

    def test_statistics_recorded(self, fd_frame):
        result = tane(fd_frame)
        assert result.levels_explored >= 1
        assert result.partitions_computed >= 3

    def test_hospital_geography(self):
        frame = hospital(300)
        rules = _canon(discover_fds(frame, max_lhs_size=1))
        assert "[ZipCode] -> City" in rules
        assert "[ZipCode] -> State" in rules


class TestHyFD:
    def test_matches_brute_force(self, fd_frame):
        assert _canon(discover_fds_hyfd(fd_frame)) == _canon(
            brute_force_fds(fd_frame)
        )

    def test_statistics(self, fd_frame):
        result = hyfd(fd_frame)
        assert result.sampled_pairs > 0
        assert result.validations > 0

    def test_max_lhs_size_respected(self):
        rng = np.random.default_rng(3)
        frame = DataFrame.from_dict(
            {c: [int(v) for v in rng.integers(0, 3, 25)] for c in "ABCD"}
        )
        rules = discover_fds_hyfd(frame, max_lhs_size=1)
        assert all(len(rule.determinants) <= 1 for rule in rules)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=8, max_value=24),
    st.integers(min_value=2, max_value=4),
)
def test_tane_and_hyfd_match_brute_force(seed, n_rows, cardinality):
    """On random low-cardinality tables all three algorithms agree."""
    rng = np.random.default_rng(seed)
    frame = DataFrame.from_dict(
        {
            column: [int(v) for v in rng.integers(0, cardinality, n_rows)]
            for column in "ABCD"
        }
    )
    expected = _canon(brute_force_fds(frame))
    assert _canon(discover_fds(frame)) == expected
    assert _canon(discover_fds_hyfd(frame, seed=seed)) == expected


class TestValidityOfDiscoveredRules:
    def test_all_discovered_rules_hold(self):
        rng = np.random.default_rng(9)
        frame = DataFrame.from_dict(
            {c: [int(v) for v in rng.integers(0, 3, 40)] for c in "ABCDE"}
        )
        for rule in discover_fds(frame):
            assert not rule.violations(frame), f"{rule} does not hold"

    def test_minimality(self):
        rng = np.random.default_rng(11)
        frame = DataFrame.from_dict(
            {c: [int(v) for v in rng.integers(0, 3, 40)] for c in "ABCD"}
        )
        rules = discover_fds(frame)
        for rule in rules:
            for drop in rule.determinants:
                smaller = FunctionalDependency(
                    tuple(d for d in rule.determinants if d != drop),
                    rule.dependent,
                )
                assert smaller.violations(frame), (
                    f"{rule} is not minimal: {smaller} also holds"
                )
