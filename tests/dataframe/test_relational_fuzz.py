"""Property-based differential harness for the chunk-native relational
operators (:mod:`repro.dataframe.joins`).

Seeded random schemas — mixed dtypes, varying null rates, narrow key
cardinalities (forcing collisions), adversarial chunk sizes (1, 2, 257,
n±1) and spilled legs at a 512-byte budget — drive every join variant
(inner/left/outer × memory/partitioned), semi-join membership, the external
merge sort (every leg bit-identical to the in-memory ``ops.sort_by``
kernel, including descending, multi-key, and all-None keys), and the
grouped aggregation pushdown, asserting each leg bit-identical to the
retained pure-Python reference in ``test_relational_equivalence``: same
values, same Python types, same dtypes, same ordering — and for invalid
inputs, the same exception type on every leg. Out-of-core legs assert
residency (inputs and sorted outputs still spilled, peak resident bytes
within budget) *before* any dense value comparison — a dense access
materializes and releases shards by design, so the order matters.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

import test_relational_equivalence as ref
from repro.dataframe import (
    Column,
    DataFrame,
    SpillStore,
    external_sort_by,
    group_by,
    join,
    resolve_join_strategy,
    semi_join_mask,
    sort_by,
    spill_frame,
)
from repro.dataframe.joins import (
    _partition_ids,
    _value_hashes,
    resolve_join_partitions,
)

SPILL_BUDGET = 512
KEY_POOL = ("int", "string", "bool", "float", "bigint")
VALUE_COLS = (("v_f", "float"), ("v_s", "string"), ("v_i", "int"))

REFERENCE_JOINS = {
    "inner": ref.reference_inner_join,
    "left": ref.reference_left_join,
    "outer": ref.reference_outer_join,
}


def _random_frame(make_values, seed, n, key_dtypes, prefix=""):
    """Narrow-profile random frame: key columns k0..k(j), value columns.

    ``make_values`` is the shared generator from the ``random_values``
    session fixture — requested as a fixture (not imported from
    ``conftest``) because a bare ``conftest`` module name is ambiguous
    in a whole-repo pytest run.
    """
    rng = np.random.default_rng(seed)
    missing = float(rng.choice([0.0, 0.1, 0.4]))
    data = {}
    for j, dtype in enumerate(key_dtypes):
        data[f"k{j}"] = make_values(rng, dtype, n, missing, "narrow")
    for name, dtype in VALUE_COLS:
        data[prefix + name] = make_values(rng, dtype, n, missing, "narrow")
    return DataFrame.from_dict(data)


def _legs(frame):
    """Monolithic, adversarially chunked, and spilled copies of a frame.

    The spilled leg shares one 512-byte store across all of its columns,
    so any operator that densifies a column un-spills it — caught by
    :func:`_assert_still_spilled` below.
    """
    n = frame.num_rows
    legs = {
        "mono": (frame, None),
        "chunk1": (frame.to_chunked(1), None),
        "chunk2": (frame.to_chunked(2), None),
        "chunk257": (frame.to_chunked(257), None),
        "chunk_n-1": (frame.to_chunked(max(1, n - 1)), None),
        "chunk_n+1": (frame.to_chunked(n + 1), None),
    }
    store = SpillStore(budget_bytes=SPILL_BUDGET)
    legs["spilled"] = (spill_frame(frame, store, chunk_size=7), store)
    return legs


def _assert_still_spilled(frame, label):
    """The out-of-core contract: reading through an operator must not
    pin a spilled column resident (values_array()/take() would)."""
    if frame.num_rows == 0:
        return  # nothing to spill: empty frames carry plain columns
    for name in frame.column_names:
        assert getattr(frame.column(name), "spilled", False), (label, name)


def _outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 — differential comparison
        return ("raise", type(exc))


def _assert_same_outcome(actual, expected, label):
    assert actual[0] == expected[0], (label, actual, expected)
    if expected[0] == "raise":
        assert actual[1] is expected[1], (label, actual, expected)
    else:
        ref._assert_frames_identical(actual[1], expected[1])


# (seed, n_left, n_right, how-many-key-columns). 300 rows crosses a real
# 257-row chunk boundary; 0/1/2 hit the degenerate frames.
CASES = [
    (0, 0, 5, 1),
    (1, 1, 1, 1),
    (2, 2, 17, 1),
    (3, 19, 0, 2),
    (4, 23, 29, 1),
    (5, 57, 31, 2),
    (6, 44, 44, 3),
    (7, 300, 40, 1),
]


@pytest.mark.parametrize("seed,n_left,n_right,n_keys", CASES)
class TestJoinFuzz:
    def _tables(self, make_values, seed, n_left, n_right, n_keys):
        rng = np.random.default_rng(seed + 10_000)
        key_dtypes = [str(rng.choice(KEY_POOL)) for _ in range(n_keys)]
        left = _random_frame(
            make_values, seed * 31 + 1, n_left, key_dtypes, prefix="l"
        )
        right = _random_frame(
            make_values, seed * 31 + 2, n_right, key_dtypes, prefix="r"
        )
        return left, right, [f"k{j}" for j in range(n_keys)]

    def test_all_variants_all_legs_match_reference(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        left, right, keys = self._tables(
            random_values, seed, n_left, n_right, n_keys
        )
        for how, reference_join in REFERENCE_JOINS.items():
            expected = reference_join(left, right, on=keys)
            # Fresh legs per strategy: the memory strategy densifies key
            # columns (releasing their spill, by design); partitioned is
            # the strategy that must leave the inputs spilled.
            for strategy in ("memory", "partitioned"):
                left_legs = _legs(left)
                right_legs = _legs(right)
                pairs = [(name, name) for name in left_legs]
                pairs += [("mono", "spilled"), ("spilled", "chunk_n-1")]
                for left_name, right_name in pairs:
                    left_frame, left_store = left_legs[left_name]
                    right_frame, right_store = right_legs[right_name]
                    actual = join(
                        left_frame,
                        right_frame,
                        keys,
                        how=how,
                        strategy=strategy,
                        n_partitions=3,
                    )
                    ref._assert_frames_identical(actual, expected)
                    if strategy != "partitioned":
                        continue
                    for frame, name, store in (
                        (left_frame, left_name, left_store),
                        (right_frame, right_name, right_store),
                    ):
                        if store is not None:
                            label = (how, left_name, right_name, name)
                            _assert_still_spilled(frame, label)
                            stats = store.stats()
                            assert stats["peak_resident_bytes"] <= SPILL_BUDGET

    def test_presorted_spilled_inputs_route_partitioned(
        self, random_values, seed, n_left, n_right, n_keys, monkeypatch
    ):
        """Spilled inputs presorted on the key take the partitioned plan.

        Sortedness plays no part in planning: under ``auto`` spilled
        inputs route to ``partitioned``, both sides stay spilled within
        the store budget, and each join variant matches the reference.
        The subject is the auto-router, so the CI legs that force a
        strategy via the environment are neutralized here.
        """
        monkeypatch.delenv("DATALENS_JOIN_STRATEGY", raising=False)
        left, right, keys = self._tables(
            random_values, seed, n_left, n_right, n_keys
        )
        left = sort_by(left, keys)
        right = sort_by(right, keys)
        for how, reference_join in REFERENCE_JOINS.items():
            expected = reference_join(left, right, on=keys)
            legs = []
            for frame in (left, right):
                store = SpillStore(budget_bytes=SPILL_BUDGET)
                legs.append((spill_frame(frame, store, chunk_size=7), store))
            (left_leg, _), (right_leg, _) = legs
            assert (
                resolve_join_strategy(None, left_leg, right_leg)
                == "partitioned"
            )
            actual = join(left_leg, right_leg, keys, how=how)
            for leg, store in legs:
                _assert_still_spilled(leg, how)
                assert store.stats()["peak_resident_bytes"] <= SPILL_BUDGET
            ref._assert_frames_identical(actual, expected)

    def test_semi_join_mask_all_legs_match_reference(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        """Per left row: does the reference find a right row with its key?

        The right key columns are renamed, so ``right_on`` must pair them
        positionally. Rows with a missing key cell are never members.
        """
        left, right, keys = self._tables(
            random_values, seed, n_left, n_right, n_keys
        )
        right_keys = [f"r_{name}" for name in keys]
        right = DataFrame(
            [
                Column(
                    f"r_{name}",
                    right.column(name).values(),
                    right.column(name).dtype,
                )
                if name in keys
                else right.column(name)
                for name in right.column_names
            ]
        )
        groups = ref.reference_group_indices(right, right_keys)
        expected = []
        for i in range(left.num_rows):
            key = tuple(left.at(i, name) for name in keys)
            expected.append(None not in key and key in groups)
        for strategy in ("memory", "partitioned"):
            left_legs = _legs(left)
            right_legs = _legs(right)
            pairs = [(name, name) for name in left_legs]
            pairs += [("mono", "spilled"), ("spilled", "chunk_n-1")]
            for left_name, right_name in pairs:
                left_frame, left_store = left_legs[left_name]
                right_frame, right_store = right_legs[right_name]
                mask = semi_join_mask(
                    left_frame,
                    right_frame,
                    keys,
                    right_on=right_keys,
                    strategy=strategy,
                )
                label = (strategy, left_name, right_name)
                assert mask.dtype == np.bool_, label
                assert mask.tolist() == expected, label
                if strategy != "partitioned":
                    continue
                for frame, store in (
                    (left_frame, left_store),
                    (right_frame, right_store),
                ):
                    if store is not None:
                        _assert_still_spilled(frame, label)
                        stats = store.stats()
                        assert stats["peak_resident_bytes"] <= SPILL_BUDGET

    def test_partition_count_never_changes_result(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        """One bucket, a few, and far more buckets than rows agree.

        Most buckets are empty or one-sided at 64 partitions; ``None``
        derives the count from the spill budget.
        """
        left, right, keys = self._tables(
            random_values, seed, n_left, n_right, n_keys
        )
        expected = {
            how: reference_join(left, right, on=keys)
            for how, reference_join in REFERENCE_JOINS.items()
        }
        left_legs = _legs(left)
        right_legs = _legs(right)
        pairs = [("spilled", "spilled"), ("chunk1", "spilled"), ("mono", "chunk2")]
        for n_partitions in (1, 7, 64, None):
            for left_name, right_name in pairs:
                left_frame, left_store = left_legs[left_name]
                right_frame, right_store = right_legs[right_name]
                for how in REFERENCE_JOINS:
                    actual = join(
                        left_frame,
                        right_frame,
                        keys,
                        how=how,
                        strategy="partitioned",
                        n_partitions=n_partitions,
                    )
                    label = (n_partitions, left_name, right_name, how)
                    for frame, store in (
                        (left_frame, left_store),
                        (right_frame, right_store),
                    ):
                        if store is not None:
                            _assert_still_spilled(frame, label)
                            stats = store.stats()
                            assert (
                                stats["peak_resident_bytes"] <= SPILL_BUDGET
                            ), label
                    ref._assert_frames_identical(actual, expected[how])

    def test_partitioned_plan_releases_bucket_shards(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        """Bucket shards spill through the input's store and are deleted.

        After each join and semi-join the spill directory holds exactly
        the input shards it held before.
        """
        left, right, keys = self._tables(
            random_values, seed, n_left, n_right, n_keys
        )
        store = SpillStore(budget_bytes=SPILL_BUDGET)
        left_leg = spill_frame(left, store, chunk_size=7)
        right_leg = spill_frame(right, store, chunk_size=5)

        def files():
            return sorted(path.name for path in store.directory.iterdir())

        before = files()
        spilled_before = store.stats()["spilled_shards"]
        for how in REFERENCE_JOINS:
            join(left_leg, right_leg, keys, how=how, strategy="partitioned")
            assert files() == before, how
        semi_join_mask(left_leg, right_leg, keys, strategy="partitioned")
        assert files() == before
        if n_left and n_right:
            # The buckets did go through the store.
            assert store.stats()["spilled_shards"] > spilled_before
        _assert_still_spilled(left_leg, "left")
        _assert_still_spilled(right_leg, "right")
        assert store.stats()["peak_resident_bytes"] <= SPILL_BUDGET


@pytest.mark.parametrize("seed,n_left,n_right,n_keys", CASES)
class TestExternalSortFuzz:
    """External merge sort is bit-identical to the in-memory kernel.

    ``ops.sort_by`` on the monolithic frame is the anchor: same values,
    same Python types, same dtypes, same ordering (stability across tie
    groups included — narrow key pools force large tie runs). The
    spilled leg additionally asserts residency *before* any dense read:
    input and output still spilled, peak resident bytes within budget.
    """

    def _frame_and_keys(self, make_values, seed, n, n_keys):
        rng = np.random.default_rng(seed + 30_000)
        key_dtypes = [str(rng.choice(KEY_POOL)) for _ in range(n_keys)]
        frame = _random_frame(
            make_values, seed * 31 + 4, n, key_dtypes, prefix="l"
        )
        return frame, [f"k{j}" for j in range(n_keys)]

    def test_external_sort_all_legs_bit_identical(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        frame, keys = self._frame_and_keys(
            random_values, seed, n_left, n_keys
        )
        for columns in (keys, keys[:1], []):
            for descending in (False, True):
                expected = sort_by(frame, columns, descending=descending)
                for name, (leg, store) in _legs(frame).items():
                    actual = external_sort_by(
                        leg, columns, descending=descending
                    )
                    if store is not None:
                        label = (name, tuple(columns), descending)
                        # Residency first: dense reads release shards.
                        _assert_still_spilled(leg, label)
                        _assert_still_spilled(actual, label)
                        stats = store.stats()
                        assert (
                            stats["peak_resident_bytes"] <= SPILL_BUDGET
                        ), label
                    ref._assert_frames_identical(actual, expected)

    def test_strategy_seam_routes_spilled_frames_externally(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        frame, keys = self._frame_and_keys(
            random_values, seed, n_left, n_keys
        )
        expected = sort_by(frame, keys)
        store = SpillStore(budget_bytes=SPILL_BUDGET)
        spilled = spill_frame(frame, store, chunk_size=7)
        actual = sort_by(spilled, keys)  # auto → external on spilled
        _assert_still_spilled(spilled, "auto-input")
        _assert_still_spilled(actual, "auto-output")
        assert store.stats()["peak_resident_bytes"] <= SPILL_BUDGET
        ref._assert_frames_identical(actual, expected)


class TestExternalSortEdges:
    def test_all_none_keys_preserve_input_order(self):
        frame = DataFrame.from_dict(
            {"k": [None] * 9, "v": list(range(9))}
        )
        for descending in (False, True):
            expected = sort_by(frame, ["k"], descending=descending)
            store = SpillStore(budget_bytes=SPILL_BUDGET)
            leg = spill_frame(frame, store, chunk_size=2)
            actual = external_sort_by(leg, ["k"], descending=descending)
            _assert_still_spilled(actual, "all-none")
            ref._assert_frames_identical(actual, expected)
            assert actual.column("v").values() == list(range(9))

    def test_unknown_sort_column_raises_keyerror_everywhere(self):
        frame = DataFrame.from_dict({"k": [3, 1, 2]})
        for leg, _ in _legs(frame).values():
            with pytest.raises(KeyError):
                external_sort_by(leg, ["ghost"])


@pytest.mark.parametrize("seed,n_left,n_right,n_keys", CASES)
class TestGroupByFuzz:
    def test_grouped_aggregation_all_legs_match_reference(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        rng = np.random.default_rng(seed + 20_000)
        key_dtypes = [str(rng.choice(KEY_POOL)) for _ in range(n_keys)]
        frame = _random_frame(
            random_values, seed * 31 + 3, n_left, key_dtypes, prefix="l"
        )
        keys = [f"k{j}" for j in range(n_keys)]
        spread = lambda values: max(values) - min(values)  # noqa: E731
        aggregations = {
            "f_sum": ("lv_f", "sum"),
            "f_mean": ("lv_f", "mean"),
            "f_min": ("lv_f", min),
            "i_sum": ("lv_i", "sum"),
            "i_max": ("lv_i", "max"),
            "s_count": ("lv_s", "count"),
            "s_first": ("lv_s", "first"),
            "f_spread": ("lv_f", spread),
            "k_n": (keys[0], len),
        }
        expected = ref.reference_group_by(frame, keys, aggregations)
        for name, (leg, store) in _legs(frame).items():
            actual = group_by(leg, keys, aggregations)
            ref._assert_frames_identical(actual, expected)
            if store is not None:
                _assert_still_spilled(leg, name)
                assert store.stats()["peak_resident_bytes"] <= SPILL_BUDGET


class TestSameExceptionOutcomes:
    """Invalid inputs raise the same exception type on every leg.

    The monolithic engine outcome is the anchor (the pure-Python inner
    reference predates suffix validation); left/outer references carry
    the full validation and are compared directly where they apply.
    """

    def _frame_pair(self):
        left = DataFrame.from_dict(
            {"k": [1, 2, 2, None], "a": ["x", "y", "z", "w"]}
        )
        right = DataFrame.from_dict(
            {"k": [2, 3, None], "a": [1.0, 2.0, 3.0], "a_right": [7, 8, 9]}
        )
        return left, right

    def _leg_outcomes(self, fn_for):
        left, right = self._frame_pair()
        outcomes = {}
        for name in ("mono", "chunk1", "chunk2", "spilled"):
            left_leg = _legs(left)[name][0]
            right_leg = _legs(right)[name][0]
            outcomes[name] = _outcome(fn_for(left_leg, right_leg))
        return outcomes

    def _assert_all_legs(self, fn_for, reference_fn=None):
        outcomes = self._leg_outcomes(fn_for)
        anchor = outcomes["mono"]
        for name, outcome in outcomes.items():
            _assert_same_outcome(outcome, anchor, name)
        if reference_fn is not None:
            left, right = self._frame_pair()
            _assert_same_outcome(anchor, _outcome(reference_fn), "reference")
        return anchor

    def test_unknown_key_column_raises_keyerror_everywhere(self):
        left, right = self._frame_pair()
        for how in ("inner", "left", "outer"):
            anchor = self._assert_all_legs(
                lambda l, r, how=how: lambda: join(l, r, ["ghost"], how=how),
                reference_fn=lambda how=how: REFERENCE_JOINS[how](
                    left, right, on=["ghost"]
                ),
            )
            assert anchor == ("raise", KeyError)

    def test_suffix_collision_raises_valueerror_everywhere(self):
        left, right = self._frame_pair()
        for how, strategy in (
            ("inner", "memory"),
            ("inner", "partitioned"),
            ("left", "memory"),
            ("outer", "partitioned"),
        ):
            anchor = self._assert_all_legs(
                lambda l, r, how=how, strategy=strategy: lambda: join(
                    l, r, ["k"], how=how, strategy=strategy
                )
            )
            assert anchor == ("raise", ValueError)
        # The left/outer references validate the suffix identically.
        for how in ("left", "outer"):
            with pytest.raises(ValueError, match="colliding output column"):
                REFERENCE_JOINS[how](left, right, on=["k"])

    def test_unknown_strategy_and_how_raise_valueerror(self):
        left, right = self._frame_pair()
        with pytest.raises(ValueError, match="join strategy"):
            join(left, right, ["k"], strategy="quantum")
        with pytest.raises(ValueError):
            join(left, right, ["k"], how="anti")

    def test_group_by_bad_specs_raise_everywhere(self):
        frame = DataFrame.from_dict({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        legs = [frame, frame.to_chunked(1), frame.to_chunked(2),
                spill_frame(frame, SpillStore(budget_bytes=SPILL_BUDGET),
                            chunk_size=2)]
        for leg in legs:
            with pytest.raises(KeyError):
                group_by(leg, ["ghost"], {"x": ("v", "sum")})
            with pytest.raises(KeyError):
                group_by(leg, ["k"], {"x": ("ghost", "sum")})
            with pytest.raises(ValueError):
                group_by(leg, ["k"], {"x": ("v", "median")})
            with pytest.raises(ValueError, match="'k' repeats a group key"):
                group_by(leg, ["k"], {"k": ("v", "sum")})

    def test_callable_exception_surfaces_everywhere(self):
        def explode(values):
            raise RuntimeError("bad aggregator")

        frame = DataFrame.from_dict({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        for leg in (frame, frame.to_chunked(2)):
            with pytest.raises(RuntimeError, match="bad aggregator"):
                group_by(leg, ["k"], {"x": ("v", explode)})


class TestJoinPlanner:
    """Two plans, one per residency regime; any other name fails loudly."""

    def _pair(self):
        left = DataFrame.from_dict({"k": [1, 2, 2], "a": ["x", "y", "z"]})
        right = DataFrame.from_dict({"k": [2, 5], "b": [1.0, 2.0]})
        return left, right

    def _rejects(self, name):
        return pytest.raises(
            ValueError,
            match=f"unknown join strategy '{name}'; expected one of "
            + re.escape("['auto', 'memory', 'partitioned']"),
        )

    def test_join_rejects_merge(self):
        left, right = self._pair()
        with self._rejects("merge"):
            join(left, right, ["k"], strategy="merge")

    def test_semi_join_rejects_sortmerge(self):
        left, right = self._pair()
        with self._rejects("sortmerge"):
            semi_join_mask(left, right, ["k"], strategy="sortmerge")

    def test_env_rejects_sortmerge(self, monkeypatch):
        monkeypatch.setenv("DATALENS_JOIN_STRATEGY", "sortmerge")
        left, right = self._pair()
        with self._rejects("sortmerge"):
            join(left, right, ["k"], how="inner")

    def test_auto_routes_by_residency(self, monkeypatch):
        monkeypatch.delenv("DATALENS_JOIN_STRATEGY", raising=False)
        left, right = self._pair()
        spilled = spill_frame(
            right, SpillStore(budget_bytes=SPILL_BUDGET), chunk_size=1
        )
        assert resolve_join_strategy(None, left, right) == "memory"
        assert resolve_join_strategy(None, left, spilled) == "partitioned"
        assert resolve_join_strategy(None, spilled, left) == "partitioned"

    def test_strategy_names_are_case_insensitive(self, monkeypatch):
        left, right = self._pair()
        monkeypatch.setenv("DATALENS_JOIN_STRATEGY", " Partitioned ")
        assert resolve_join_strategy(None, left, right) == "partitioned"
        assert resolve_join_strategy("MEMORY", left, right) == "memory"

    def test_blank_env_means_auto(self, monkeypatch):
        monkeypatch.setenv("DATALENS_JOIN_STRATEGY", "  ")
        left, right = self._pair()
        assert resolve_join_strategy(None, left, right) == "memory"

    def test_partition_count_must_be_positive(self):
        left, right = self._pair()
        with pytest.raises(ValueError, match="n_partitions must be >= 1, got 0"):
            join(left, right, ["k"], strategy="partitioned", n_partitions=0)

    def test_derived_partition_count_follows_store_budget(self):
        left, right = self._pair()
        # Without a store: one partition per 64k input rows.
        assert resolve_join_partitions(None, left, right, None) == 1
        # With one: ~64 B per input row, so 5 rows in a 64 B budget
        # need 5 partitions and fit one partition of a 1 MiB budget.
        small = SpillStore(budget_bytes=64)
        large = SpillStore(budget_bytes=1 << 20)
        assert resolve_join_partitions(None, left, right, small) == 5
        assert resolve_join_partitions(None, left, right, large) == 1
        assert resolve_join_partitions(4, left, right, small) == 4

    def test_small_chunk_spilled_input_buckets_in_batches(self):
        """Consecutive chunks are bucketed together up to one budget.

        Bucketing each one-row chunk on its own would spill a row-id and
        a key shard per chunk; batching keeps the bucket shard count far
        below the chunk count while peak residency stays within budget.
        """
        n = 400
        frame = DataFrame.from_dict(
            {"k": [i % 37 for i in range(n)], "v": [float(i) for i in range(n)]}
        )
        right = DataFrame.from_dict(
            {"k": list(range(0, 40, 3)), "w": [str(i) for i in range(14)]}
        )
        store = SpillStore(budget_bytes=4096)
        left = spill_frame(frame, store, chunk_size=1)
        spilled_before = store.stats()["spilled_shards"]
        actual = join(left, right, ["k"], strategy="partitioned", n_partitions=2)
        written = store.stats()["spilled_shards"] - spilled_before
        _assert_still_spilled(left, "batched")
        assert store.stats()["peak_resident_bytes"] <= 4096
        assert 0 < written <= n // 8
        ref._assert_frames_identical(
            actual, ref.reference_inner_join(frame, right, on=["k"])
        )


class TestPartitionHash:
    """Equal keys (Python ``==``) land in the same bucket on both sides."""

    def test_equal_numbers_hash_equal_across_backings(self):
        ints = _value_hashes(np.array([2, 0, 1], dtype=np.int64))
        floats = _value_hashes(np.array([2.0, -0.0, 1.0]))
        objects = _value_hashes(np.array([2, 0.0, True], dtype=object))
        bools = _value_hashes(np.array([False, True]))
        assert ints.tolist() == floats.tolist() == objects.tolist()
        assert bools.tolist() == ints[1:].tolist()

    def test_overflowing_ints_hash_as_signed_infinity(self):
        huge = _value_hashes(np.array([10**400, -(10**400)], dtype=object))
        assert huge.tolist() == _value_hashes(np.array([np.inf, -np.inf])).tolist()

    def test_rows_with_any_missing_key_cell_are_not_bucketed(self):
        cols = [Column("a", [1, None, 3, 4]), Column("b", ["x", "y", None, "z"])]
        valid, pids = _partition_ids(cols, 4, 5)
        assert valid.tolist() == [True, False, False, True]
        assert ((pids >= 0) & (pids < 5)).all()

    @pytest.mark.parametrize(
        "left_dtype,right_dtype",
        [
            ("int", "float"),
            ("int", "bool"),
            ("float", "bool"),
            ("bigint", "int"),
            ("bigint", "float"),
            ("string", "int"),
        ],
    )
    def test_mixed_dtype_keys_match_reference(self, left_dtype, right_dtype):
        keys = {
            "int": [0, 1, 2, -3, None, 2, 7],
            "float": [0.0, 1.0, 2.5, None, -3.0, 2.0, 7.0],
            "bool": [True, False, None, True],
            "bigint": [2**70, 1, None, -(2**70), 0, 7],
            "string": ["1", "0", None, "x", "2"],
        }
        left = DataFrame.from_dict(
            {"k": keys[left_dtype], "a": list(range(len(keys[left_dtype])))}
        )
        right = DataFrame.from_dict(
            {"k": keys[right_dtype], "b": [f"r{i}" for i in range(len(keys[right_dtype]))]}
        )
        member = ref.reference_group_indices(right, ["k"])
        expected_mask = [
            value is not None and (value,) in member
            for value in left.column("k").values()
        ]
        for how, reference_join in REFERENCE_JOINS.items():
            expected = reference_join(left, right, on=["k"])
            for n_partitions in (1, 3, 16):
                store = SpillStore(budget_bytes=SPILL_BUDGET)
                left_leg = spill_frame(left, store, chunk_size=2)
                actual = join(
                    left_leg,
                    right,
                    ["k"],
                    how=how,
                    strategy="partitioned",
                    n_partitions=n_partitions,
                )
                ref._assert_frames_identical(actual, expected)
        for strategy in ("memory", "partitioned"):
            store = SpillStore(budget_bytes=SPILL_BUDGET)
            left_leg = spill_frame(left, store, chunk_size=2)
            mask = semi_join_mask(left_leg, right, ["k"], strategy=strategy)
            assert mask.tolist() == expected_mask, strategy


class TestEnvStrategyOverride:
    def test_env_forces_partitioned(self, monkeypatch):
        monkeypatch.setenv("DATALENS_JOIN_STRATEGY", "partitioned")
        left = DataFrame.from_dict({"k": [1, 2, 2], "a": ["x", "y", "z"]})
        right = DataFrame.from_dict({"k": [2, 5], "b": [1.0, 2.0]})
        ref._assert_frames_identical(
            join(left, right, ["k"], how="inner"),
            ref.reference_inner_join(left, right, on=["k"]),
        )

    def test_env_rejects_unknown_strategy(self, monkeypatch):
        monkeypatch.setenv("DATALENS_JOIN_STRATEGY", "bogus")
        left = DataFrame.from_dict({"k": [1]})
        right = DataFrame.from_dict({"k": [1], "b": [2]})
        with pytest.raises(ValueError, match="join strategy"):
            join(left, right, ["k"], how="inner")

    def test_explicit_strategy_beats_env(self, monkeypatch):
        monkeypatch.setenv("DATALENS_JOIN_STRATEGY", "bogus")
        left = DataFrame.from_dict({"k": [1, 2]})
        right = DataFrame.from_dict({"k": [2], "b": [3]})
        joined = join(left, right, ["k"], strategy="memory")
        assert joined.num_rows == 1

    def test_sort_env_forces_external(self, monkeypatch):
        monkeypatch.setenv("DATALENS_SORT_STRATEGY", "external")
        frame = DataFrame.from_dict({"k": [3, 1, None, 2], "v": [0, 1, 2, 3]})
        actual = sort_by(frame, ["k"])
        # Forced-external output of a dense input is still spill-backed.
        _assert_still_spilled(actual, "env-external")
        ref._assert_frames_identical(actual, sort_by(frame, ["k"], strategy="memory"))

    def test_sort_env_rejects_unknown_strategy(self, monkeypatch):
        monkeypatch.setenv("DATALENS_SORT_STRATEGY", "bogus")
        frame = DataFrame.from_dict({"k": [2, 1]})
        with pytest.raises(ValueError, match="sort strategy"):
            sort_by(frame, ["k"])

    def test_sort_explicit_strategy_beats_env(self, monkeypatch):
        monkeypatch.setenv("DATALENS_SORT_STRATEGY", "bogus")
        frame = DataFrame.from_dict({"k": [2, 1]})
        assert sort_by(frame, ["k"], strategy="memory").column("k").values() == [1, 2]
