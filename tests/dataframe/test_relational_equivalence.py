"""Property tests: the vectorized relational kernels match a pure-Python
reference implementation.

The reference below is the retained row-at-a-time implementation of
``sort_by`` / group membership / ``group_by`` / inner ``join`` / value
counts (the pre-vectorization semantics, with the two documented
contract updates: stable descending sort and dtype-preserving join
output). Group membership and value counts are read off ``group_by``
(and ``sort_by``), the kernels that produce them. Both implementations
run side by side on seeded random frames across every dtype —
including empty frames, all-None key columns, heterogeneous
object-backed columns (huge ints), and suffix-colliding joins — and the
outputs must be *identical*: same values, same Python types, same
dtypes, same ordering.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.dataframe import (
    Column,
    DataFrame,
    common_dtype,
    group_by,
    join,
    sort_by,
)
from repro.dataframe.ops import _MISSING_KEY


# ----------------------------------------------------------------------
# Pure-Python reference (the row-at-a-time semantics)
# ----------------------------------------------------------------------
def _sort_key(value):
    """Missing last; numbers before strings; exact numeric comparison."""
    if value is None:
        return (2, 0)
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))


def reference_sort_by(frame, columns, descending=False):
    """Stable multi-key sort: one stable pass per column, last key first.

    ``sorted(reverse=True)`` is stable in CPython, so ties keep their
    original row order in both directions — the documented contract.
    """
    indices = list(range(frame.num_rows))
    column_values = {c: frame.column(c).values() for c in columns}
    for name in reversed(list(columns)):
        values = column_values[name]
        indices = sorted(
            indices, key=lambda i: _sort_key(values[i]), reverse=descending
        )
    return frame.take(indices)


def reference_group_indices(frame, columns):
    groups = {}
    for i in range(frame.num_rows):
        key = tuple(
            _MISSING_KEY if frame.at(i, c) is None else frame.at(i, c)
            for c in columns
        )
        groups.setdefault(key, []).append(i)
    return groups


#: Pure-Python equivalents of the named fast aggregators.
REFERENCE_AGGS = {
    "sum": sum,
    "count": len,
    "min": min,
    "max": max,
    "mean": lambda values: sum(values) / len(values),
    "first": lambda values: values[0],
}


def reference_group_by(frame, columns, aggregations):
    groups = reference_group_indices(frame, columns)
    out = {name: [] for name in columns}
    out.update({name: [] for name in aggregations})
    for key, indices in groups.items():
        for col_name, part in zip(columns, key):
            out[col_name].append(None if part is _MISSING_KEY else part)
        for out_name, (in_name, func) in aggregations.items():
            if isinstance(func, str):
                func = REFERENCE_AGGS[func]
            values = [
                frame.at(i, in_name)
                for i in indices
                if frame.at(i, in_name) is not None
            ]
            out[out_name].append(func(values) if values else None)
    return DataFrame.from_dict(out)


def reference_inner_join(left, right, on, suffix="_right"):
    """Row-at-a-time hash join, gathering with take to preserve dtypes."""
    right_groups = reference_group_indices(right, on)
    left_names = left.column_names
    right_extra = [c for c in right.column_names if c not in on]
    renamed = {c: (c + suffix if c in left_names else c) for c in right_extra}
    left_rows, right_rows = [], []
    for i in range(left.num_rows):
        key = tuple(
            _MISSING_KEY if left.at(i, c) is None else left.at(i, c) for c in on
        )
        if _MISSING_KEY in key:
            continue
        for j in right_groups.get(key, []):
            left_rows.append(i)
            right_rows.append(j)
    left_taken = left.take(left_rows)
    right_taken = right.take(right_rows)
    columns = {c: left_taken.column(c) for c in left_names}
    for c in right_extra:
        column = right_taken.column(c)
        columns[renamed[c]] = Column(renamed[c], column.values(), column.dtype)
    return DataFrame(columns.values())


def _reference_outer_columns(left, right, on, suffix):
    """Shared output-schema computation for the left/outer references."""
    left_names = left.column_names
    right_extra = [c for c in right.column_names if c not in on]
    renamed = {c: (c + suffix if c in left_names else c) for c in right_extra}
    if len(set(renamed.values())) != len(renamed):
        raise ValueError(
            f"suffix {suffix!r} produces colliding output column names "
            f"among right columns {right_extra}"
        )
    return left_names, right_extra, renamed


def reference_left_join(left, right, on, suffix="_right"):
    """Row-at-a-time left join: unmatched left rows appear once, right
    extras None. Same match semantics and ordering as the inner join."""
    right_groups = reference_group_indices(right, on)
    left_names, right_extra, renamed = _reference_outer_columns(
        left, right, on, suffix
    )
    out = {c: [] for c in left_names}
    out.update({renamed[c]: [] for c in right_extra})
    dtypes = {c: left.column(c).dtype for c in left_names}
    dtypes.update({renamed[c]: right.column(c).dtype for c in right_extra})
    for i in range(left.num_rows):
        key = tuple(
            _MISSING_KEY if left.at(i, c) is None else left.at(i, c) for c in on
        )
        matches = [] if _MISSING_KEY in key else right_groups.get(key, [])
        for j in matches or [None]:
            for c in left_names:
                out[c].append(left.at(i, c))
            for c in right_extra:
                out[renamed[c]].append(None if j is None else right.at(j, c))
    return DataFrame.from_dict(out, dtypes=dtypes)


def reference_outer_join(left, right, on, suffix="_right"):
    """Row-at-a-time full outer join: the left join plus a tail of
    unmatched right rows (in right row order), with key columns merged
    to the common dtype and non-key left columns None on the tail."""
    right_groups = reference_group_indices(right, on)
    left_names, right_extra, renamed = _reference_outer_columns(
        left, right, on, suffix
    )
    out = {c: [] for c in left_names}
    out.update({renamed[c]: [] for c in right_extra})
    dtypes = {c: left.column(c).dtype for c in left_names}
    dtypes.update({renamed[c]: right.column(c).dtype for c in right_extra})
    for c in on:
        dtypes[c] = common_dtype(left.column(c).dtype, right.column(c).dtype)
    matched_right = set()
    for i in range(left.num_rows):
        key = tuple(
            _MISSING_KEY if left.at(i, c) is None else left.at(i, c) for c in on
        )
        matches = [] if _MISSING_KEY in key else right_groups.get(key, [])
        matched_right.update(matches)
        for j in matches or [None]:
            for c in left_names:
                out[c].append(left.at(i, c))
            for c in right_extra:
                out[renamed[c]].append(None if j is None else right.at(j, c))
    for j in range(right.num_rows):
        if j in matched_right:
            continue
        for c in left_names:
            out[c].append(right.at(j, c) if c in on else None)
        for c in right_extra:
            out[renamed[c]].append(right.at(j, c))
    return DataFrame.from_dict(out, dtypes=dtypes)


def reference_value_counts(frame, column):
    counter = Counter(
        v for v in frame.column(column).values() if v is not None
    )
    ordered = counter.most_common()
    return DataFrame.from_dict(
        {column: [v for v, _ in ordered], "count": [c for _, c in ordered]}
    )


def _joined_rows(rows):
    return " ".join(map(str, rows))


def group_rows(frame, columns):
    """``{key tuple: row ids}`` in first-occurrence order, via ``group_by``.

    A row-id column aggregated per group gives each group's rows in row
    order; missing key cells read back as ``_MISSING_KEY`` as in the
    reference.
    """
    row_ids = Column("_row", list(range(frame.num_rows)), "int")
    indexed = DataFrame(
        [frame.column(c) for c in frame.column_names] + [row_ids]
    )
    grouped = group_by(indexed, columns, {"_rows": ("_row", _joined_rows)})
    keys = zip(*(grouped.column(c).values() for c in columns))
    return {
        tuple(_MISSING_KEY if v is None else v for v in key): rows
        for key, rows in zip(keys, grouped.column("_rows").values())
    }


def value_counts(frame, column):
    """Non-missing values with their counts, most common first."""
    counts = group_by(frame, [column], {"count": (column, "count")})
    present = np.array(
        [v is not None for v in counts.column(column).values()], dtype=bool
    )
    return sort_by(counts.select(present), ["count"], descending=True)


# ----------------------------------------------------------------------
# Random inputs — the seeded generator lives in tests/conftest.py
# (``random_values`` fixture); classes bind it via an autouse fixture.
# ----------------------------------------------------------------------
class _GeneratorBound:
    @pytest.fixture(autouse=True)
    def _bind_generator(self, random_values):
        def narrow(rng, dtype, n, missing):
            return random_values(rng, dtype, n, missing, profile="narrow")

        self._random_values = narrow

    def _mixed_frame(self, seed, n, missing=0.25):
        rng = np.random.default_rng(seed)
        return DataFrame.from_dict(
            {
                "i": self._random_values(rng, "int", n, missing),
                "f": self._random_values(rng, "float", n, missing),
                "b": self._random_values(rng, "bool", n, missing),
                "s": self._random_values(rng, "string", n, missing),
                "big": self._random_values(rng, "bigint", n, missing),
            }
        )


def _assert_frames_identical(actual, expected):
    assert actual.column_names == expected.column_names
    assert actual.dtypes() == expected.dtypes()
    for name in expected.column_names:
        mine = actual.column(name).values()
        ref = expected.column(name).values()
        assert len(mine) == len(ref)
        for a, b in zip(mine, ref):
            assert type(a) is type(b), (name, a, b)
            assert a == b or (a != a and b != b), (name, a, b)


KEY_SETS = (["i"], ["s"], ["b"], ["big"], ["i", "s"], ["s", "b", "f"])
CASES = [(seed, n) for seed in (0, 1, 2, 7) for n in (0, 1, 23, 60)]


@pytest.mark.parametrize("seed,n", CASES)
class TestSortEquivalence(_GeneratorBound):
    @pytest.mark.parametrize("descending", [False, True])
    def test_sort_matches_reference(self, seed, n, descending):
        frame = self._mixed_frame(seed, n)
        for keys in KEY_SETS:
            _assert_frames_identical(
                sort_by(frame, keys, descending=descending),
                reference_sort_by(frame, keys, descending=descending),
            )

    def test_sort_no_columns_is_identity(self, seed, n):
        frame = self._mixed_frame(seed, n)
        _assert_frames_identical(sort_by(frame, []), frame)


@pytest.mark.parametrize("seed,n", CASES)
class TestGroupEquivalence(_GeneratorBound):
    def test_group_indices_matches_reference(self, seed, n):
        frame = self._mixed_frame(seed, n)
        for keys in KEY_SETS:
            mine = group_rows(frame, keys)
            ref = {
                key: _joined_rows(rows)
                for key, rows in reference_group_indices(frame, keys).items()
            }
            assert mine == ref
            assert list(mine) == list(ref), "first-occurrence key order"

    def test_group_by_fast_aggregators_match_reference(self, seed, n):
        frame = self._mixed_frame(seed, n)
        aggregations = {
            "i_sum": ("i", "sum"),
            "i_mean": ("i", "mean"),
            "f_sum": ("f", sum),
            "f_min": ("f", min),
            "f_max": ("f", "max"),
            "b_sum": ("b", "sum"),
            "b_min": ("b", min),
            "s_count": ("s", len),
            "s_first": ("s", "first"),
            "big_sum": ("big", "sum"),
            "big_max": ("big", max),
        }
        for keys in KEY_SETS:
            _assert_frames_identical(
                group_by(frame, keys, aggregations),
                reference_group_by(frame, keys, aggregations),
            )

    def test_group_by_arbitrary_callable_matches_reference(self, seed, n):
        frame = self._mixed_frame(seed, n)
        spread = lambda values: max(values) - min(values)  # noqa: E731
        aggregations = {"spread": ("f", spread), "n": ("i", len)}
        for keys in (["s"], ["i", "b"]):
            _assert_frames_identical(
                group_by(frame, keys, aggregations),
                reference_group_by(frame, keys, aggregations),
            )

    def test_value_counts_matches_counter(self, seed, n):
        frame = self._mixed_frame(seed, n)
        for name in frame.column_names:
            _assert_frames_identical(
                value_counts(frame, name),
                reference_value_counts(frame, name),
            )


@pytest.mark.parametrize("seed", [0, 1, 5])
class TestJoinEquivalence(_GeneratorBound):
    def _pair(self, seed, n_left=45, n_right=30):
        rng = np.random.default_rng(seed + 1000)
        left = self._mixed_frame(seed, n_left)
        right = DataFrame.from_dict(
            {
                "i": self._random_values(rng, "int", n_right, 0.25),
                "s": self._random_values(rng, "string", n_right, 0.25),
                "big": self._random_values(rng, "bigint", n_right, 0.25),
                "f": self._random_values(rng, "float", n_right, 0.25),
                "extra": self._random_values(rng, "float", n_right, 0.1),
            }
        )
        return left, right

    def test_join_matches_reference(self, seed):
        left, right = self._pair(seed)
        for keys in (["i"], ["s"], ["big"], ["i", "s"], ["s", "f"]):
            _assert_frames_identical(
                join(left, right, keys, how="inner"),
                reference_inner_join(left, right, on=keys),
            )

    def test_left_join_matches_reference(self, seed):
        left, right = self._pair(seed)
        for keys in (["i"], ["s"], ["big"], ["i", "s"], ["s", "f"]):
            _assert_frames_identical(
                join(left, right, keys, how="left"),
                reference_left_join(left, right, on=keys),
            )

    def test_outer_join_matches_reference(self, seed):
        left, right = self._pair(seed)
        for keys in (["i"], ["s"], ["big"], ["i", "s"], ["s", "f"]):
            _assert_frames_identical(
                join(left, right, keys, how="outer"),
                reference_outer_join(left, right, on=keys),
            )

    def test_outer_join_merges_cross_dtype_keys(self, seed):
        """Outer keys widen to the common dtype (int ∪ float → float)."""
        rng = np.random.default_rng(seed + 2000)
        left = DataFrame.from_dict(
            {
                "k": self._random_values(rng, "int", 25, 0.2),
                "v": self._random_values(rng, "string", 25, 0.2),
            }
        )
        right = DataFrame.from_dict(
            {
                "k": self._random_values(rng, "float", 18, 0.2),
                "w": self._random_values(rng, "int", 18, 0.2),
            }
        )
        joined = join(left, right, ["k"], how="outer")
        assert joined.column("k").dtype == "float"
        _assert_frames_identical(
            joined, reference_outer_join(left, right, on=["k"])
        )

    def test_join_with_empty_sides(self, seed):
        left, right = self._pair(seed, n_left=0, n_right=10)
        _assert_frames_identical(
            join(left, right, ["i"], how="inner"),
            reference_inner_join(left, right, on=["i"]),
        )
        left2, right2 = self._pair(seed, n_left=10, n_right=0)
        _assert_frames_identical(
            join(left2, right2, ["i", "s"], how="inner"),
            reference_inner_join(left2, right2, on=["i", "s"]),
        )

    def test_suffix_colliding_join(self, seed):
        rng = np.random.default_rng(seed)
        left = DataFrame.from_dict(
            {
                "k": self._random_values(rng, "int", 20, 0.2),
                "v": self._random_values(rng, "string", 20, 0.2),
            }
        )
        right = DataFrame.from_dict(
            {
                "k": self._random_values(rng, "int", 15, 0.2),
                "v": self._random_values(rng, "float", 15, 0.2),
            }
        )
        joined = join(left, right, ["k"], how="inner")
        assert joined.column_names == ["k", "v", "v_right"]
        _assert_frames_identical(
            joined, reference_inner_join(left, right, on=["k"])
        )

    def test_cross_dtype_numeric_keys_match(self, seed):
        """int/float/bool keys join by numeric equality (Python ==)."""
        left = DataFrame.from_dict({"k": [0, 1, 2, None, 3]})
        right = DataFrame.from_dict(
            {"k": [0.0, 1.0, 2.5, None, 3.0], "r": ["a", "b", "c", "d", "e"]}
        )
        _assert_frames_identical(
            join(left, right, ["k"], how="inner"),
            reference_inner_join(left, right, on=["k"]),
        )
        left_bool = DataFrame.from_dict({"k": [True, False, None]})
        right_int = DataFrame.from_dict({"k": [1, 0, 2], "r": ["x", "y", "z"]})
        _assert_frames_identical(
            join(left_bool, right_int, ["k"], how="inner"),
            reference_inner_join(left_bool, right_int, on=["k"]),
        )


class TestDegenerateRelationalInputs:
    def test_all_none_key_column_groups_once_and_never_joins(self):
        frame = DataFrame.from_dict(
            {"k": [None, None, None], "v": [1, 2, 3]}, dtypes={"k": "string"}
        )
        grouped = group_by(frame, ["k"], {"rows": ("v", len)})
        assert grouped.column("k").values() == [None]
        assert grouped.column("rows").values() == [3]
        _assert_frames_identical(
            group_by(frame, ["k"], {"total": ("v", "sum")}),
            reference_group_by(frame, ["k"], {"total": ("v", sum)}),
        )
        other = DataFrame([frame.column("k"), Column("w", [1, 2, 3])])
        assert join(frame, other, ["k"], how="inner").num_rows == 0

    def test_empty_frame_everything(self):
        frame = DataFrame.from_dict({"k": [], "v": []})
        result = group_by(frame, ["k"], {"total": ("v", "sum")})
        assert result.num_rows == 0
        assert result.column_names == ["k", "total"]
        assert sort_by(frame, ["k"]).num_rows == 0

    def test_missing_key_sentinel_never_collides_with_values(self):
        """A genuine cell value can never be conflated with missingness."""
        frame = DataFrame.from_dict(
            {"k": ["__missing__", None, "('__missing__',)"], "v": [1, 2, 3]}
        )
        grouped = group_by(frame, ["k"], {"v": ("v", "first")})
        # The historical tuple sentinel is just an ordinary value now.
        assert grouped.column("k").values() == [
            "__missing__", None, "('__missing__',)"
        ]
        assert grouped.column("v").values() == [1, 2, 3]

    def test_int64_overflowing_sum_falls_back_to_exact_python(self):
        """Group sums beyond int64 use arbitrary-precision arithmetic."""
        frame = DataFrame.from_dict(
            {"k": ["a", "a", "b"], "v": [2**62, 2**62, 5]}
        )
        assert frame.column("v").values_array().dtype == np.int64
        result = group_by(frame, ["k"], {"total": ("v", "sum")})
        by_key = {
            result.at(i, "k"): result.at(i, "total")
            for i in range(result.num_rows)
        }
        assert by_key["a"] == 2**63  # exact, beyond int64
        assert by_key["b"] == 5

    def test_join_composite_key_span_overflow_redensifies(self):
        """Many wide key columns force the int64-safe re-densify path."""
        rng = np.random.default_rng(0)
        n = 500
        data = {
            f"k{j}": [int(v) for v in rng.integers(-(10**9), 10**9, n)]
            for j in range(8)
        }
        left = DataFrame.from_dict(dict(data, tag=[f"t{i}" for i in range(n)]))
        right = DataFrame.from_dict(
            dict(data, other=[float(i) for i in range(n)])
        )
        keys = [f"k{j}" for j in range(8)]
        joined = join(left, right, keys, how="inner")
        _assert_frames_identical(
            joined, reference_inner_join(left, right, on=keys)
        )
        assert joined.num_rows >= n  # every row matches itself

    def test_int_float_keys_beyond_float_precision_do_not_collide(self):
        """int64 keys above 2**53 must not match via float64 rounding."""
        left = DataFrame.from_dict({"k": [2**53, 2**53 + 1]})
        right = DataFrame.from_dict(
            {"k": [float(2**53)], "r": ["hit"]}, dtypes={"k": "float"}
        )
        joined = join(left, right, ["k"], how="inner")
        _assert_frames_identical(
            joined, reference_inner_join(left, right, on=["k"])
        )
        assert joined.num_rows == 1  # only 2**53 == 9007199254740992.0
        assert joined.column("k").values() == [2**53]

    def test_join_rejects_colliding_suffixed_names(self):
        """Two right columns renaming to one output name fail loudly."""
        left = DataFrame.from_dict({"k": [1], "a": [1]})
        right = DataFrame.from_dict({"k": [1], "a": [2], "a_right": [3]})
        with pytest.raises(ValueError):
            join(left, right, ["k"], how="inner")

    def test_unhashable_callable_uses_fallback_path(self):
        class UnhashableAgg:
            __hash__ = None

            def __call__(self, values):
                return len(values) * 10

        frame = DataFrame.from_dict({"k": ["a", "a", "b"], "v": [1, 2, 3]})
        result = group_by(frame, ["k"], {"x": ("v", UnhashableAgg())})
        assert result.column("x").values() == [20, 10]

    def test_unknown_columns_raise(self):
        frame = DataFrame.from_dict({"k": [1]})
        with pytest.raises(KeyError):
            group_by(frame, ["ghost"], {})
        with pytest.raises(KeyError):
            group_by(frame, ["k"], {"x": ("ghost", "sum")})
        with pytest.raises(ValueError):
            group_by(frame, ["k"], {"x": ("k", "median")})
