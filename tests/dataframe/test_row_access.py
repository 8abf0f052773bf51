"""Row access is bit-identical across column representations.

``take``, ``col[i]``, slices, ``select`` and ``head`` on chunked and
spilled columns return what the monolithic column returns: the same
values with the same Python types, the same logical and backing dtype,
and owned arrays, so mutating a result never touches its source. A
spilled column answers from its records and stays spilled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataframe import (
    ChunkedColumn,
    ChunkedFrame,
    Column,
    DataFrame,
    SpilledChunkedColumn,
    SpillStore,
    chunk_lengths_for,
)

DTYPES = ("int", "float", "bool", "string", "bigint", "zero")
SIZES = (0, 1, 40, 300)
SPILL_BUDGET = 512


def _values(random_values, dtype: str, n: int, seed: int) -> list:
    return random_values(np.random.default_rng(seed), dtype, n, 0.3, "narrow")


def _mixed_bigint(n: int) -> list:
    """Int cells where only some 7-row shards hold values beyond int64."""
    return [
        None if i % 5 == 0 else (10**25 + i if (i // 7) % 3 == 1 else i - 20)
        for i in range(n)
    ]


def _legs(
    values: list, dtype: str, store: SpillStore, name: str = "x"
) -> dict[str, Column]:
    """The monolithic column and its chunked and spilled twins.

    The ``mixed`` legs cut the column into 7-row shards that each keep
    their own backing, so an int column mixes int64 and object shards.
    """
    logical = "int" if dtype in ("bigint", "mixed") else dtype
    if dtype == "zero":
        logical = "float"
    mono = Column(name, values, logical)
    n = len(mono)
    legs: dict[str, Column] = {"mono": mono}
    for size in (1, 257, max(n, 1)):
        legs[f"chunk{size}"] = ChunkedColumn.from_column(
            mono, chunk_lengths_for(n, size)
        )
    legs["spilled"] = SpilledChunkedColumn.from_column(
        mono, chunk_lengths_for(n, 7), store
    )
    shards = []
    for start in range(0, n, 7):
        part = Column(name, values[start : start + 7], logical)
        shards.append((np.array(part.values_array()), np.array(part.mask())))
    legs["mixed"] = ChunkedColumn.from_shards(name, logical, shards)
    legs["mixed-spilled"] = SpilledChunkedColumn.from_handles(
        name, logical, [store.spill(*pair) for pair in shards], store
    )
    return legs


def _assert_same_column(actual: Column, expected: Column, label) -> None:
    assert type(actual) is Column, label
    assert actual.dtype == expected.dtype, label
    assert actual.values_array().dtype == expected.values_array().dtype, label
    # repr tells 1 from np.int64(1) and 0.0 from -0.0.
    assert repr(actual.values()) == repr(expected.values()), label
    assert np.array_equal(actual.mask(), expected.mask()), label


def _assert_owned(result: Column, source: Column, label) -> None:
    """Writing every cell of the result leaves the source as it was.

    The source is read through a slice, which keeps a spilled one spilled.
    """
    before = repr(source[:].values())
    result.set_many(np.arange(len(result)), [None] * len(result))
    assert repr(source[:].values()) == before, label


def _index_cases(n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    cases = {"empty": np.zeros(0, dtype=np.intp)}
    if n:
        cases["random"] = rng.integers(-n, n, size=2 * n + 3)
        cases["repeated"] = np.array([n - 1, 0, n - 1, n // 2, 0, n - 1])
        cases["reversed"] = np.arange(n)[::-1]
    return cases


def _slices(n: int) -> list[slice]:
    a, b = n // 4, (3 * n) // 4
    return [
        slice(a, b),
        slice(None, None, 3),
        slice(b, a, -1),
        slice(None, None, -1),
        slice(b, a),
        slice(-3, None),
    ]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dtype", DTYPES + ("mixed",))
def test_column_row_access_matches_monolithic(random_values, dtype, n):
    values = (
        _mixed_bigint(n) if dtype == "mixed" else _values(random_values, dtype, n, n)
    )
    store = SpillStore(budget_bytes=SPILL_BUDGET)
    try:
        legs = _legs(values, dtype, store)
        mono = legs["mono"]
        rng = np.random.default_rng(n)
        for name, column in legs.items():
            for case, indices in _index_cases(n, rng).items():
                label = (dtype, n, name, "take", case)
                taken = column.take(indices)
                _assert_same_column(taken, mono.take(indices), label)
                _assert_owned(taken, column, label)
            for window in _slices(n):
                label = (dtype, n, name, window)
                sliced = column[window]
                _assert_same_column(sliced, mono[window], label)
                _assert_owned(sliced, column, label)
            for row in sorted({0, n // 2, n - 1, -1, -n}) if n else []:
                assert repr(column[row]) == repr(mono[row]), (dtype, n, name, row)
            for row in (n, -n - 1):
                with pytest.raises(IndexError):
                    column[row]
            with pytest.raises(IndexError):
                column.take([n])
            if isinstance(column, SpilledChunkedColumn):
                assert column.spilled, (dtype, n, name)
    finally:
        store.close()


@pytest.mark.parametrize("n", SIZES)
def test_frame_select_and_head_match_monolithic(random_values, n):
    data = {
        dtype: _values(random_values, dtype, n, seed)
        for seed, dtype in enumerate(DTYPES)
    }
    data["mixed"] = _mixed_bigint(n)
    store = SpillStore(budget_bytes=SPILL_BUDGET)
    try:
        columns = {
            name: _legs(values, name, store, name) for name, values in data.items()
        }
        mono = DataFrame(legs["mono"] for legs in columns.values())
        mask = np.random.default_rng(n).random(n) < 0.4
        for leg in ("chunk1", "chunk257", "spilled", "mixed", "mixed-spilled"):
            frame = ChunkedFrame(legs[leg] for legs in columns.values())
            for label, actual, expected in (
                ("select", frame.select(mask), mono.select(mask)),
                ("head", frame.head(20), mono.head(20)),
                ("head0", frame.head(0), mono.head(0)),
                ("head-negative", frame.head(-3), mono.head(-3)),
            ):
                assert actual.column_names == expected.column_names
                for name in expected.column_names:
                    _assert_same_column(
                        actual.column(name),
                        expected.column(name),
                        (n, leg, label, name),
                    )
            if "spilled" in leg:
                assert all(
                    frame.column(name).spilled for name in frame.column_names
                ), (n, leg)
    finally:
        store.close()


def test_spilled_row_access_loads_only_the_shards_it_needs():
    """One 7-row shard per read: a cell, a slice inside it, a take."""
    mono = Column("x", [float(i) for i in range(70)], "float")
    store = SpillStore(budget_bytes=1 << 20)
    try:
        column = SpilledChunkedColumn.from_column(
            mono, chunk_lengths_for(70, 7), store
        )

        def lookups(read) -> int:
            before = store.stats()
            read()
            after = store.stats()
            return (after["loads"] + after["cache_hits"]) - (
                before["loads"] + before["cache_hits"]
            )

        assert lookups(lambda: column[23]) == 1
        assert lookups(lambda: column[15:20]) == 1
        assert lookups(lambda: column[13:15]) == 2
        assert lookups(lambda: column.take([30, 34, 31, 30])) == 1
        assert lookups(lambda: column.take([69, 0, 35])) == 3
        assert column.spilled
    finally:
        store.close()
