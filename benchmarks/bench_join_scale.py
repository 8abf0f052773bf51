"""Out-of-core join scaling — partitioned join of frames ~6x the budget.

Two CSVs are streamed into one :class:`~repro.dataframe.SpillStore`
whose resident budget is a small fraction of either table, then joined
with the partitioned hash strategy (key buckets spill through the same
store) and aggregated with the chunk-native ``group_by`` pushdown. The
store counters prove the operators ran out-of-core: spilled bytes are
several multiples of the budget while peak resident shard bytes never
exceed it, and the inputs are still spilled afterwards — the join
streamed from disk instead of densifying either table.
"""

from __future__ import annotations

import io
import resource
import time

import numpy as np

from repro.dataframe import (
    DataFrame,
    SpillStore,
    group_by,
    join,
    read_csv_stream,
    to_csv_text,
)

from conftest import print_table

N_LEFT = 60_000
N_RIGHT = 20_000
N_KEYS = 5_000
CHUNK_SIZE = 4_096
BUDGET_BYTES = 256 * 1024  # each input's shard bytes are ~6x this


def _left_csv_text(n_rows: int) -> str:
    rng = np.random.default_rng(7)
    missing = rng.random(n_rows) < 0.01
    return to_csv_text(
        DataFrame.from_dict(
            {
                "key": [
                    None if m else int(v)
                    for m, v in zip(missing, rng.integers(0, N_KEYS, n_rows))
                ],
                "x0": [float(v) for v in rng.normal(0.0, 1.0, n_rows)],
                "x1": [float(v) for v in rng.normal(0.0, 1.0, n_rows)],
                "tag": [f"t{int(v)}" for v in rng.integers(0, 40, n_rows)],
            }
        )
    )


def _right_csv_text(n_rows: int) -> str:
    rng = np.random.default_rng(13)
    return to_csv_text(
        DataFrame.from_dict(
            {
                "key": [int(v) for v in rng.integers(0, N_KEYS, n_rows)],
                "w0": [float(v) for v in rng.normal(5.0, 2.0, n_rows)],
                "label": [f"l{int(v)}" for v in rng.integers(0, 25, n_rows)],
            }
        )
    )


def test_partitioned_join_scale(benchmark):
    left_text = _left_csv_text(N_LEFT)
    right_text = _right_csv_text(N_RIGHT)

    def run() -> dict:
        store = SpillStore(budget_bytes=BUDGET_BYTES)
        start = time.perf_counter()
        left = read_csv_stream(
            io.StringIO(left_text), chunk_size=CHUNK_SIZE, spill=store
        )
        right = read_csv_stream(
            io.StringIO(right_text), chunk_size=CHUNK_SIZE, spill=store
        )
        ingest_seconds = time.perf_counter() - start
        input_spilled_bytes = store.stats()["spilled_bytes"]
        start = time.perf_counter()
        joined = join(
            left, right, ["key"], how="inner", strategy="partitioned"
        )
        join_seconds = time.perf_counter() - start
        start = time.perf_counter()
        grouped = group_by(
            left,
            ["tag"],
            {"n": ("key", "count"), "x0_mean": ("x0", "mean")},
        )
        group_seconds = time.perf_counter() - start
        still_spilled = sum(
            1
            for frame in (left, right)
            for name in frame.column_names
            if frame.column(name).spilled
        )
        return {
            "stats": store.stats(),
            "input_spilled_bytes": input_spilled_bytes,
            "ingest": ingest_seconds,
            "join": join_seconds,
            "group": group_seconds,
            "joined_rows": joined.num_rows,
            "group_rows": grouped.num_rows,
            "still_spilled": still_spilled,
            "n_columns": left.num_columns + right.num_columns,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = result["stats"]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print_table(
        f"Partitioned join scaling ({N_LEFT}x{N_RIGHT} rows, "
        f"{CHUNK_SIZE}-row chunks)",
        ["metric", "value"],
        [
            ["spill budget", f"{stats['budget_bytes'] / 1024:.0f} KiB"],
            [
                "input spilled",
                f"{result['input_spilled_bytes'] / 1024:.0f} KiB",
            ],
            [
                "input / budget",
                f"{result['input_spilled_bytes'] / stats['budget_bytes']:.1f}x",
            ],
            [
                "total spilled (incl. buckets)",
                f"{stats['spilled_bytes'] / 1024:.0f} KiB",
            ],
            ["peak resident", f"{stats['peak_resident_bytes'] / 1024:.1f} KiB"],
            ["spilled shards", stats["spilled_shards"]],
            ["shard loads", stats["loads"]],
            ["evictions", stats["evictions"]],
            ["joined rows", result["joined_rows"]],
            ["group rows", result["group_rows"]],
            ["ingest [s]", f"{result['ingest']:.2f}"],
            ["join [s]", f"{result['join']:.2f}"],
            ["group_by [s]", f"{result['group']:.2f}"],
            ["peak RSS", f"{rss_mib:.0f} MiB"],
        ],
    )
    # Each input must dwarf the budget — the issue's 2x(6x-budget) shape.
    assert result["input_spilled_bytes"] >= 2 * 4 * stats["budget_bytes"]
    # Residency contract: bucket shards are size-capped, so the LRU
    # never overshoots even while the join spills and reloads buckets.
    assert stats["peak_resident_bytes"] <= stats["budget_bytes"]
    # The operators streamed: join + group_by left every column spilled.
    assert result["still_spilled"] == result["n_columns"]
    assert result["joined_rows"] > 0
    assert stats["evictions"] > 0
    benchmark.extra_info["peak_resident_bytes"] = stats["peak_resident_bytes"]
    benchmark.extra_info["joined_rows"] = result["joined_rows"]
