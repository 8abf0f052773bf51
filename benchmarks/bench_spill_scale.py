"""Out-of-core scaling — profile + detect a frame several times the budget.

Ingests a CSV through the streaming chunked reader with a
:class:`~repro.dataframe.SpillStore` whose resident budget is a small
fraction of the dataset, then runs the full profile and the outlier /
missing-value detectors over the spilled frame. The store's counters
prove the residency contract: spilled bytes are several multiples of the
budget while peak resident shard bytes never exceed it — the pipeline
genuinely streamed from disk instead of densifying the table.
"""

from __future__ import annotations

import io
import resource
import time

import numpy as np

from repro.dataframe import SpillStore, read_csv_stream, to_csv_text
from repro.dataframe import DataFrame
from repro.detection.base import DetectionContext
from repro.detection.mvdetector import MVDetector
from repro.detection.outliers import IQRDetector, SDDetector
from repro.profiling import profile

from conftest import print_table

N_ROWS = 120_000
CHUNK_SIZE = 8_192
BUDGET_BYTES = 1024 * 1024  # far below the dataset's shard bytes


def _make_csv_text(n_rows: int) -> str:
    rng = np.random.default_rng(11)
    data: dict = {}
    for j in range(4):
        values = rng.normal(0.0, 1.0, n_rows)
        missing = rng.random(n_rows) < 0.02
        data[f"num{j}"] = [
            None if m else float(v) for m, v in zip(missing, values)
        ]
    data["code"] = [int(v) for v in rng.integers(0, 500, n_rows)]
    data["group"] = [f"g{int(v)}" for v in rng.integers(0, 50, n_rows)]
    return to_csv_text(DataFrame.from_dict(data))


def test_spill_scale_profile_and_detect(benchmark):
    text = _make_csv_text(N_ROWS)

    def run() -> dict:
        store = SpillStore(budget_bytes=BUDGET_BYTES)
        start = time.perf_counter()
        frame = read_csv_stream(
            io.StringIO(text), chunk_size=CHUNK_SIZE, spill=store
        )
        ingest_seconds = time.perf_counter() - start
        start = time.perf_counter()
        profile(frame)
        profile_seconds = time.perf_counter() - start
        context = DetectionContext()
        start = time.perf_counter()
        for detector in (SDDetector(), IQRDetector(), MVDetector()):
            detector.detect(frame, context)
        detect_seconds = time.perf_counter() - start
        still_spilled = sum(
            1 for name in frame.column_names if frame.column(name).spilled
        )
        return {
            "stats": store.stats(),
            "ingest": ingest_seconds,
            "profile": profile_seconds,
            "detect": detect_seconds,
            "still_spilled": still_spilled,
            "n_columns": frame.num_columns,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = result["stats"]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print_table(
        f"Spill scaling ({N_ROWS} rows, {CHUNK_SIZE}-row chunks)",
        ["metric", "value"],
        [
            ["csv size", f"{len(text) / 1024**2:.1f} MiB"],
            ["spill budget", f"{stats['budget_bytes'] / 1024**2:.2f} MiB"],
            ["spilled bytes", f"{stats['spilled_bytes'] / 1024**2:.2f} MiB"],
            [
                "spilled / budget",
                f"{stats['spilled_bytes'] / stats['budget_bytes']:.1f}x",
            ],
            [
                "peak resident",
                f"{stats['peak_resident_bytes'] / 1024**2:.2f} MiB",
            ],
            ["spilled shards", stats["spilled_shards"]],
            ["shard loads", stats["loads"]],
            ["cache hits", stats["cache_hits"]],
            ["evictions", stats["evictions"]],
            ["ingest [s]", f"{result['ingest']:.2f}"],
            ["profile [s]", f"{result['profile']:.2f}"],
            ["detect [s]", f"{result['detect']:.2f}"],
            ["peak RSS", f"{rss_mib:.0f} MiB"],
        ],
    )
    # The dataset must dwarf the budget — otherwise this proves nothing.
    assert stats["spilled_bytes"] >= 4 * stats["budget_bytes"]
    # Residency contract: every shard fits, so the LRU never overshoots.
    assert stats["peak_resident_bytes"] <= stats["budget_bytes"]
    # The pipeline streamed: profile + detect left every column spilled.
    assert result["still_spilled"] == result["n_columns"]
    assert stats["evictions"] > 0
    benchmark.extra_info["spilled_over_budget"] = round(
        stats["spilled_bytes"] / stats["budget_bytes"], 1
    )
    benchmark.extra_info["peak_resident_bytes"] = stats["peak_resident_bytes"]
