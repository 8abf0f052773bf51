"""Ablation — chunked profiling vs. the monolithic engine.

Times the full profile report at growing row counts in two modes
(monolithic frame, chunked) and the streaming chunked CSV reader against
the monolithic reader, recording the scaling trajectory the chunked
execution layer delivers. Results are asserted bit-identical across
modes — the chunked mode is the *same* engine, not an approximation.
"""

from __future__ import annotations

import io
import time

import numpy as np

from repro.dataframe import DataFrame, read_csv_stream, to_csv_text
from repro.profiling import profile

from conftest import print_table
from csv_reference import read_csv_text

ROW_COUNTS = (20_000, 50_000, 100_000, 200_000)
CHUNK_SIZE = 16_384


def _make_frame(n_rows: int) -> DataFrame:
    rng = np.random.default_rng(7)
    data: dict = {}
    for j in range(5):
        values = rng.normal(0.0, 1.0, n_rows)
        missing = rng.random(n_rows) < 0.02
        data[f"num{j}"] = [
            None if m else float(v) for m, v in zip(missing, values)
        ]
    data["code"] = [int(v) for v in rng.integers(0, 500, n_rows)]
    data["group"] = [f"g{int(v)}" for v in rng.integers(0, 50, n_rows)]
    return DataFrame.from_dict(data)


def _timed(fn) -> float:
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_chunked_profiling_scaling(benchmark):
    def run() -> list[dict]:
        rows = []
        for n_rows in ROW_COUNTS:
            frame = _make_frame(n_rows)
            chunked = frame.to_chunked(CHUNK_SIZE)
            mono_time = _timed(lambda: profile(frame))
            serial_time = _timed(lambda: profile(chunked))
            assert profile(chunked).to_dict() == profile(frame).to_dict()
            rows.append(
                {"rows": n_rows, "mono": mono_time, "serial": serial_time}
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Chunked profiling ({CHUNK_SIZE}-row chunks)",
        ["rows", "monolithic [s]", "chunked [s]", "chunked overhead"],
        [
            [
                row["rows"],
                f"{row['mono']:.3f}",
                f"{row['serial']:.3f}",
                f"{row['serial'] / row['mono']:.2f}x",
            ]
            for row in rows
        ],
    )
    for row in rows:
        # The chunk layer must stay within noise of monolithic.
        assert row["serial"] < row["mono"] * 1.5 + 0.05
        benchmark.extra_info[f"serial_{row['rows']}"] = round(row["serial"], 3)


def test_streaming_csv_ingestion(benchmark):
    def run() -> list[dict]:
        rows = []
        for n_rows in (50_000, 200_000):
            text = to_csv_text(_make_frame(n_rows))
            mono_time = _timed(lambda: read_csv_text(text))
            chunked_time = _timed(
                lambda: read_csv_stream(
                    io.StringIO(text), chunk_size=CHUNK_SIZE
                )
            )
            if n_rows <= 50_000:  # value equality spot-check, once
                assert read_csv_stream(
                    io.StringIO(text), chunk_size=CHUNK_SIZE
                ) == read_csv_text(text)
            rows.append(
                {"rows": n_rows, "mono": mono_time, "chunked": chunked_time}
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Streaming chunked CSV ingestion",
        ["rows", "read_csv [s]", "read_csv_chunked [s]", "ratio"],
        [
            [
                row["rows"],
                f"{row['mono']:.3f}",
                f"{row['chunked']:.3f}",
                f"{row['chunked'] / row['mono']:.2f}x",
            ]
            for row in rows
        ],
    )
    for row in rows:
        # Streaming must stay in the same ballpark as the bulk reader.
        assert row["chunked"] < row["mono"] * 2.0 + 0.1
