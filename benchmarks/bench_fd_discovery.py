"""Ablation — FD discovery engines (§3 automated rule extraction).

Compares TANE and the HyFD-style hybrid on runtime and verifies result
parity (both must produce the same minimal FD set), across growing slices
of the Hospital table — the workload Metanome-style profiling faces.
"""

from __future__ import annotations

import time

from repro.dataframe import DataFrame
from repro.fd import discover_fds, discover_fds_hyfd
from repro.ingestion import hospital

from conftest import print_table

ROW_COUNTS = (100, 250, 500, 1000)
COLUMNS = ["ProviderNumber", "HospitalName", "City", "State", "ZipCode",
           "Condition", "MeasureCode"]


def _hospital(n_rows: int, columns: list[str]) -> DataFrame:
    frame = hospital(n_rows)
    return DataFrame(frame.column(name) for name in columns)


def _sweep() -> list[dict]:
    rows = []
    for n_rows in ROW_COUNTS:
        frame = _hospital(n_rows, COLUMNS)
        start = time.perf_counter()
        tane_rules = discover_fds(frame, max_lhs_size=2)
        tane_seconds = time.perf_counter() - start
        start = time.perf_counter()
        hyfd_rules = discover_fds_hyfd(frame, max_lhs_size=2)
        hyfd_seconds = time.perf_counter() - start
        rows.append(
            {
                "rows": n_rows,
                "fds": len(tane_rules),
                "tane_s": tane_seconds,
                "hyfd_s": hyfd_seconds,
                "parity": sorted(map(str, tane_rules))
                == sorted(map(str, hyfd_rules)),
            }
        )
    return rows


def test_fd_discovery_engines(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print_table(
        "FD discovery (Hospital, LHS <= 2): TANE vs HyFD",
        ["rows", "minimal FDs", "TANE [s]", "HyFD [s]", "results equal"],
        [
            [
                row["rows"],
                row["fds"],
                f"{row['tane_s']:.3f}",
                f"{row['hyfd_s']:.3f}",
                row["parity"],
            ]
            for row in rows
        ],
    )
    assert all(row["parity"] for row in rows)
    assert all(row["fds"] > 0 for row in rows)
    for row in rows:
        benchmark.extra_info[f"rows_{row['rows']}"] = {
            "tane_s": round(row["tane_s"], 3),
            "hyfd_s": round(row["hyfd_s"], 3),
        }


def test_tane_hot_path(benchmark):
    """Microbenchmark pytest-benchmark can time across rounds."""
    frame = _hospital(250, COLUMNS[:5])
    rules = benchmark(lambda: discover_fds(frame, max_lhs_size=2))
    assert rules
