"""CSV boundary at scale — block kernels vs the per-cell reference.

Builds a 100k×10 frame of the serving benchmark's shape from its own
seed (6 float and 4 string columns, 1% null cells) and times each CSV
kernel of :mod:`repro.dataframe.io` against the row-at-a-time code kept
in ``csv_reference.py``:

* ``write_csv`` on the monolithic frame and on a 1 MiB-spilled
  :class:`~repro.dataframe.ChunkedFrame`;
* ``read_csv`` of the written file;
* ``read_csv_stream`` of its lines in 4096-row chunks into a 1 MiB store.

Every kernel must give the reference's bytes (writers) or column
fingerprints (readers), and be at least :data:`FLOOR` times faster.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.dataframe import (
    DataFrame,
    SpillStore,
    read_csv,
    read_csv_stream,
    write_csv,
)

from conftest import print_table
from csv_reference import reference_read_csv_text, reference_to_csv_text

N_ROWS = 100_000
N_FLOAT = 6
N_STRING = 4
NULL_CELLS = 0.01
CHUNK_SIZE = 4096
BUDGET_BYTES = 1 << 20
FLOOR = 2.5
REPEATS = 3


def _frame(seed: int = 23) -> DataFrame:
    rng = np.random.default_rng(seed)
    data: dict = {}
    for j in range(N_FLOAT):
        data[f"f{j}"] = rng.normal(10.0 * (j + 1), 1.0 + j, N_ROWS).tolist()
    for j in range(N_STRING):
        categories = [f"cat{j}_{k:03d}" for k in range(12 + 8 * j)]
        codes = rng.integers(0, len(categories), N_ROWS).tolist()
        data[f"s{j}"] = [categories[code] for code in codes]
    for values in data.values():
        for row in np.flatnonzero(rng.random(N_ROWS) < NULL_CELLS).tolist():
            values[row] = None
    return DataFrame.from_dict(data)


def _best_pair(reference, kernel):
    """Best wall time of each over :data:`REPEATS` alternating runs, and
    each one's last result.

    Alternating the two (after a full collection each) keeps a slow
    spell of the shared machine from landing on one side only.
    """
    best = [float("inf"), float("inf")]
    results = [None, None]
    for _ in range(REPEATS):
        for side, fn in enumerate((reference, kernel)):
            gc.collect()
            start = time.perf_counter()
            results[side] = fn()
            best[side] = min(best[side], time.perf_counter() - start)
    return best, results


def test_csv_kernels_beat_reference(tmp_path):
    frame = _frame()
    spilled = frame.to_chunked(
        CHUNK_SIZE, spill=SpillStore(budget_bytes=BUDGET_BYTES, directory=tmp_path)
    )
    path = tmp_path / "kernel.csv"

    def reference_write(source):
        def run():
            text = reference_to_csv_text(source)
            with open(tmp_path / "reference.csv", "w", newline="") as handle:
                handle.write(text)
            return text

        return run

    def stream():
        with open(path, newline="", encoding="utf-8") as handle:
            store = SpillStore(budget_bytes=BUDGET_BYTES, directory=tmp_path)
            return read_csv_stream(handle, chunk_size=CHUNK_SIZE, spill=store)

    rows = []
    ratios = {}

    def record(label, ref_seconds, seconds):
        ratios[label] = ref_seconds / seconds
        rows.append(
            [label, f"{ref_seconds:.2f}", f"{seconds:.2f}", f"{ratios[label]:.1f}x"]
        )

    for label, source in (("write_csv", frame), ("write_csv spilled", spilled)):
        (ref_seconds, seconds), (text, _) = _best_pair(
            reference_write(source), lambda: write_csv(source, path)
        )
        with open(path, newline="", encoding="utf-8") as handle:
            assert handle.read() == text, f"{label}: bytes differ from the reference"
        record(label, ref_seconds, seconds)

    for label, read in (
        ("read_csv", lambda: read_csv(path)),
        ("read_csv_stream", stream),
    ):
        (ref_seconds, seconds), (expected, parsed) = _best_pair(
            lambda: reference_read_csv_text(text), read
        )
        assert parsed.dtypes() == expected.dtypes(), label
        assert parsed.column_fingerprints() == expected.column_fingerprints(), label
        record(label, ref_seconds, seconds)

    print_table(
        f"CSV kernels vs per-cell reference ({N_ROWS}x{N_FLOAT + N_STRING}, "
        f"{len(text) / 1024**2:.1f} MiB)",
        ["kernel", "reference [s]", "kernel [s]", "speedup"],
        rows,
    )
    for label, ratio in ratios.items():
        assert ratio >= FLOOR, f"{label}: {ratio:.2f}x < {FLOOR}x"
