"""Wall-clock guardrails for the vectorized hot paths.

These are tier-1-safe micro-benchmarks: each asserts a *generous*
time budget (several times the vectorized cost on a slow machine, but
far below what per-cell Python loops spend at this scale) on a 50k-row
synthetic frame, so a future change that silently reverts a hot path to
row-at-a-time processing fails loudly. Budgets use best-of-three timing
to damp scheduler noise.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest


def _load_bench_module(file_name: str, module_name: str):
    """Load a workload module shared with benchmarks/.

    Budget and recorded trajectory must always measure the same frame
    shape and repair pattern; benchmarks/ is not a package, so modules
    are loaded by file path — no sys.path mutation leaks into the suite.
    """
    path = Path(__file__).resolve().parents[2] / "benchmarks" / file_name
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_workload = _load_bench_module(
    "incremental_workload.py", "_incremental_workload"
)
make_incremental_frame = _workload.make_incremental_frame
one_percent_repair = _workload.one_percent_repair
INCREMENTAL_COLS = _workload.N_COLUMNS

_repair_workload = _load_bench_module("repair_reference.py", "_repair_reference")
make_repair_frame = _repair_workload.make_repair_frame
sample_dirty_cells = _repair_workload.sample_dirty_cells

from repro.core.artifacts import ArtifactStore
from repro.dataframe import DataFrame, group_by, join, sort_by
from repro.detection.base import DetectionContext
from repro.detection.holoclean import CooccurrenceModel, HoloCleanDetector
from repro.detection.outliers import SDDetector
from repro.fd import StrippedPartition
from repro.profiling import profile
from repro.profiling.stats import numeric_summary
from repro.repair import HoloCleanRepairer, MLImputer
from repro.repair.base import RepairResult

N_ROWS = 50_000
PROFILE_ROWS = 200_000
PROFILE_CHUNK = 16_384
INCREMENTAL_ROWS = 200_000


@pytest.fixture(scope="module")
def synthetic_frame() -> DataFrame:
    rng = np.random.default_rng(42)
    values = rng.normal(0.0, 1.0, N_ROWS)
    values[rng.random(N_ROWS) < 0.02] = np.nan  # ~2% missing
    return DataFrame.from_dict(
        {
            "value": [None if np.isnan(v) else float(v) for v in values],
            "group": [f"g{int(v)}" for v in rng.integers(0, 50, N_ROWS)],
            "code": [int(v) for v in rng.integers(0, 500, N_ROWS)],
        }
    )


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    assert result is not None
    return best


def test_numeric_summary_stays_vectorized(synthetic_frame):
    column = synthetic_frame.column("value")
    elapsed = _best_of(lambda: numeric_summary(column))
    summary = numeric_summary(column)
    assert summary["count"] == N_ROWS - column.missing_count()
    # Vectorized: ~0.017s here. Per-cell float() casting: several times
    # the budget.
    assert elapsed < 0.12, f"numeric_summary took {elapsed:.3f}s on 50k rows"


def test_stripped_partition_from_columns_stays_vectorized(synthetic_frame):
    elapsed = _best_of(
        lambda: StrippedPartition.from_columns(
            synthetic_frame, ["group", "code"]
        )
    )
    partition = StrippedPartition.from_columns(synthetic_frame, ["group", "code"])
    assert partition.n_rows == N_ROWS
    assert partition.num_classes > 0
    # Vectorized: ~0.010s here. Dict-of-lists per-cell grouping plus the
    # pairwise product chain: an order of magnitude beyond the budget.
    assert elapsed < 0.12, f"from_columns took {elapsed:.3f}s on 50k rows"


def test_zscore_detection_stays_vectorized(synthetic_frame):
    detector = SDDetector(k=3.0, columns=["value"])
    context = DetectionContext()
    elapsed = _best_of(lambda: detector._detect(synthetic_frame, context))
    cells, scores, _ = detector._detect(synthetic_frame, context)
    assert cells, "a 50k normal sample must contain |z| > 3 points"
    assert set(scores) == cells
    # Vectorized: ~0.001s here.
    assert elapsed < 0.06, f"z-score detection took {elapsed:.3f}s on 50k rows"


def test_dataframe_select_stays_vectorized(synthetic_frame):
    mask = np.asarray(synthetic_frame.column("value").mask()).copy()
    mask[: N_ROWS // 2] = True
    elapsed = _best_of(lambda: synthetic_frame.select(~mask))
    subset = synthetic_frame.select(~mask)
    assert subset.num_rows == int((~mask).sum())
    assert elapsed < 0.06, f"select took {elapsed:.3f}s on 50k rows"


def test_group_by_stays_vectorized(synthetic_frame):
    aggregations = {
        "total": ("value", "sum"),
        "avg": ("value", "mean"),
        "n": ("value", "count"),
    }
    elapsed = _best_of(
        lambda: group_by(synthetic_frame, ["group"], aggregations)
    )
    result = group_by(synthetic_frame, ["group"], aggregations)
    assert result.num_rows == 50
    # Vectorized: ~0.010s here. The seed per-row frame.at scan: ~0.29s —
    # this budget enforces the >= 5x win over row-at-a-time grouping.
    assert elapsed < 0.055, f"group_by took {elapsed:.3f}s on 50k rows"


def test_inner_join_stays_vectorized(synthetic_frame):
    right = DataFrame.from_dict(
        {
            "code": list(range(500)),
            "label": [f"l{v % 7}" for v in range(500)],
        }
    )
    elapsed = _best_of(
        lambda: join(synthetic_frame, right, ["code"], how="inner")
    )
    joined = join(synthetic_frame, right, ["code"], how="inner")
    assert joined.num_rows == N_ROWS
    assert "label" in joined
    # Vectorized: ~0.023s here. The seed per-row probe loop: ~0.57s —
    # this budget enforces the >= 5x win over row-at-a-time joining.
    assert elapsed < 0.11, f"inner join took {elapsed:.3f}s on 50k rows"


def test_sort_by_stays_vectorized(synthetic_frame):
    # The frame is resident, so this budget guards the vectorized in-RAM
    # plan (the external plan has its own budget below).
    elapsed = _best_of(lambda: sort_by(synthetic_frame, ["group", "code"]))
    ordered = sort_by(synthetic_frame, ["group", "code"], descending=True)
    assert ordered.num_rows == N_ROWS
    # Vectorized: ~0.023s here; per-row key tuples cost several times more.
    assert elapsed < 0.12, f"sort_by took {elapsed:.3f}s on 50k rows"


def test_external_sort_stays_run_based(synthetic_frame):
    """The out-of-core sort must stay run + window based, not per-row.

    A generous ceiling — runs and merge windows are ordered with the
    vectorized memory kernel, so 50k rows sort in well under a second
    even through a small spill store; a per-row merge loop would cost an
    order of magnitude more.
    """
    from repro.dataframe import SpillStore, external_sort_by

    def run():
        store = SpillStore(budget_bytes=1 << 20)
        try:
            return external_sort_by(
                synthetic_frame, ["group", "code"], store=store
            )
        finally:
            store.close()

    elapsed = _best_of(run)
    assert elapsed < 10.0, f"external sort took {elapsed:.3f}s on 50k rows"


def test_external_sort_looks_up_each_shard_a_few_times(synthetic_frame):
    """The merge consults the store per run shard, not per row.

    Window steps and the gather look up each run's shards about once per
    column and output shard, about 7 lookups per spilled shard here. A
    merge that walks interleaved key segments one by one looks a shard up
    once per segment, over a thousand times per spilled shard on these
    keys. Unlike a clock, the count repeats exactly, even under injected
    faults: a retried load counts once.
    """
    from repro.dataframe import SpillStore, external_sort_by

    store = SpillStore(budget_bytes=1 << 20)
    try:
        external_sort_by(synthetic_frame, ["group", "code"], store=store)
        stats = store.stats()
    finally:
        store.close()
    lookups = stats["loads"] + stats["cache_hits"]
    assert lookups <= 10 * stats["spilled_shards"], (
        f"{lookups} store lookups for {stats['spilled_shards']} spilled shards"
    )


def test_spilling_appends_records_to_a_few_segment_files(synthetic_frame):
    """Shards are appended to segment files, not written one file each.

    Counts, not clocks: creating a file costs about half a millisecond on
    ext4, so a file per shard (two per numeric shard, as ``.npy`` pairs
    once were) makes the spill store cost more than the kernels that use
    it. Only a segment's first record creates a file, and nothing is
    released here, so the files left are the files created.
    """
    from repro.dataframe import SpillStore, spill_frame, spill_store_of
    from repro.dataframe.spill import SEGMENT_BYTES

    store = SpillStore(budget_bytes=1 << 20)
    try:
        # Held, so that no record is released before the files are counted.
        spilled = spill_frame(synthetic_frame, store=store)
        stats = store.stats()
        files = len(list(store.directory.glob("shard-*")))
        assert spill_store_of(spilled) is store
    finally:
        store.close()
    ceiling = -(-stats["spilled_bytes"] // SEGMENT_BYTES) + 1
    assert files <= ceiling, (
        f"{files} files for {stats['spilled_shards']} shards "
        f"({stats['spilled_bytes']} bytes)"
    )


def test_copy_of_a_spilled_frame_shares_its_records(synthetic_frame):
    """Repair copies the spilled frame twice; a copy writes and reads nothing."""
    from repro.dataframe import SpillStore, spill_frame

    store = SpillStore(budget_bytes=1 << 20)
    try:
        spilled = spill_frame(synthetic_frame, store=store)
        before = store.stats()
        spilled.copy()
        after = store.stats()
    finally:
        store.close()
    assert after["spilled_shards"] == before["spilled_shards"]
    assert after["loads"] == before["loads"]


def test_row_access_reads_only_the_shards_it_needs(synthetic_frame):
    """A preview or a small take of a spilled frame reads a shard per column.

    Counts, not clocks: ``head(20)`` and a 100-row ``take`` inside one
    shard make at most one store lookup per column, write nothing, and
    leave every column spilled. A row access that densified the frame
    would load every shard of every column and release the records.
    """
    from repro.dataframe import SpillStore, spill_frame

    store = SpillStore(budget_bytes=1 << 20)
    try:
        spilled = spill_frame(synthetic_frame, store=store, chunk_size=4096)
        width = spilled.num_columns
        first = spilled.chunk_lengths[0]
        assert spilled.n_chunks > 1 and first > 100

        def lookups(read) -> tuple[int, int]:
            before = store.stats()
            read()
            after = store.stats()
            return (
                after["loads"] + after["cache_hits"]
                - before["loads"] - before["cache_hits"],
                after["spilled_shards"] - before["spilled_shards"],
            )

        head = lookups(lambda: spilled.head(20))
        inside = lookups(lambda: spilled.take(np.arange(first - 100, first)))
        still_spilled = all(
            spilled.column(name).spilled for name in spilled.column_names
        )
    finally:
        store.close()
    assert head[0] <= width and head[1] == 0, head
    assert inside[0] <= width and inside[1] == 0, inside
    assert still_spilled


def test_fd_scan_reads_each_column_in_one_pass(synthetic_frame):
    """An FD violation scan over a spilled frame reads each column whole.

    Counts, not clocks: ``[group] -> code`` over the 50k-row frame in
    4096-row shards reads the determinant once and the dependent twice
    (the groups, then the majorities), so it makes at most three lookups
    per shard. A cell-by-cell scan would make one lookup per cell, and
    one that densified would release the records. The violations equal
    the monolithic frame's.
    """
    from repro.dataframe import SpillStore, spill_frame
    from repro.fd import FunctionalDependency

    rule = FunctionalDependency(("group",), "code")
    expected = rule.violations(synthetic_frame)
    store = SpillStore(budget_bytes=1 << 20)
    try:
        spilled = spill_frame(synthetic_frame, store=store, chunk_size=4096)
        before = store.stats()
        found = rule.violations(spilled)
        after = store.stats()
        still_spilled = all(
            spilled.column(name).spilled for name in spilled.column_names
        )
    finally:
        store.close()
    lookups = (
        after["loads"] + after["cache_hits"] - before["loads"] - before["cache_hits"]
    )
    assert found == expected and expected
    assert lookups <= 3 * spilled.n_chunks, lookups
    assert still_spilled


@pytest.fixture(scope="module")
def profiling_frame() -> DataFrame:
    """200k-row, mostly numeric frame for the chunked profiling budgets."""
    rng = np.random.default_rng(7)
    data: dict = {}
    for j in range(5):
        values = rng.normal(0.0, 1.0, PROFILE_ROWS)
        missing = rng.random(PROFILE_ROWS) < 0.02
        data[f"num{j}"] = [
            None if m else float(v) for m, v in zip(missing, values)
        ]
    data["code"] = [int(v) for v in rng.integers(0, 500, PROFILE_ROWS)]
    data["group"] = [f"g{int(v)}" for v in rng.integers(0, 50, PROFILE_ROWS)]
    return DataFrame.from_dict(data)


def test_chunked_profile_serial_stays_close_to_monolithic(profiling_frame):
    """Chunked profiling must not tax the serial path.

    The chunk layer adds one gather (concatenate of per-chunk compressed
    shards) per column; measured overhead is ~0-5%, so 1.3x is a
    generous ceiling that still fails loudly if a chunk loop ever goes
    per-cell.
    """
    chunked = profiling_frame.to_chunked(PROFILE_CHUNK)
    monolithic_time = _best_of(lambda: profile(profiling_frame), repeats=2)
    chunked_time = _best_of(lambda: profile(chunked), repeats=2)
    assert chunked_time < monolithic_time * 1.3 + 0.05, (
        f"chunked profile {chunked_time:.3f}s vs monolithic "
        f"{monolithic_time:.3f}s on {PROFILE_ROWS} rows"
    )


@pytest.fixture(scope="module")
def incremental_frame() -> DataFrame:
    """The shared 200k x 20 frame for the incremental re-profile budget."""
    frame = make_incremental_frame(INCREMENTAL_ROWS)
    assert frame.num_columns == INCREMENTAL_COLS
    return frame


def test_incremental_reprofile_after_repair_beats_cold_5x(incremental_frame):
    """Acceptance budget: re-profile after a 1%-of-cells repair >= 5x cold.

    The artifact store serves every per-column/pairwise artifact that
    does not touch the two repaired columns; hit/miss counters prove the
    recompute set is exactly the dirty columns. The store is force-
    enabled so the budget also guards the cache-disabled CI leg.
    """
    store = ArtifactStore(enabled=True)
    cold = _best_of(lambda: profile(incremental_frame), repeats=2)
    warm_report = profile(incremental_frame, store=store)  # populate
    assert warm_report.to_json() == profile(incremental_frame).to_json()

    warm_times = []
    for round_index in range(2):
        repaired = one_percent_repair(
            incremental_frame, seed=round_index
        ).apply_to(incremental_frame)
        before = {
            kind: dict(counts)
            for kind, counts in store.stats()["by_kind"].items()
        }
        start = time.perf_counter()
        profile(repaired, store=store)
        warm_times.append(time.perf_counter() - start)
        after = store.stats()["by_kind"]
        column_misses = (
            after["profile:column"]["misses"]
            - before["profile:column"]["misses"]
        )
        column_hits = (
            after["profile:column"]["hits"] - before["profile:column"]["hits"]
        )
        # exactly the two repaired columns recompute; 18 columns hit
        assert column_misses == 2, f"expected 2 dirty columns, got {column_misses}"
        assert column_hits == INCREMENTAL_COLS - 2
        # pairwise artifacts recompute only pairs touching a dirty column:
        # num0/code0 each pair with the 17 other numeric columns.
        pair_misses = (
            after["corr:pearson"]["misses"] - before["corr:pearson"]["misses"]
        )
        assert pair_misses == 33, f"expected 33 dirty pearson pairs, got {pair_misses}"

    warm = min(warm_times)
    assert warm * 5.0 <= cold, (
        f"incremental re-profile {warm:.3f}s must beat cold {cold:.3f}s "
        f"by >= 5x on {INCREMENTAL_ROWS}x{INCREMENTAL_COLS} "
        f"(got {cold / warm:.1f}x)"
    )


@pytest.fixture(scope="module")
def repair_frame() -> DataFrame:
    """The shared 50k x 10 frame for the repair-proposal budgets."""
    return make_repair_frame(N_ROWS)


def test_cooccurrence_fit_stays_vectorized(repair_frame):
    """The fit must stay an array program — no per-row Python loop.

    Vectorized (bincount/unique contingency tables): ~0.04s here. The
    retained Counter-based triple loop: ~2.5s at this scale, so the
    budget fails loudly if the fit ever goes per-row again.
    """
    tokens = HoloCleanDetector().tokenize(repair_frame)
    elapsed = _best_of(lambda: CooccurrenceModel().fit(tokens))
    assert elapsed < 0.4, f"co-occurrence fit took {elapsed:.3f}s on 50k rows"


def test_holoclean_repair_stays_batched(repair_frame):
    """1%-of-cells HoloClean repair on 50k x 10 must stay batched.

    Vectorized (one score_matrix + argmax per column): ~0.17s here; the
    retained per-candidate log_score loop costs ~2.9s (the >= 15x win
    recorded in benchmarks/bench_repair_scale.py).
    """
    cells = sample_dirty_cells(repair_frame, seed=5)
    assert len(cells) == (N_ROWS * 10) // 100
    repairer = HoloCleanRepairer()
    elapsed = _best_of(lambda: repairer.repair(repair_frame, cells), repeats=2)
    result = repairer.repair(repair_frame, cells)
    assert len(result.repairs) == len(cells)
    assert set(result.metadata["domain_sizes"]) == {c for _, c in cells}
    assert elapsed < 1.2, f"holoclean repair took {elapsed:.3f}s for 1% of cells"


def test_ml_impute_knn_stays_batched(repair_frame):
    """Categorical k-NN imputation must use the batched predict path.

    1000 dirty cells over two string columns at 50k train rows:
    block-broadcasted distances + partition top-k run in ~2.5s here;
    the per-row stable-argsort loop plus per-target re-encoding costs
    ~7s, and a per-cell Python fallback far more.
    """
    rng = np.random.default_rng(2)
    cells = {
        (int(row), column)
        for column in ("city", "brand")
        for row in rng.choice(N_ROWS, 500, replace=False)
    }
    imputer = MLImputer()
    elapsed = _best_of(lambda: imputer.repair(repair_frame, cells), repeats=2)
    result = imputer.repair(repair_frame, cells)
    assert result.metadata["models"] == {"city": "knn", "brand": "knn"}
    assert elapsed < 6.0, f"knn imputation took {elapsed:.3f}s for 1k cells"


def test_repair_apply_stays_batched(synthetic_frame):
    rng = np.random.default_rng(0)
    rows = rng.choice(N_ROWS, size=10_000, replace=False)
    repairs = {}
    for i, row in enumerate(rows.tolist()):
        column = ("value", "group", "code")[i % 3]
        repairs[(row, column)] = {"value": 0.5, "group": "gX", "code": 7}[column]
    result = RepairResult(tool="perf", repairs=repairs)
    elapsed = _best_of(lambda: result.apply_to(synthetic_frame))
    repaired = result.apply_to(synthetic_frame)
    assert repaired.at(int(rows[0]), ("value", "group", "code")[0]) == 0.5
    # Batched column writes: ~0.005s here (10k cells over 50k rows);
    # the per-cell set_at loop costs 2-3x more and grows with cell count.
    assert elapsed < 0.08, f"repair apply took {elapsed:.3f}s for 10k cells"
