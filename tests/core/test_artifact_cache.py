"""Differential tests for the content-addressed artifact cache.

The invariant under test: for identical column content, the cached path,
the cold path (no store), and the cache-disabled path (store constructed
under ``DATALENS_ARTIFACT_CACHE=0``) produce **bit-identical** profile /
detection / quality / FD outputs — across random patch sequences,
adversarial column shapes, and chunked representations — while the
cached path provably recomputes only artifacts touching dirtied columns
(asserted via hit/miss counters).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.artifacts import ArtifactStore, estimate_artifact_bytes
from repro.core.quality import quality_summary
from repro.dataframe import Column, DataFrame
from repro.detection.base import DetectionContext
from repro.detection.mvdetector import MVDetector
from repro.detection.outliers import IQRDetector, SDDetector
from repro.fd import (
    FunctionalDependency,
    StrippedPartition,
    discover_fds,
    discover_fds_hyfd,
)
from repro.profiling import profile
from repro.repair.base import RepairResult

ARTIFACT_CACHE_ENV = "DATALENS_ARTIFACT_CACHE"
ARTIFACT_CACHE_BYTES_ENV = "DATALENS_ARTIFACT_CACHE_BYTES"


def _random_frame(random_values, seed: int, n: int = 60) -> DataFrame:
    rng = np.random.default_rng(seed)
    return DataFrame.from_dict(
        {
            "i": random_values(rng, "int", n, missing=0.1),
            "f": random_values(rng, "float", n, missing=0.1),
            "b": random_values(rng, "bool", n, missing=0.05),
            "s": random_values(rng, "string", n, missing=0.1),
            "t": random_values(rng, "string", n, missing=0.0),
        }
    )


def _random_patch(
    random_values, frame: DataFrame, rng: np.random.Generator
) -> None:
    """Apply a random same-dtype batched patch to one column in place."""
    name = str(rng.choice(frame.column_names))
    dtype = {"i": "int", "f": "float", "b": "bool"}.get(name, "string")
    n_cells = int(rng.integers(1, 6))
    rows = rng.choice(frame.num_rows, size=n_cells, replace=False)
    values = random_values(rng, dtype, n_cells, missing=0.2)
    frame.set_cells(name, [int(r) for r in rows], values)


def _profiles_equal(frame: DataFrame, store: ArtifactStore) -> None:
    """Cached, cold, and disabled profile paths must agree bit for bit."""
    cached = profile(frame, store=store).to_json()
    cold = profile(frame).to_json()
    disabled = profile(frame, store=ArtifactStore(enabled=False)).to_json()
    assert cached == cold == disabled


# ----------------------------------------------------------------------
# Store mechanics
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_get_put_roundtrip_and_counters(self):
        store = ArtifactStore(enabled=True)
        hit, value = store.get("k", ("fp1",), (3,))
        assert (hit, value) == (False, None)
        store.put("k", ("fp1",), (3,), {"x": 1}, copy=True)
        hit, value = store.get("k", ("fp1",), (3,))
        assert hit and value == {"x": 1}
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)
        assert store.stats()["by_kind"]["k"] == {
            "hits": 1,
            "misses": 1,
            "puts": 1,
        }

    def test_params_and_kind_distinguish_entries(self):
        store = ArtifactStore(enabled=True)
        store.put("a", ("fp",), (1,), "one")
        assert store.get("a", ("fp",), (2,)) == (False, None)
        assert store.get("b", ("fp",), (1,)) == (False, None)
        assert store.get("a", ("fp",), (1,)) == (True, "one")

    def test_lru_eviction_counts_and_bounds(self):
        store = ArtifactStore(max_entries=2, enabled=True)
        store.put("k", ("a",), (), 1)
        store.put("k", ("b",), (), 2)
        store.get("k", ("a",), ())  # refresh a → b is now LRU
        store.put("k", ("c",), (), 3)
        assert len(store) == 2
        assert store.evictions == 1
        assert store.get("k", ("b",), ())[0] is False
        assert store.get("k", ("a",), ())[0] is True

    def test_copy_true_isolates_cached_value(self):
        store = ArtifactStore(enabled=True)
        original = {"nested": [1, 2]}
        store.put("k", ("fp",), (), original, copy=True)
        original["nested"].append(3)  # caller mutates after publishing
        _, first = store.get("k", ("fp",), ())
        first["nested"].append(4)  # consumer mutates its copy
        _, second = store.get("k", ("fp",), ())
        assert second == {"nested": [1, 2]}

    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv(ARTIFACT_CACHE_ENV, "0")
        store = ArtifactStore()
        assert not store.enabled
        store.put("k", ("fp",), (), "value")
        assert store.get("k", ("fp",), ()) == (False, None)
        assert len(store) == 0
        # explicit flag overrides the environment
        assert ArtifactStore(enabled=True).enabled

    def test_disabled_store_takes_true_cold_path(self):
        """A disabled store must not even pay for fingerprint hashing."""
        frame = DataFrame.from_dict(
            {"a": [1.0, 2.0, None], "b": ["x", "y", "z"]}
        )
        disabled = ArtifactStore(enabled=False)
        profile(frame, store=disabled)
        quality_summary(frame, store=disabled)
        detector = SDDetector(k=2.0)
        detector._detect(frame, DetectionContext(artifact_store=disabled))
        StrippedPartition.from_columns(frame, ["a", "b"], store=disabled)
        assert all(
            frame.column(name)._fingerprint_cache is None
            for name in frame.column_names
        )
        assert disabled.stats()["misses"] == 0

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ARTIFACT_CACHE_ENV, raising=False)
        assert ArtifactStore().enabled

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            ArtifactStore(max_entries=0)

    def test_concurrent_get_put_is_safe(self):
        """The session store is shared with the threaded REST server."""
        import threading

        store = ArtifactStore(max_entries=64, enabled=True)
        errors: list[Exception] = []

        def worker(worker_id: int) -> None:
            try:
                for i in range(400):
                    key = (f"fp{(worker_id * 7 + i) % 100}",)
                    hit, _ = store.get("k", key, ())
                    if not hit:
                        store.put("k", key, (), i)
                    if i % 50 == 0:
                        store.stats()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(store) <= 64
        stats = store.stats()
        assert stats["hits"] + stats["misses"] == 8 * 400

    def test_clear_keeps_stats(self):
        store = ArtifactStore(enabled=True)
        store.put("k", ("fp",), (), 1)
        store.clear()
        assert len(store) == 0 and store.puts == 1
        assert store.stats()["total_bytes"] == 0

    def test_get_and_put_fire_no_fault_site(self):
        """The store lives in memory only, so no fault plan reaches it."""
        from repro.core import faults

        store = ArtifactStore(enabled=True)
        with faults.inject("site=*,error=fault") as plan:
            store.put("k", ("fp",), (), "value")
            assert store.get("k", ("fp",), ()) == (True, "value")
        assert plan.rules[0].matches == 0


# ----------------------------------------------------------------------
# Byte-aware bounding
# ----------------------------------------------------------------------
class TestByteBound:
    def test_byte_budget_evicts_lru(self):
        store = ArtifactStore(max_entries=100, max_bytes=20_000, enabled=True)
        store.put("k", ("a",), (), np.zeros(1000))  # ~8KB each
        store.put("k", ("b",), (), np.zeros(1000))
        store.get("k", ("a",), ())  # refresh a → b is now LRU
        store.put("k", ("c",), (), np.zeros(1000))
        assert len(store) == 2
        assert store.get("k", ("b",), ())[0] is False
        assert store.get("k", ("a",), ())[0] is True
        stats = store.stats()
        assert stats["total_bytes"] <= store.max_bytes
        assert stats["evicted_bytes"] > 0
        assert stats["max_bytes"] == 20_000

    def test_oversized_artifact_keeps_one_entry_floor(self):
        """One artifact bigger than the budget is cached, not refused."""
        store = ArtifactStore(max_bytes=64, enabled=True)
        store.put("k", ("big",), (), np.zeros(1000))
        assert len(store) == 1
        assert store.get("k", ("big",), ())[0] is True
        # The next put evicts it (budget holds at most this one entry).
        store.put("k", ("big2",), (), np.zeros(1000))
        assert len(store) == 1
        assert store.get("k", ("big",), ())[0] is False

    def test_replacing_entry_adjusts_total_bytes(self):
        store = ArtifactStore(max_bytes=1_000_000, enabled=True)
        store.put("k", ("a",), (), np.zeros(1000))
        first_total = store.stats()["total_bytes"]
        store.put("k", ("a",), (), np.zeros(10))
        assert store.stats()["total_bytes"] < first_total
        assert len(store) == 1

    def test_entry_and_byte_bounds_compose(self):
        store = ArtifactStore(max_entries=2, max_bytes=10**9, enabled=True)
        for tag in ("a", "b", "c"):
            store.put("k", (tag,), (), tag)
        assert len(store) == 2  # entry bound still applies

    def test_max_bytes_validated(self):
        with pytest.raises(ValueError):
            ArtifactStore(max_bytes=0)

    def test_max_bytes_from_env(self, monkeypatch):
        monkeypatch.delenv(ARTIFACT_CACHE_BYTES_ENV, raising=False)
        assert ArtifactStore(enabled=True).max_bytes is None
        monkeypatch.setenv(ARTIFACT_CACHE_BYTES_ENV, "64k")
        assert ArtifactStore(enabled=True).max_bytes == 64 * 1024
        # explicit parameter beats the environment
        assert ArtifactStore(enabled=True, max_bytes=128).max_bytes == 128
        monkeypatch.setenv(ARTIFACT_CACHE_BYTES_ENV, "junk")
        with pytest.raises(ValueError, match=ARTIFACT_CACHE_BYTES_ENV):
            ArtifactStore(enabled=True)

    def test_estimate_artifact_bytes_sanity(self):
        array = np.zeros(1000)
        assert estimate_artifact_bytes(array) >= array.nbytes
        view = array[:500]
        assert estimate_artifact_bytes(view) >= view.nbytes
        nested = {"a": [np.zeros(100), "text"], "b": (1, 2.5, None)}
        assert estimate_artifact_bytes(nested) >= 800
        assert estimate_artifact_bytes("x") < estimate_artifact_bytes(
            "x" * 10_000
        )

        class Slotted:
            __slots__ = ("payload",)

            def __init__(self):
                self.payload = np.zeros(200)

        assert estimate_artifact_bytes(Slotted()) >= 1600
        # cycles terminate
        loop: list = []
        loop.append(loop)
        assert estimate_artifact_bytes(loop) > 0

    def test_len_is_thread_safe_during_churn(self):
        """Regression: ``len(store)`` used to read the dict unlocked and
        could observe a mid-eviction state while puts run concurrently."""
        import threading

        store = ArtifactStore(max_entries=8, max_bytes=4096, enabled=True)
        errors: list[Exception] = []
        stop = threading.Event()

        def mutator(worker_id: int) -> None:
            try:
                for i in range(300):
                    store.put(
                        "k", (f"fp{worker_id}-{i}",), (), np.zeros(64)
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
            finally:
                stop.set()

        def reader() -> None:
            try:
                while not stop.is_set():
                    assert 0 <= len(store) <= 8
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=mutator, args=(t,)) for t in range(4)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.stats()["total_bytes"] >= 0


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_equal_across_representations(self):
        column = Column("c", [1, 2, None, 4, 5])
        frame = DataFrame([column])
        fps = {frame.column("c").fingerprint()}
        fps.add(frame.copy().column("c").fingerprint())
        for chunk_size in (1, 2, 257):
            fps.add(frame.to_chunked(chunk_size).column("c").fingerprint())
        fps.add(Column("c", [1, 2, None, 4, 5]).fingerprint())
        assert len(fps) == 1

    def test_mutation_dirties_exactly_one_column(self):
        frame = DataFrame.from_dict({"a": [1, 2, 3], "b": ["x", "y", "z"]})
        before = frame.column_fingerprints()
        frame.set_cells("a", [1], [9])
        after = frame.column_fingerprints()
        assert after[0] != before[0]
        assert after[1] == before[1]

    def test_apply_patches_dirties_only_patched_columns(self):
        frame = DataFrame.from_dict(
            {"a": [1, 2, 3], "b": [1.0, 2.0, 3.0], "c": ["x", "y", "z"]}
        )
        before = frame.column_fingerprints()
        result = RepairResult(tool="t", repairs={(0, "b"): 9.5})
        repaired = result.apply_to(frame)
        after = repaired.column_fingerprints()
        assert after[0] == before[0] and after[2] == before[2]
        assert after[1] != before[1]

    def test_set_restoring_content_restores_fingerprint(self):
        column = Column("c", [1, 2, 3])
        original = column.fingerprint()
        column.set(1, 99)
        assert column.fingerprint() != original
        column.set(1, 2)
        assert column.fingerprint() == original

    @pytest.mark.parametrize(
        "left, right",
        [
            # same surface token, different dtypes
            (Column("c", [1]), Column("c", [1.0])),
            (Column("c", [1]), Column("c", [True])),
            (Column("c", [1]), Column("c", ["1"])),
            (Column("c", [True]), Column("c", ["True"])),
            # adjacent-cell resegmentation must not collide
            (Column("c", ["ab", "c"]), Column("c", ["a", "bc"])),
            (Column("c", ["a", ""]), Column("c", ["", "a"])),
            # missing vs the fill value that backs it
            (Column("c", [0]), Column("c", [None], dtype="int")),
            (Column("c", [0.0]), Column("c", [None], dtype="float")),
            (Column("c", [False]), Column("c", [None], dtype="bool")),
            (Column("c", [""]), Column("c", [None], dtype="string")),
            (Column("c", ["None"]), Column("c", [None], dtype="string")),
            # mask placement and value order
            (Column("c", [None, 1]), Column("c", [1, None])),
            (Column("c", [1, 2]), Column("c", [2, 1])),
            # name participates in the key (summaries embed it)
            (Column("c", [1]), Column("d", [1])),
            # length
            (Column("c", [1]), Column("c", [1, 1])),
            # bigint-object vs float of same magnitude
            (Column("c", [10**25]), Column("c", [1e25])),
        ],
    )
    def test_collisions_by_construction_stay_distinct(self, left, right):
        assert left.fingerprint() != right.fingerprint()

    def test_mask_fingerprint_tracks_missingness_only(self):
        column = Column("c", [1.0, None, 3.0])
        mask_fp = column.mask_fingerprint()
        column.set(0, 9.0)  # value-only change
        assert column.mask_fingerprint() == mask_fp
        column.set(0, None)  # missingness change
        assert column.mask_fingerprint() != mask_fp
        # distinct placements and names stay distinct
        assert (
            Column("c", [None, 1.0]).mask_fingerprint()
            != Column("c", [1.0, None]).mask_fingerprint()
        )
        assert (
            Column("c", [None]).mask_fingerprint()
            != Column("d", [None]).mask_fingerprint()
        )

    def test_value_only_repair_keeps_missing_artifact_cached(self):
        frame = DataFrame.from_dict(
            {"a": [1.0, None, 3.0, 4.0], "b": ["x", "y", None, "z"]}
        )
        store = ArtifactStore(enabled=True)
        profile(frame, store=store)
        repaired = frame.copy()
        repaired.set_cells("a", [0], [7.5])  # value change, mask unchanged
        before = store.stats()["by_kind"]["frame:missing"].copy()
        assert profile(repaired, store=store).to_json() == profile(
            repaired
        ).to_json()
        after = store.stats()["by_kind"]["frame:missing"]
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] - before["misses"] == 0

    def test_empty_and_all_none_are_stable_and_distinct(self):
        assert (
            Column("c", [], dtype="int").fingerprint()
            == Column("c", [], dtype="int").fingerprint()
        )
        assert (
            Column("c", [], dtype="int").fingerprint()
            != Column("c", [], dtype="float").fingerprint()
        )
        assert (
            Column("c", [None, None], dtype="string").fingerprint()
            == Column("c", [None, None], dtype="string").fingerprint()
        )


# ----------------------------------------------------------------------
# Differential: cached vs cold vs disabled, bit-identical
# ----------------------------------------------------------------------
class TestDifferentialProfile:
    def test_random_patch_sequences(self, random_values):
        frame = _random_frame(random_values, seed=5)
        rng = np.random.default_rng(99)
        store = ArtifactStore(enabled=True)
        _profiles_equal(frame, store)
        for _ in range(6):
            _random_patch(random_values, frame, rng)
            _profiles_equal(frame, store)
        assert store.hits > 0  # the sequence genuinely exercised reuse

    @pytest.mark.parametrize("chunk_size", [1, 257])
    def test_chunked_frames_share_artifacts_with_monolithic(
        self, random_values, chunk_size
    ):
        frame = _random_frame(random_values, seed=7, n=50)
        store = ArtifactStore(enabled=True)
        monolithic = profile(frame, store=store).to_json()
        misses_before = store.misses
        chunked = profile(frame.to_chunked(chunk_size), store=store).to_json()
        assert chunked == monolithic
        # identical content: the chunked run is served entirely from cache
        assert store.misses == misses_before

    def test_adversarial_frames(self):
        frames = [
            DataFrame.from_dict({"empty_i": [], "empty_s": []}),
            DataFrame.from_dict(
                {"all_none": [None, None, None], "ok": [1, 2, 3]}
            ),
            DataFrame.from_dict(
                {"big": [10**25, 10**25 + 10**12, None], "f": [0.1, None, 0.3]}
            ),
            DataFrame.from_dict({"one": [42]}),
        ]
        for frame in frames:
            _profiles_equal(frame, ArtifactStore(enabled=True))

    def test_profile_report_mutation_does_not_corrupt_cache(self, random_values):
        frame = _random_frame(random_values, seed=11, n=40)
        store = ArtifactStore(enabled=True)
        first = profile(frame, store=store)
        first.columns[0]["statistics"]["count"] = -1  # consumer mutates
        second = profile(frame, store=store).to_json()
        assert second == profile(frame).to_json()


class TestDifferentialDetectionQualityFD:
    def test_detectors_bit_identical_over_patches(self, random_values):
        frame = _random_frame(random_values, seed=13, n=80)
        rng = np.random.default_rng(3)
        store = ArtifactStore(enabled=True)
        detectors = [
            SDDetector(k=2.0),
            IQRDetector(factor=1.5),
            MVDetector(extra_null_tokens={"v1"}),
        ]
        for round_index in range(4):
            if round_index:
                _random_patch(random_values, frame, rng)
            for detector in detectors:
                warm = detector._detect(
                    frame, DetectionContext(artifact_store=store)
                )
                cold = detector._detect(frame, DetectionContext())
                assert warm[0] == cold[0]  # cells
                assert warm[1] == cold[1]  # scores
        assert store.hits > 0

    def test_quality_bit_identical_over_patches(self, random_values, fd_frame):
        frame = _random_frame(random_values, seed=17, n=70)
        rng = np.random.default_rng(4)
        store = ArtifactStore(enabled=True)
        rules = [FunctionalDependency(("A",), "B")]
        for round_index in range(4):
            if round_index:
                _random_patch(random_values, frame, rng)
                fd_frame.set_cells(
                    "B", [int(rng.integers(0, fd_frame.num_rows))], ["q"]
                )
            assert quality_summary(frame, store=store) == quality_summary(frame)
            assert quality_summary(
                fd_frame, rules=rules, store=store
            ) == quality_summary(fd_frame, rules=rules)
        assert store.hits > 0

    def test_consistency_accepts_duck_typed_rules(self, fd_frame):
        """Rules exposing only violations() (e.g. ValueRule) still work."""

        class OnlyViolations:
            def violations(self, frame):
                return {(0, "A")}

        from repro.core.quality import consistency

        store = ArtifactStore(enabled=True)
        cached_value = consistency(fd_frame, [OnlyViolations()], store=store)
        assert cached_value == consistency(fd_frame, [OnlyViolations()])

    def test_partitions_and_fd_discovery_bit_identical(self, fd_frame):
        store = ArtifactStore(enabled=True)
        for columns in (["A"], ["A", "B"], ["A", "C"], []):
            cached = StrippedPartition.from_columns(
                fd_frame, columns, store=store
            )
            cold = StrippedPartition.from_columns(fd_frame, columns)
            assert cached == cold
        # second pass is served from cache and still equal
        partition_hits = store.stats()["by_kind"]["fd:partition"]["hits"]
        assert (
            StrippedPartition.from_columns(fd_frame, ["A", "B"], store=store)
            == StrippedPartition.from_columns(fd_frame, ["A", "B"])
        )
        assert (
            store.stats()["by_kind"]["fd:partition"]["hits"] == partition_hits + 1
        )
        assert discover_fds(fd_frame, store=store) == discover_fds(fd_frame)
        assert discover_fds(fd_frame, store=store) == discover_fds(fd_frame)
        assert discover_fds_hyfd(fd_frame, store=store) == discover_fds_hyfd(
            fd_frame
        )

    def test_empty_attribute_set_artifacts_keyed_by_row_count(self):
        """pi_∅ / e(pi_∅) have no fingerprints: num_rows must key them."""
        from repro.fd.partition import error_from_columns

        small = DataFrame.from_dict({"a": [1, 1, 2]})
        large = DataFrame.from_dict({"a": [1, 1, 2, 2, 3]})
        store = ArtifactStore(enabled=True)
        assert error_from_columns(small, [], store=store) == error_from_columns(
            small, []
        )
        assert error_from_columns(large, [], store=store) == error_from_columns(
            large, []
        )
        assert StrippedPartition.from_columns(
            large, [], store=store
        ) == StrippedPartition.from_columns(large, [])

    def test_fd_discovery_after_patch(self, fd_frame):
        store = ArtifactStore(enabled=True)
        assert discover_fds(fd_frame, store=store) == discover_fds(fd_frame)
        fd_frame.set_cells("B", [0], ["broken"])  # A -> B no longer holds
        assert discover_fds(fd_frame, store=store) == discover_fds(fd_frame)


# ----------------------------------------------------------------------
# Incremental recompute, asserted via counters
# ----------------------------------------------------------------------
class TestIncrementalCounters:
    def test_reprofile_recomputes_only_dirty_column(self, random_values):
        frame = _random_frame(random_values, seed=23, n=60)
        store = ArtifactStore(enabled=True)
        profile(frame, store=store)
        repaired = frame.copy()
        repaired.set_cells("f", [0, 1], [4.25, -3.5])
        before = {
            kind: dict(counts)
            for kind, counts in store.stats()["by_kind"].items()
        }
        profile(repaired, store=store)
        after = store.stats()["by_kind"]

        def delta(kind, counter):
            return after.get(kind, {}).get(counter, 0) - before.get(
                kind, {}
            ).get(counter, 0)

        n_columns = frame.num_columns
        # exactly one column section recomputes; the rest hit
        assert delta("profile:column", "misses") == 1
        assert delta("profile:column", "hits") == n_columns - 1
        # pairwise artifacts recompute only for pairs touching "f": the
        # sole other numeric column is "i", so one pair per numeric
        # method; the categorical matrix is untouched.
        assert delta("corr:pearson", "misses") == 1
        assert delta("corr:spearman", "misses") == 1
        assert delta("corr:pearson", "hits") == 0
        assert delta("corr:cramers_v", "misses") == 0
        # frame-level artifacts recompute once each (their key spans all
        # columns and one changed)
        assert delta("frame:duplicates", "misses") == 1
        assert delta("frame:missing", "misses") == 1

    def test_quality_after_repair_reuses_clean_columns(self, random_values):
        frame = _random_frame(random_values, seed=29, n=60)
        store = ArtifactStore(enabled=True)
        quality_summary(frame, store=store)
        repaired = frame.copy()
        repaired.set_cells("s", [3], ["v0"])
        before = store.stats()["by_kind"]["quality:validity"].copy()
        quality_summary(repaired, store=store)
        after = store.stats()["by_kind"]["quality:validity"]
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == frame.num_columns - 1

    def test_duplicate_artifact_reencodes_only_the_repaired_column(
        self, random_values
    ):
        """Repairing one column leaves only that column to re-encode.

        The frame-level ``frame:duplicates`` entry misses (its key spans
        every column); its compute path reads each column's own cached
        ``codes()``, which ``copy()`` carries to every column the repair
        left unpatched. The store keeps no second copy of those codes,
        and the result stays bit-identical to
        :meth:`DataFrame.duplicate_row_indices`.
        """
        from repro.profiling.report import duplicate_row_artifact

        frame = _random_frame(random_values, seed=31, n=60)
        store = ArtifactStore(enabled=True)
        assert duplicate_row_artifact(frame, store) == tuple(
            frame.duplicate_row_indices()
        )
        repaired = frame.copy()
        repaired.set_cells("f", [0, 2], [9.75, -1.25])
        uncached = [
            name
            for name in repaired.column_names
            if repaired.column(name)._codes_cache is None
        ]
        assert uncached == ["f"]
        assert duplicate_row_artifact(repaired, store) == tuple(
            repaired.duplicate_row_indices()
        )
        assert set(store.stats()["by_kind"]) == {"frame:duplicates"}

    def test_cooccurrence_refit_recomputes_only_touched_pairs(
        self, random_values
    ):
        """Repairing one of ``c`` columns recounts ``c - 1`` pair tables.

        The whole-model ``repair:cooccurrence`` entry misses, but the
        refit replays every ``repair:cooccurrence:pair`` table not
        touching the dirty column — and the incremental model scores
        bit-identically to a cold fit.
        """
        from repro.detection.holoclean import HoloCleanDetector

        frame = _random_frame(random_values, seed=37, n=60)
        detector = HoloCleanDetector()
        store = ArtifactStore(enabled=True)
        tokens = detector.tokenize(frame, store=store)
        detector.fitted_model(frame, tokens, store=store)
        n_pairs = frame.num_columns * (frame.num_columns - 1) // 2
        first = store.stats()["by_kind"]["repair:cooccurrence:pair"]
        assert first["misses"] == n_pairs

        repaired = frame.copy()
        repaired.set_cells("s", [1, 4], ["vX", "vY"])
        tokens2 = detector.tokenize(repaired, store=store)
        before = store.stats()["by_kind"]["repair:cooccurrence:pair"].copy()
        warm = detector.fitted_model(repaired, tokens2, store=store)
        after = store.stats()["by_kind"]["repair:cooccurrence:pair"]
        assert after["misses"] - before["misses"] == frame.num_columns - 1
        assert after["hits"] - before["hits"] == n_pairs - (
            frame.num_columns - 1
        )
        cold = detector.fitted_model(repaired, tokens2, store=None)
        assert set(warm._pairs) == set(cold._pairs)
        for pair in cold._pairs:
            for warm_arr, cold_arr in zip(warm._pairs[pair], cold._pairs[pair]):
                assert np.array_equal(warm_arr, cold_arr), pair
