"""Differential equivalence: vectorized repair proposals vs pure-Python reference.

The codes-based proposal engine (integer token columns, bincount
contingency tables, batched ``score_matrix`` scoring, batched ML
prediction) must be **bit-identical** to the retained per-cell reference
in ``benchmarks/repair_reference.py`` — same tokens, same log-posteriors
(exact float equality), same detected cells/scores, same repairs and
patches, same tie-breaking — on random frames, across chunk layouts, and
on adversarial inputs (literal ``"__missing__"`` collisions, all-missing
columns, tiny domains). The cache tests pin the detect → repair artifact
contract: one co-occurrence fit per frame content when the store is
enabled, identical outputs either way.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core.artifacts import ArtifactStore
from repro.dataframe import DataFrame
from repro.detection import DetectionContext, HoloCleanDetector
from repro.detection.holoclean import CooccurrenceModel, TokenColumn
from repro.repair import HoloCleanRepairer, MLImputer


def _load_reference():
    path = (
        Path(__file__).resolve().parents[2] / "benchmarks" / "repair_reference.py"
    )
    spec = importlib.util.spec_from_file_location("_repair_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load_reference()

CHUNK_SIZES = (1, 257)


def _decoded(tcol: TokenColumn) -> list:
    """Per-row token values, the reference tokenizer's representation."""
    lookup = tcol.tokens + [ref._MISSING]
    return [lookup[code] for code in tcol.codes.tolist()]


def _random_frame(
    make_values, seed: int, n: int, missing: float = 0.08
) -> DataFrame:
    rng = np.random.default_rng(seed)
    return DataFrame.from_dict(
        {
            "i": make_values(rng, "int", n, missing, profile="narrow"),
            "f": make_values(rng, "float", n, missing, profile="narrow"),
            "s": make_values(rng, "string", n, missing, profile="narrow"),
            "b": make_values(rng, "bool", n, missing),
            "s2": make_values(rng, "string", n, missing, profile="wide"),
            "f2": make_values(rng, "float", n, 0.0, profile="wide"),
        }
    )


def _random_cells(frame: DataFrame, seed: int, fraction: float = 0.06):
    rng = np.random.default_rng(seed)
    names = frame.column_names
    total = frame.num_rows * len(names)
    n_cells = max(1, int(total * fraction))
    flat = rng.choice(total, size=n_cells, replace=False)
    return {
        (int(v // len(names)), names[int(v % len(names))]) for v in flat
    }


def _adversarial_frame() -> DataFrame:
    """Literal "__missing__" values, an all-missing column, tiny domains."""
    n = 30
    return DataFrame.from_dict(
        {
            "collide": (["__missing__", "a", "b"] * 10),
            "allnone": [None] * n,
            "allnone_num": [None] * n,
            "constant": ["only"] * n,
            "num": [float(i % 7) for i in range(n - 3)] + [None, 1.0, None],
            "key": [f"k{i % 5}" for i in range(n)],
        }
    )


def _frames(random_values):
    frames = [
        _random_frame(random_values, seed=seed, n=n)
        for seed, n in ((1, 47), (2, 113), (3, 260))
    ]
    frames.append(_adversarial_frame())
    frames.append(DataFrame.from_dict({"x": [1.0], "y": ["a"]}))  # single row
    return frames


# ----------------------------------------------------------------------
# Tokenization
# ----------------------------------------------------------------------


class TestTokenizeEquivalence:
    def test_tokens_match_reference(self, random_values):
        for frame in _frames(random_values):
            tokens = HoloCleanDetector().tokenize(frame)
            expected = ref.reference_tokenize(frame)
            for name in frame.column_names:
                tcol = tokens[name]
                assert isinstance(tcol, TokenColumn)
                assert tcol.codes.dtype == np.int64
                assert _decoded(tcol) == expected[name], name

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_chunked_tokens_bit_identical(self, random_values, chunk):
        for frame in _frames(random_values):
            mono = HoloCleanDetector().tokenize(frame)
            chunked = HoloCleanDetector().tokenize(frame.to_chunked(chunk))
            for name in frame.column_names:
                assert mono[name].tokens == chunked[name].tokens
                assert np.array_equal(mono[name].codes, chunked[name].codes)

    def test_missing_sentinel_collision_folds_into_missing(self):
        frame = _adversarial_frame()
        tokens = HoloCleanDetector().tokenize(frame)
        tcol = tokens["collide"]
        assert "__missing__" not in tcol.tokens
        assert set(tcol.tokens) == {"a", "b"}
        assert tcol.codes[0] == tcol.missing_code

    def test_all_missing_columns_have_empty_domain(self):
        tokens = HoloCleanDetector().tokenize(_adversarial_frame())
        for name in ("allnone", "allnone_num"):
            assert tokens[name].tokens == []
            assert set(tokens[name].codes.tolist()) == {0}


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------


class TestScoringEquivalence:
    def test_score_matrix_matches_scalar_scores(self, random_values):
        frame = _random_frame(random_values, seed=11, n=64)
        tokens = HoloCleanDetector().tokenize(frame)
        model = CooccurrenceModel().fit(tokens)
        legacy = ref.reference_tokenize(frame)
        reference = ref.ReferenceCooccurrenceModel().fit(legacy)
        rng = np.random.default_rng(1)
        rows = rng.choice(frame.num_rows, 9, replace=False).tolist()
        for name in frame.column_names:
            tcol = tokens[name]
            if not tcol.tokens:
                continue
            matrix = model.score_matrix(name, rows)
            assert matrix.shape == (len(rows), len(tcol.tokens))
            for i, row in enumerate(rows):
                row_tokens = {n: legacy[n][row] for n in frame.column_names}
                for code, token in enumerate(tcol.tokens):
                    assert matrix[i, code] == reference.log_score(
                        name, token, row_tokens
                    )

    def test_disjoint_validity_pair_scores_pure_smoothing(self):
        # a and b are never observed together: every count is zero and
        # each term collapses to log(alpha / (alpha * domain_size)).
        frame = DataFrame.from_dict(
            {
                "a": ["x", "y", None, None],
                "b": [None, None, "u", "v"],
                "c": ["k1", "k2", "k1", "k2"],
            }
        )
        tokens = HoloCleanDetector().tokenize(frame)
        model = CooccurrenceModel().fit(tokens)
        legacy = ref.reference_tokenize(frame)
        reference = ref.ReferenceCooccurrenceModel().fit(legacy)
        matrix = model.score_matrix("a", [2, 3])
        for i, row in enumerate((2, 3)):
            observed = {n: legacy[n][row] for n in frame.column_names}
            for code, token in enumerate(tokens["a"].tokens):
                assert matrix[i, code] == reference.log_score(
                    "a", token, observed
                )


# ----------------------------------------------------------------------
# Detection and repair
# ----------------------------------------------------------------------


class TestDetectRepairEquivalence:
    def test_detect_matches_reference(self, random_values):
        context = DetectionContext()
        for frame in _frames(random_values):
            detector = HoloCleanDetector()
            noisy = detector.compile_signals(frame, context)
            cells, scores, metadata = detector._detect(frame, context)
            exp_cells, exp_scores, exp_meta = ref.reference_holoclean_detect(
                frame, noisy
            )
            assert cells == exp_cells
            assert scores == exp_scores
            assert metadata == exp_meta

    def test_repair_matches_reference(self, random_values):
        for index, frame in enumerate(_frames(random_values)):
            cells = _random_cells(frame, seed=index)
            result = HoloCleanRepairer().repair(frame, cells)
            exp_repairs, exp_patches = ref.reference_holoclean_repair(
                frame, cells
            )
            assert result.repairs == exp_repairs
            assert result.patches == exp_patches

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_chunked_repair_bit_identical(self, random_values, chunk):
        frame = _random_frame(random_values, seed=19, n=140)
        cells = _random_cells(frame, seed=4)
        mono = HoloCleanRepairer().repair(frame, cells)
        chunked = HoloCleanRepairer().repair(frame.to_chunked(chunk), cells)
        assert chunked.repairs == mono.repairs
        assert chunked.patches == mono.patches

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_chunked_detect_bit_identical(self, random_values, chunk):
        frame = _random_frame(random_values, seed=21, n=140)
        context = DetectionContext()
        mono = HoloCleanDetector()._detect(frame, context)
        chunked = HoloCleanDetector()._detect(frame.to_chunked(chunk), context)
        assert mono == chunked

    def test_domain_sizes_metadata_reports_real_domains(self, random_values):
        from repro.repair import mask_cells

        base = _random_frame(random_values, seed=23, n=90)
        data = base.to_dict()
        data["allgone"] = [None] * base.num_rows
        frame = DataFrame.from_dict(data)
        cells = {(0, "s"), (3, "s"), (1, "f"), (2, "allgone")}
        result = HoloCleanRepairer().repair(frame, cells)
        sizes = result.metadata["domain_sizes"]
        assert set(sizes) == {"s", "f", "allgone"}
        assert sizes["allgone"] == 0
        masked_tokens = ref.reference_tokenize(mask_cells(frame, cells))
        reference = ref.ReferenceCooccurrenceModel().fit(masked_tokens)
        assert sizes["s"] == len(reference.domain("s")) > 0
        assert sizes["f"] == len(reference.domain("f")) > 0


# ----------------------------------------------------------------------
# ML imputer
# ----------------------------------------------------------------------


class TestMLImputerEquivalence:
    def test_ml_impute_matches_reference(self, random_values):
        for index, frame in enumerate(_frames(random_values)):
            cells = _random_cells(frame, seed=50 + index, fraction=0.04)
            result = MLImputer().repair(frame, cells)
            exp_repairs, exp_patches, exp_models = ref.reference_ml_impute(
                frame, cells
            )
            assert result.repairs == exp_repairs
            assert result.patches == exp_patches
            assert result.metadata["models"] == exp_models

    def test_parallel_fits_bit_identical(self, random_values):
        frame = _random_frame(random_values, seed=31, n=200)
        cells = _random_cells(frame, seed=6)
        serial = MLImputer().repair(frame, cells)
        parallel = MLImputer(n_jobs=4).repair(frame, cells)
        assert parallel.repairs == serial.repairs
        assert parallel.patches == serial.patches
        assert parallel.metadata["models"] == serial.metadata["models"]

    def test_fallback_mean_matches_python_sum(self):
        rng = np.random.default_rng(3)
        values = [float(v) for v in rng.normal(0.0, 1e6, 501)]
        values[7] = None
        column = DataFrame.from_dict({"x": values}).column("x")
        expected = float(
            sum(float(v) for v in column.non_missing())
            / len(column.non_missing())
        )
        assert MLImputer._fallback(column) == expected

    def test_fallback_int_column_rounding_path(self):
        # int targets with too few train rows: the fallback is the float
        # mean (historical behaviour — no rounding on this path), while
        # model-backed int repairs round. Both are pinned here.
        frame = DataFrame.from_dict({"x": [1, 2, None], "y": [1, 2, 3]})
        result = MLImputer(min_train_rows=10).repair(frame, {(2, "x")})
        assert result.metadata["models"]["x"] == "fallback_constant"
        assert result.repairs[(2, "x")] == pytest.approx(1.5)
        big = DataFrame.from_dict(
            {"x": list(range(30)), "y": [3 * v for v in range(30)]}
        )
        repaired = MLImputer().repair(big, {(4, "y")})
        assert isinstance(repaired.repairs[(4, "y")], int)
        assert repaired.repairs[(4, "y")] == ref.reference_ml_impute(
            big, {(4, "y")}
        )[0][(4, "y")]

    def test_fallback_bigint_column(self):
        frame = DataFrame.from_dict({"x": [10**25, 10**25 + 2, None]})
        column = frame.column("x")
        expected = float(
            sum(float(v) for v in column.non_missing()) / 2
        )
        assert MLImputer._fallback(column) == expected


# ----------------------------------------------------------------------
# Artifact-cache contract: one co-occurrence fit per detect→repair cycle
# ----------------------------------------------------------------------


def _null_error_frame() -> DataFrame:
    """Categorical frame whose only noisy cells are nulls.

    Repair masks cells that are already missing, so the masked frame is
    content-identical to the detected frame — the scenario where the
    fingerprint-keyed model must be fitted exactly once.
    """
    n = 60
    city = [f"city{i % 6}" for i in range(n)]
    country = [f"country{(i % 6) // 2}" for i in range(n)]
    kind = [f"kind{i % 3}" for i in range(n)]
    for i in (4, 17, 33, 50):
        city[i] = None
    for i in (9, 21):
        country[i] = None
    return DataFrame.from_dict({"city": city, "country": country, "kind": kind})


class TestCacheContract:
    @pytest.mark.parametrize("chunk", (None,) + CHUNK_SIZES)
    @pytest.mark.parametrize("enabled", (True, False))
    def test_detect_then_repair_fits_model_once(
        self, monkeypatch, chunk, enabled
    ):
        frame = _null_error_frame()
        if chunk is not None:
            frame = frame.to_chunked(chunk)
        store = ArtifactStore(enabled=enabled)
        fits: list[int] = []
        original_fit = CooccurrenceModel.fit

        def counting_fit(self, tokens):
            fits.append(1)
            return original_fit(self, tokens)

        monkeypatch.setattr(CooccurrenceModel, "fit", counting_fit)
        detector = HoloCleanDetector()
        context = DetectionContext(artifact_store=store)
        detection = detector.detect(frame, context)
        assert detection.cells == frame.missing_cells()
        result = HoloCleanRepairer().repair(frame, detection.cells, store=store)
        if enabled:
            assert len(fits) == 1, "repair must reuse the detector's model"
            model_stats = store.stats()["by_kind"]["repair:cooccurrence"]
            assert model_stats["puts"] == 1
            assert model_stats["hits"] == 1
            token_stats = store.stats()["by_kind"]["repair:tokens"]
            assert token_stats["puts"] == frame.num_columns
            assert token_stats["hits"] == frame.num_columns
        else:
            assert len(fits) == 2, "disabled store runs the cold path"
        plain = HoloCleanRepairer().repair(frame, detection.cells)
        assert result.repairs == plain.repairs
        assert result.patches == plain.patches

    def test_patched_columns_refit_but_reuse_untouched_tokens(self):
        frame = _null_error_frame()
        store = ArtifactStore(enabled=True)
        detector = HoloCleanDetector()
        context = DetectionContext(artifact_store=store)
        detection = detector.detect(frame, context)
        repaired = (
            HoloCleanRepairer()
            .repair(frame, detection.cells, store=store)
            .apply_to(frame)
        )
        before = store.stats()["by_kind"]["repair:tokens"]["misses"]
        detector.detect(repaired, context)  # re-detect on changed content
        token_misses = (
            store.stats()["by_kind"]["repair:tokens"]["misses"] - before
        )
        # only the two repaired columns re-tokenize; "kind" hits.
        assert token_misses == 2
        model_stats = store.stats()["by_kind"]["repair:cooccurrence"]
        assert model_stats["puts"] == 2  # one per distinct frame content

    def test_cached_repair_bit_identical_to_cold(self, random_values):
        frame = _random_frame(random_values, seed=41, n=120)
        cells = _random_cells(frame, seed=8)
        cold = HoloCleanRepairer().repair(frame, cells)
        store = ArtifactStore(enabled=True)
        warm_first = HoloCleanRepairer().repair(frame, cells, store=store)
        warm_second = HoloCleanRepairer().repair(frame, cells, store=store)
        assert warm_first.repairs == cold.repairs
        assert warm_second.repairs == cold.repairs
        assert warm_second.patches == cold.patches
