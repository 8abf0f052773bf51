"""HoloClean probabilistic detector tests."""

from repro.dataframe import DataFrame
from repro.detection import (
    CooccurrenceModel,
    DetectionContext,
    HoloCleanDetector,
)
from repro.ml import detection_scores


def _fitted(columns: dict):
    tokens = HoloCleanDetector().tokenize(DataFrame.from_dict(columns))
    return tokens, CooccurrenceModel().fit(tokens)


class TestCooccurrenceModel:
    def test_domain_collection(self):
        tokens, _ = _fitted({"a": ["x", "y", None], "b": ["1", "1", "2"]})
        assert set(tokens["a"].tokens) == {"x", "y"}
        assert set(tokens["b"].tokens) == {"1", "2"}
        assert tokens["a"].codes.tolist()[2] == tokens["a"].missing_code

    def test_cooccurring_value_scores_higher(self):
        tokens, model = _fitted(
            {
                "city": ["rome", "rome", "rome", "paris", "paris"],
                "country": ["it", "it", "it", "fr", "fr"],
            }
        )
        country = tokens["country"].tokens
        (scores,) = model.score_matrix("country", [0])  # row 0: rome, it
        assert scores[country.index("it")] > scores[country.index("fr")]


class TestHoloCleanDetector:
    def test_tokenize_bins_numerics(self):
        frame = DataFrame.from_dict({"x": [float(i) for i in range(40)]})
        tokens = HoloCleanDetector(n_bins=4).tokenize(frame)
        assert set(tokens["x"].tokens) <= {"bin0", "bin1", "bin2", "bin3"}

    def test_tokenize_missing(self):
        frame = DataFrame.from_dict({"x": [1.0, None]})
        tokens = HoloCleanDetector().tokenize(frame)
        assert tokens["x"].codes[1] == tokens["x"].missing_code

    def test_tokenize_emits_integer_codes(self):
        import numpy as np

        frame = DataFrame.from_dict(
            {"x": [1.0, 2.0, None, 1.0], "c": ["a", None, "b", "a"]}
        )
        tokens = HoloCleanDetector(n_bins=2).tokenize(frame)
        for name in ("x", "c"):
            tcol = tokens[name]
            assert tcol.codes.dtype == np.int64
            assert len(tcol.codes) == 4
            # missing rows carry the reserved code len(tokens)
            assert tcol.codes[tcol.codes == tcol.missing_code].size == 1
        assert tokens["c"].tokens == ["a", "b"]
        assert tokens["c"].codes.tolist() == [0, 2, 1, 0]

    def test_detects_contextual_error(self):
        # 'rome'/'fr' contradicts the dominant rome->it co-occurrence.
        rows = [("rome", "it")] * 30 + [("paris", "fr")] * 30 + [("rome", "fr")]
        frame = DataFrame.from_dict(
            {
                "city": [city for city, _ in rows],
                "country": [country for _, country in rows],
            }
        )
        from repro.fd import FunctionalDependency

        context = DetectionContext(
            rules=[FunctionalDependency(("city",), "country")]
        )
        result = HoloCleanDetector(posterior_margin=2.0).detect(frame, context)
        assert (60, "country") in result.cells

    def test_null_candidates_always_flagged(self):
        frame = DataFrame.from_dict({"x": [1.0, 2.0, None, 1.5, 2.5, 1.0, 2.0, 1.2]})
        result = HoloCleanDetector().detect(frame)
        assert (2, "x") in result.cells

    def test_hospital_precision(self, hospital_dirty):
        result = HoloCleanDetector().detect(hospital_dirty.dirty, DetectionContext())
        scores = detection_scores(result.cells, hospital_dirty.mask)
        assert scores["precision"] > 0.6
        assert scores["recall"] > 0.2

    def test_noisy_candidates_reported(self, hospital_dirty):
        result = HoloCleanDetector().detect(hospital_dirty.dirty)
        assert result.metadata["noisy_candidates"] >= len(result.cells)
