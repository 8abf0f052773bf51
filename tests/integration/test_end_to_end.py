"""Full-pipeline integration tests spanning every subsystem."""

from repro.core import DataLens, DataSheet, SimulatedUser
from repro.ingestion import make_dirty
from repro.ml import detection_scores


class TestFullPipeline:
    def test_ingest_profile_detect_repair_datasheet(self, tmp_path, nasa_dirty):
        lens = DataLens(tmp_path / "ws", seed=0)
        session = lens.ingest_preloaded("nasa")  # clean preloaded variant
        session = lens.ingest_frame("nasa_dirty", nasa_dirty.dirty)

        report = session.profile()
        assert report.overview["missing_cells"] > 0

        cells = session.run_detection(["iqr", "sd", "mv_detector", "fahes"])
        scores = detection_scores(cells, nasa_dirty.mask)
        assert scores["f1"] > 0.7  # consolidated union is strong on NASA

        repaired = session.run_repair("ml_imputer")
        assert repaired.missing_count() == 0

        sheet_path = session.save_datasheet()
        sheet = DataSheet.load(sheet_path)
        assert sheet.replay(nasa_dirty.dirty) == repaired

        # Tracking recorded both phases.
        assert lens.tracking.search_runs("Detection")
        assert lens.tracking.search_runs("Repair")
        # Delta holds upload + repair.
        assert len(session.delta.history()) == 2

    def test_repair_improves_downstream_model(self, tmp_path, nasa_dirty):
        """The paper's core claim: cleaning helps the downstream model."""
        from repro.core import DownstreamScorer

        lens = DataLens(tmp_path / "ws", seed=0)
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        session.run_detection(["union_broad"])
        repaired = session.run_repair("ml_imputer")

        scorer = DownstreamScorer(
            "regression",
            "Sound Pressure",
            reference=nasa_dirty.clean,
            seed=0,
        )
        dirty_mse = scorer.score(nasa_dirty.dirty)
        repaired_mse = scorer.score(repaired)
        clean_mse = scorer.score(nasa_dirty.clean)
        assert repaired_mse < dirty_mse
        assert repaired_mse < 3.0 * clean_mse

    def test_user_in_the_loop_improves_raha(self, tmp_path):
        bundle = make_dirty(
            "nasa",
            seed=12,
            overrides=dict(
                missing_rate=0.0075,
                outlier_rate=0.0075,
                disguised_rate=0.0075,
                subtle_rate=0.06,
            ),
        )
        lens = DataLens(tmp_path / "ws", seed=0)
        session = lens.ingest_frame("nasa", bundle.dirty)
        low = session.run_labeling_session(
            SimulatedUser(bundle.mask), budget=4, clusters_per_column=6
        )
        session_high = lens.ingest_frame("nasa2", bundle.dirty)
        high = session_high.run_labeling_session(
            SimulatedUser(bundle.mask), budget=20, clusters_per_column=6
        )
        low_f1 = detection_scores(low.detection.cells, bundle.mask)["f1"]
        high_f1 = detection_scores(high.detection.cells, bundle.mask)["f1"]
        assert high_f1 >= low_f1 - 0.05

    def test_hospital_rule_pipeline(self, tmp_path, hospital_dirty):
        lens = DataLens(tmp_path / "ws", seed=0)
        session = lens.ingest_frame("hospital", hospital_dirty.dirty)
        rules = session.discover_rules(algorithm="approximate", max_lhs_size=1)
        assert rules
        for rule in rules:
            session.confirm_rule(rule)
        cells = session.run_detection(["nadeef", "katara", "mv_detector"])
        scores = detection_scores(cells, hospital_dirty.mask)
        assert scores["recall"] > 0.3
        repaired = session.run_repair("holoclean_repair")
        assert repaired.shape == hospital_dirty.dirty.shape

    def test_rest_api_drives_full_pipeline(self, tmp_path, nasa_dirty):
        from repro.api import TestClient, create_app

        lens = DataLens(tmp_path / "ws", seed=0)
        lens.ingest_frame("nasa", nasa_dirty.dirty)
        client = TestClient(create_app(lens))
        assert client.get("/datasets/nasa/profile").status == 200
        detect = client.post(
            "/datasets/nasa/detect", {"tools": ["union_broad"]}
        )
        assert detect.body["num_cells"] > 0
        repair = client.post("/datasets/nasa/repair", {"tool": "ml_imputer"})
        assert repair.status == 200
        sheet = client.get("/datasets/nasa/datasheet")
        assert sheet.body["repair"]["tools"][0]["name"] == "ml_imputer"

    def test_iterative_cleaning_approaches_ground_truth(self, tmp_path, nasa_dirty):
        lens = DataLens(tmp_path / "ws", seed=0)
        session = lens.ingest_frame("nasa", nasa_dirty.dirty)
        result = session.iterative_clean(
            "regression",
            "Sound Pressure",
            n_iterations=8,
            reference=nasa_dirty.clean,
            detector_choices=["iqr", "mv_detector", "union_broad", "min_k2"],
            repairer_choices=["standard_imputer", "ml_imputer"],
        )
        assert result.best_score < result.baseline_dirty
        gap_dirty = result.baseline_dirty - result.baseline_clean
        gap_best = result.best_score - result.baseline_clean
        assert gap_best < 0.5 * gap_dirty  # closes most of the gap
