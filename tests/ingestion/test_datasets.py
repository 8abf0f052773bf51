"""Preloaded dataset generator tests."""

import pytest

from repro.ingestion import (
    NASA_COLUMNS,
    PRELOADED,
    adult,
    beers,
    dataset_task,
    hospital,
    load_clean,
    nasa,
)


class TestNASA:
    def test_shape_and_schema(self):
        frame = nasa()
        assert frame.shape == (1503, 6)
        assert frame.column_names == NASA_COLUMNS

    def test_deterministic(self):
        assert nasa(seed=7) == nasa(seed=7)

    def test_value_ranges(self):
        frame = nasa()
        freq = frame.column("Frequency").to_numpy()
        assert freq.min() >= 200.0
        assert freq.max() <= 20000.0
        velocity_levels = set(frame.column("Velocity").values())
        assert velocity_levels <= {31.7, 39.6, 55.5, 71.3}

    def test_no_missing(self):
        assert nasa().missing_count() == 0

    def test_target_is_learnable(self):
        """A decision tree must beat the mean predictor comfortably."""
        import numpy as np

        from repro.ml import (
            DecisionTreeRegressor,
            FrameEncoder,
            mean_squared_error,
            train_test_split_indices,
        )

        frame = nasa()
        features = FrameEncoder(NASA_COLUMNS[:-1]).fit_transform(frame)
        target = [float(v) for v in frame.column("Sound Pressure")]
        train, test = train_test_split_indices(len(target), 0.25, seed=0)
        model = DecisionTreeRegressor(max_depth=12, min_samples_leaf=3)
        model.fit(features[train], [target[i] for i in train])
        predictions = model.predict(features[test])
        truth = [target[i] for i in test]
        mse = mean_squared_error(truth, predictions)
        variance = float(np.var(truth))
        assert mse < 0.3 * variance


class TestBeers:
    def test_shape(self):
        assert beers().shape == (2410, 7)

    def test_styles_form_classes(self):
        frame = beers()
        styles = set(frame.column("style").values())
        assert 4 <= len(styles) <= 6

    def test_abv_positive(self):
        assert min(beers().column("abv").non_missing()) > 0

    def test_smaller_generation(self):
        assert beers(n_rows=100).num_rows == 100


class TestHospital:
    def test_fds_hold_exactly(self):
        from repro.fd import FunctionalDependency

        frame = hospital(400)
        assert not FunctionalDependency(("ZipCode",), "City").violations(frame)
        assert not FunctionalDependency(("ZipCode",), "State").violations(frame)
        assert not FunctionalDependency(("ProviderNumber",), "HospitalName").violations(
            frame
        )

    def test_shape(self):
        assert hospital().shape == (1000, 9)


class TestAdult:
    def test_binary_target(self):
        frame = adult()
        assert set(frame.column("income").values()) == {"<=50K", ">50K"}

    def test_education_consistency(self):
        from repro.fd import FunctionalDependency

        assert not FunctionalDependency(("education",), "education_num").violations(
            adult()
        )


class TestRegistry:
    def test_every_entry_loads(self):
        for name in PRELOADED:
            frame = load_clean(name)
            assert frame.num_rows > 0

    def test_task_lookup(self):
        assert dataset_task("nasa") == ("regression", "Sound Pressure")
        assert dataset_task("beers") == ("classification", "style")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_clean("mnist")
        with pytest.raises(KeyError):
            dataset_task("mnist")
