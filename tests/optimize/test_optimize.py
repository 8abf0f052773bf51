"""Optimizer tests: distributions, samplers, and the study loop."""

import numpy as np
import pytest

from repro.optimize import (
    COMPLETE,
    Categorical,
    FAILED,
    FloatUniform,
    GridSampler,
    IntUniform,
    MAXIMIZE,
    MINIMIZE,
    RandomSampler,
    Study,
    TPESampler,
    TrialPruned,
    grid_points,
)


class TestDistributions:
    def test_categorical(self):
        dist = Categorical(("a", "b"))
        rng = np.random.default_rng(0)
        assert dist.sample(rng) in ("a", "b")
        assert dist.contains("a")
        assert not dist.contains("z")

    def test_categorical_empty_rejected(self):
        with pytest.raises(ValueError):
            Categorical(())

    def test_int_uniform_step(self):
        dist = IntUniform(0, 10, step=5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert dist.sample(rng) in (0, 5, 10)
        assert dist.contains(5)
        assert not dist.contains(3)

    def test_float_uniform_bounds(self):
        dist = FloatUniform(1.0, 2.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert 1.0 <= dist.sample(rng) <= 2.0

    def test_log_float(self):
        dist = FloatUniform(0.001, 1000.0, log=True)
        rng = np.random.default_rng(0)
        samples = [dist.sample(rng) for _ in range(200)]
        assert min(samples) < 0.1
        assert max(samples) > 10.0

    def test_log_requires_positive(self):
        with pytest.raises(ValueError):
            FloatUniform(0.0, 1.0, log=True)

    def test_grid_points(self):
        assert grid_points(Categorical(("a", "b"))) == ["a", "b"]
        assert grid_points(IntUniform(1, 3)) == [1, 2, 3]
        assert len(grid_points(FloatUniform(0.0, 1.0), resolution=5)) == 5


class TestStudy:
    def test_minimize_quadratic(self):
        study = Study(MINIMIZE, sampler=RandomSampler(), seed=0)
        study.optimize(
            lambda t: (t.suggest_float("x", -5.0, 5.0) - 2.0) ** 2, 60
        )
        assert study.best_value < 0.5
        assert abs(study.best_params["x"] - 2.0) < 1.0

    def test_maximize(self):
        study = Study(MAXIMIZE, sampler=RandomSampler(), seed=0)
        study.optimize(lambda t: t.suggest_float("x", 0.0, 1.0), 40)
        assert study.best_value > 0.9

    def test_best_history_monotone(self):
        study = Study(MINIMIZE, sampler=RandomSampler(), seed=1)
        study.optimize(lambda t: t.suggest_float("x", 0.0, 1.0), 25)
        history = study.best_value_history()
        assert len(history) == 25
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_failed_trials_caught(self):
        study = Study(MINIMIZE, sampler=RandomSampler(), seed=0)

        def objective(trial):
            x = trial.suggest_float("x", 0.0, 1.0)
            if x < 0.5:
                raise RuntimeError("boom")
            return x

        study.optimize(objective, 30, catch_exceptions=True)
        states = {t.state for t in study.trials}
        assert FAILED in states
        assert COMPLETE in states
        assert study.best_value >= 0.5

    def test_uncaught_exception_propagates(self):
        study = Study(MINIMIZE, seed=0)
        with pytest.raises(ZeroDivisionError):
            study.optimize(lambda t: 1 / 0, 1)

    def test_pruned_trials(self):
        study = Study(MINIMIZE, sampler=RandomSampler(), seed=0)

        def objective(trial):
            x = trial.suggest_float("x", 0.0, 1.0)
            if x > 0.2:
                raise TrialPruned()
            return x

        study.optimize(objective, 30, catch_exceptions=False)
        assert study.best_value <= 0.2

    def test_no_complete_trials_raises(self):
        study = Study(MINIMIZE, seed=0)
        with pytest.raises(RuntimeError):
            _ = study.best_trial

    def test_user_attrs_recorded(self):
        study = Study(MINIMIZE, seed=0)

        def objective(trial):
            trial.set_user_attr("note", "hello")
            return trial.suggest_float("x", 0.0, 1.0)

        study.optimize(objective, 2)
        assert study.trials[0].user_attrs["note"] == "hello"

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            Study(direction="sideways")


class TestTPE:
    def _objective(self, trial):
        x = trial.suggest_float("x", -4.0, 4.0)
        kind = trial.suggest_categorical("kind", ["shift", "plain"])
        penalty = 3.0 if kind == "shift" else 0.0
        return (x - 1.0) ** 2 + penalty

    def test_tpe_beats_random_on_average(self):
        tpe_scores, random_scores = [], []
        for seed in range(5):
            tpe = Study(
                MINIMIZE, sampler=TPESampler(n_startup_trials=5), seed=seed
            )
            tpe.optimize(self._objective, 30)
            tpe_scores.append(tpe.best_value)
            rand = Study(MINIMIZE, sampler=RandomSampler(), seed=seed)
            rand.optimize(self._objective, 30)
            random_scores.append(rand.best_value)
        assert np.mean(tpe_scores) <= np.mean(random_scores) + 0.05

    def test_tpe_concentrates_categorical(self):
        study = Study(
            MINIMIZE, sampler=TPESampler(n_startup_trials=5), seed=3
        )
        study.optimize(self._objective, 40)
        choices = [t.params["kind"] for t in study.trials[20:]]
        assert choices.count("plain") > choices.count("shift")

    def test_int_snapping(self):
        study = Study(
            MINIMIZE, sampler=TPESampler(n_startup_trials=4), seed=0
        )
        study.optimize(
            lambda t: abs(t.suggest_int("n", 0, 20, step=5) - 10), 25
        )
        assert all(t.params["n"] % 5 == 0 for t in study.trials)
        assert study.best_value == 0.0


class TestGridSampler:
    def test_grid_covers_product(self):
        study = Study(
            MINIMIZE, sampler=GridSampler(resolution=3), seed=0
        )

        def objective(trial):
            x = trial.suggest_int("x", 1, 3)
            y = trial.suggest_categorical("y", ["a", "b"])
            return x + (0.0 if y == "a" else 0.5)

        study.optimize(objective, 8)
        seen = {(t.params["x"], t.params["y"]) for t in study.trials[1:]}
        assert len(seen) >= 5
        assert study.best_value == pytest.approx(1.0)
