"""Study — the optimization loop driving iterative cleaning (§4)."""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from .samplers import Sampler, TPESampler
from .trial import COMPLETE, FAILED, PRUNED, FrozenTrial, Trial, TrialPruned

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

Objective = Callable[[Trial], float]


class Study:
    """Sequential optimization of an objective over suggested parameters."""

    def __init__(
        self,
        direction: str = MINIMIZE,
        sampler: Sampler | None = None,
        seed: int = 0,
    ) -> None:
        if direction not in (MINIMIZE, MAXIMIZE):
            raise ValueError("direction must be 'minimize' or 'maximize'")
        self.direction = direction
        self.sampler = sampler if sampler is not None else TPESampler()
        self.trials: list[FrozenTrial] = []
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def optimize(
        self,
        objective: Objective,
        n_trials: int,
        catch_exceptions: bool = False,
        callback: Callable[[FrozenTrial], None] | None = None,
    ) -> None:
        """Run ``n_trials`` sequential trials of the objective."""
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        for _ in range(n_trials):
            seeded = self.sampler.seed_params(
                self.trials, self.direction, self._rng
            )
            trial = Trial(len(self.trials), self._rng, seeded)
            start = time.perf_counter()
            state = COMPLETE
            value: float | None = None
            try:
                value = float(objective(trial))
            except TrialPruned:
                state = PRUNED
            except Exception:
                if not catch_exceptions:
                    raise
                state = FAILED
            frozen = FrozenTrial(
                number=trial.number,
                params=dict(trial.params),
                distributions=dict(trial.distributions),
                value=value,
                state=state,
                user_attrs=dict(trial.user_attrs),
                duration_seconds=time.perf_counter() - start,
            )
            self.trials.append(frozen)
            if callback is not None:
                callback(frozen)

    # ------------------------------------------------------------------
    def completed_trials(self) -> list[FrozenTrial]:
        return [t for t in self.trials if t.state == COMPLETE and t.value is not None]

    @property
    def best_trial(self) -> FrozenTrial:
        completed = self.completed_trials()
        if not completed:
            raise RuntimeError("no completed trials")
        if self.direction == MINIMIZE:
            return min(completed, key=lambda t: t.value)
        return max(completed, key=lambda t: t.value)

    @property
    def best_value(self) -> float:
        return float(self.best_trial.value)

    @property
    def best_params(self) -> dict[str, Any]:
        return dict(self.best_trial.params)

    def best_value_history(self) -> list[float]:
        """Running best value after each completed trial."""
        history: list[float] = []
        best: float | None = None
        for trial in self.trials:
            if trial.state == COMPLETE and trial.value is not None:
                if best is None:
                    best = trial.value
                elif self.direction == MINIMIZE:
                    best = min(best, trial.value)
                else:
                    best = max(best, trial.value)
            if best is not None:
                history.append(best)
        return history
