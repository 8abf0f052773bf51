"""Trials: the unit of evaluation in a study."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .distributions import Categorical, Distribution, FloatUniform, IntUniform

RUNNING = "running"
COMPLETE = "complete"
FAILED = "failed"
PRUNED = "pruned"


class TrialPruned(Exception):
    """Raised inside an objective to abandon the current trial."""


@dataclass
class FrozenTrial:
    """Immutable record of a finished trial."""

    number: int
    params: dict[str, Any]
    distributions: dict[str, Distribution]
    value: float | None
    state: str
    user_attrs: dict[str, Any] = field(default_factory=dict)
    duration_seconds: float = 0.0


class Trial:
    """Live trial handle: the objective calls ``suggest_*`` on it.

    A sampler can pre-seed parameter values; anything not pre-seeded is
    sampled from its distribution on first request.
    """

    def __init__(
        self,
        number: int,
        rng: np.random.Generator,
        seeded_params: dict[str, Any] | None = None,
    ) -> None:
        self.number = number
        self.params: dict[str, Any] = {}
        self.distributions: dict[str, Distribution] = {}
        self.user_attrs: dict[str, Any] = {}
        self._rng = rng
        self._seeded = dict(seeded_params or {})
        self._intermediate: dict[int, float] = {}

    # ------------------------------------------------------------------
    def _suggest(self, name: str, distribution: Distribution) -> Any:
        if name in self.params:
            return self.params[name]
        if name in self._seeded and distribution.contains(self._seeded[name]):
            value = self._seeded[name]
        else:
            value = distribution.sample(self._rng)
        self.params[name] = value
        self.distributions[name] = distribution
        return value

    def suggest_categorical(self, name: str, choices: list[Any]) -> Any:
        return self._suggest(name, Categorical(tuple(choices)))

    def suggest_int(self, name: str, low: int, high: int, step: int = 1) -> int:
        return int(self._suggest(name, IntUniform(low, high, step)))

    def suggest_float(
        self, name: str, low: float, high: float, log: bool = False
    ) -> float:
        return float(self._suggest(name, FloatUniform(low, high, log)))

    # ------------------------------------------------------------------
    def set_user_attr(self, key: str, value: Any) -> None:
        self.user_attrs[key] = value

    def report(self, value: float, step: int) -> None:
        """Record an intermediate value (used by pruners)."""
        self._intermediate[step] = float(value)
