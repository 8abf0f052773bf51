"""Hyperparameter optimization (Optuna substitute): Study/Trial/TPE."""

from .bandit import BanditSampler
from .distributions import (
    Categorical,
    Distribution,
    FloatUniform,
    IntUniform,
    grid_points,
)
from .samplers import GridSampler, RandomSampler, Sampler, TPESampler
from .study import MAXIMIZE, MINIMIZE, Study
from .trial import (
    COMPLETE,
    FAILED,
    PRUNED,
    RUNNING,
    FrozenTrial,
    Trial,
    TrialPruned,
)

__all__ = [
    "BanditSampler",
    "COMPLETE",
    "Categorical",
    "Distribution",
    "FAILED",
    "FloatUniform",
    "FrozenTrial",
    "GridSampler",
    "IntUniform",
    "MAXIMIZE",
    "MINIMIZE",
    "PRUNED",
    "RUNNING",
    "RandomSampler",
    "Sampler",
    "Study",
    "TPESampler",
    "Trial",
    "TrialPruned",
    "grid_points",
]
