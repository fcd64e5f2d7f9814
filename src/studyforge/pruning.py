"""Median-rule pruner over intermediate learning curves.

A running trial is pruned at step t when its reported value there is
strictly worse than the median of the values that already-completed
trials reported at the same step. Warmup steps and a minimum number of
completed peers gate the rule so early noise cannot kill trials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StateError, ValidationError
from .study import MAXIMIZE, Study, TrialState


@dataclass(frozen=True)
class PrunerConfig:
    warmup_steps: int = 2
    min_completed: int = 3

    def __post_init__(self):
        if self.warmup_steps < 0:
            raise ValidationError("warmup_steps must be >= 0")
        if self.min_completed < 1:
            raise ValidationError("min_completed must be >= 1")


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def should_prune(
    study: Study,
    trial_id: int,
    step: int,
    cfg: PrunerConfig = PrunerConfig(),
) -> bool:
    """Decide whether the running trial should stop at this step.

    False during warmup or while fewer than min_completed completed trials
    reported at the step; otherwise true iff the trial's value is strictly
    worse than the completed trials' median there (equal survives).
    """
    if not 0 <= trial_id < len(study.trials):
        raise StateError(f"unknown trial id {trial_id}")
    trial = study.trials[trial_id]
    if trial.state is not TrialState.RUNNING:
        raise StateError(f"trial {trial_id} is not running")
    value = dict(trial.intermediates).get(step)
    if value is None:
        raise StateError(f"trial {trial_id} has no intermediate at step {step}")

    if step < cfg.warmup_steps:
        return False
    peer_values = study.peers.get(step, [])
    if len(peer_values) < cfg.min_completed:
        return False
    med = _median(peer_values)
    return value < med if study.direction == MAXIMIZE else value > med
