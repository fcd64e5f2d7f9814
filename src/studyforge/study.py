"""Study/trial data model and the ask-tell lifecycle.

A study owns an ordered list of trials over a fixed search space and
optimization direction. Samplers propose parameter assignments (ask),
objectives report intermediate values, and outcomes are recorded exactly
once (tell). A tell keeps what later calls read current: the history
TPE learns from, the median pruner's peers and the best trial. All
randomness is derived from the study seed and the trial id, so replaying
the same call sequence reproduces the study bit for bit.
"""

from __future__ import annotations

import bisect
import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from .errors import OrderingError, StateError, ValidationError

MAXIMIZE = "maximize"
MINIMIZE = "minimize"
DIRECTIONS = (MAXIMIZE, MINIMIZE)

# Distribution kinds
UNIFORM = "uniform-float"
LOG_UNIFORM = "log-uniform-float"
INT_CATEGORICAL = "int-categorical"
CHOICE = "choice"
BOOLEAN = "boolean"

_CONTINUOUS_KINDS = (UNIFORM, LOG_UNIFORM)
_DISCRETE_KINDS = (INT_CATEGORICAL, CHOICE, BOOLEAN)


@dataclass(frozen=True)
class Distribution:
    """One hyperparameter's search domain.

    Continuous kinds use [low, high] inclusive bounds, which are numbers
    and not bools; discrete kinds use
    an ordered, duplicate-free tuple of choices. Booleans are the fixed
    two-element choice (False, True).
    """

    kind: str
    low: float = 0.0
    high: float = 0.0
    choices: tuple = ()

    def __post_init__(self):
        if self.kind not in _CONTINUOUS_KINDS + _DISCRETE_KINDS:
            raise ValidationError(f"unknown distribution kind {self.kind!r}")
        if self.kind in _CONTINUOUS_KINDS:
            for bound in (self.low, self.high):
                if isinstance(bound, bool) or not isinstance(bound, numbers.Real):
                    raise ValidationError(f"bounds must be numbers, got {bound!r}")
            if not (math.isfinite(self.low) and math.isfinite(self.high)):
                raise ValidationError("bounds must be finite")
            if not self.low < self.high:
                raise ValidationError(
                    f"low must be < high, got [{self.low}, {self.high}]"
                )
            if self.kind == LOG_UNIFORM and self.low <= 0:
                raise ValidationError("log-uniform requires low > 0")
        elif self.kind == BOOLEAN:
            object.__setattr__(self, "choices", (False, True))
        else:
            if not self.choices:
                raise ValidationError("discrete distribution needs choices")
            if len(set(self.choices)) != len(self.choices):
                raise ValidationError("choices must be duplicate-free")
            if self.kind == INT_CATEGORICAL and not all(
                isinstance(c, int) and not isinstance(c, bool) for c in self.choices
            ):
                raise ValidationError("int-categorical choices must be integers")

    @property
    def is_discrete(self) -> bool:
        return self.kind in _DISCRETE_KINDS

    @property
    def is_log(self) -> bool:
        return self.kind == LOG_UNIFORM

    def contains(self, value) -> bool:
        """Whether value is one of the choices, or an int or float (not a
        bool) inside the bounds, which are finite; types compare exactly."""
        if self.kind in _DISCRETE_KINDS:
            return any(value == c and type(value) is type(c) for c in self.choices)
        return type(value) in (int, float) and self.low <= value <= self.high


def uniform(low: float, high: float) -> Distribution:
    return Distribution(UNIFORM, low=low, high=high)


def log_uniform(low: float, high: float) -> Distribution:
    return Distribution(LOG_UNIFORM, low=low, high=high)


def int_categorical(choices: Iterable[int]) -> Distribution:
    return Distribution(INT_CATEGORICAL, choices=tuple(choices))


def choice(choices: Iterable[str]) -> Distribution:
    return Distribution(CHOICE, choices=tuple(choices))


def boolean() -> Distribution:
    return Distribution(BOOLEAN)


class SearchSpace:
    """Ordered map of parameter name -> Distribution."""

    def __init__(self, entries: dict[str, Distribution]):
        if not entries:
            raise ValidationError("search space must not be empty")
        for name, dist in entries.items():
            if not isinstance(name, str) or not name:
                raise ValidationError(f"invalid parameter name {name!r}")
            if not isinstance(dist, Distribution):
                raise ValidationError(f"parameter {name!r}: not a Distribution")
        self.entries: dict[str, Distribution] = dict(entries)

    @property
    def names(self) -> list[str]:
        return list(self.entries)

    def __getitem__(self, name: str) -> Distribution:
        return self.entries[name]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, SearchSpace) and self.entries == other.entries

    def validate_assignment(self, params: dict[str, Any]) -> None:
        """Check that params is a dict naming every entry exactly once,
        each value in its domain. `Study.start` opens a trial by it."""
        if not isinstance(params, dict) or params.keys() != self.entries.keys():
            names = params.keys() if isinstance(params, dict) else set()
            raise ValidationError(
                f"assignment mismatch (missing={sorted(self.entries.keys() - names)}, "
                f"extra={sorted(names - self.entries.keys())})"
            )
        for name, dist in self.entries.items():
            if not dist.contains(params[name]):
                raise ValidationError(
                    f"parameter {name!r}: value {params[name]!r} outside domain"
                )

    def to_dict(self) -> dict:
        out = {}
        for name, d in self.entries.items():
            if d.kind == BOOLEAN:
                out[name] = {"kind": d.kind}
            elif d.is_discrete:
                out[name] = {"kind": d.kind, "choices": list(d.choices)}
            else:
                out[name] = {"kind": d.kind, "low": d.low, "high": d.high}
        return out


class TrialState(str, enum.Enum):
    RUNNING = "running"
    COMPLETE = "complete"
    PRUNED = "pruned"
    FAILED = "failed"


RUNNING, COMPLETE = TrialState.RUNNING, TrialState.COMPLETE  # an enum lookup costs ~0.1 us


@dataclass
class TrialRecord:
    trial_id: int
    params: dict[str, Any]
    state: TrialState = TrialState.RUNNING
    final_value: float | None = None
    intermediates: list[tuple[int, float]] = field(default_factory=list)
    metrics: dict | None = None


class Observations(list):
    """The history TPE learns from, kept current by `Study.tell`.

    (params, value) pairs in trial order, even when tells come out of order:
    complete trials at their final value, pruned trials at their last
    intermediate; failed and running trials carry nothing. ``values`` and
    one ``column(name)`` per parameter hold the same history as arrays (a
    discrete parameter as its `_encode` index), and ``log_column(name)``
    holds a log-uniform parameter's ``math.log``, taken once per pair. They
    take in new pairs when next read, so a replay that never asks never
    builds them.
    """

    def __init__(self, space: SearchSpace):
        super().__init__()
        self.n_complete = 0
        self._rows = {name: j for j, name in enumerate(space.names, 1)}
        # each parameter's name, and its choices when it is discrete
        self._encoding = [
            (name, d.choices if d.is_discrete else None) for name, d in space.entries.items()
        ]
        # the log-uniform parameters' logs, in the rows after the parameters'
        logs = [name for name, d in space.entries.items() if d.is_log]
        self._log_rows = {name: j for j, name in enumerate(logs, len(space) + 1)}
        self._ids: list[int] = []
        # row 0 the values, row j the j-th parameter, then the logs; one
        # column per pair, of which the first _encoded are up to date
        self._table = np.empty((len(space) + len(logs) + 1, 0))
        self._encoded = 0

    @property
    def values(self) -> np.ndarray:
        return self._current()[0]

    def column(self, name: str) -> np.ndarray:
        return self._current()[self._rows[name]]

    def log_column(self, name: str) -> np.ndarray:
        return self._current()[self._log_rows[name]]

    def trial_ids(self, positions: Iterable[int]) -> tuple[int, ...]:
        """The trial ids of the pairs at these positions."""
        return tuple(self._ids[i] for i in positions)

    def add(self, trial: TrialRecord, value: float, complete: bool) -> None:
        i = bisect.bisect(self._ids, trial.trial_id)
        self._ids.insert(i, trial.trial_id)
        self.insert(i, (trial.params, value))
        if i < self._encoded:
            self._encoded = i
        self.n_complete += complete

    def _current(self) -> np.ndarray:
        n, done = len(self), self._encoded
        if done < n:
            if n > self._table.shape[1]:
                grown = np.empty((len(self._table), 2 * n))
                grown[:, :done] = self._table[:, :done]
                self._table = grown
            rows = [
                [value, *(_encode(params[name], choices) for name, choices in self._encoding)]
                + [math.log(params[name]) for name in self._log_rows]
                for params, value in self[done:]
            ]
            self._table[:, done:n] = np.array(rows, dtype=float).T
            self._encoded = n
        return self._table[:, :n]


def _encode(value, choices: tuple | None):
    """A continuous value as itself, a discrete one as the index of its
    choice: the value is in the space, and no two choices compare equal."""
    return value if choices is None else choices.index(value)


def check_seed(seed) -> None:
    if type(seed) is not int or seed < 0 or seed >= 2**64:
        raise ValidationError("seed must be a 64-bit unsigned integer", key="seed")


class Study:
    """One optimization campaign; single-writer, sequential trial ids."""

    def __init__(self, space: SearchSpace, direction: str, seed: int):
        if direction not in DIRECTIONS:
            raise ValidationError(f"direction must be one of {DIRECTIONS}")
        check_seed(seed)
        self.space = space
        self.direction = direction
        self.seed = seed
        self.trials: list[TrialRecord] = []
        self.observations = Observations(space)
        # step -> values complete trials reported there: the median pruner's peers
        self.peers: dict[int, list[float]] = {}
        # the best complete trial per direction, ties to the lowest id
        self.best: TrialRecord | None = None

    # rng streams: (seed, trial_id, lane) so sampling and objective draws
    # never share a stream and replay is exact regardless of interleaving.
    def rng_for(self, trial_id: int, lane: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, trial_id, lane])

    def _get_running(self, trial_id: int) -> TrialRecord:
        if type(trial_id) is not int or not 0 <= trial_id < len(self.trials):
            raise StateError(f"unknown trial id {trial_id!r}")
        trial = self.trials[trial_id]
        if trial.state is not RUNNING:
            raise StateError(
                f"trial {trial_id} is {trial.state.value}, expected running"
            )
        return trial

    def ask(self, sampler) -> TrialRecord:
        # a sampler that draws builds the new trial's lane-0 stream itself
        return self.start(sampler.suggest(self))

    def start(self, params: dict[str, Any]) -> TrialRecord:
        """Open the next trial at ``params``: what `ask` and a trial-start do."""
        self.space.validate_assignment(params)
        trial = TrialRecord(trial_id=len(self.trials), params=params)
        self.trials.append(trial)
        return trial

    def tell(
        self,
        trial_id: int,
        value: float | None = None,
        state: TrialState | None = None,
    ) -> TrialRecord:
        """Record the trial outcome: a final value, or pruned/failed."""
        trial = self._get_running(trial_id)
        if value is not None:
            if state is not None and state is not COMPLETE:
                raise StateError("value given but state is not complete")
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
            ):
                raise ValidationError(f"final value must be finite, got {value!r}")
            trial.state = COMPLETE
            trial.final_value = value = float(value)
            self.observations.add(trial, value, complete=True)
            for step, v in trial.intermediates:
                self.peers.setdefault(step, []).append(v)
            # rank by (value, trial_id), so the best is the same in any tell order
            sign = -1.0 if self.direction == MAXIMIZE else 1.0
            best = self.best
            if best is None or (sign * value, trial_id) < (sign * best.final_value, best.trial_id):
                self.best = trial
        elif state in (TrialState.PRUNED, TrialState.FAILED):
            trial.state = state
            if state is TrialState.PRUNED and trial.intermediates:
                self.observations.add(trial, trial.intermediates[-1][1], complete=False)
        else:
            raise StateError("tell needs a value or a pruned/failed state")
        return trial

    def report_intermediate(self, trial_id: int, step: int, value: float) -> None:
        trial = self._get_running(trial_id)
        if isinstance(step, bool) or not isinstance(step, int) or step < 0:
            raise ValidationError(f"step must be a non-negative integer, got {step!r}")
        if isinstance(value, bool) or not math.isfinite(value):
            raise ValidationError(f"intermediate value must be finite, got {value!r}")
        if trial.intermediates and step <= trial.intermediates[-1][0]:
            raise OrderingError(
                f"step {step} not greater than last step {trial.intermediates[-1][0]}"
            )
        trial.intermediates.append((step, float(value)))

    def completed_trials(self) -> list[TrialRecord]:
        return [t for t in self.trials if t.state is TrialState.COMPLETE]

    def best_trial(self) -> TrialRecord:
        """The best complete trial, which `tell` keeps as ``best``."""
        if self.best is None:
            raise StateError("study has no complete trials")
        return self.best


def create_study(space: SearchSpace, direction: str, seed: int) -> Study:
    return Study(space, direction, seed)


def is_improvement(direction: str, new: float, old: float | None) -> bool:
    """Strict improvement of `new` over `old` under the direction."""
    if old is None:
        return True
    return new > old if direction == MAXIMIZE else new < old


def meets_threshold(direction: str, value: float, threshold: float | None) -> bool:
    """Whether ``value`` is at or past ``threshold``; no threshold is never met."""
    if threshold is None:
        return False
    return value >= threshold if direction == MAXIMIZE else value <= threshold
