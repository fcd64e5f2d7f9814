"""The TPE history and the best trial that `Study.tell` keeps: whatever
order trials are told in, and also when a journal rebuilds the study,
`trial_observations` and `Study.best` must equal a scan of the trials in
trial order."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from studyforge.journal import (
    KIND_INTERMEDIATE,
    KIND_META,
    KIND_TRIAL_END,
    KIND_TRIAL_START,
    study_from_records,
)
from studyforge.samplers import suggest_random, tpe_suggest, trial_observations
from studyforge.study import (
    MAXIMIZE,
    MINIMIZE,
    SearchSpace,
    TrialState,
    boolean,
    choice,
    int_categorical,
    log_uniform,
    uniform,
)

from conftest import complete_trial, make_study, running_trial

SPACE = SearchSpace(
    {
        "x": uniform(-2.0, 3.0),
        "lr": log_uniform(1e-5, 1e-1),
        "batch": int_categorical([8, 16, 32, 64]),
        "act": choice(["relu", "tanh", "gelu"]),
        "flip": boolean(),
    }
)

# what a trial ends as: complete, pruned (its intermediates decide whether
# it carries a value), failed, or still running
OUTCOMES = ("complete", "pruned", "failed", "running")


def scan_observations(study):
    """Reference: one pass over the trials in trial order."""
    pairs, n_complete = [], 0
    for t in study.trials:
        if t.state is TrialState.COMPLETE:
            pairs.append((t.params, t.final_value))
            n_complete += 1
        elif t.state is TrialState.PRUNED and t.intermediates:
            pairs.append((t.params, t.intermediates[-1][1]))
    return pairs, n_complete


def reference_column(space, name, pairs):
    dist = space[name]
    if not dist.is_discrete:
        return [float(p[name]) for p, _ in pairs]
    return [
        next(k for k, c in enumerate(dist.choices) if p[name] == c and type(p[name]) is type(c))
        for p, _ in pairs
    ]


def assert_matches_scan(study):
    history = trial_observations(study)
    pairs, n_complete = scan_observations(study)
    assert list(history) == pairs
    assert history.n_complete == n_complete
    assert history.values.tolist() == [v for _, v in pairs]
    for name in study.space:
        assert history.column(name).tolist() == reference_column(study.space, name, pairs)
        if study.space[name].is_log:
            logs = [math.log(v) for v in reference_column(study.space, name, pairs)]
            assert history.log_column(name).tolist() == logs


@st.composite
def told_trials(draw):
    """Seeded trials with an outcome each, and the order they are told in."""
    n = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(n):
        steps = [(s, float(rng.normal())) for s in range(int(rng.integers(3)))]
        trials.append(
            (
                suggest_random(SPACE, rng),
                draw(st.sampled_from(OUTCOMES)),
                steps,
                float(rng.normal()),
            )
        )
    order = draw(st.permutations(range(n)))
    direction = draw(st.sampled_from([MAXIMIZE, MINIMIZE]))
    return trials, order, direction


def tell(study, trial_id, outcome, value):
    if outcome == "complete":
        study.tell(trial_id, value)
    elif outcome != "running":
        study.tell(trial_id, state=TrialState(outcome))


@settings(max_examples=150, deadline=None)
@given(case=told_trials())
def test_tells_in_any_order_match_the_trial_order_scan(case):
    trials, order, direction = case
    study = make_study(SPACE, direction=direction, seed=1)
    for params, _, steps, _ in trials:
        running_trial(study, params, intermediates=steps)
    assert_matches_scan(study)
    for i in order:
        _, outcome, _, value = trials[i]
        tell(study, i, outcome, value)
        assert_matches_scan(study)


def journal_records(trials, direction):
    """The records of a serial journal: each trial's start, intermediates
    and end, in id order. Only a journal's last trial can be open, so a
    trial told as running ends failed unless it is the last; a failed
    trial carries no history, as a running one does not."""
    meta = {"space": SPACE.to_dict(), "direction": direction, "seed": 1}
    records = [{"seq": 0, "kind": KIND_META, **meta}]

    def add(kind, **payload):
        records.append({"seq": len(records), "kind": kind, **payload})

    for i, (params, outcome, steps, value) in enumerate(trials):
        add(KIND_TRIAL_START, trial_id=i, params=params)
        for step, v in steps:
            add(KIND_INTERMEDIATE, trial_id=i, step=step, value=v)
        if outcome == "complete":
            add(KIND_TRIAL_END, trial_id=i, state="complete", final_value=value)
        elif outcome != "running" or i < len(trials) - 1:
            add(KIND_TRIAL_END, trial_id=i, state="failed" if outcome == "running" else outcome)
    return records


@settings(max_examples=100, deadline=None)
@given(case=told_trials())
def test_a_study_rebuilt_from_records_matches_the_scan(case):
    trials, order, direction = case
    study = study_from_records(journal_records(trials, direction))
    assert_matches_scan(study)

    twin = make_study(SPACE, direction=direction, seed=1)
    for params, _, steps, _ in trials:
        running_trial(twin, params, intermediates=steps)
    for i in order:
        _, outcome, _, value = trials[i]
        tell(twin, i, outcome, value)
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    assert tpe_suggest(study, rng=rng_a) == tpe_suggest(twin, rng=rng_b)


# final values that tie, zero among them both as 0.0 and as -0.0
TIED_VALUES = (-1.0, -0.0, 0.0, 0.5)


@st.composite
def told_trials_with_ties(draw):
    """`told_trials`, each final value kept or swapped for one of TIED_VALUES."""
    trials, order, direction = draw(told_trials())
    trials = [
        (params, outcome, steps, draw(st.sampled_from((value, *TIED_VALUES))))
        for params, outcome, steps, value in trials
    ]
    return trials, order, direction


def scan_best(study):
    """Reference: the complete trial first by value in the direction, then
    by lowest id; None without one."""
    complete = [t for t in study.trials if t.state is TrialState.COMPLETE]
    if not complete:
        return None
    if study.direction == MAXIMIZE:
        return max(complete, key=lambda t: (t.final_value, -t.trial_id))
    return min(complete, key=lambda t: (t.final_value, t.trial_id))


@settings(max_examples=150, deadline=None)
@given(case=told_trials_with_ties())
def test_the_best_trial_after_every_tell_matches_the_scan(case):
    trials, order, direction = case
    study = make_study(SPACE, direction=direction, seed=1)
    for params, _, steps, _ in trials:
        running_trial(study, params, intermediates=steps)
    assert study.best is None
    for i in order:
        _, outcome, _, value = trials[i]
        tell(study, i, outcome, value)
        assert study.best is scan_best(study)

    rebuilt = study_from_records(journal_records(trials, direction))
    assert rebuilt.best is scan_best(rebuilt)
    ids = [None if s.best is None else s.best.trial_id for s in (study, rebuilt)]
    assert ids[0] == ids[1]


def test_history_grows_past_its_first_capacity():
    study = make_study(SPACE, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        complete_trial(study, suggest_random(SPACE, rng), float(rng.normal()))
    assert_matches_scan(study)
    assert len(trial_observations(study)) == 100

