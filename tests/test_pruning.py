import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from studyforge.errors import StateError, ValidationError
from studyforge.journal import study_from_records
from studyforge.pruning import PrunerConfig, should_prune
from studyforge.study import MAXIMIZE, MINIMIZE, SearchSpace, TrialState, uniform

from conftest import complete_trial, make_study, running_trial
from test_observations import SPACE, journal_records, tell, told_trials


def curve_study(direction, completed_curves, running_curve):
    """Study with completed learning curves plus one running trial."""
    space = SearchSpace({"x": uniform(0.0, 1.0)})
    study = make_study(space, direction=direction)
    for curve in completed_curves:
        complete_trial(study, {"x": 0.5}, curve[-1][1], intermediates=curve)
    trial = running_trial(study, {"x": 0.5}, intermediates=running_curve)
    return study, trial


class TestMedianRule:
    def test_no_completed_trials_never_prunes(self):
        study, trial = curve_study(MAXIMIZE, [], [(0, 0.1), (1, 0.1), (2, 0.1), (3, 0.1)])
        assert should_prune(study, trial.trial_id, 3) is False

    def test_below_median_prunes(self):
        completed = [
            [(3, 0.6)],
            [(3, 0.7)],
            [(3, 0.8)],
        ]
        study, trial = curve_study(MAXIMIZE, completed, [(3, 0.65)])
        assert should_prune(study, trial.trial_id, 3, PrunerConfig(warmup_steps=2)) is True

    def test_equal_to_median_survives(self):
        completed = [
            [(3, 0.6)],
            [(3, 0.7)],
            [(3, 0.8)],
        ]
        study, trial = curve_study(MAXIMIZE, completed, [(3, 0.70)])
        assert should_prune(study, trial.trial_id, 3, PrunerConfig(warmup_steps=2)) is False

    def test_even_count_median_is_mean_of_middle_two(self):
        completed = [[(3, v)] for v in (0.2, 0.4, 0.6, 0.8)]
        # median = 0.5
        study, trial = curve_study(MAXIMIZE, completed, [(3, 0.49)])
        assert should_prune(study, trial.trial_id, 3, PrunerConfig(min_completed=4)) is True
        study, trial = curve_study(MAXIMIZE, completed, [(3, 0.5)])
        assert should_prune(study, trial.trial_id, 3, PrunerConfig(min_completed=4)) is False

    def test_warmup_blocks_early_steps(self):
        completed = [[(0, 0.9), (1, 0.9), (2, 0.9)] for _ in range(3)]
        study, trial = curve_study(MAXIMIZE, completed, [(0, 0.1), (1, 0.1)])
        cfg = PrunerConfig(warmup_steps=2)
        assert should_prune(study, trial.trial_id, 0, cfg) is False
        assert should_prune(study, trial.trial_id, 1, cfg) is False

    def test_min_completed_gate(self):
        completed = [[(5, 0.9)], [(5, 0.8)]]
        study, trial = curve_study(MAXIMIZE, completed, [(5, 0.1)])
        assert should_prune(study, trial.trial_id, 5, PrunerConfig(min_completed=3)) is False
        assert should_prune(study, trial.trial_id, 5, PrunerConfig(min_completed=2)) is True

    def test_only_peers_with_value_at_step_count(self):
        # three completed trials, but only two reported at step 4
        completed = [[(4, 0.9)], [(4, 0.8)], [(2, 0.7)]]
        study, trial = curve_study(MAXIMIZE, completed, [(4, 0.1)])
        assert should_prune(study, trial.trial_id, 4, PrunerConfig(min_completed=3)) is False

    def test_minimize_prunes_above_median(self):
        completed = [[(3, v)] for v in (0.2, 0.3, 0.4)]
        study, trial = curve_study(MINIMIZE, completed, [(3, 0.35)])
        assert should_prune(study, trial.trial_id, 3) is True
        study, trial = curve_study(MINIMIZE, completed, [(3, 0.3)])
        assert should_prune(study, trial.trial_id, 3) is False

    def test_missing_intermediate_is_an_error(self):
        study, trial = curve_study(MAXIMIZE, [[(3, 0.5)]], [(2, 0.4)])
        with pytest.raises(StateError):
            should_prune(study, trial.trial_id, 3)

    def test_finished_trial_is_an_error(self):
        space = SearchSpace({"x": uniform(0.0, 1.0)})
        study = make_study(space, direction=MAXIMIZE)
        t = complete_trial(study, {"x": 0.5}, 0.9, intermediates=[(3, 0.9)])
        with pytest.raises(StateError):
            should_prune(study, t.trial_id, 3)

    def test_unknown_trial_is_an_error(self):
        space = SearchSpace({"x": uniform(0.0, 1.0)})
        study = make_study(space, direction=MAXIMIZE)
        with pytest.raises(StateError):
            should_prune(study, 0, 3)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            PrunerConfig(warmup_steps=-1)
        with pytest.raises(ValidationError):
            PrunerConfig(min_completed=0)


class TestInvariants:
    def test_adding_median_valued_peers_changes_nothing(self):
        completed = [[(3, v)] for v in (0.2, 0.4, 0.9)]
        study, trial = curve_study(MAXIMIZE, completed, [(3, 0.3)])
        before = should_prune(study, trial.trial_id, 3)
        # append two more completed trials pinned at the current median 0.4
        study2, trial2 = curve_study(
            MAXIMIZE, completed + [[(3, 0.4)], [(3, 0.4)]], [(3, 0.3)]
        )
        after = should_prune(study2, trial2.trial_id, 3)
        assert before == after is True

    def test_dominating_trial_never_pruned(self):
        completed = [
            [(2, 0.5), (3, 0.6)],
            [(2, 0.6), (3, 0.7)],
            [(2, 0.7), (3, 0.8)],
        ]
        study, trial = curve_study(MAXIMIZE, completed, [(2, 0.71), (3, 0.81)])
        for step in (2, 3):
            assert should_prune(study, trial.trial_id, step) is False


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n_completed=st.integers(min_value=0, max_value=8),
    step=st.integers(min_value=0, max_value=5),
    warmup=st.integers(min_value=0, max_value=4),
    min_completed=st.integers(min_value=1, max_value=5),
)
def test_duality_negate_values_flip_direction(data, n_completed, step, warmup, min_completed):
    values = data.draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=n_completed + 1,
            max_size=n_completed + 1,
        )
    )
    *peer_values, running_value = values
    cfg = PrunerConfig(warmup_steps=warmup, min_completed=min_completed)

    study_max, trial_max = _single_step_study(MAXIMIZE, peer_values, running_value, step)
    study_min, trial_min = _single_step_study(
        MINIMIZE, [-v for v in peer_values], -running_value, step
    )
    assert should_prune(study_max, trial_max.trial_id, step, cfg) == should_prune(
        study_min, trial_min.trial_id, step, cfg
    )


def _single_step_study(direction, peer_values, running_value, step):
    space = SearchSpace({"x": uniform(0.0, 1.0)})
    study = make_study(space, direction=direction)
    for v in peer_values:
        complete_trial(study, {"x": 0.5}, v, intermediates=[(step, v)])
    trial = running_trial(study, {"x": 0.5}, intermediates=[(step, running_value)])
    return study, trial


def scan_peers(study):
    """Reference: the complete trials' intermediates, by step, from a scan."""
    peers = {}
    for t in study.trials:
        if t.state is TrialState.COMPLETE:
            for step, v in t.intermediates:
                peers.setdefault(step, []).append(v)
    return {step: sorted(values) for step, values in peers.items()}


def assert_prunes_as_the_scan(study, extra, cfg):
    peers = scan_peers(study)
    assert {step: sorted(values) for step, values in study.peers.items()} == peers
    for step, value in extra.intermediates:
        values = peers.get(step, [])
        for direction in (MAXIMIZE, MINIMIZE):
            study.direction = direction
            expected = step >= cfg.warmup_steps and len(values) >= cfg.min_completed
            if expected:
                med = statistics.median(values)
                expected = value < med if direction == MAXIMIZE else value > med
            assert should_prune(study, extra.trial_id, step, cfg) is expected


@st.composite
def extra_curve(draw, trials):
    """Steps 0-2 of a running trial: each value a fresh draw, or a value
    that one of the trials reported at that step, so ties occur."""
    curve = []
    for step in range(3):
        ties = [v for _, _, steps, _ in trials for s, v in steps if s == step]
        value = draw(st.floats(-3, 3) | (st.sampled_from(ties) if ties else st.nothing()))
        curve.append((step, value))
    return curve


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    case=told_trials(),
    warmup=st.integers(min_value=0, max_value=1),
    min_completed=st.integers(min_value=1, max_value=4),
)
def test_peers_kept_by_tell_prune_as_a_scan_of_the_trials(data, case, warmup, min_completed):
    trials, order, direction = case
    curve = data.draw(extra_curve(trials))
    cfg = PrunerConfig(warmup_steps=warmup, min_completed=min_completed)

    study = make_study(SPACE, direction=direction, seed=1)
    for params, _, steps, _ in trials:
        running_trial(study, params, intermediates=steps)
    extra = running_trial(study, {}, intermediates=curve)  # the pruner reads no params
    assert_prunes_as_the_scan(study, extra, cfg)
    for i in order:
        _, outcome, _, value = trials[i]
        tell(study, i, outcome, value)
        assert_prunes_as_the_scan(study, extra, cfg)

    rebuilt = study_from_records(journal_records(trials, direction))
    extra = running_trial(rebuilt, {}, intermediates=curve)
    assert_prunes_as_the_scan(rebuilt, extra, cfg)
