import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from studyforge.config import parse_space
from studyforge.errors import OrderingError, StateError, ValidationError
from studyforge.study import (
    MAXIMIZE,
    MINIMIZE,
    Distribution,
    SearchSpace,
    Study,
    TrialState,
    boolean,
    choice,
    create_study,
    int_categorical,
    is_improvement,
    log_uniform,
    meets_threshold,
    uniform,
)

from conftest import complete_trial, make_study, running_trial


class TestDistribution:
    def test_uniform_bounds_inclusive(self):
        d = uniform(0.0, 1.0)
        assert d.contains(0.0) and d.contains(1.0) and d.contains(0.5)
        assert not d.contains(-1e-9) and not d.contains(1.0 + 1e-9)

    def test_continuous_containment_refuses_non_numbers(self):
        d = uniform(0.0, 1.0)
        assert not d.contains(True) and not d.contains(False)
        assert not d.contains("0.5") and not d.contains(None)
        assert not d.contains(math.nan) and not d.contains(10**400)

    def test_low_must_be_below_high(self):
        with pytest.raises(ValidationError):
            uniform(1.0, 1.0)
        with pytest.raises(ValidationError):
            uniform(2.0, 1.0)

    def test_log_uniform_requires_positive_low(self):
        with pytest.raises(ValidationError):
            log_uniform(0.0, 1.0)
        with pytest.raises(ValidationError):
            log_uniform(-1.0, 1.0)

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(ValidationError):
            uniform(0.0, math.inf)
        with pytest.raises(ValidationError):
            uniform(math.nan, 1.0)

    @pytest.mark.parametrize("kind", ["uniform-float", "log-uniform-float"])
    @pytest.mark.parametrize(
        "low, high",
        [(False, True), (0.5, True), (False, 1.0), ("0", 1.0), (0.5, "1"), (None, 1.0), (0.5, [1.0])],
    )
    def test_continuous_bounds_must_be_numbers(self, kind, low, high):
        # bool is an int, but a range between two booleans is no domain
        with pytest.raises(ValidationError, match="bounds must be numbers"):
            Distribution(kind, low=low, high=high)

    def test_numeric_bounds_of_any_real_type_build(self):
        assert uniform(0, 1).contains(0.5)
        assert uniform(np.float64(0.0), np.int64(1)).contains(0.5)
        assert log_uniform(np.float32(0.5), 2).contains(1.0)

    def test_choices_must_be_duplicate_free(self):
        with pytest.raises(ValidationError):
            int_categorical([8, 8, 16])

    def test_int_categorical_rejects_non_ints(self):
        with pytest.raises(ValidationError):
            int_categorical([8, 16.0])
        with pytest.raises(ValidationError):
            Distribution("int-categorical", choices=(True, False))

    def test_empty_choices_rejected(self):
        with pytest.raises(ValidationError):
            choice([])

    def test_boolean_is_fixed_two_choices(self):
        assert boolean().choices == (False, True)

    def test_discrete_containment_is_type_exact(self):
        d = int_categorical([8, 16])
        assert d.contains(8)
        assert not d.contains(8.0)
        assert not d.contains(True)
        b = boolean()
        assert b.contains(True) and b.contains(False)
        assert not b.contains(1) and not b.contains(0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            Distribution("gaussian", low=0, high=1)


class TestSearchSpace:
    def test_preserves_entry_order(self):
        space = SearchSpace({"b": uniform(0, 1), "a": uniform(0, 1)})
        assert space.names == ["b", "a"]

    def test_empty_space_rejected(self):
        with pytest.raises(ValidationError):
            SearchSpace({})

    def test_assignment_must_cover_exactly(self, mixed_space):
        good = {"lr": 3e-4, "dropout": 0.1, "batch_size": 32, "hflip": True}
        mixed_space.validate_assignment(good)
        with pytest.raises(ValidationError):
            mixed_space.validate_assignment({**good, "extra": 1.0})
        missing = dict(good)
        del missing["lr"]
        with pytest.raises(ValidationError):
            mixed_space.validate_assignment(missing)

    def test_assignment_out_of_domain_rejected(self, mixed_space):
        bad = {"lr": 5e-3, "dropout": 0.1, "batch_size": 32, "hflip": True}
        with pytest.raises(ValidationError):
            mixed_space.validate_assignment(bad)

    def test_dict_round_trip(self, mixed_space):
        assert parse_space(mixed_space.to_dict()) == mixed_space


class TestTrialLifecycle:
    def test_ask_assigns_sequential_ids(self, unit_space):
        study = make_study(unit_space)
        from studyforge.samplers import RandomSampler

        sampler = RandomSampler()
        t0 = study.ask(sampler)
        t1 = study.ask(sampler)
        assert (t0.trial_id, t1.trial_id) == (0, 1)
        assert t0.state is TrialState.RUNNING

    def test_tell_completes_with_value(self, unit_space):
        study = make_study(unit_space)
        t = running_trial(study, {"x": 0.5})
        study.tell(t.trial_id, 0.25)
        assert t.state is TrialState.COMPLETE
        assert t.final_value == 0.25

    def test_double_tell_rejected(self, unit_space):
        study = make_study(unit_space)
        t = running_trial(study, {"x": 0.5})
        study.tell(t.trial_id, 0.25)
        with pytest.raises(StateError):
            study.tell(t.trial_id, 0.5)

    def test_tell_unknown_trial_rejected(self, unit_space):
        study = make_study(unit_space)
        with pytest.raises(StateError):
            study.tell(3, 0.1)

    def test_tell_non_finite_value_rejected(self, unit_space):
        study = make_study(unit_space)
        t = running_trial(study, {"x": 0.5})
        with pytest.raises(ValidationError):
            study.tell(t.trial_id, math.nan)
        with pytest.raises(ValidationError):
            study.tell(t.trial_id, math.inf)

    def test_tell_pruned_and_failed(self, unit_space):
        study = make_study(unit_space)
        t0 = running_trial(study, {"x": 0.1}, intermediates=[(0, 0.5)])
        t1 = running_trial(study, {"x": 0.2})
        study.tell(t0.trial_id, state=TrialState.PRUNED)
        study.tell(t1.trial_id, state=TrialState.FAILED)
        assert t0.state is TrialState.PRUNED
        assert t1.state is TrialState.FAILED
        assert t0.final_value is None

    def test_tell_without_value_or_state_rejected(self, unit_space):
        study = make_study(unit_space)
        t = running_trial(study, {"x": 0.5})
        with pytest.raises(StateError):
            study.tell(t.trial_id)

    def test_intermediate_steps_strictly_increase(self, unit_space):
        study = make_study(unit_space)
        t = running_trial(study, {"x": 0.5})
        study.report_intermediate(t.trial_id, 1, 0.5)
        study.report_intermediate(t.trial_id, 2, 0.6)
        with pytest.raises(OrderingError):
            study.report_intermediate(t.trial_id, 2, 0.7)
        with pytest.raises(OrderingError):
            study.report_intermediate(t.trial_id, 1, 0.7)

    def test_boolean_step_or_value_rejected(self, unit_space):
        study = make_study(unit_space)
        t = running_trial(study, {"x": 0.5})
        with pytest.raises(ValidationError, match="step must be"):
            study.report_intermediate(t.trial_id, True, 0.5)
        with pytest.raises(ValidationError, match="got True"):
            study.report_intermediate(t.trial_id, 1, True)
        assert t.intermediates == []

    def test_report_on_finished_trial_rejected(self, unit_space):
        study = make_study(unit_space)
        t = running_trial(study, {"x": 0.5})
        study.tell(t.trial_id, 0.1)
        with pytest.raises(StateError):
            study.report_intermediate(t.trial_id, 1, 0.5)


class TestBestTrial:
    def test_direction_respected(self, unit_space):
        lo = make_study(unit_space, direction=MINIMIZE)
        complete_trial(lo, {"x": 0.1}, 1.0)
        complete_trial(lo, {"x": 0.2}, 0.5)
        assert lo.best_trial().trial_id == 1

        hi = make_study(unit_space, direction=MAXIMIZE)
        complete_trial(hi, {"x": 0.1}, 1.0)
        complete_trial(hi, {"x": 0.2}, 0.5)
        assert hi.best_trial().trial_id == 0

    def test_ties_go_to_lowest_id(self, unit_space):
        for direction in (MINIMIZE, MAXIMIZE):
            study = make_study(unit_space, direction=direction)
            complete_trial(study, {"x": 0.1}, 0.5)
            complete_trial(study, {"x": 0.2}, 0.5)
            assert study.best_trial().trial_id == 0

    def test_no_complete_trials_raises(self, unit_space):
        study = make_study(unit_space)
        with pytest.raises(StateError):
            study.best_trial()
        running_trial(study, {"x": 0.5})
        with pytest.raises(StateError):
            study.best_trial()

    def test_pruned_and_failed_excluded(self, unit_space):
        study = make_study(unit_space, direction=MINIMIZE)
        t = running_trial(study, {"x": 0.1}, intermediates=[(1, 0.0)])
        study.tell(t.trial_id, state=TrialState.PRUNED)
        complete_trial(study, {"x": 0.2}, 0.9)
        assert study.best_trial().trial_id == 1


class TestRngStreams:
    def test_streams_differ_by_trial_and_lane(self, unit_space):
        study = make_study(unit_space, seed=42)
        a = study.rng_for(0, lane=0).random(4)
        b = study.rng_for(1, lane=0).random(4)
        c = study.rng_for(0, lane=1).random(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_streams_replay_exactly(self, unit_space):
        s1 = make_study(unit_space, seed=42)
        s2 = make_study(unit_space, seed=42)
        assert np.array_equal(s1.rng_for(3, 1).random(8), s2.rng_for(3, 1).random(8))

    def test_invalid_direction_and_seed(self, unit_space):
        with pytest.raises(ValidationError):
            Study(unit_space, "ascend", 0)
        with pytest.raises(ValidationError):
            Study(unit_space, MINIMIZE, -1)


class TestDirectionHelpers:
    def test_is_improvement(self):
        assert is_improvement(MAXIMIZE, 0.5, None)
        assert is_improvement(MAXIMIZE, 0.6, 0.5)
        assert not is_improvement(MAXIMIZE, 0.5, 0.5)
        assert is_improvement(MINIMIZE, 0.4, 0.5)
        assert not is_improvement(MINIMIZE, 0.5, 0.5)

    def test_meets_threshold(self):
        assert meets_threshold(MAXIMIZE, 0.9, 0.9)
        assert not meets_threshold(MAXIMIZE, 0.89, 0.9)
        assert meets_threshold(MINIMIZE, 0.1, 0.1)
        assert not meets_threshold(MINIMIZE, 0.11, 0.1)


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=20
    ),
    direction=st.sampled_from([MINIMIZE, MAXIMIZE]),
)
def test_best_trial_matches_python_extremum(values, direction):
    space = SearchSpace({"x": uniform(0.0, 1.0)})
    study = create_study(space, direction, 0)
    for v in values:
        complete_trial(study, {"x": 0.5}, v)
    best = study.best_trial()
    ref = max(values) if direction == MAXIMIZE else min(values)
    assert best.final_value == ref
    assert best.trial_id == values.index(ref)
