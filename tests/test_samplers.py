import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import simpson
from scipy.stats import truncnorm

import studyforge.samplers as samplers_mod
from studyforge.errors import ExhaustedSearchError, ValidationError
from studyforge.samplers import (
    GridSampler,
    ParzenEstimator,
    RandomSampler,
    TpeConfig,
    TpeSampler,
    _BLOCK_FLOATS,
    _ERF_SATURATED,
    _block_logpdf,
    _choice,
    fit_parzen,
    grid_enumerate,
    make_sampler,
    parzen_logpdf,
    parzen_sample,
    suggest_random,
    tpe_split_observations,
    tpe_suggest,
    trial_observations,
)
from studyforge.study import (
    MAXIMIZE,
    MINIMIZE,
    SearchSpace,
    Study,
    TrialState,
    boolean,
    choice,
    int_categorical,
    log_uniform,
    uniform,
)

from conftest import complete_trial, make_study, running_trial


class TestRandomSampler:
    def test_draws_stay_in_bounds(self, mixed_space):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mixed_space.validate_assignment(suggest_random(mixed_space, rng))

    def test_log_uniform_spreads_over_decades(self):
        space = SearchSpace({"lr": log_uniform(1e-6, 1.0)})
        rng = np.random.default_rng(1)
        draws = [suggest_random(space, rng)["lr"] for _ in range(500)]
        logs = np.log10(draws)
        # log-uniform over 6 decades: each half holds roughly half the mass
        assert 0.35 < np.mean(logs < -3.0) < 0.65

    def test_deterministic_in_rng(self, mixed_space):
        a = suggest_random(mixed_space, np.random.default_rng(7))
        b = suggest_random(mixed_space, np.random.default_rng(7))
        assert a == b


class TestGridEnumerate:
    def test_product_of_cardinalities(self):
        space = SearchSpace(
            {"batch": int_categorical([8, 16, 32, 64, 128]), "lr": uniform(0, 1)}
        )
        cells = grid_enumerate(space, resolution=3)
        assert len(cells) == 15

    def test_single_boolean(self):
        cells = grid_enumerate(SearchSpace({"flip": boolean()}), resolution=2)
        assert list(cells) == [{"flip": False}, {"flip": True}]

    def test_even_spacing_includes_endpoints(self):
        cells = grid_enumerate(SearchSpace({"x": uniform(0.0, 1.0)}), resolution=3)
        assert [c["x"] for c in cells] == [0.0, 0.5, 1.0]

    def test_row_major_over_entry_order(self):
        space = SearchSpace({"a": int_categorical([1, 2]), "b": int_categorical([10, 20])})
        cells = grid_enumerate(space, resolution=2)
        assert list(cells) == [
            {"a": 1, "b": 10},
            {"a": 1, "b": 20},
            {"a": 2, "b": 10},
            {"a": 2, "b": 20},
        ]

    def test_log_even_spacing(self):
        cells = grid_enumerate(SearchSpace({"lr": log_uniform(1e-4, 1e-2)}), resolution=3)
        pts = [c["lr"] for c in cells]
        assert pts[0] == pytest.approx(1e-4, rel=1e-12)
        assert pts[1] == pytest.approx(1e-3, rel=1e-12)
        assert pts[2] == pytest.approx(1e-2, rel=1e-12)

    def test_resolution_below_two_rejected(self):
        with pytest.raises(ValidationError):
            grid_enumerate(SearchSpace({"x": uniform(0, 1)}), resolution=1)

    def test_equal_spaces_share_one_build_of_each_axis(self, monkeypatch):
        def space():
            return SearchSpace(
                {"lr": log_uniform(1e-4, 1e-2), "x": uniform(-1.0, 1.0), "b": boolean()}
            )

        samplers_mod._continuous_axis.cache_clear()
        first = grid_enumerate(space(), resolution=5)

        def refuse(*args, **kwargs):
            raise AssertionError("an axis was built again")

        monkeypatch.setattr(samplers_mod.np, "linspace", refuse)
        second = grid_enumerate(space(), resolution=5)
        assert repr(list(second)) == repr(list(first))
        assert all(a is b for a, b in zip(second.axes, first.axes))

    def test_axes_of_equal_bounds_keep_their_own_floats(self):
        # int and float bounds compare and hash alike and build the same
        # floats; a high of -0.0 ends its axis on -0.0, one of 0.0 on 0.0
        for low, high in ((0, 1), (0.0, 1.0), (0, 1)):
            axis = grid_enumerate(SearchSpace({"x": uniform(low, high)}), 3).axes[0]
            assert repr(axis) == "(0.0, 0.5, 1.0)"
        for high in (-0.0, 0.0, -0.0):
            axis = grid_enumerate(SearchSpace({"x": uniform(-1.0, high)}), 3).axes[0]
            assert repr(axis) == f"(-1.0, -0.5, {high!r})"

    def test_grid_points_in_domain(self):
        space = SearchSpace({"lr": log_uniform(1e-4, 1e-3), "x": uniform(-2, 3)})
        for cell in grid_enumerate(space, resolution=7):
            space.validate_assignment(cell)

    @settings(max_examples=200, deadline=None)
    @given(
        axes=st.lists(
            st.one_of(
                st.tuples(st.just("linear"), st.floats(-10, 10), st.floats(0.1, 10)),
                st.tuples(st.just("log"), st.floats(-6, 0), st.floats(0.5, 4)),
                st.tuples(st.just("ints"), st.sets(st.integers(-50, 50), min_size=1, max_size=4)),
                st.tuples(st.just("choice"), st.integers(1, 4)),
                st.tuples(st.just("boolean")),
            ),
            min_size=1,
            max_size=4,
        ),
        resolution=st.integers(2, 6),
    )
    def test_decode_is_the_row_major_product(self, axes, resolution):
        entries, reference = {}, []
        for i, (kind, *args) in enumerate(axes):
            if kind == "linear":
                low, width = args
                entries[f"p{i}"] = uniform(low, low + width)
                pts = np.linspace(low, low + width, resolution).tolist()
            elif kind == "log":
                low, decades = 10.0 ** args[0], args[1]
                high = low * 10.0**decades
                entries[f"p{i}"] = log_uniform(low, high)
                pts = np.exp(np.linspace(math.log(low), math.log(high), resolution))
                pts = np.clip(pts, low, high).tolist()
            elif kind == "ints":
                pts = sorted(args[0])
                entries[f"p{i}"] = int_categorical(pts)
            elif kind == "choice":
                pts = [f"v{j}" for j in range(args[0])]
                entries[f"p{i}"] = choice(pts)
            else:
                entries[f"p{i}"], pts = boolean(), [False, True]
            reference.append(pts)
        names = list(entries)
        expected = [dict(zip(names, combo)) for combo in itertools.product(*reference)]
        cells = grid_enumerate(SearchSpace(entries), resolution)
        assert len(cells) == math.prod(len(axis) for axis in reference) == len(expected)
        assert list(cells) == expected
        assert repr(list(cells)) == repr(expected)
        with pytest.raises(IndexError):
            cells[len(cells)]
        with pytest.raises(IndexError):
            cells[-1]


class TestGridSampler:
    def test_walks_in_order_then_exhausts(self, unit_space):
        study = make_study(unit_space)
        sampler = GridSampler(resolution=3)
        seen = []
        for _ in range(3):
            t = study.ask(sampler)
            study.tell(t.trial_id, 0.0)
            seen.append(t.params["x"])
        assert seen == [0.0, 0.5, 1.0]
        with pytest.raises(ExhaustedSearchError):
            study.ask(sampler)


class TestAskRng:
    """A sampler given no generator draws from the next trial's lane-0
    stream, the one an explicit ``rng_for(len(study.trials), lane=0)`` is."""

    @pytest.mark.parametrize("history", [0, 12], ids=["startup", "fitted"])
    @pytest.mark.parametrize("sampler", [RandomSampler(), TpeSampler()], ids=["random", "tpe"])
    def test_no_rng_is_the_next_trials_lane_zero(self, monkeypatch, sampler, history):
        study = _seeded_history_study(n=history)
        explicit = study.rng_for(len(study.trials), lane=0)
        want = sampler.suggest(study, explicit)
        built, rng_for = [], Study.rng_for

        def spy(self, trial_id, lane=0):
            built.append((trial_id, lane, rng_for(self, trial_id, lane)))
            return built[-1][2]

        monkeypatch.setattr(Study, "rng_for", spy)
        got = sampler.suggest(study)
        assert repr(got) == repr(want)
        [(trial_id, lane, rng)] = built
        assert (trial_id, lane) == (history, 0)
        assert rng.bit_generator.state == explicit.bit_generator.state


class TestSplitObservations:
    def test_eight_value_maximize_example(self):
        values = np.array([0.1, 0.9, 0.3, 0.8, 0.2, 0.4, 0.5, 0.6])
        good = tpe_split_observations(values, MAXIMIZE)
        assert sorted(values[good]) == [0.8, 0.9]
        assert (~good).sum() == 6

    def test_single_observation(self):
        good = tpe_split_observations(np.array([1.0]), MINIMIZE)
        assert good.tolist() == [True]

    def test_gamma_cap_at_200(self):
        values = np.arange(200.0)
        good = tpe_split_observations(values, MINIMIZE)
        assert good.sum() == 25
        assert values[good].tolist() == [float(i) for i in range(25)]

    def test_good_preserves_trial_order(self):
        values = np.array([0.9, 0.1, 0.8, 0.2, 0.3, 0.4, 0.5, 0.6])
        good = tpe_split_observations(values, MINIMIZE)
        assert values[good].tolist() == [0.1, 0.2]

    def test_empty_history_rejected(self):
        with pytest.raises(ValidationError):
            tpe_split_observations(np.array([]), MINIMIZE)

    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2,
            max_size=40,
            unique=True,
        )
    )
    def test_monotone_transform_invariance(self, values):
        warped_values = [math.exp(v / 100.0) for v in values]
        # exp must stay injective on the sample for strict monotonicity
        assume(len(set(warped_values)) == len(warped_values))
        good_a = tpe_split_observations(np.array(values), MAXIMIZE)
        good_b = tpe_split_observations(np.array(warped_values), MAXIMIZE)
        assert good_a.tolist() == good_b.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), min_size=1, max_size=60),
        direction=st.sampled_from([MAXIMIZE, MINIMIZE]),
        gamma_cap=st.integers(min_value=1, max_value=30),
    )
    def test_same_set_and_ties_as_a_stable_sort_of_the_pairs(self, values, direction, gamma_cap):
        # heavy ties: the tie order decides which equal values are good
        cfg = TpeConfig(gamma_cap=gamma_cap)
        n_good = min(gamma_cap, max(1, math.ceil(cfg.gamma_fraction * len(values))))
        order = sorted(range(len(values)), key=lambda i: values[i], reverse=(direction == MAXIMIZE))
        good = tpe_split_observations(np.array(values), direction, cfg)
        assert np.flatnonzero(good).tolist() == sorted(order[:n_good])


class TestFitParzen:
    def test_empty_fit_is_prior_only(self):
        est = fit_parzen([], 0.0, 1.0)
        assert est.centers.tolist() == [0.5]
        assert est.bandwidths.tolist() == [1.0]
        assert est.weights.tolist() == [1.0]

    def test_single_observation_fallback_bandwidth(self):
        est = fit_parzen([0.5], 0.0, 1.0)
        assert est.centers.tolist() == [0.5, 0.5]
        assert est.bandwidths[0] == 1.0
        assert est.bandwidths[1] == 0.5

    def test_two_observation_bandwidth_formula(self):
        est = fit_parzen([0.2, 0.8], 0.0, 1.0)
        assert len(est.centers) == 3
        assert np.allclose(est.weights, [1 / 3] * 3)
        sd = np.std([0.2, 0.8], ddof=1)
        expected = max(1.06 * sd * 2 ** (-0.2), 0.01)
        assert est.bandwidths[1] == pytest.approx(expected, rel=1e-12)
        assert est.bandwidths[2] == pytest.approx(expected, rel=1e-12)

    def test_clustered_observations_hit_floor(self):
        # zero spread, so the width/min(100, n+1) floor binds
        est = fit_parzen([0.5, 0.5, 0.5, 0.5], 0.0, 1.0)
        assert np.all(est.bandwidths[1:] == 1.0 / 5.0)

    def test_floor_shrinks_with_observation_count(self):
        tight = [0.5] * 150
        est = fit_parzen(tight, 0.0, 1.0)
        assert np.all(est.bandwidths[1:] == 0.01)
        wider = fit_parzen(tight[:30], 0.0, 1.0)
        assert np.all(wider.bandwidths[1:] == 1.0 / 31.0)

    def test_value_outside_domain_rejected(self):
        with pytest.raises(ValidationError):
            fit_parzen([1.5], 0.0, 1.0)

    def test_log_fit_transforms_to_log_space(self):
        est = fit_parzen([1e-3], 1e-4, 1e-2, is_log=True)
        assert est.is_log
        assert est.low == pytest.approx(math.log(1e-4))
        assert est.high == pytest.approx(math.log(1e-2))
        assert est.centers[1] == pytest.approx(math.log(1e-3))
        # prior bandwidth is the log-domain width
        assert est.bandwidths[0] == pytest.approx(math.log(1e-2) - math.log(1e-4))


class TestParzenLogpdf:
    def test_prior_only_matches_truncated_normal_closed_form(self):
        est = fit_parzen([], 0.0, 1.0)
        dist = truncnorm((0.0 - 0.5) / 1.0, (1.0 - 0.5) / 1.0, loc=0.5, scale=1.0)
        for x in (0.1, 0.5, 0.9):
            assert abs(math.exp(parzen_logpdf(est, x)) - dist.pdf(x)) < 1e-9

    def test_mixture_matches_truncnorm_mixture(self):
        est = fit_parzen([0.2, 0.8], 0.0, 1.0)
        xs = np.linspace(0.0, 1.0, 101)
        ref = np.zeros_like(xs)
        for c, b, w in zip(est.centers, est.bandwidths, est.weights):
            comp = truncnorm((0.0 - c) / b, (1.0 - c) / b, loc=c, scale=b)
            ref += w * comp.pdf(xs)
        ours = np.exp(parzen_logpdf(est, xs))
        assert np.allclose(ours, ref, atol=1e-9)

    def test_symmetric_estimator_is_symmetric(self):
        est = fit_parzen([0.3, 0.7], 0.0, 1.0)
        for delta in (0.0, 0.05, 0.13, 0.29):
            a = parzen_logpdf(est, 0.3 + delta)
            b = parzen_logpdf(est, 0.7 - delta)
            assert abs(math.exp(a) - math.exp(b)) < 1e-9

    def test_integral_is_one(self):
        xs = np.linspace(0.0, 1.0, 10_001)
        est = fit_parzen([0.1, 0.2, 0.25, 0.9], 0.0, 1.0)
        total = simpson(np.exp(parzen_logpdf(est, xs)), x=xs)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_outside_domain_rejected(self):
        est = fit_parzen([0.5], 0.0, 1.0)
        with pytest.raises(ValidationError):
            parzen_logpdf(est, 1.5)
        with pytest.raises(ValidationError):
            parzen_logpdf(est, np.array([0.5, -0.1]))


class TestParzenSample:
    def test_samples_stay_in_domain(self):
        est = fit_parzen([0.01, 0.99], 0.0, 1.0)
        rng = np.random.default_rng(3)
        draws = parzen_sample(est, rng, size=5000)
        assert draws.shape == (5000,)
        assert np.all((draws >= 0.0) & (draws <= 1.0))

    def test_concentrates_near_tight_cluster(self):
        est = fit_parzen([0.5] * 30, 0.0, 1.0)
        rng = np.random.default_rng(4)
        draws = parzen_sample(est, rng, size=2000)
        # 30/31 of the weight sits on floor-bandwidth (1/31) components
        # at 0.5, so most draws land within ~3 bandwidths of the cluster
        assert np.mean(np.abs(draws - 0.5) < 0.1) > 0.9


def _seeded_history_study(direction=MINIMIZE, n=20, seed=0):
    space = SearchSpace({"x": uniform(0.0, 1.0), "batch": int_categorical([8, 16, 32])})
    study = make_study(space, direction=direction, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(n):
        params = {"x": float(rng.uniform()), "batch": int(rng.choice([8, 16, 32]))}
        complete_trial(study, params, float(rng.uniform()))
    return study


class TestTpeSuggest:
    def test_startup_falls_back_to_random(self, mixed_space):
        study = make_study(mixed_space, seed=5)
        params = tpe_suggest(study, rng=np.random.default_rng(5))
        mixed_space.validate_assignment(params)

    def test_post_startup_suggestion_in_domain(self):
        study = _seeded_history_study()
        params = tpe_suggest(study, rng=np.random.default_rng(9))
        study.space.validate_assignment(params)

    def test_degenerate_history_all_same_point(self):
        space = SearchSpace({"x": uniform(0.0, 1.0)})
        study = make_study(space, direction=MINIMIZE)
        for _ in range(12):
            complete_trial(study, {"x": 0.5}, 0.25)
        params = tpe_suggest(study, rng=np.random.default_rng(2))
        assert 0.0 <= params["x"] <= 1.0

    def test_deterministic_given_history_and_seed(self):
        study = _seeded_history_study()
        a = tpe_suggest(study, rng=np.random.default_rng(11))
        b = tpe_suggest(study, rng=np.random.default_rng(11))
        assert a == b

    def test_pruned_trials_contribute_last_intermediate(self, unit_space):
        study = make_study(unit_space, direction=MAXIMIZE)
        t = running_trial(study, {"x": 0.3}, intermediates=[(1, 0.2), (2, 0.4)])
        study.tell(t.trial_id, state=TrialState.PRUNED)
        complete_trial(study, {"x": 0.6}, 0.9)
        history = trial_observations(study)
        assert ({"x": 0.3}, 0.4) in history
        assert ({"x": 0.6}, 0.9) in history

    def test_failed_trials_excluded(self, unit_space):
        study = make_study(unit_space)
        t = running_trial(study, {"x": 0.3}, intermediates=[(1, 0.2)])
        study.tell(t.trial_id, state=TrialState.FAILED)
        assert trial_observations(study) == []

    def test_concentrates_on_quadratic_optimum(self):
        space = SearchSpace({"x": uniform(0.0, 1.0)})
        study = make_study(space, direction=MINIMIZE, seed=0)
        sampler = TpeSampler()
        for _ in range(50):
            t = study.ask(sampler)
            study.tell(t.trial_id, (t.params["x"] - 0.3) ** 2)
        late = [t.params["x"] for t in study.trials[30:]]
        assert np.median(np.abs(np.array(late) - 0.3)) < 0.2


class TestMakeSampler:
    def test_known_kinds(self):
        assert isinstance(make_sampler("tpe"), TpeSampler)
        assert isinstance(make_sampler("random"), RandomSampler)
        assert isinstance(make_sampler("grid", resolution=3), GridSampler)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            make_sampler("annealing")


class TestTpeConfigValidation:
    def test_bad_constants_rejected(self):
        with pytest.raises(ValidationError):
            TpeConfig(n_startup_trials=0)
        with pytest.raises(ValidationError):
            TpeConfig(gamma_fraction=0.0)
        with pytest.raises(ValidationError):
            TpeConfig(gamma_fraction=1.5)
        with pytest.raises(ValidationError):
            TpeConfig(prior_weight=0.0)


@st.composite
def random_space(draw):
    entries = {}
    n = draw(st.integers(min_value=1, max_value=3))
    for i in range(n):
        kind = draw(st.sampled_from(["uniform", "log", "cat", "bool"]))
        name = f"p{i}"
        if kind == "uniform":
            low = draw(st.floats(min_value=-100, max_value=99, allow_nan=False))
            width = draw(st.floats(min_value=1e-3, max_value=50))
            entries[name] = uniform(low, low + width)
        elif kind == "log":
            low = draw(st.floats(min_value=1e-6, max_value=1.0))
            factor = draw(st.floats(min_value=1.5, max_value=1e4))
            entries[name] = log_uniform(low, low * factor)
        elif kind == "cat":
            choices = draw(
                st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=5, unique=True)
            )
            entries[name] = int_categorical(choices)
        else:
            entries[name] = boolean()
    return SearchSpace(entries)


@settings(max_examples=60, deadline=None)
@given(space=random_space(), seed=st.integers(min_value=0, max_value=2**31))
def test_all_samplers_contained_on_random_spaces(space, seed):
    rng = np.random.default_rng(seed)
    study = make_study(space, direction=MINIMIZE, seed=0)
    space.validate_assignment(suggest_random(space, rng))
    # build a history and check the TPE path too
    for _ in range(12):
        complete_trial(study, suggest_random(space, rng), float(rng.uniform()))
    space.validate_assignment(tpe_suggest(study, rng=rng))


def _norm_cdf_reference(x: float) -> float:
    """Standard-normal CDF of one scalar, as a per-component loop computes it."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _scalar_log_trunc_mass(est) -> np.ndarray:
    mass = np.array(
        [
            _norm_cdf_reference((est.high - c) / b) - _norm_cdf_reference((est.low - c) / b)
            for c, b in zip(est.centers, est.bandwidths)
        ]
    )
    return np.log(mass)


_domains = st.tuples(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
)


class TestParzenBitIdentity:
    """The whole-array Parzen arithmetic must equal the scalar form bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        domain=_domains,
        fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=60),
        is_log=st.booleans(),
    )
    def test_fit_truncation_mass_matches_scalar_reference(self, domain, fractions, is_log):
        low, width = domain
        if is_log:
            low = abs(low) + 1e-6
        high = low + width
        assume(low < high)
        values = [min(max(low + f * (high - low), low), high) for f in fractions]
        est = fit_parzen(values, low, high, is_log=is_log)
        assert est._log_trunc_mass.tobytes() == _scalar_log_trunc_mass(est).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        domain=_domains,
        components=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=-12.0, max_value=3.0),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_tail_components_match_scalar_reference(self, domain, components):
        # bandwidths from 1e-12 to 1e3 widths put the domain edges up to
        # 1e12 sigmas from a center, deep in the tails where erf saturates
        low, width = domain
        high = low + width
        assume(low < high)
        centers = [min(max(low + f * width, low), high) for f, _ in components]
        bandwidths = [width * 10.0**e for _, e in components]
        weights = np.full(len(centers), 1.0 / len(centers))
        assume(abs(weights.sum() - 1.0) <= 1e-12)
        est = ParzenEstimator(centers, bandwidths, weights, low, high)
        assert est._log_trunc_mass.tobytes() == _scalar_log_trunc_mass(est).tobytes()


def _scalar_bandwidths(est) -> list:
    """A fit's bandwidths from its own centers, by the 1-D formula."""
    n, width = len(est.centers) - 1, est.high - est.low
    if n < 2:
        return [width] + [width / 2.0] * n
    sd = float(np.std(np.array(est.centers[1:]), ddof=1))
    return [width] + [max(1.06 * sd * n ** (-0.2), width / min(100.0, n + 1.0))] * n


@st.composite
def parzen_rows(draw):
    """d rows of n observations each, log and linear, spread out or packed
    into a cluster: packed clusters away from the edges push the
    truncation-mass arguments of their components past erf's saturation."""
    d = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.sampled_from([0, 1, 2, 8, 30, 100, 300, 1000]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values, lows, highs, logs = [], [], [], []
    for _ in range(d):
        is_log = draw(st.booleans())
        if is_log:
            low = draw(st.floats(min_value=1e-6, max_value=10.0))
            high = low * draw(st.floats(min_value=1.5, max_value=1e4))
        else:
            low = draw(st.floats(min_value=-1e3, max_value=1e3))
            high = low + draw(st.floats(min_value=1e-3, max_value=1e3))
        assume(low < high)
        spread = draw(st.sampled_from([1.0, 1e-2, 1e-6]))
        fractions = np.clip(rng.uniform() + spread * rng.standard_normal(n), 0.0, 1.0)
        values.append(np.clip(low + fractions * (high - low), low, high))
        lows.append(low)
        highs.append(high)
        logs.append(is_log)
    return np.array(values).reshape(d, n), lows, highs, logs


class TestParzenRows:
    """A fit of d rows equals d one-row fits bit for bit, and so do its
    densities and its draws."""

    @settings(max_examples=150, deadline=None)
    @given(case=parzen_rows(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_row_fit_equals_one_row_fits(self, case, seed):
        values, lows, highs, logs = case
        est = fit_parzen(values, lows, highs, logs)
        singles = [fit_parzen(*row) for row in zip(values, lows, highs, logs)]
        assert est.centers.shape == (len(values), values.shape[1] + 1)
        for j, one in enumerate(singles):
            assert one.centers.shape == (values.shape[1] + 1,)
            row = est[j]
            for name in ("centers", "bandwidths", "weights", "_log_trunc_mass", "_log_scale"):
                assert getattr(row, name).tobytes() == getattr(one, name).tobytes()
            assert (row.low, row.high, row.is_log) == (one.low, one.high, one.is_log)
            # the erf shortcut against math.erf on every argument, and the
            # bandwidths against one 1-D np.std of the row
            assert one._log_trunc_mass.tobytes() == _scalar_log_trunc_mass(one).tobytes()
            assert one.bandwidths.tolist() == _scalar_bandwidths(one)
        rng = np.random.default_rng(seed)
        xs = np.array([rng.uniform(one.low, one.high, size=24) for one in singles])
        xs = np.clip(xs, est.low[:, None], est.high[:, None])
        rows = parzen_logpdf(est, xs)
        assert rows.tobytes() == np.array([parzen_logpdf(o, x) for o, x in zip(singles, xs)]).tobytes()
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = parzen_sample(est, ours, size=5)
        assert drawn.tobytes() == np.array([parzen_sample(o, theirs, size=5) for o in singles]).tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_cases_reach_both_sides_of_saturation(self):
        # a packed cluster mid-domain at n=300: the prior's arguments are
        # live, most of the observations' are saturated
        est = fit_parzen(np.full((1, 300), 0.5), [0.0], [1.0], [False])
        c, b = est.centers, est.bandwidths
        x = np.abs(np.concatenate(((1.0 - c) / b, (0.0 - c) / b), axis=-1)) / math.sqrt(2.0)
        assert 0 < (x >= _ERF_SATURATED).mean() < 1

    def test_row_logpdf_checks_each_rows_domain(self):
        est = fit_parzen([[0.5, 0.6], [5.0, 6.0]], [0.0, 0.0], [1.0, 10.0], [False, False])
        parzen_logpdf(est, [[0.5], [9.0]])
        with pytest.raises(ValidationError):
            parzen_logpdf(est, [[0.5], [10.5]])
        with pytest.raises(ValidationError):
            parzen_logpdf(est, [[1.5], [9.0]])

    def test_row_fit_checks_each_row(self):
        with pytest.raises(ValidationError, match="invalid domain"):
            fit_parzen([[0.5], [0.5]], [0.0, 1.0], [1.0, 1.0], [False, False])
        with pytest.raises(ValidationError, match="outside domain"):
            fit_parzen([[0.5], [1.5]], [0.0, 0.0], [1.0, 1.0], [False, False])
        with pytest.raises(ValidationError, match="low > 0"):
            fit_parzen([[0.5], [0.5]], [0.0, 0.0], [1.0, 1.0], [False, True])
        with pytest.raises(ValidationError, match="2 rows of values need 2 lows"):
            fit_parzen([[0.5], [0.5]], [0.0], [1.0], [False])

    @given(x=st.floats(min_value=_ERF_SATURATED))
    @example(x=_ERF_SATURATED)
    @example(x=math.inf)
    def test_erf_is_exactly_one_where_the_shortcut_starts(self, x):
        # the premise of skipping math.erf from |x| >= _ERF_SATURATED, checked
        # against the libm of the platform that runs the suite
        assert math.erf(x) == 1.0
        assert math.erf(-x) == -1.0


def _reindexing_sample(est, rng, size):
    """A one-row parzen_sample whose every rejection round indexes the
    round-one arrays again by what is pending: the draws the ask made
    before its rounds shrank the arrays instead."""
    idx = _choice(rng, est.weights, size)
    mu, sigma = est.centers[idx], est.bandwidths[idx]
    out, pending = np.empty(size), np.arange(size)
    while pending.size:
        draws = rng.normal(mu[pending], sigma[pending])
        ok = (draws >= est.low) & (draws <= est.high)
        out[pending[ok]] = draws[ok]
        pending = pending[~ok]
    return out


# observations piled on a domain edge: half of each round's draws fall
# outside, so parzen_sample rejects for several rounds
_EDGE_ROWS = (np.array([[0.0] * 300, [1e6] * 300]), [0.0, 1e6], [1.0, 1e6 + 1e-6], [False, False])


class TestBlockScorer:
    """The ask scores by `_block_logpdf`'s quadratic form; parzen_logpdf,
    in the scalar form's order, is the reference it is held to. The
    tolerance is set from float64's 2.2e-16 and the form's |K2 u^2| <=
    1,250, not from a measured error."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        case=parzen_rows(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        points=st.sampled_from([1, 24, 100]),
        block=st.sampled_from([1, 500, _BLOCK_FLOATS]),
    )
    # a domain offset to 1e6 and 1e-6 wide, with a cluster at the floor
    @example(
        case=(np.full((1, 300), 1e6 + 5e-7), [1e6], [1e6 + 1e-6], [False]),
        seed=0,
        points=24,
        block=_BLOCK_FLOATS,
    )
    @example(case=_EDGE_ROWS, seed=1, points=24, block=_BLOCK_FLOATS)
    def test_scores_match_the_reference(self, case, seed, points, block):
        est = fit_parzen(*case)
        rng = np.random.default_rng(seed)
        xs = parzen_sample(est, rng, size=points)
        # the domain's edges, where |u| is largest
        xs[:, 0], xs[:, -1] = est.low, est.high
        ref = parzen_logpdf(est, xs)
        ours = _block_logpdf(est, xs, np.empty(block))
        assert ours.shape == ref.shape and np.isfinite(ours).all()
        assert (np.abs(ours - ref) <= 1e-11 * np.maximum(1.0, np.abs(ref))).all()

    def test_block_size_does_not_change_a_bit(self):
        est = fit_parzen(*_EDGE_ROWS)
        xs = parzen_sample(est, np.random.default_rng(0), size=24)
        whole = _block_logpdf(est, xs, np.empty(_BLOCK_FLOATS))
        # one row a block, grown from too small a block or of its exact size
        for block in (1, 24 * 301):
            assert _block_logpdf(est, xs, np.empty(block)).tobytes() == whole.tobytes()

    def test_a_sampler_reuses_its_block(self, monkeypatch):
        study = _seeded_history_study(n=30)
        sampler, seen = TpeSampler(), []

        def spy(est, x, block):
            seen.append(block)
            return _block_logpdf(est, x, block)

        monkeypatch.setattr(samplers_mod, "_block_logpdf", spy)
        for _ in range(3):
            t = study.ask(sampler)
            study.tell(t.trial_id, float(t.params["x"]))
        assert len(seen) == 6 and all(block is sampler._block for block in seen)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=parzen_rows(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(case=_EDGE_ROWS, seed=0)
    def test_draws_match_the_reindexing_loop(self, case, seed):
        est = fit_parzen(*case)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for j in range(len(est.centers)):
            drawn = parzen_sample(est[j], ours, size=24)
            assert drawn.tobytes() == _reindexing_sample(est[j], theirs, 24).tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state


def _mixed_space():
    return SearchSpace(
        {
            "x": uniform(-2.0, 3.0),
            "lr": log_uniform(1e-5, 1e-1),
            "batch": int_categorical([8, 16, 32, 64]),
            "act": choice(["relu", "tanh", "gelu"]),
            "flip": boolean(),
        }
    )


def _mixed_history_study(k: int):
    """A seeded history with complete, pruned (with and without
    intermediates), failed and still-running trials."""
    space = _mixed_space()
    study = make_study(space, direction=MINIMIZE if k % 2 else MAXIMIZE, seed=k)
    rng = np.random.default_rng([k, 1])
    for _ in range(3 + (k * 7) % 70):
        params = suggest_random(space, rng)
        kind = int(rng.integers(8))
        steps = [(s, float(rng.normal())) for s in range(int(rng.integers(4)))]
        if kind == 0:
            t = running_trial(study, params, intermediates=steps)
            study.tell(t.trial_id, state=TrialState.FAILED)
        elif kind in (1, 2):
            t = running_trial(study, params, intermediates=steps)
            study.tell(t.trial_id, state=TrialState.PRUNED)
        elif kind == 3:
            running_trial(study, params, intermediates=steps)
        else:
            complete_trial(study, params, float(rng.normal()), intermediates=steps)
    return study


class TestTpePinned:
    """sha256 pins of what the per-component scalar Parzen code produced;
    the whole-array code must reproduce every bit of it."""

    def test_two_hundred_suggestions_are_pinned(self):
        h = hashlib.sha256()
        for k in range(200):
            study = _mixed_history_study(k)
            cfg = TpeConfig(n_startup_trials=1 + k % 12, n_candidates=8 + k % 24)
            params = tpe_suggest(study, cfg, rng=np.random.default_rng([k, 2]))
            study.space.validate_assignment(params)
            h.update(repr(sorted(params.items())).encode())
        assert h.hexdigest() == (
            "3491493a12f76f7a8b409d5237be4fbf602d230d740fcd660227f3312540d59c"
        )

    def test_fit_and_logpdf_floats_are_pinned(self):
        h = hashlib.sha256()
        rng = np.random.default_rng(20)
        for k in range(120):
            is_log = k % 3 == 0
            low = float(rng.uniform(1e-4, 1.0)) if is_log else float(rng.uniform(-5.0, 5.0))
            high = low * float(rng.uniform(2.0, 1e4)) if is_log else low + float(rng.uniform(1e-3, 10.0))
            values = [float(v) for v in rng.uniform(low, high, size=int(rng.integers(0, 80)))]
            est = fit_parzen(values, low, high, is_log=is_log)
            xs = rng.uniform(est.low, est.high, size=24)
            for arr in (est.centers, est.bandwidths, est.weights, est._log_trunc_mass):
                h.update(np.asarray(arr, dtype="<f8").tobytes())
            h.update(np.asarray(parzen_logpdf(est, xs), dtype="<f8").tobytes())
            h.update(repr(parzen_logpdf(est, float(xs[0]))).encode())
        assert h.hexdigest() == (
            "8169e40760722e74afa74eaa574389586cef866e29f6b4ed0d500ae1a3099fb6"
        )


class TestComponentChoice:
    """parzen_sample and the discrete ask draw indices by Generator.choice's
    own arithmetic; the indices and the generator state must match it."""

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.lists(st.floats(min_value=1e-300, max_value=1e3), min_size=1, max_size=60),
        size=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**63),
    )
    def test_matches_generator_choice(self, raw, size, seed):
        p = np.array(raw) / math.fsum(raw)
        assume(abs(p.sum() - 1.0) <= 1e-8)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _choice(ours, p, size).tolist() == theirs.choice(len(p), size=size, p=p).tolist()
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_fitted_weights_match_generator_choice(self):
        rng = np.random.default_rng(3)
        for n in range(0, 300, 7):
            est = fit_parzen(list(rng.uniform(size=n)), 0.0, 1.0)
            ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
            idx = theirs.choice(len(est.weights), size=24, p=est.weights)
            assert _choice(ours, est.weights, 24).tolist() == idx.tolist()
            assert ours.bit_generator.state == theirs.bit_generator.state
