import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from studyforge import surrogate
from studyforge.errors import DivergenceError, ValidationError
from studyforge.surrogate import (
    DEFAULT_HP,
    AdamState,
    MlpModel,
    SyntheticSpec,
    adam_step,
    batch_cross_entropy,
    benchmark_objective,
    class_template,
    confusion_and_f1,
    cross_entropy,
    init_model,
    make_synthetic_dataset,
    mlp_backward,
    mlp_forward,
    resolve_hp,
    softmax,
    split_arrays,
    train_and_evaluate,
)


def small_model(seed=0, input_dim=6, hidden=5, n_classes=3, dropout=0.0):
    rng = np.random.default_rng(seed)
    a1 = math.sqrt(6.0 / input_dim)
    a2 = math.sqrt(6.0 / hidden)
    return MlpModel(
        w1=rng.uniform(-a1, a1, size=(input_dim, hidden)),
        b1=rng.normal(0.0, 0.1, size=hidden),
        w2=rng.uniform(-a2, a2, size=(hidden, n_classes)),
        b2=rng.normal(0.0, 0.1, size=n_classes),
        dropout_rate=dropout,
    )


class TestSyntheticDataset:
    def test_zero_noise_repeats_the_class_template(self):
        spec = SyntheticSpec(n_per_class=5, image_side=8, noise_std=0.0)
        images, labels = make_synthetic_dataset(spec, n_classes=2)
        for c in range(2):
            block = images[labels == c]
            assert all(np.array_equal(img, block[0]) for img in block)
            expected = np.clip(class_template(c, 2, 8), 0.0, 1.0)
            assert np.allclose(block[0], expected, atol=1e-12)

    def test_four_class_counts_balanced(self):
        spec = SyntheticSpec(n_per_class=50, image_side=8)
        images, labels = make_synthetic_dataset(spec, n_classes=4)
        assert images.shape == (200, 8, 8)
        assert [int(np.sum(labels == c)) for c in range(4)] == [50, 50, 50, 50]

    def test_bitwise_deterministic(self):
        spec = SyntheticSpec(seed=11)
        a, _ = make_synthetic_dataset(spec)
        b, _ = make_synthetic_dataset(spec)
        assert np.array_equal(a, b)

    def test_values_clipped_to_unit_interval(self):
        images, _ = make_synthetic_dataset(SyntheticSpec(noise_std=2.0))
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            make_synthetic_dataset(SyntheticSpec(), n_classes=3)
        with pytest.raises(ValidationError):
            SyntheticSpec(n_per_class=0)
        with pytest.raises(ValidationError):
            SyntheticSpec(image_side=1)
        with pytest.raises(ValidationError):
            SyntheticSpec(noise_std=-0.1)


class TestSplitArrays:
    def test_stratified_sizes(self):
        images, labels = make_synthetic_dataset(SyntheticSpec(n_per_class=60))
        data = split_arrays(images, labels, ratios=(0.7, 0.2, 0.1), seed=0)
        assert len(data.train_x) == 84 and len(data.val_x) == 24 and len(data.test_x) == 12
        for y in (data.train_y, data.val_y, data.test_y):
            counts = np.bincount(y, minlength=2)
            assert counts[0] == counts[1]
        assert data.image_side == 16 and data.n_classes == 2

    def test_deterministic_in_seed(self):
        images, labels = make_synthetic_dataset(SyntheticSpec())
        a = split_arrays(images, labels, seed=5)
        b = split_arrays(images, labels, seed=5)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.val_y, b.val_y)

    @pytest.mark.parametrize(
        "labels, seed, digest",
        [
            (np.repeat([0, 1], [7, 5]), 0,
                "c006f6958d46d7853d73992eb72fdf7e868469dbdb080a1c4097e509846d54d5",
            ),
            (np.repeat([0, 1, 2, 3], [1, 9, 33, 4]), 3,
                "621eade69ac52b56891a1f295bbb202c718c49977bf76ce663a6bb1c293e5c80",
            ),
            (np.zeros(11, dtype=int), 2,
                "091d3a6afed93ddb9981755b279fb13f8cb273987a6d653c87f8b860e0316138",
            ),
            (np.random.default_rng(7).integers(0, 4, size=50), 11,
                "140ed42dde001d3cb1d58c2b7c43b05f05796272af51ec79e64ffd8508585347",
            ),
            (np.array([2, 0, 2, 1, 0, 2, 2, 1]), 5,
                "bb536847385dcfe648e91aa8ea1d25f82136aa4b578aa6fd64b88b1eb734c6b1",
            ),
        ],
    )
    def test_split_is_pinned(self, labels, seed, digest):
        images = np.arange(len(labels) * 9, dtype=float).reshape(-1, 3, 3)
        data = split_arrays(images, labels, seed=seed)
        h = hashlib.sha256()
        for name in ("train_x", "train_y", "val_x", "val_y", "test_x", "test_y"):
            arr = getattr(data, name)
            h.update(f"{name}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        h.update(f"{data.image_side},{data.n_classes}".encode())
        assert h.hexdigest() == digest


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_four_classes(self):
        assert cross_entropy(np.zeros(4), 2) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_two_class_arithmetic(self):
        assert cross_entropy(np.array([2.0, 0.0]), 0) == pytest.approx(
            math.log(1.0 + math.exp(-2.0)), abs=1e-12
        )

    def test_huge_logit_no_overflow(self):
        value = cross_entropy(np.array([1000.0, 0.0]), 0)
        assert math.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ValidationError):
            cross_entropy(np.array([np.inf, 0.0]), 0)
        with pytest.raises(ValidationError):
            cross_entropy(np.array([np.nan, 0.0]), 0)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            cross_entropy(np.zeros(3), 3)

    def test_cross_entropy_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            logits = rng.normal(0.0, 5.0, size=4)
            assert cross_entropy(logits, int(rng.integers(4))) >= 0.0

    def test_batch_matches_mean_of_singles(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(0.0, 3.0, size=(7, 4))
        labels = rng.integers(0, 4, size=7)
        singles = [cross_entropy(logits[i], int(labels[i])) for i in range(7)]
        assert batch_cross_entropy(logits, labels) == pytest.approx(
            float(np.mean(singles)), abs=1e-12
        )

    @given(st.lists(st.floats(-700, 700), min_size=2, max_size=8))
    def test_softmax_normalizes(self, logits):
        probs = softmax(np.array(logits))
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs >= 0.0)


class TestMlpForward:
    def test_zero_dropout_train_equals_eval(self):
        model = small_model(dropout=0.0)
        x = np.random.default_rng(2).random((4, 6))
        train_logits, mask = mlp_forward(model, x, train=True, rng=np.random.default_rng(0))
        eval_logits, eval_mask = mlp_forward(model, x, train=False)
        assert np.array_equal(train_logits, eval_logits)
        assert eval_mask is None
        assert mask is not None and np.all(mask == 1.0)

    def test_eval_mode_ignores_rng(self):
        model = small_model(dropout=0.2)
        x = np.random.default_rng(3).random((4, 6))
        a, _ = mlp_forward(model, x, train=False)
        b, _ = mlp_forward(model, x, train=False, rng=np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_zero_weights_give_zero_logits(self):
        model = MlpModel(
            w1=np.zeros((6, 5)), b1=np.zeros(5), w2=np.zeros((5, 3)), b2=np.zeros(3)
        )
        logits, _ = mlp_forward(model, np.ones((2, 6)))
        assert np.all(logits == 0.0)

    def test_shape_mismatch_rejected(self):
        model = small_model()
        with pytest.raises(ValidationError):
            mlp_forward(model, np.ones((2, 7)))
        with pytest.raises(ValidationError):
            mlp_forward(model, np.ones(6))

    def test_train_dropout_requires_rng_or_mask(self):
        model = small_model(dropout=0.2)
        with pytest.raises(ValidationError):
            mlp_forward(model, np.ones((2, 6)), train=True)

    def test_supplied_mask_is_honored(self):
        model = small_model(dropout=0.2)
        x = np.random.default_rng(4).random((3, 6))
        logits, mask = mlp_forward(model, x, train=True, rng=np.random.default_rng(7))
        again, _ = mlp_forward(model, x, train=True, mask=mask)
        assert np.array_equal(logits, again)

    def test_inverted_dropout_expectation(self):
        # weights and inputs kept positive so the eval logits are bounded
        # away from zero and a relative comparison is meaningful
        rng = np.random.default_rng(5)
        model = MlpModel(
            w1=rng.uniform(0.2, 1.0, size=(6, 5)),
            b1=np.zeros(5),
            w2=rng.uniform(0.2, 1.0, size=(5, 3)),
            b2=np.zeros(3),
            dropout_rate=0.2,
        )
        x = rng.uniform(0.2, 1.0, size=(1, 6))
        eval_logits, _ = mlp_forward(model, x, train=False)
        draws = np.empty((10_000, 3))
        mask_rng = np.random.default_rng(6)
        for i in range(len(draws)):
            logits, _ = mlp_forward(model, x, train=True, rng=mask_rng)
            draws[i] = logits[0]
        mean = draws.mean(axis=0)
        assert np.all(np.abs(mean - eval_logits[0]) / np.abs(eval_logits[0]) < 0.02)


def finite_difference_grads(model, x, y, mask, h=1e-5):
    grads = {}
    for name, param in model.params().items():
        g = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            logits, _ = mlp_forward(model, x, train=mask is not None, mask=mask)
            up = batch_cross_entropy(logits, y)
            param[idx] = orig - h
            logits, _ = mlp_forward(model, x, train=mask is not None, mask=mask)
            down = batch_cross_entropy(logits, y)
            param[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
            it.iternext()
        grads[name] = g
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestMlpBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        model = small_model(seed=10)
        x = rng.random((5, 6))
        y = rng.integers(0, 3, size=5)
        analytic = mlp_backward(model, x, y, None)
        numeric = finite_difference_grads(model, x, y, None)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_matches_finite_differences_with_dropout_mask(self):
        rng = np.random.default_rng(11)
        model = small_model(seed=11, dropout=0.2)
        x = rng.random((5, 6))
        y = rng.integers(0, 3, size=5)
        _, mask = mlp_forward(model, x, train=True, rng=np.random.default_rng(0))
        analytic = mlp_backward(model, x, y, mask)
        numeric = finite_difference_grads(model, x, y, mask)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_duplicated_batch_same_mean_gradient(self):
        rng = np.random.default_rng(12)
        model = small_model(seed=12)
        x = rng.random((4, 6))
        y = rng.integers(0, 3, size=4)
        single = mlp_backward(model, x, y, None)
        doubled = mlp_backward(model, np.vstack([x, x]), np.concatenate([y, y]), None)
        for name in single:
            assert np.allclose(single[name], doubled[name], atol=1e-12)

    def test_near_zero_loss_implies_near_zero_gradient(self):
        model = MlpModel(
            w1=np.eye(2),
            b1=np.zeros(2),
            w2=np.array([[30.0, -30.0], [0.0, 0.0]]),
            b2=np.zeros(2),
        )
        x = np.array([[1.0, 0.0]])
        y = np.array([0])
        logits, _ = mlp_forward(model, x)
        assert batch_cross_entropy(logits, y) < 1e-9
        grads = mlp_backward(model, x, y, None)
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total < 1e-6


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = {"w": np.array([1.0, -2.0]), "b": np.array([0.5])}
        before = {k: v.copy() for k, v in params.items()}
        state = AdamState.for_params(params)
        adam_step(params, {k: np.zeros_like(v) for k, v in params.items()}, state, 1e-3)
        assert state.step_count == 1
        for k in params:
            assert np.array_equal(params[k], before[k])

    def test_first_step_magnitude_is_lr(self):
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.array([0.5])}, state, 1e-3)
        delta = params["w"][0] - 1.0
        assert delta == pytest.approx(-1e-3, rel=1e-6)

    def test_hundred_steps_shrink_quadratic(self):
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        for _ in range(100):
            adam_step(params, {"w": 2.0 * params["w"]}, state, 0.1)
        assert abs(params["w"][0]) < 0.1

    def test_matches_scalar_reference_rollout(self):
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        w, m, v = 1.0, 0.0, 0.0
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.05
        for t in range(1, 101):
            g = math.sin(t) + 2.0 * w
            adam_step(params, {"w": np.array([g])}, state, lr)
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            w -= lr * (m / (1.0 - beta1**t)) / (math.sqrt(v / (1.0 - beta2**t)) + eps)
            assert params["w"][0] == pytest.approx(w, abs=1e-10)

    def test_non_finite_gradient_raises_divergence(self):
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        with pytest.raises(DivergenceError):
            adam_step(params, {"w": np.array([np.nan])}, state, 1e-3)

    def test_lr_must_be_positive(self):
        params = {"w": np.array([1.0])}
        with pytest.raises(ValidationError):
            adam_step(params, {"w": np.array([0.1])}, AdamState.for_params(params), 0.0)


class TestConfusionAndF1:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        confusion, f1, macro = confusion_and_f1(labels, labels, 4)
        assert np.array_equal(confusion, np.diag([2, 2, 2, 2]))
        assert f1 == [1.0, 1.0, 1.0, 1.0]
        assert macro == 1.0

    def test_single_class_collapse(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.zeros(4, dtype=int)
        confusion, f1, macro = confusion_and_f1(preds, labels, 2)
        assert np.array_equal(confusion, [[2, 0], [2, 0]])
        assert f1[0] == pytest.approx(2.0 / 3.0)
        assert f1[1] == 0.0
        assert macro == pytest.approx(1.0 / 3.0)

    def test_empty_inputs(self):
        confusion, f1, macro = confusion_and_f1([], [], 3)
        assert np.array_equal(confusion, np.zeros((3, 3), dtype=int))
        assert f1 == [0.0, 0.0, 0.0]
        assert macro == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            confusion_and_f1([0, 1], [0], 2)

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            confusion_and_f1([2], [0], 2)

    def test_row_sums_count_true_labels(self):
        rng = np.random.default_rng(13)
        labels = rng.integers(0, 4, size=50)
        preds = rng.integers(0, 4, size=50)
        confusion, _, _ = confusion_and_f1(preds, labels, 4)
        assert np.array_equal(confusion.sum(axis=1), np.bincount(labels, minlength=4))
        assert confusion.sum() == 50


class TestResolveHp:
    def test_overlays_searched_values_on_defaults(self):
        hp = resolve_hp({"lr": 1e-3, "hflip": True})
        assert hp["lr"] == 1e-3
        assert hp["hflip"] is True
        assert hp["batch_size"] == DEFAULT_HP["batch_size"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            resolve_hp({"momentum": 0.9})


@pytest.fixture(scope="module")
def default_split():
    images, labels = make_synthetic_dataset(SyntheticSpec())
    return split_arrays(images, labels)


class TestTrainAndEvaluate:
    def test_separable_data_reaches_high_accuracy(self, default_split):
        report = train_and_evaluate({"lr": 5e-4}, default_split, epochs=20, seed=0)
        assert report.final_accuracy >= 0.9

    def test_zero_epochs_reports_untrained_accuracy(self, default_split):
        calls = []
        report = train_and_evaluate(
            {"lr": 5e-4}, default_split, epochs=0, reporter=lambda e, v: calls.append(e)
        )
        assert calls == []
        rng = np.random.default_rng(0)
        side = default_split.image_side
        model = init_model(side * side, default_split.n_classes, 0.0, rng)
        logits, _ = mlp_forward(model, default_split.val_x.reshape(len(default_split.val_x), -1))
        preds = np.argmax(logits, axis=1)
        assert report.final_accuracy == pytest.approx(
            float(np.mean(preds == default_split.val_y)), abs=1e-15
        )

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_one_evaluation_per_epoch_and_at_least_one(self, default_split, monkeypatch, epochs):
        evals = []
        forward = surrogate.mlp_forward

        def counting_forward(model, batch, train=False, **kwargs):
            evals.append(train)
            return forward(model, batch, train=train, **kwargs)

        monkeypatch.setattr(surrogate, "mlp_forward", counting_forward)
        train_and_evaluate({"lr": 5e-4}, default_split, epochs=epochs)
        assert evals.count(False) == max(epochs, 1)

    def test_deterministic_given_seed(self, default_split):
        a = train_and_evaluate({"lr": 5e-4, "dropout": 0.1}, default_split, epochs=3, seed=4)
        b = train_and_evaluate({"lr": 5e-4, "dropout": 0.1}, default_split, epochs=3, seed=4)
        assert a.epoch_accuracies == b.epoch_accuracies
        assert np.array_equal(a.confusion, b.confusion)
        assert a.f1_per_class == b.f1_per_class

    def test_reporter_receives_one_based_epoch_curve(self, default_split):
        seen = []
        report = train_and_evaluate(
            {"lr": 5e-4}, default_split, epochs=4, reporter=lambda e, v: seen.append((e, v))
        )
        assert [e for e, _ in seen] == [1, 2, 3, 4]
        assert [v for _, v in seen] == report.epoch_accuracies

    def test_learning_curve_is_append_only(self, default_split):
        short = train_and_evaluate({"lr": 5e-4, "dropout": 0.1}, default_split, epochs=3, seed=2)
        long = train_and_evaluate({"lr": 5e-4, "dropout": 0.1}, default_split, epochs=6, seed=2)
        assert long.epoch_accuracies[:3] == short.epoch_accuracies

    def test_accuracy_consistent_with_confusion(self, default_split):
        report = train_and_evaluate({"lr": 5e-4}, default_split, epochs=2)
        assert report.final_accuracy == float(
            np.trace(report.confusion) / report.confusion.sum()
        )

    def test_runaway_lr_diverges(self, default_split):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            train_and_evaluate({"lr": 1e200}, default_split, epochs=2)

    def test_validation(self, default_split):
        with pytest.raises(ValidationError):
            train_and_evaluate({"lr": 0.0}, default_split, epochs=1)
        with pytest.raises(ValidationError):
            train_and_evaluate({"batch_size": 0}, default_split, epochs=1)
        with pytest.raises(ValidationError):
            train_and_evaluate({"batch_size": 16.0}, default_split, epochs=1)
        with pytest.raises(ValidationError):
            train_and_evaluate({"lr": 1e-3}, default_split, epochs=-1)


class TestBenchmarkObjective:
    def test_analytic_minima(self):
        assert benchmark_objective("sphere", {"a": 0.5, "b": 0.5}) == 0.0
        assert benchmark_objective("quadratic-1d", {"x": 0.3}) == 0.0
        assert benchmark_objective("rosenbrock-2d", {"x": 1.0, "y": 1.0}) == 0.0

    def test_known_values(self):
        assert benchmark_objective("sphere", {"a": 0.0, "b": 1.0}) == pytest.approx(0.5)
        assert benchmark_objective("quadratic-1d", {"x": 0.8}) == pytest.approx(0.25)
        assert benchmark_objective("rosenbrock-2d", {"x": 0.0, "y": 0.0}) == pytest.approx(1.0)

    def test_arity_checks(self):
        with pytest.raises(ValidationError):
            benchmark_objective("quadratic-1d", {"x": 0.1, "y": 0.2})
        with pytest.raises(ValidationError):
            benchmark_objective("rosenbrock-2d", {"x": 0.1})

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            benchmark_objective("ackley", {"x": 0.0})


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_gradient_check_property(seed):
    rng = np.random.default_rng(seed)
    model = small_model(seed=seed, input_dim=4, hidden=4, n_classes=2)
    x = rng.random((3, 4))
    y = rng.integers(0, 2, size=3)
    analytic = mlp_backward(model, x, y, None)
    numeric = finite_difference_grads(model, x, y, None)
    assert max_relative_error(analytic, numeric) < 1e-4


# sha256 of the trained w1, b1, w2, b2 (<f8) after 3 epochs at dropout 0.1,
# recorded with the per-image augmentation draws and a backward pass that
# recomputed its forward pass
FULL_AUGMENTATION = {"rotation": 10.0, "scale": 0.2, "shear": 0.2, "translate": 0.3, "hflip": True, "vflip": True}


@pytest.mark.parametrize(
    "augmentation, batch_size, digest",
    [
        (FULL_AUGMENTATION, 16, "bba6f2c6233843b822f1516d1282ca8d45fbca640d693e41d60560f05fe3510e"),
        ({}, 16, "a5ea6d0a42337fb5aaccdfc414b7b7a919550747d1733b124a0789a3344e1ea4"),
        # 84 training images: the last minibatch holds one image
        ({}, 83, "148540e537ab723b8db06de6536940b1f54a4be58c00bcd99b7ed4cd01590019"),
    ],
)
def test_trained_weights_are_pinned(default_split, monkeypatch, augmentation, batch_size, digest):
    models = []
    forward = surrogate.mlp_forward

    def recording_forward(model, batch, train=False, **kwargs):
        models.append(model)
        return forward(model, batch, train=train, **kwargs)

    monkeypatch.setattr(surrogate, "mlp_forward", recording_forward)
    params = {"lr": 5e-4, "dropout": 0.1, "batch_size": batch_size, **augmentation}
    train_and_evaluate(params, default_split, epochs=3, seed=1)
    trained = models[-1]  # the final evaluation sees the trained weights
    h = hashlib.sha256()
    for name in ("w1", "b1", "w2", "b2"):
        h.update(np.ascontiguousarray(getattr(trained, name), dtype="<f8").tobytes())
    assert h.hexdigest() == digest


def reference_adam_step(params, grads, state, lr):
    """The per-array Adam update the flat one replaced, for comparison."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for k, p in params.items():
        g = grads[k]
        state.m[k] = state.beta1 * state.m[k] + (1.0 - state.beta1) * g
        state.v[k] = state.beta2 * state.v[k] + (1.0 - state.beta2) * g * g
        m_hat = state.m[k] / bc1
        v_hat = state.v[k] / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


class TestFlatTrainingStep:
    def test_flat_adam_matches_per_array_reference_bitwise(self):
        rng = np.random.default_rng(3)
        model = init_model(256, 2, 0.1, rng)
        ref = {k: p.copy() for k, p in model.params().items()}
        ref_state = AdamState.for_params(ref)
        weights, views = surrogate._flat_copy(model.params())
        grads, grad_views = surrogate._flat_copy(views)
        state = AdamState.for_params({"all": weights})
        for step in range(200):
            for k, g in grad_views.items():
                g[...] = rng.normal(0.0, 10.0 ** rng.uniform(-6, 2), size=g.shape)
            reference_adam_step(ref, {k: g.copy() for k, g in grad_views.items()}, ref_state, 1e-3)
            adam_step({"all": weights}, {"all": grads}, state, 1e-3)
            for k in ref:
                assert np.array_equal(views[k], ref[k]), (step, k)
        assert state.step_count == ref_state.step_count == 200

    def test_flat_copy_views_share_one_buffer(self):
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([7.0])}
        flat, views = surrogate._flat_copy(arrays)
        assert np.array_equal(flat, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0])
        flat[:] = -1.0
        assert np.all(views["a"] == -1.0) and views["a"].shape == (2, 3)
        assert np.all(arrays["a"] != -1.0)  # a copy, not the caller's arrays

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_backward_from_forward_activations_is_bitwise_equal(self, dropout):
        model = small_model(seed=5, input_dim=6, hidden=5, n_classes=3, dropout=dropout)
        rng = np.random.default_rng(6)
        x = rng.random((7, 6))
        y = rng.integers(0, 3, size=7)
        acts = {}
        _, mask = mlp_forward(model, x, train=True, rng=rng, acts=acts)
        recomputed = mlp_backward(model, x, y, mask)
        out = {k: np.full_like(p, np.nan) for k, p in model.params().items()}
        cached = mlp_backward(model, x, y, mask, acts=acts, out=out)
        assert cached is out
        for k in recomputed:
            assert np.array_equal(cached[k], recomputed[k]), k

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 40), scale=st.floats(1e-3, 1e3))
    def test_loss_is_the_mean_formula_and_leaves_its_softmax(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0.0, scale, size=(n, 3))
        labels = rng.integers(0, 3, size=n)
        shifted = logits - logits.max(axis=1, keepdims=True)
        picked = shifted[np.arange(n), labels]
        expected = float(np.mean(np.log(np.exp(shifted).sum(axis=1)) - picked))
        acts = {}
        assert batch_cross_entropy(logits, labels, acts) == expected
        assert batch_cross_entropy(logits, labels) == expected
        assert np.array_equal(acts["probs"], softmax(logits))

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_backward_after_the_loss_uses_its_softmax_once(self, dropout):
        model = small_model(seed=5, input_dim=6, hidden=5, n_classes=3, dropout=dropout)
        rng = np.random.default_rng(7)
        acts = {}
        # a softmax left by an earlier batch's loss is not read for a later one
        mlp_forward(model, rng.random((4, 6)), train=True, rng=rng, acts=acts)
        batch_cross_entropy(acts["logits"], np.zeros(4, dtype=int), acts)
        x, y = rng.random((7, 6)), rng.integers(0, 3, size=7)
        for with_loss in (False, True):
            logits, mask = mlp_forward(model, x, train=True, rng=rng, acts=acts)
            if with_loss:
                batch_cross_entropy(logits, y, acts)
            grads = mlp_backward(model, x, y, mask, acts=acts)
            recomputed = mlp_backward(model, x, y, mask)
            for k in recomputed:
                assert np.array_equal(grads[k], recomputed[k]), (with_loss, k)
            assert acts.get("probs") is None

    def test_backward_reuses_the_training_forward_pass(self, default_split, monkeypatch):
        logits_seen, reused = [], []
        forward, backward = surrogate.mlp_forward, surrogate.mlp_backward

        def recording_forward(model, batch, train=False, **kwargs):
            logits, mask = forward(model, batch, train=train, **kwargs)
            logits_seen.append(logits)
            return logits, mask

        def recording_backward(model, batch, labels, mask, acts=None, out=None):
            reused.append(acts is not None and acts["logits"] is logits_seen[-1])
            return backward(model, batch, labels, mask, acts=acts, out=out)

        monkeypatch.setattr(surrogate, "mlp_forward", recording_forward)
        monkeypatch.setattr(surrogate, "mlp_backward", recording_backward)
        train_and_evaluate({"lr": 5e-4, "batch_size": 16}, default_split, epochs=2)
        n_batches = -(-len(default_split.train_x) // 16)
        assert reused == [True] * (2 * n_batches)
        assert len(logits_seen) == 2 * n_batches + 2  # plus one evaluation per epoch
