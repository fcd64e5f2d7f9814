"""Desk-scale trainable objective plus analytic benchmark functions.

A one-hidden-layer MLP with inverted dropout, trained by Adam on
cross-entropy over synthetic oriented-grating images, stands in for the
full-scale x-ray classifiers. Every searched hyperparameter (learning
rate, dropout, batch size, augmentation magnitudes, flips) changes the
training run, so the optimizer stack can be exercised end to end in
seconds. Evaluation metrics (accuracy, confusion matrix, per-class F1)
live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .augment import AffineRanges, affine_matrix, apply_affine, sample_affine_params
from .errors import DivergenceError, ValidationError
from .manifest import DEFAULT_RATIOS, stratified_split

BENCHMARKS = ("sphere", "rosenbrock-2d", "quadratic-1d")

# Paper-baseline fallbacks for hyperparameters a config chooses not to search.
DEFAULT_HP = {
    "lr": 3e-4,
    "dropout": 0.0,
    "batch_size": 32,
    "rotation": 0.0,
    "scale": 0.0,
    "shear": 0.0,
    "translate": 0.0,
    "hflip": False,
    "vflip": False,
}

HIDDEN_DIM = 32


# --- synthetic dataset ------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Built-in dataset used when no manifest is given; its image_side is
    also the raster side of manifest runs."""

    # noise_std 0.8 keeps the classes linearly separable by the template
    # matched filter while making training sensitive to the learning rate
    n_per_class: int = 60
    image_side: int = 16
    noise_std: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.n_per_class < 1:
            raise ValidationError("n_per_class must be >= 1")
        if self.image_side < 2:
            raise ValidationError("image_side must be >= 2")
        if self.noise_std < 0:
            raise ValidationError("noise_std must be >= 0")


def class_template(c: int, n_classes: int, side: int) -> np.ndarray:
    """Oriented grating for class c: stripes at angle c * 180 / n_classes."""
    angle = math.pi * c / n_classes
    ax = np.linspace(-1.0, 1.0, side)
    xs, ys = np.meshgrid(ax, ax)
    u = xs * math.cos(angle) + ys * math.sin(angle)
    return 0.5 + 0.5 * np.cos(2.0 * math.pi * 2.0 * u)


def make_synthetic_dataset(
    spec: SyntheticSpec, n_classes: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Images (N, side, side) in [0,1] and labels (N,), class-major order."""
    if n_classes not in (2, 4):
        raise ValidationError("n_classes must be 2 or 4")
    rng = np.random.default_rng(spec.seed)
    images = []
    labels = []
    for c in range(n_classes):
        template = class_template(c, n_classes, spec.image_side)
        for _ in range(spec.n_per_class):
            noisy = template + rng.normal(0.0, spec.noise_std, template.shape)
            images.append(np.clip(noisy, 0.0, 1.0))
            labels.append(c)
    return np.array(images), np.array(labels, dtype=int)


@dataclass
class SplitArrays:
    """Train/val/test raster splits the trainer consumes."""

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    image_side: int
    n_classes: int


def split_arrays(
    images: np.ndarray,
    labels: np.ndarray,
    ratios=DEFAULT_RATIOS,
    seed: int = 0,
) -> SplitArrays:
    """Stratified 70:20:10-style split of a raster pool: ``stratified_split``
    over the image indices."""
    split = stratified_split(range(len(labels)), ratios, seed, label_key=labels.__getitem__)
    train, val, test = (np.array(part, dtype=int) for part in (split.train, split.val, split.test))
    return SplitArrays(
        train_x=images[train],
        train_y=labels[train],
        val_x=images[val],
        val_y=labels[val],
        test_x=images[test],
        test_y=labels[test],
        image_side=images.shape[1],
        n_classes=int(labels.max()) + 1,
    )


# --- model ------------------------------------------------------------------


@dataclass
class MlpModel:
    """input -> hidden ReLU (inverted dropout) -> logits."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    dropout_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate <= 0.2:
            raise ValidationError("dropout_rate must be in [0, 0.2]")

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def init_model(
    input_dim: int,
    n_classes: int,
    dropout_rate: float,
    rng: np.random.Generator,
    hidden_dim: int = HIDDEN_DIM,
) -> MlpModel:
    """Scaled-uniform fan-in init: U(-a, a) with a = sqrt(6 / fan_in)."""
    a1 = math.sqrt(6.0 / input_dim)
    a2 = math.sqrt(6.0 / hidden_dim)
    return MlpModel(
        w1=rng.uniform(-a1, a1, size=(input_dim, hidden_dim)),
        b1=np.zeros(hidden_dim),
        w2=rng.uniform(-a2, a2, size=(hidden_dim, n_classes)),
        b2=np.zeros(n_classes),
        dropout_rate=dropout_rate,
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, label: int) -> float:
    """-log softmax(logits)[label], max-shifted for stability."""
    logits = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(logits)):
        raise ValidationError("logits must be finite")
    if not 0 <= label < logits.shape[-1]:
        raise ValidationError(f"label {label} out of range")
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[label])


def batch_cross_entropy(logits: np.ndarray, labels: np.ndarray, acts: dict | None = None) -> float:
    """Mean cross-entropy of a minibatch. A dict passed as ``acts`` (the
    one ``mlp_forward`` filled for these logits) receives their softmax,
    so ``mlp_backward`` need not compute it again."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    if acts is not None:
        acts["probs"] = np.divide(e, z, out=e)
    picked = shifted[np.arange(len(labels)), labels]
    return float((np.log(z[:, 0]) - picked).sum() / len(labels))  # np.mean's arithmetic


def mlp_forward(
    model: MlpModel,
    batch: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
    mask: np.ndarray | None = None,
    acts: dict | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Returns (logits, dropout mask or None).

    Train mode applies inverted dropout: units kept with probability 1-p
    and scaled by 1/(1-p); eval mode is deterministic with no scaling. A
    caller-supplied mask is honored (needed to hold it fixed for gradient
    checks). A dict passed as ``acts`` receives the activations that
    ``mlp_backward`` needs, so it need not run the forward pass again.
    """
    x = np.asarray(batch, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.w1.shape[0]:
        raise ValidationError(
            f"batch shape {x.shape} incompatible with input dim {model.w1.shape[0]}"
        )
    z1 = x @ model.w1 + model.b1
    a1 = np.maximum(z1, 0.0)
    if train and model.dropout_rate > 0.0:
        keep = 1.0 - model.dropout_rate
        if mask is None:
            if rng is None:
                raise ValidationError("train-mode dropout needs an rng or a mask")
            mask = (rng.random(a1.shape) < keep).astype(float)
        hidden = a1 * mask / keep
    else:
        mask = None if not train else np.ones_like(a1)
        hidden = a1
    logits = hidden @ model.w2 + model.b2
    if acts is not None:
        acts.update(z1=z1, hidden=hidden, logits=logits, probs=None)
    return logits, mask


def mlp_backward(
    model: MlpModel,
    batch: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray | None,
    acts: dict | None = None,
    out: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Exact gradients of mean cross-entropy with the dropout mask fixed.

    ``acts`` from the ``mlp_forward`` call on the same batch and mask skips
    the forward pass, and the softmax too once ``batch_cross_entropy`` has
    put it there; without it the pass runs here. ``out`` (arrays named and
    shaped like ``model.params()``) receives the gradients in place.
    """
    x = np.asarray(batch, dtype=float)
    y = np.asarray(labels, dtype=int)
    n = x.shape[0]
    keep = 1.0 - model.dropout_rate
    if acts is None:
        acts = {}
        mlp_forward(model, x, train=mask is not None, mask=mask, acts=acts)

    probs = acts.pop("probs", None)
    if probs is None:
        probs = softmax(acts["logits"])
    probs[np.arange(n), y] -= 1.0
    d_logits = probs / n

    grads = out if out is not None else {k: np.empty_like(p) for k, p in model.params().items()}
    np.matmul(acts["hidden"].T, d_logits, out=grads["w2"])
    d_logits.sum(axis=0, out=grads["b2"])
    d_hidden = d_logits @ model.w2.T
    if mask is not None and model.dropout_rate > 0.0:
        d_a1 = d_hidden * mask / keep
    else:
        d_a1 = d_hidden
    d_z1 = d_a1 * (acts["z1"] > 0.0)
    np.matmul(x.T, d_z1, out=grads["w1"])
    d_z1.sum(axis=0, out=grads["b1"])
    return grads


def _flat_copy(arrays: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The arrays copied into one flat float64 buffer, and views of it
    named and shaped like them."""
    flat = np.concatenate([np.ravel(a) for a in arrays.values()])
    views, start = {}, 0
    for name, a in arrays.items():
        views[name] = flat[start : start + a.size].reshape(a.shape)
        start += a.size
    return flat, views


# --- Adam -------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # per-array scratch for a step's temporaries, made on the first step
    work: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """In-place bias-corrected Adam update; raises on non-finite gradients.

    Each array, and its moments, is updated in place by whole-array
    operations in the order of the textbook formulas, so one flat buffer
    (as the trainer keeps) takes one update per step. Its temporaries live
    in ``state.work``.
    """
    if lr <= 0:
        raise ValidationError("lr must be positive")
    for g in grads.values():
        if not np.isfinite(g).all():
            raise DivergenceError("non-finite gradient")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for k, p in params.items():
        g, m, v = grads[k], state.m[k], state.v[k]
        if k not in state.work:
            state.work[k] = np.empty((2, *p.shape))
        step, den = state.work[k]
        # m = b1 * m + (1 - b1) * g
        m *= b1
        np.multiply(1.0 - b1, g, out=step)
        m += step
        # v = b2 * v + (1 - b2) * g * g
        v *= b2
        np.multiply(1.0 - b2, g, out=step)
        step *= g
        v += step
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=step)
        step *= lr
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += state.eps
        step /= den
        p -= step


# --- training loop ----------------------------------------------------------


@dataclass
class TrainReport:
    epoch_accuracies: list[float]
    final_accuracy: float
    confusion: np.ndarray
    f1_per_class: list[float]
    macro_f1: float


def confusion_and_f1(
    predictions, labels, n_classes: int
) -> tuple[np.ndarray, list[float], float]:
    """confusion[i][j] = count(label i, predicted j); F1 is 0 when P+R = 0."""
    preds = np.asarray(predictions, dtype=int)
    labs = np.asarray(labels, dtype=int)
    if preds.shape != labs.shape:
        raise ValidationError("predictions and labels must have equal length")
    if preds.size and (preds.max() >= n_classes or labs.max() >= n_classes):
        raise ValidationError("class index out of range")
    confusion = np.zeros((n_classes, n_classes), dtype=int)
    for lab, pred in zip(labs, preds):
        confusion[lab, pred] += 1
    f1 = []
    for c in range(n_classes):
        tp = confusion[c, c]
        predicted = confusion[:, c].sum()
        actual = confusion[c, :].sum()
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1.append(
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
    macro = float(np.mean(f1)) if f1 else 0.0
    return confusion, f1, macro


def resolve_hp(params: dict) -> dict:
    """Overlay searched values on the fixed-baseline hyperparameters."""
    unknown = set(params) - set(DEFAULT_HP)
    if unknown:
        raise ValidationError(f"unknown surrogate hyperparameters {sorted(unknown)}")
    hp = dict(DEFAULT_HP)
    hp.update(params)
    return hp


def _evaluate(model: MlpModel, x: np.ndarray) -> np.ndarray:
    logits, _ = mlp_forward(model, x, train=False)
    return np.argmax(logits, axis=1)


def train_and_evaluate(
    params: dict,
    data: SplitArrays,
    epochs: int = 20,
    reporter=None,
    seed: int = 0,
) -> TrainReport:
    """Train the MLP under one hyperparameter assignment.

    Training images are augmented per epoch within the assignment's affine
    envelopes; the reporter receives (epoch, validation accuracy) after
    each epoch (1-based) and may raise to stop the trial early. Returns
    the per-epoch curve plus confusion/F1 on the validation set.
    """
    hp = resolve_hp(params)
    if hp["lr"] <= 0:
        raise ValidationError("lr must be positive")
    if not isinstance(hp["batch_size"], int) or hp["batch_size"] < 1:
        raise ValidationError("batch_size must be a positive integer")
    if epochs < 0:
        raise ValidationError("epochs must be >= 0")
    if data.train_x.size == 0 or data.val_x.size == 0:
        raise ValidationError("train and validation sets must be non-empty")

    rng = np.random.default_rng(seed)
    side = data.image_side
    input_dim = side * side
    model = init_model(input_dim, data.n_classes, float(hp["dropout"]), rng)
    # weights, gradients and Adam's moments each live in one flat buffer,
    # so a minibatch ends in one Adam update over all four arrays
    weights, views = _flat_copy(model.params())
    model = replace(model, **views)
    grads, grad_views = _flat_copy(views)
    state = AdamState.for_params({"all": weights})
    acts: dict = {}
    ranges = AffineRanges(
        max_rotation_deg=float(hp["rotation"]),
        max_scale_frac=float(hp["scale"]),
        max_shear_frac=float(hp["shear"]),
        max_translate_frac=float(hp["translate"]),
        allow_hflip=bool(hp["hflip"]),
        allow_vflip=bool(hp["vflip"]),
    )
    augment = not ranges.is_identity()

    n_train = data.train_x.shape[0]
    val_flat = data.val_x.reshape(len(data.val_x), -1)
    epoch_accuracies: list[float] = []

    for epoch in range(1, epochs + 1):
        order = rng.permutation(n_train)
        pool = data.train_x[order]
        if augment:
            # the epoch's draws in per-image stream order, its matrices in
            # one batched pass, then one batched resample
            mats = affine_matrix(sample_affine_params(ranges, rng, n_train), side, side)
            pool = apply_affine(pool, mats)
        batch_pool = pool.reshape(n_train, -1)
        labels_pool = data.train_y[order]

        for start in range(0, n_train, hp["batch_size"]):
            xb = batch_pool[start : start + hp["batch_size"]]
            yb = labels_pool[start : start + hp["batch_size"]]
            logits, mask = mlp_forward(model, xb, train=True, rng=rng, acts=acts)
            loss = batch_cross_entropy(logits, yb, acts)
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            mlp_backward(model, xb, yb, mask, acts=acts, out=grad_views)
            adam_step({"all": weights}, {"all": grads}, state, float(hp["lr"]))

        preds = _evaluate(model, val_flat)
        acc = float(np.mean(preds == data.val_y))
        epoch_accuracies.append(acc)
        if reporter is not None:
            reporter(epoch, acc)

    if epochs == 0:  # otherwise the last epoch's predictions are the final ones
        preds = _evaluate(model, val_flat)
    confusion, f1, macro = confusion_and_f1(preds, data.val_y, data.n_classes)
    final_acc = float(np.trace(confusion) / confusion.sum())
    return TrainReport(
        epoch_accuracies=epoch_accuracies,
        final_accuracy=final_acc,
        confusion=confusion,
        f1_per_class=f1,
        macro_f1=macro,
    )


# --- analytic benchmarks ----------------------------------------------------


def benchmark_objective(name: str, params: dict) -> float:
    """sphere: sum (x_i - 0.5)^2; quadratic-1d: (x - 0.3)^2 on [0, 1];
    rosenbrock-2d: (1-x)^2 + 100 (y - x^2)^2. All minimized at known points."""
    values = [float(v) for v in params.values()]
    if name == "sphere":
        return float(sum((v - 0.5) ** 2 for v in values))
    if name == "quadratic-1d":
        if len(values) != 1:
            raise ValidationError("quadratic-1d takes exactly one parameter")
        return float((values[0] - 0.3) ** 2)
    if name == "rosenbrock-2d":
        if len(values) != 2:
            raise ValidationError("rosenbrock-2d takes exactly two parameters")
        x, y = values
        return float((1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2)
    raise ValidationError(f"unknown benchmark {name!r}")
