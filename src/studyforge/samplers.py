"""Samplers: random, grid, and the tree-structured Parzen estimator (TPE).

TPE splits the observed trials into a small "good" set and the remaining
"bad" set, fits one truncated-Gaussian mixture to each (per parameter,
independently), then proposes the candidate maximizing the density ratio
good/bad. Discrete parameters use smoothed categorical weights instead of
a mixture. Random search is also the fallback before enough trials exist.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ExhaustedSearchError, ValidationError
from .study import (
    MAXIMIZE,
    Distribution,
    Observations,
    SearchSpace,
    Study,
)

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# |x| from which libm's math.erf(x) is exactly +-1.0 (it saturates at 5.92)
_ERF_SATURATED = 6.0
# points per continuous grid axis; with 16 cached axes of at most this
# many floats, the axis cache holds at most ~51 MB
MAX_RESOLUTION = 100_000
# floats in a TPE scoring block of (rows, points, components): 384 KB, in cache
_BLOCK_FLOATS = 49_152


@dataclass(frozen=True)
class TpeConfig:
    """TPE constants; defaults sized for sub-1000-trial studies."""

    n_startup_trials: int = 10
    n_candidates: int = 24
    gamma_cap: int = 25
    gamma_fraction: float = 0.25
    prior_weight: float = 1.0

    def __post_init__(self):
        if self.n_startup_trials <= 0 or self.n_candidates <= 0 or self.gamma_cap <= 0:
            raise ValidationError("TPE counts must be positive")
        if not 0.0 < self.gamma_fraction <= 1.0:
            raise ValidationError("gamma_fraction must be in (0, 1]")
        if self.prior_weight <= 0:
            raise ValidationError("prior_weight must be positive")


@dataclass
class ParzenEstimator:
    """Truncated-Gaussian mixture over a bounded 1-D domain, or d such
    mixtures as rows.

    Lives entirely in its internal coordinate: natural-log space when
    is_log (domain and centers are then log-transformed). The density is
    renormalized per component so the mixture integrates to 1 over
    [low, high]. The per-component arithmetic runs over whole arrays in the
    order a per-component scalar loop would use, so every float of a fit
    equals that loop's bit for bit; erf is math.erf, as numpy has no erf of
    libm's bits. `parzen_logpdf` scores in that order too; `tpe_suggest`
    scores by the quadratic form of `_block_logpdf`, within 1e-11 of it.

    With rows, the arrays are (d, k) and low, high and is_log hold one entry
    per row; ``est[j]`` is row j as a one-row estimator, a view that
    recomputes nothing.
    """

    centers: np.ndarray
    bandwidths: np.ndarray
    weights: np.ndarray
    low: float
    high: float
    is_log: bool = False
    # per-component log of the truncation mass Phi(beta)-Phi(alpha)
    _log_trunc_mass: np.ndarray = field(init=False, repr=False)
    # per-component log(w) - log(b) - log(sqrt(2 pi)): the x-free log-density
    _log_scale: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float)
        self.bandwidths = np.asarray(self.bandwidths, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        # (d, 1) bounds against (d, k) rows; (1,) against one row
        low, high = np.asarray(self.low)[..., None], np.asarray(self.high)[..., None]
        if (self.bandwidths <= 0).any() or (self.weights <= 0).any():
            raise ValidationError("bandwidths and weights must be positive")
        if (abs(self.weights.sum(axis=-1) - 1.0) > 1e-12).any():
            raise ValidationError("weights must sum to 1")
        if (self.centers < low).any() or (self.centers > high).any():
            raise ValidationError("centers must lie within the domain")
        # Phi(x) = 0.5 * (1 + erf(x / sqrt 2)) at beta (first k) and alpha
        c, b, k = self.centers, self.bandwidths, self.centers.shape[-1]
        x = np.concatenate(((high - c) / b, (low - c) / b), axis=-1) / _SQRT2
        # only the unsaturated arguments need the per-element call
        erf = np.sign(x)
        live = np.abs(x) < _ERF_SATURATED
        erf[live] = np.fromiter(map(math.erf, x[live].tolist()), float)
        cdf = 0.5 * (1.0 + erf)
        self._log_trunc_mass = np.log(cdf[..., :k] - cdf[..., k:])
        self._log_scale = np.log(self.weights) - np.log(b) - _LOG_SQRT_2PI

    def __getitem__(self, j: int) -> "ParzenEstimator":
        row = object.__new__(ParzenEstimator)
        row.__dict__ = {name: value[j] for name, value in vars(self).items()}
        return row


def fit_parzen(
    values,
    low,
    high,
    is_log=False,
    cfg: TpeConfig = TpeConfig(),
) -> ParzenEstimator:
    """Fit the mixture: one component per observation plus a wide prior.

    Per-observation bandwidth is Scott-style 1.06 * sd * n^(-1/5) floored
    at width/min(100, n+1) (sd is the ddof=1 sample standard deviation;
    half the width when a single observation gives no spread estimate).
    The floor shrinks as observations accumulate so the search narrows
    coarse-to-fine; a fixed floor lets the good-set kernel collapse onto
    an early cluster and the suggestion loop stops migrating toward the
    optimum. The prior sits at the domain midpoint with bandwidth equal
    to the full width. All components share the uniform weight 1/(n+1).

    ``values`` of shape (d, n), with one low, high and is_log per row,
    fits d mixtures at once as the rows of one estimator; each row's
    floats equal those of its own 1-D fit.
    """
    one_row = np.ndim(values) < 2
    # C order, so each row is contiguous like the 1-D call's values
    values = np.array(values, dtype=float, ndmin=2, order="C")
    rows, n = values.shape
    low, high = np.array(low, dtype=float, ndmin=1), np.array(high, dtype=float, ndmin=1)
    is_log = np.array(is_log, dtype=bool, ndmin=1)
    if not low.shape == high.shape == is_log.shape == (rows,):
        raise ValidationError(f"{rows} rows of values need {rows} lows, highs and is_log flags")
    for lo, hi in zip(low.tolist(), high.tolist()):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValidationError(f"invalid domain [{lo}, {hi}]")
    if not ((values >= low[:, None]) & (values <= high[:, None])).all():
        raise ValidationError("observation outside domain")
    for j in np.flatnonzero(is_log):
        if low[j] <= 0:
            raise ValidationError("log domain requires low > 0")
        # math.log, not np.log: only libm's log is the scalar form's bits
        values[j] = list(map(math.log, values[j].tolist()))
        low[j], high[j] = math.log(low[j]), math.log(high[j])

    width = high - low
    centers = np.concatenate(((low + width / 2.0)[:, None], values), axis=1)
    bandwidths = np.repeat(width[:, None], n + 1, axis=1)
    if n == 1:
        bandwidths[:, 1:] = (width / 2.0)[:, None]
    elif n > 1:
        scott = 1.06 * np.std(values, axis=1, ddof=1) * n ** (-0.2)
        bandwidths[:, 1:] = np.maximum(scott, width / min(100.0, n + 1.0))[:, None]
    est = ParzenEstimator(
        centers=centers,
        bandwidths=bandwidths,
        weights=np.full((rows, n + 1), 1.0 / (n + 1)),
        low=low,
        high=high,
        is_log=is_log,
    )
    return est[0] if one_row else est


def parzen_logpdf(est: ParzenEstimator, x):
    """Log-density of the truncation-renormalized mixture at x.

    x is in the estimator's internal coordinate and must lie within
    [est.low, est.high]; accepts a scalar or an array. For an estimator
    with rows, x holds one row of points per mixture, scored row by row.
    This is the exact reference, in the scalar form's order: the ask
    scores with `_block_logpdf`, which tests hold to it.
    """
    arr = np.asarray(x, dtype=float)
    low, high = np.asarray(est.low)[..., None], np.asarray(est.high)[..., None]
    if (arr < low).any() or (arr > high).any():
        raise ValidationError("x outside estimator domain")
    parts = (est.centers, est.bandwidths, est._log_scale, est._log_trunc_mass)
    if est.centers.ndim == 2:
        return np.array([_mixture_logpdf(*row) for row in zip(arr, *parts, strict=True)])
    out = _mixture_logpdf(arr, *parts)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _mixture_logpdf(x, centers, bandwidths, log_scale, log_trunc_mass):
    # log_scale - 0.5 * z * z - log_trunc_mass, in place, in that order
    z = x[..., None] - centers
    z /= bandwidths
    comp = 0.5 * z
    comp *= z
    np.subtract(log_scale, comp, out=comp)
    comp -= log_trunc_mass
    # logsumexp over the component axis
    m = comp.max(axis=-1)
    comp -= m[..., None]
    return m + np.log(np.exp(comp, out=comp).sum(axis=-1))


def _block_logpdf(est: ParzenEstimator, x: np.ndarray, block: np.ndarray | None) -> np.ndarray:
    """``parzen_logpdf(est, x)`` of a `fit_parzen` estimator with rows, within
    about 1e-12: a block of rows at a time in ``block`` (new if None or short).

    A component's term is K0 + K1 u + K2 u^2 in u = x - mid (the domain's
    midpoint), so a block is one matmul of the points' (1, u, u^2) by the
    components' (K0, K1, K2), then exp, sum and log. K0 takes off the row's
    largest x-free term, so every term is <= 0 and no max pass is needed.
    fit_parzen's prior (at mid, bandwidth the width) keeps each sum above
    ~e^-5; its bandwidth floor, width/100, bounds |K2 u^2| by 1,250.
    """
    (d, k), points = est.centers.shape, x.shape[1]
    mid = (est.low + est.high) / 2.0
    peak = est._log_scale - est._log_trunc_mass
    shift = peak.max(axis=1)
    c = est.centers - mid[:, None]
    coef = np.empty((d, 3, k))
    np.divide(-0.5, est.bandwidths * est.bandwidths, out=coef[:, 2])
    np.multiply(c, -2.0 * coef[:, 2], out=coef[:, 1])
    coef[:, 0] = peak - shift[:, None] + coef[:, 2] * c * c
    u = x - mid[:, None]
    powers = np.stack((np.ones_like(u), u, u * u), axis=-1)
    if block is None or block.size < points * k:
        block = np.empty(max(_BLOCK_FLOATS, points * k))
    per_block = block.size // (points * k)
    out = np.empty((d, points))
    for r in range(0, d, per_block):
        rows = slice(r, min(r + per_block, d))
        terms = block[: (rows.stop - r) * points * k].reshape(-1, points, k)
        np.matmul(powers[rows], coef[rows], out=terms)
        out[rows] = np.log(np.exp(terms, out=terms).sum(axis=-1))
    return out + shift[:, None]


def parzen_sample(est: ParzenEstimator, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Draw from the mixture by component choice + in-domain rejection;
    from an estimator with rows, ``size`` draws per row, row after row."""
    if est.centers.ndim == 2:
        return np.array([parzen_sample(est[j], rng, size) for j in range(len(est.centers))])
    idx = _choice(rng, est.weights, size)
    mu, sigma = est.centers[idx], est.bandwidths[idx]
    low, high = float(est.low), float(est.high)
    out = np.empty(size)
    pending = np.arange(size)
    # acceptance mass per component is >= ~0.38, so a few rounds suffice
    for _ in range(1000):
        draws = rng.normal(mu, sigma)
        ok = (draws >= low) & (draws <= high)
        out[pending[ok]] = draws[ok]
        miss = ~ok
        pending, mu, sigma = pending[miss], mu[miss], sigma[miss]
        if pending.size == 0:
            return out
    raise RuntimeError("truncated-normal rejection failed to converge")


def _choice(rng: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(len(p), size, p=p)`` by that call's own arithmetic and
    draws, without its re-validation of ``p``: the same indices and the
    same generator state afterwards."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def ask_rng(study: Study, rng: np.random.Generator | None = None) -> np.random.Generator:
    """``rng``, or else the stream a sampler that draws reads for the next
    ask: the next trial's lane 0. A sampler that draws nothing builds none."""
    return study.rng_for(len(study.trials), lane=0) if rng is None else rng


def suggest_random(space: SearchSpace, rng: np.random.Generator) -> dict:
    """Independent draw per parameter: uniform, log-uniform, or choice."""
    params = {}
    for name, dist in space.entries.items():
        if dist.is_discrete:
            params[name] = dist.choices[int(rng.integers(len(dist.choices)))]
        elif dist.is_log:
            v = math.exp(rng.uniform(math.log(dist.low), math.log(dist.high)))
            params[name] = min(max(v, dist.low), dist.high)
        else:
            params[name] = float(rng.uniform(dist.low, dist.high))
    return params


class GridCells(Sequence):
    """The grid's cells, row-major over the space's entry order, decoded on
    demand: ``cells[i]`` reads ``i`` in mixed radix, last axis fastest, so
    it is ``itertools.product``'s i-th cell without building the product.
    ``size`` is the cell count as a plain int; ``len`` raises past
    ``sys.maxsize``."""

    def __init__(self, names: list[str], axes: list[tuple]):
        self.names, self.axes = names, axes
        self.size = math.prod(len(axis) for axis in axes)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: int) -> dict:
        if not 0 <= index < self.size:
            raise IndexError(f"cell {index} outside a grid of {self.size}")
        digits = []
        for axis in reversed(self.axes):
            index, digit = divmod(index, len(axis))
            digits.append(axis[digit])
        return dict(zip(self.names, reversed(digits)))


def grid_enumerate(space: SearchSpace, resolution: int) -> GridCells:
    """Cartesian product, row-major over the space's entry order.

    Continuous axes get `resolution` evenly spaced points including both
    endpoints (log-evenly for log-uniform); discrete axes use all choices.
    A continuous axis is built once per (distribution, resolution) and
    then shared from a bounded cache, so a call on axes built before costs
    O(dims); no cell is built until it is indexed. A resolution above
    MAX_RESOLUTION is refused before any axis is built.
    """
    if len(space) == 0:
        raise ValidationError("empty space")
    if resolution > MAX_RESOLUTION:
        raise ValidationError(f"resolution must be <= {MAX_RESOLUTION}, got {resolution}")
    axes = []
    for name, dist in space.entries.items():
        if dist.is_discrete:
            axes.append(dist.choices)
        elif resolution < 2:
            raise ValidationError(f"resolution must be >= 2 for continuous parameter {name!r}")
        else:
            # -0.0 == 0.0 as a key, but the axis ends on high's own sign
            axes.append(_continuous_axis(dist, resolution, math.copysign(1.0, dist.high)))
    return GridCells(space.names, axes)


@functools.lru_cache(maxsize=16)
def _continuous_axis(dist: Distribution, resolution: int, high_sign: float) -> tuple:
    if dist.is_log:
        pts = np.exp(np.linspace(math.log(dist.low), math.log(dist.high), resolution))
        pts = np.clip(pts, dist.low, dist.high)
    else:
        pts = np.linspace(dist.low, dist.high, resolution)
    return tuple(pts.tolist())


def trial_observations(study: Study) -> Observations:
    """History TPE learns from: complete trials at their final value,
    pruned trials at their last intermediate; failed trials carry nothing.
    `Study.tell` keeps it current, so this is a lookup, not a scan."""
    return study.observations


def tpe_split_observations(values, direction: str, cfg: TpeConfig = TpeConfig()) -> np.ndarray:
    """Mask of the good set among the values, by the gamma rule.

    n_good = min(gamma_cap, max(1, ceil(gamma_fraction * n))); the good set
    is the n_good best values per direction, ties resolved by trial order
    (one stable sort, so the same set as a stable sort of the pairs).
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValidationError("history must be non-empty")
    n_good = min(cfg.gamma_cap, max(1, math.ceil(cfg.gamma_fraction * n)))
    order = np.argsort(-values if direction == MAXIMIZE else values, kind="stable")
    good = np.zeros(n, dtype=bool)
    good[order[:n_good]] = True
    return good


def _categorical_weights(codes: np.ndarray, n_choices: int, prior_weight: float) -> np.ndarray:
    """Smoothed frequencies of the choice indices."""
    counts = np.bincount(codes.astype(np.intp), minlength=n_choices)
    w = counts.astype(float) + prior_weight / n_choices
    return w / w.sum()


def tpe_suggest(
    study: Study,
    cfg: TpeConfig = TpeConfig(),
    rng: np.random.Generator | None = None,
    block: np.ndarray | None = None,
) -> dict:
    """Propose one assignment; random until enough complete trials exist.
    ``block`` is the scorer's scratch, which a `TpeSampler` reuses."""
    rng = ask_rng(study, rng)
    history = trial_observations(study)
    if history.n_complete < cfg.n_startup_trials:
        return suggest_random(study.space, rng)

    good = tpe_split_observations(history.values, study.direction, cfg)
    bad = ~good
    entries = study.space.entries
    # every continuous parameter is a row of one good fit and one bad fit
    continuous = [(name, dist) for name, dist in entries.items() if not dist.is_discrete]
    if continuous:
        # rows in the fit's coordinate: a log-uniform parameter as the logs
        # the history keeps, with logged bounds, so no fit takes a log
        columns = np.array(
            [history.log_column(n) if d.is_log else history.column(n) for n, d in continuous]
        )
        lows = [math.log(d.low) if d.is_log else d.low for _, d in continuous]
        highs = [math.log(d.high) if d.is_log else d.high for _, d in continuous]
        linear = [False] * len(continuous)
        l_est = fit_parzen(columns[:, good], lows, highs, linear, cfg)
        g_est = fit_parzen(columns[:, bad], lows, highs, linear, cfg)
    # draws in space order, continuous rows interleaved with discrete choices
    params = dict.fromkeys(entries)
    cands = []
    for name, dist in entries.items():
        if dist.is_discrete:
            column = history.column(name)
            w_good = _categorical_weights(column[good], len(dist.choices), cfg.prior_weight)
            w_bad = _categorical_weights(column[bad], len(dist.choices), cfg.prior_weight)
            cand_idx = _choice(rng, w_good, cfg.n_candidates)
            scores = np.log(w_good[cand_idx]) - np.log(w_bad[cand_idx])
            params[name] = dist.choices[int(cand_idx[int(np.argmax(scores))])]
        else:
            cands.append(parzen_sample(l_est[len(cands)], rng, size=cfg.n_candidates))
    if continuous:
        cand = np.array(cands)
        scores = _block_logpdf(l_est, cand, block) - _block_logpdf(g_est, cand, block)
        for (name, dist), row, score in zip(continuous, cand, scores):
            best = float(row[int(np.argmax(score))])
            if dist.is_log:
                best = math.exp(best)
            params[name] = min(max(best, dist.low), dist.high)
    return params


class RandomSampler:
    """Independent uniform draws; the paper-style baseline."""

    def suggest(self, study: Study, rng: np.random.Generator | None = None) -> dict:
        return suggest_random(study.space, ask_rng(study, rng))


class GridSampler:
    """Walks the grid in enumeration order; raises once exhausted. An ask
    takes the cached axes and decodes one cell, O(dims); it builds no
    product and no generator, and ignores ``rng``."""

    def __init__(self, resolution: int = 5):
        self.resolution = resolution

    def suggest(self, study: Study, rng: np.random.Generator | None = None) -> dict:
        cells = grid_enumerate(study.space, self.resolution)
        index = len(study.trials)
        if index >= cells.size:
            raise ExhaustedSearchError(f"grid of {cells.size} cells fully consumed")
        return cells[index]


class TpeSampler:
    """TPE asks, one at a time, sharing one block that stays paged in."""

    def __init__(self, cfg: TpeConfig = TpeConfig()):
        self.cfg = cfg
        self._block = np.empty(_BLOCK_FLOATS)

    def suggest(self, study: Study, rng: np.random.Generator | None = None) -> dict:
        return tpe_suggest(study, self.cfg, rng, self._block)


def make_sampler(kind: str, *, tpe_config: TpeConfig | None = None, resolution: int = 5):
    if kind == "tpe":
        return TpeSampler(tpe_config or TpeConfig())
    if kind == "random":
        return RandomSampler()
    if kind == "grid":
        return GridSampler(resolution)
    raise ValidationError(f"unknown sampler kind {kind!r}")
