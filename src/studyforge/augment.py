"""Geometric augmentation on grayscale rasters plus PGM ingestion.

Images are float64 arrays of shape (height, width) with intensities in
[0, 1]. The affine pipeline composes shear, scale, rotation, translation
and flips about the image center, resamples bilinearly, and fills
out-of-bounds samples with 0. Sampling of the transform parameters is
seeded and bounded by per-axis envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

# Output pixels one gather call works on (16 images of 16x16; at least one
# image). The block's temporaries, 32 kB each, then stay in cache: an
# 84-image epoch took 1.09, 0.78, 0.62 and 0.72 ms at 1024, 2048, 4096 and
# 8192 pixels on a 2-vCPU Xeon VM, with the same output bits.
_GATHER_BLOCK_PIXELS = 4096
# Zero border around each image in the gather (see _bilinear_gather).
_PAD = 2


@dataclass(frozen=True)
class AffineRanges:
    """Envelopes the sampled transform parameters stay within."""

    max_rotation_deg: float = 15.0
    max_scale_frac: float = 0.30
    max_shear_frac: float = 0.30
    max_translate_frac: float = 1.0
    allow_hflip: bool = True
    allow_vflip: bool = True

    def __post_init__(self):
        envelopes = (
            self.max_rotation_deg,
            self.max_scale_frac,
            self.max_shear_frac,
            self.max_translate_frac,
        )
        # a draw spans [-x, x], so its width 2x must be finite too; NaN fails here
        if not all(math.isfinite(2.0 * x) for x in envelopes):
            raise ValidationError("envelopes must be finite, with a finite width")
        if self.max_rotation_deg < 0 or self.max_shear_frac < 0:
            raise ValidationError("rotation/shear envelopes must be >= 0")
        if not 0.0 <= self.max_scale_frac < 1.0:
            raise ValidationError("scale envelope must be in [0, 1)")
        if not 0.0 <= self.max_translate_frac <= 1.0:
            raise ValidationError("translate envelope must be in [0, 1]")

    def is_identity(self) -> bool:
        return (
            self.max_rotation_deg == 0
            and self.max_scale_frac == 0
            and self.max_shear_frac == 0
            and self.max_translate_frac == 0
            and not self.allow_hflip
            and not self.allow_vflip
        )


@dataclass(frozen=True)
class AffineParams:
    """One transform, or n of them when every field is a length-n array."""

    rotation_deg: float = 0.0
    scale: float = 1.0
    shear_frac: float = 0.0
    translate_x_frac: float = 0.0
    translate_y_frac: float = 0.0
    hflip: bool = False
    vflip: bool = False

    def __post_init__(self):
        if len({np.shape(v) for v in vars(self).values()}) > 1:
            raise ValidationError("fields must be all scalars or all length-n arrays")
        if np.any(np.asarray(self.scale) <= 0):
            raise ValidationError("scale must be positive")


def sample_affine_params(
    ranges: AffineRanges, rng: np.random.Generator, size: int | None = None
) -> AffineParams:
    """Uniform draws within the envelopes; flips are fair coin tosses.

    ``size=n`` gives length-n array fields, as numpy's ``size=`` does. The
    stream order is per image either way: five uniforms, then one
    ``integers(2)`` per allowed flip, so n images draw exactly what n
    scalar calls would, and leave the generator in the same state. ``rng``
    must be a PCG64 Generator (``np.random.default_rng``'s).
    """
    if type(rng.bit_generator) is not np.random.PCG64:
        raise ValidationError("sample_affine_params needs a PCG64 Generator")
    n = 1 if size is None else size
    coins = np.zeros((n, 2), dtype=bool)  # hflip, vflip
    allowed = [ranges.allow_hflip, ranges.allow_vflip]
    if any(allowed):
        u, coins[:, allowed] = _draws_with_tosses(rng.bit_generator, n, sum(allowed))
    else:  # no 32-bit draws in between: the uniforms are one run of the stream
        u = rng.random((n, 5))
    r = ranges.max_rotation_deg
    s = ranges.max_scale_frac
    h = ranges.max_shear_frac
    t = ranges.max_translate_frac
    low = np.array([-r, 1.0 - s, -h, -t, -t])
    high = np.array([r, 1.0 + s, h, t, t])
    values = low + (high - low) * u  # Generator.uniform's own formula
    if size is None:
        return AffineParams(*values[0].tolist(), *coins[0].tolist())
    return AffineParams(*values.T, *coins.T)


def _draws_with_tosses(bitgen: np.random.PCG64, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """n rows of five ``random()`` doubles, each row followed by k
    ``integers(2)`` tosses, from one block of raw 64-bit words.

    This is what the Generator computes. A double is a word's top 53 bits
    times 2**-53. A toss takes a 32-bit half: the high half the generator
    holds back if it holds one, else a fresh word's low half, holding back
    its high half. numpy's bounded rule (Lemire's) maps a half to a toss
    over range 2 as its bit 31, and never rejects. The held-back half is
    written back into the generator's state at the end.
    """
    state = bitgen.state
    held = state["has_uint32"]
    # 0 or 1 fresh word per image: its tosses, after the held half if any,
    # take one word's two halves in turn
    fresh = np.diff(np.maximum(np.arange(k, n * k + 1, k) - held + 1, 0) // 2, prepend=0)
    ends = np.cumsum(5 + fresh)
    toss_words = ends[fresh == 1] - 1
    is_double = np.ones(5 * n + len(toss_words), dtype=bool)
    is_double[toss_words] = False
    raw = bitgen.random_raw(len(is_double))
    u = (raw[is_double] >> 11).reshape(n, 5) * 2.0**-53
    words = raw[toss_words]
    halves = np.empty(held + 2 * len(words), dtype=np.uint64)
    halves[:held] = state["uinteger"]
    halves[held::2] = words & 0xFFFFFFFF
    halves[held + 1 :: 2] = words >> 32
    tosses = (halves[: n * k] >> 31).astype(bool).reshape(n, k)
    state = bitgen.state  # now past the words taken
    state["has_uint32"] = len(halves) - n * k
    if len(words):
        state["uinteger"] = int(words[-1] >> 32)
    bitgen.state = state
    return u, tosses


def _validate_image(img: np.ndarray, ndims=(2,)) -> np.ndarray:
    arr = np.asarray(img, dtype=float)
    if arr.ndim not in ndims or min(arr.shape[-2:]) < 1:
        dims = " or ".join(f"{d}-D" for d in ndims)
        raise ValidationError(f"image must be {dims}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("image intensities must be finite")
    return arr


def affine_matrix(p: AffineParams, width: int, height: int) -> np.ndarray:
    """Output-to-input mapping (2x3) for flip∘translate∘rotate∘scale∘shear.

    The composition pivots on the image center in pixel-center coordinates;
    translation offsets are fractions of (width, height). Length-n array
    fields give (n, 2, 3), one matrix per image, bit-identical to n scalar
    calls: a scalar is the n = 1 case of the same stacked 2x2 products.
    """
    if width < 1 or height < 1:
        raise ValidationError("dimensions must be positive")
    scalar = np.ndim(p.rotation_deg) == 0
    deg, scale, shear, tx, ty = (
        np.asarray(v, dtype=float).reshape(-1)
        for v in (p.rotation_deg, p.scale, p.shear_frac, p.translate_x_frac, p.translate_y_frac)
    )
    # math.radians is x * (pi / 180); math.cos/sin keep the libm results
    theta = (deg * (math.pi / 180.0)).tolist()
    cos = np.array(list(map(math.cos, theta)))
    sin = np.array(list(map(math.sin, theta)))
    # the four factors as (n, 2, 2) stacks, each filled slot by slot
    flip, rot, zoom, skew = np.zeros((4, len(theta), 2, 2))
    flip[:, 0, 0] = np.where(p.hflip, -1.0, 1.0)
    flip[:, 1, 1] = np.where(p.vflip, -1.0, 1.0)
    rot[:, 0, 0] = rot[:, 1, 1] = cos
    rot[:, 0, 1] = -sin
    rot[:, 1, 0] = sin
    zoom[:, 0, 0] = zoom[:, 1, 1] = scale
    skew[:, 0, 0] = skew[:, 1, 1] = 1.0
    skew[:, 0, 1] = shear
    linear = flip @ rot @ zoom @ skew
    l00, l01, l10, l11 = linear.reshape(-1, 4).T
    det = l00 * l11 - l01 * l10
    if np.any(np.abs(det) < 1e-12):
        raise ValidationError("singular affine transform (scale ~ 0)")
    inv = np.stack([l11, -l01, -l10, l00], axis=-1).reshape(-1, 2, 2) / det[:, None, None]

    offset = flip @ np.stack([tx * width, ty * height], axis=-1)[..., None]
    center = np.array([(width - 1) / 2.0, (height - 1) / 2.0])
    # src = inv @ (dst - center - offset) + center
    translation = center - (inv @ (center + offset[..., 0])[..., None])[..., 0]
    m = np.concatenate([inv, translation[..., None]], axis=-1)
    return m[0] if scalar else m


def apply_affine(img: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Bilinear resample at mapped source coordinates; zero fill outside.

    Takes one (h, w) image with a (2, 3) matrix, or a stack (n, h, w) with
    matrices (n, 2, 3), one per image. A stack is gathered in blocks of at
    most _GATHER_BLOCK_PIXELS output pixels (at least one image), so the
    temporaries stay small however many images it holds.
    """
    arr = _validate_image(img, ndims=(2, 3))
    stack = arr if arr.ndim == 3 else arr[None]
    n, h, w = stack.shape
    m = np.asarray(m, dtype=float)
    if m.shape != arr.shape[:-2] + (2, 3) or not np.all(np.isfinite(m)):
        raise ValidationError("matrix must be a finite 2x3 array per image")
    m = m.reshape(n, 2, 3, 1, 1)
    # a sample is at (m00 x + m01 y) + m02 and (m10 x + m11 y) + m12: the
    # products are per column and per row, the sums per pixel
    xs = np.arange(w, dtype=float)
    ys = np.arange(h, dtype=float)[:, None]
    out = np.empty((n, h, w))
    per_block = max(1, _GATHER_BLOCK_PIXELS // (h * w))
    padded = np.zeros((min(n, per_block), h + 2 * _PAD, w + 2 * _PAD))
    for start in range(0, n, per_block):
        mb = m[start : start + per_block]
        b = len(mb)
        sx = np.add(mb[:, 0, 0] * xs, mb[:, 0, 1] * ys)
        sx += mb[:, 0, 2]
        sy = np.add(mb[:, 1, 0] * xs, mb[:, 1, 1] * ys)
        sy += mb[:, 1, 2]
        padded[:b, _PAD:-_PAD, _PAD:-_PAD] = stack[start : start + b]
        _bilinear_gather(padded[:b], sx, sy, out[start : start + b])
    return out if arr.ndim == 3 else out[0]


def _bilinear_gather(padded: np.ndarray, sx: np.ndarray, sy: np.ndarray, out: np.ndarray) -> None:
    """Sample each image of ``padded`` at its own coordinates sx, sy
    (b, oh, ow) into ``out``; sx and sy are overwritten.

    The images (b, h, w) sit inside a zero border of _PAD = 2 px, and the
    top-left neighbour's indices are clamped to [-2, size]: a clamped
    sample and its +1 neighbour then both land in the border, so no mask
    is needed.
    """
    b, pad_h, row = padded.shape
    # float bounds: np.maximum and np.minimum are slower with int ones
    low, h, w = -float(_PAD), float(pad_h - 2 * _PAD), float(row - 2 * _PAD)
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = np.subtract(sx, x0, out=sx)
    fy = np.subtract(sy, y0, out=sy)
    # the top-left neighbour's flat index, in floats (exact at these sizes)
    np.maximum(x0, low, out=x0)
    np.minimum(x0, w, out=x0)
    np.maximum(y0, low, out=y0)
    np.minimum(y0, h, out=y0)
    y0 *= row
    y0 += x0
    y0 += (np.arange(b) * padded[0].size + _PAD * row + _PAD).reshape(b, 1, 1)
    idx = y0.astype(np.intp)
    # each neighbour is read through a view that starts at its offset
    flat = padded.ravel()
    gx = np.subtract(1.0, fx)
    gy = np.subtract(1.0, fy)
    # (((gx gy) v00 + (fx gy) v01) + (gx fy) v10) + (fx fy) v11
    np.multiply(gx, gy, out=out)
    out *= flat[idx]
    term = np.multiply(fx, gy, out=x0)
    term *= flat[1:][idx]
    out += term
    np.multiply(gx, fy, out=term)
    term *= flat[row:][idx]
    out += term
    np.multiply(fx, fy, out=term)
    term *= flat[row + 1 :][idx]
    out += term


def resize_to(img: np.ndarray, side: int = 224) -> np.ndarray:
    """Bilinear resize to side x side with corner-aligned sampling."""
    arr = _validate_image(img)
    if side < 1:
        raise ValidationError("side must be >= 1")
    h, w = arr.shape
    if (h, w) == (side, side):
        return arr.copy()
    if side == 1:
        sx = np.full((1, 1, 1), (w - 1) / 2.0)
        sy = np.full((1, 1, 1), (h - 1) / 2.0)
    else:
        grid = np.arange(side, dtype=float) / (side - 1)
        sx = np.tile(grid * (w - 1), (1, side, 1))
        sy = np.tile((grid * (h - 1))[:, None], (1, 1, side))
    padded = np.zeros((1, h + 2 * _PAD, w + 2 * _PAD))
    padded[0, _PAD:-_PAD, _PAD:-_PAD] = arr
    out = np.empty((1, side, side))
    _bilinear_gather(padded, sx, sy, out)
    return out[0]


# --- PGM ("P5") ingestion: 8-bit, or 16-bit big-endian ---------------------


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(data):
            c = data[pos : pos + 1]
            if c.isspace():
                pos += 1
            elif c == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValidationError("truncated PGM header")
        return data[start:pos]

    if next_token() != b"P5":
        raise ValidationError("not a binary PGM (P5) file")
    width = int(next_token())
    height = int(next_token())
    maxval = int(next_token())
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise ValidationError("invalid PGM dimensions or maxval")
    pos += 1  # single whitespace byte separates header from raster
    depth = 1 if maxval < 256 else 2
    raster = data[pos : pos + width * height * depth]
    if len(raster) != width * height * depth:
        raise ValidationError("PGM raster truncated")
    dtype = np.uint8 if depth == 1 else np.dtype(">u2")
    pixels = np.frombuffer(raster, dtype=dtype).astype(float).reshape(height, width)
    return pixels / maxval


def write_pgm(path, img: np.ndarray, maxval: int = 255) -> None:
    arr = _validate_image(img)
    if not 1 <= maxval <= 65535:
        raise ValidationError("maxval must be in [1, 65535]")
    quantized = np.rint(np.clip(arr, 0.0, 1.0) * maxval)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    if maxval < 256:
        raster = quantized.astype(np.uint8).tobytes()
    else:
        raster = quantized.astype(">u2").tobytes()
    Path(path).write_bytes(header + raster)
