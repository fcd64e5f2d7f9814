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

# Output pixels one gather call works on: 8 images of 16x16. Larger blocks
# gain little speed and grow the temporaries; a block holds at least one image.
_GATHER_BLOCK_PIXELS = 2048
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
    scalar calls would.
    """
    n = 1 if size is None else size
    u = np.empty((n, 5))
    coins = np.zeros((n, 2), dtype=bool)  # hflip, vflip
    allowed = [ranges.allow_hflip, ranges.allow_vflip]
    if any(allowed):
        # scalar integers(2) calls: a size=k call draws the same, slower
        draw, toss, k = rng.random, rng.integers, sum(allowed)
        tosses = []
        for row in u:
            draw(out=row)
            for _ in range(k):
                tosses.append(toss(2))
        coins[:, allowed] = np.array(tosses, dtype=bool).reshape(n, k)
    else:  # no 32-bit draws in between: the uniforms are one run of the stream
        rng.random(out=u)
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


def _validate_image(img: np.ndarray, ndims=(2,)) -> np.ndarray:
    arr = np.asarray(img, dtype=float)
    if arr.ndim not in ndims or min(arr.shape[-2:]) < 1:
        dims = " or ".join(f"{d}-D" for d in ndims)
        raise ValidationError(f"image must be {dims}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("image intensities must be finite")
    return arr


def _stack2x2(a, b, c, d) -> np.ndarray:
    """(n, 2, 2) matrices [[a, b], [c, d]] from length-n (or scalar) entries."""
    return np.stack(np.broadcast_arrays(a, b, c, d), axis=-1).reshape(-1, 2, 2)


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
    fx = np.where(p.hflip, -1.0, 1.0)
    fy = np.where(p.vflip, -1.0, 1.0)
    rot = _stack2x2(cos, -sin, sin, cos)
    flip = _stack2x2(fx, 0.0, 0.0, fy)
    linear = flip @ rot @ _stack2x2(scale, 0.0, 0.0, scale) @ _stack2x2(1.0, shear, 0.0, 1.0)
    l00, l01, l10, l11 = linear.reshape(-1, 4).T
    det = l00 * l11 - l01 * l10
    if np.any(np.abs(det) < 1e-12):
        raise ValidationError("singular affine transform (scale ~ 0)")
    inv = _stack2x2(l11, -l01, -l10, l00) / det[:, None, None]

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
    ys, xs = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    out = np.empty((n, h, w))
    per_block = max(1, _GATHER_BLOCK_PIXELS // (h * w))
    for start in range(0, n, per_block):
        mb = m[start : start + per_block]
        sx = mb[:, 0, 0] * xs + mb[:, 0, 1] * ys + mb[:, 0, 2]
        sy = mb[:, 1, 0] * xs + mb[:, 1, 1] * ys + mb[:, 1, 2]
        out[start : start + per_block] = _bilinear_gather(
            stack[start : start + per_block], sx, sy
        )
    return out if arr.ndim == 3 else out[0]


def _bilinear_gather(stack: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Sample each image of stack (b, h, w) at its own coordinates (b, oh, ow).

    The images are zero-padded by 2 px and the top-left neighbour's indices
    clipped to [-2, size]: a clipped sample and its +1 neighbour then both
    land in the zero border, so no mask is needed.
    """
    b, h, w = stack.shape
    padded = np.zeros((b, h + 2 * _PAD, w + 2 * _PAD))
    padded[:, _PAD:-_PAD, _PAD:-_PAD] = stack
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    row = w + 2 * _PAD
    xi = np.clip(x0, -_PAD, w).astype(np.intp) + _PAD
    yi = np.clip(y0, -_PAD, h).astype(np.intp) + _PAD
    base = np.arange(b).reshape(b, 1, 1) * padded[0].size
    idx = base + yi * row + xi
    flat = padded.ravel()
    return (
        (1.0 - fx) * (1.0 - fy) * flat[idx]
        + fx * (1.0 - fy) * flat[idx + 1]
        + (1.0 - fx) * fy * flat[idx + row]
        + fx * fy * flat[idx + row + 1]
    )


def resize_to(img: np.ndarray, side: int = 224) -> np.ndarray:
    """Bilinear resize to side x side with corner-aligned sampling."""
    arr = _validate_image(img)
    if side < 1:
        raise ValidationError("side must be >= 1")
    h, w = arr.shape
    if (h, w) == (side, side):
        return arr.copy()
    if side == 1:
        sx = np.full((1, 1), (w - 1) / 2.0)
        sy = np.full((1, 1), (h - 1) / 2.0)
    else:
        grid = np.arange(side, dtype=float) / (side - 1)
        sx = np.tile(grid * (w - 1), (side, 1))
        sy = np.tile((grid * (h - 1))[:, None], (1, side))
    return _bilinear_gather(arr[None], sx[None], sy[None])[0]


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
