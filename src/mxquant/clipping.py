"""Block-wise learnable clipping with sigmoid-parameterized dynamic bounds.

Each quantization block i carries two logits (alpha_min, alpha_max). The
clip bounds are sigmoid(alpha) times the block's own extrema:

    lo_i = sigmoid(alpha_min_i) * min(block i)
    hi_i = sigmoid(alpha_max_i) * max(block i)

Blocks are the 32-element MX quantization blocks (formats.BLOCK), so a
clip never straddles two quantization blocks. Extrema are taken over all
rows of the tensor for each block index, so a (rows, N) tensor yields
k = N/BLOCK bound pairs. Elements exactly on a bound count as interior (the
pass-through gradient branch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .formats import BLOCK


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid_grad(z):
    s = sigmoid(z)
    return s * (1.0 - s)


@dataclass
class ClipParams:
    """Per-block clip logits; one (min, max) pair per quantization block."""

    alpha_min: np.ndarray  # (k,)
    alpha_max: np.ndarray  # (k,)

    def __post_init__(self):
        self.alpha_min = np.asarray(self.alpha_min, dtype=np.float64)
        self.alpha_max = np.asarray(self.alpha_max, dtype=np.float64)
        if self.alpha_min.shape != self.alpha_max.shape or self.alpha_min.ndim != 1:
            raise ShapeError("clip logits must be two equal-length vectors")

    @property
    def k(self) -> int:
        return self.alpha_min.shape[0]

    @classmethod
    def init(cls, k: int, value: float = 4.0) -> "ClipParams":
        # sigmoid(4) ~ 0.982: near-identity at the start of training
        return cls(np.full(k, value), np.full(k, value))


@dataclass
class ClipCtx:
    """Saved forward state for the backward pass."""

    shape: tuple
    upper: np.ndarray  # bool (rows, k, BLOCK): clamped at beta_max
    lower: np.ndarray  # bool (rows, k, BLOCK): clamped at beta_min
    x_min: np.ndarray  # (k,)
    x_max: np.ndarray  # (k,)
    argmin: np.ndarray  # (k,) flat index into the (rows*BLOCK) slab of block i
    argmax: np.ndarray
    params: ClipParams


def _blocked(x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] % BLOCK != 0:
        raise ShapeError(f"trailing dimension {x.shape[-1]} is not a multiple of {BLOCK}")
    return x.reshape(-1, x.shape[-1] // BLOCK, BLOCK)


def _first_extremum(xb, row_ext, ext, arg):
    """Flat (row * BLOCK + element) index of each block's first extremum.

    row_ext holds the per-row block extrema (rows, k) and ext their
    reduction (k,). The first row holding ext, then arg (np.argmin or
    np.argmax) within that row, is the first occurrence in row-major
    (row, element) order, without copying the (k, rows * BLOCK) slabs.
    """
    karange = np.arange(xb.shape[1])
    row = np.argmax(row_ext == ext, axis=0)
    return row * BLOCK + arg(xb[row, karange], axis=1)


def clip_with_ctx(x, params: ClipParams):
    """Element-wise clamp of each block to its dynamic bounds.

    Returns (clipped, ClipCtx); the context feeds clip_backward.
    """
    x = np.asarray(x, dtype=np.float64)
    xb = _blocked(x)
    if xb.shape[1] != params.k:
        raise ShapeError(f"{xb.shape[1]} blocks but {params.k} clip logit pairs")
    row_min = xb.min(axis=2)
    row_max = xb.max(axis=2)
    x_min = row_min.min(axis=0)
    x_max = row_max.max(axis=0)
    lo = sigmoid(params.alpha_min) * x_min
    hi = sigmoid(params.alpha_max) * x_max

    y = np.maximum(xb, lo[None, :, None])
    upper = y > hi[None, :, None]
    lower = (xb < lo[None, :, None]) & ~upper
    np.copyto(y, hi[None, :, None], where=upper)

    ctx = ClipCtx(
        shape=x.shape,
        upper=upper,
        lower=lower,
        x_min=x_min,
        x_max=x_max,
        argmin=_first_extremum(xb, row_min, x_min, np.argmin),
        argmax=_first_extremum(xb, row_max, x_max, np.argmax),
        params=params,
    )
    return y.reshape(x.shape), ctx


def clip_backward(ctx: ClipCtx, grad):
    """Exact reverse pass of clip_with_ctx.

    Returns (d_x, d_alpha_min, d_alpha_max). Interior elements pass their
    gradient through; clamped elements route gradient to the logits and,
    because the bound is built from the block's own extremum, to the
    extremal element itself (bound ratio times the summed clamped grad).
    """
    p = ctx.params
    gb = _blocked(grad)
    dxb = np.where(ctx.upper | ctx.lower, 0.0, gb)

    g_up = np.where(ctx.upper, gb, 0.0).sum(axis=(0, 2))  # (k,)
    g_lo = np.where(ctx.lower, gb, 0.0).sum(axis=(0, 2))

    d_alpha_max = g_up * sigmoid_grad(p.alpha_max) * ctx.x_max
    d_alpha_min = g_lo * sigmoid_grad(p.alpha_min) * ctx.x_min

    # extremum path: d hi / d x[argmax] = sigmoid(alpha_max), same for min
    karange = np.arange(p.k)
    dxb[ctx.argmax // BLOCK, karange, ctx.argmax % BLOCK] += g_up * sigmoid(p.alpha_max)
    dxb[ctx.argmin // BLOCK, karange, ctx.argmin % BLOCK] += g_lo * sigmoid(p.alpha_min)
    return dxb.reshape(ctx.shape), d_alpha_min, d_alpha_max


def clip_gradients(x, params: ClipParams, upstream=None):
    """Gradients of the clip w.r.t. x and both logit vectors.

    upstream defaults to all-ones, i.e. the gradient of sum(clip(x)).
    """
    y, ctx = clip_with_ctx(x, params)
    if upstream is None:
        upstream = np.ones_like(y)
    return clip_backward(ctx, upstream)
