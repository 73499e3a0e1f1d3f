"""Block-wise learnable clipping with sigmoid-parameterized dynamic bounds.

Each quantization block i carries two logits (alpha_min, alpha_max). The
clip bounds are sigmoid(alpha) times the block's own extrema:

    lo_i = sigmoid(alpha_min_i) * min(block i)
    hi_i = sigmoid(alpha_max_i) * max(block i)

Blocks are the 32-element MX quantization blocks (formats.BLOCK), so a
clip never straddles two quantization blocks. Extrema are taken over all
rows of the tensor for each block index, so a (rows, N) tensor yields
k = N/BLOCK bound pairs. Elements exactly on a bound count as interior (the
pass-through gradient branch). Each bound's extremum term goes to the first
element that holds the extremum in element-major (element, row) order.

The full-size passes run on two contiguous row halves, the second on the
process's helper thread when it is free (formats.run_halves): in the
forward each half's column extrema, combined exactly, then its clamp and
masks; in the reverse pass the copy and zeroing of d_x. The masked sums
over rows and everything per block run whole, so the bits do not depend
on the split. The masks are fresh per call; the clipped tensor and d_x go
to out when given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .formats import BLOCK, blocks, out_blocks, run_halves

START_LOGIT = 4.0  # sigmoid(4) ~ 0.982: near-identity at the start of training


def sigmoid(z):
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so exp never
    overflows. min(z, -z) is -|z|, except that it keeps a NaN's sign bit."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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
    def init(cls, k: int, value: float = START_LOGIT) -> "ClipParams":
        return cls(np.full(k, value), np.full(k, value))


@dataclass
class ClipCtx:
    """Saved forward state for the backward pass."""

    upper: np.ndarray  # bool (rows, k, BLOCK): clamped at beta_max
    lower: np.ndarray  # bool (rows, k, BLOCK): clamped at beta_min
    x_min: np.ndarray  # (k,)
    x_max: np.ndarray  # (k,)
    argmin: np.ndarray  # (k,) flat index into the (rows*BLOCK) slab of block i
    argmax: np.ndarray
    s_min: np.ndarray  # (k,) sigmoid(alpha_min)
    s_max: np.ndarray  # (k,) sigmoid(alpha_max)


def _column_extrema(xb):
    """Min and max over rows of each (block, element) column, (k, BLOCK) each.

    The reduction runs over rows first, which is contiguous work; reducing
    each row's block first costs several times more. Each thread reduces
    its row half (formats.run_halves), and np.minimum / np.maximum combine
    the halves: a min of mins is the min, so the bits are those of one call.
    """
    cols = [None, None]  # of all rows, or of each row half

    def reduce(s, e):
        cols[s > 0] = np.min(xb[s:e], axis=0), np.max(xb[s:e], axis=0)

    run_halves(len(xb), xb.size, reduce)
    (col_min, col_max), second = cols
    if second is None:
        return col_min, col_max
    return np.minimum(col_min, second[0]), np.maximum(col_max, second[1])


def _block_extremum(xb, col, reduce):
    """Each block's extremum under reduce (np.min or np.max) of its columns col,
    shape (k,), and the flat (row * BLOCK + element) index of the first
    element that holds it in element-major order (NaN: index 0)."""
    ext = reduce(col, axis=1)
    c = np.arange(len(ext)) * BLOCK + np.argmax(col == ext[:, None], axis=1)
    r = np.argmax(np.take(xb.reshape(len(xb), -1), c, axis=1) == ext, axis=0)
    return ext, r * BLOCK + c % BLOCK


def clip_with_ctx(x, params: ClipParams, out=None):
    """Element-wise clamp of each block to its dynamic bounds.

    Returns (clipped, ClipCtx); the context feeds clip_backward. The clipped
    tensor is written into out when given (see formats.out_blocks; out=x
    clips in place), else into a fresh array. A tensor with no rows has no
    block extrema and raises ShapeError. The column extrema and the clamp
    run on two row halves (formats.run_halves); the rest is per block.
    """
    xb = blocks(x)
    if xb.shape[0] == 0:
        raise ShapeError(f"shape {np.shape(x)}: no rows to take block extrema over")
    if xb.shape[1] != params.k:
        raise ShapeError(f"{xb.shape[1]} blocks but {params.k} clip logit pairs")
    col_min, col_max = _column_extrema(xb)
    x_min, argmin = _block_extremum(xb, col_min, np.min)
    x_max, argmax = _block_extremum(xb, col_max, np.max)
    s_min, s_max = sigmoid(params.alpha_min), sigmoid(params.alpha_max)
    lo = (s_min * x_min)[None, :, None]
    hi = (s_max * x_max)[None, :, None]

    y = out_blocks(out, x)
    lower = np.empty(xb.shape, dtype=bool)
    upper = np.empty(xb.shape, dtype=bool)

    def clamp(s, e):
        xs, ys, lw, up = xb[s:e], y[s:e], lower[s:e], upper[s:e]
        np.less(xs, lo, out=lw)  # taken before out, which may be x, is written
        np.maximum(xs, lo, out=ys)
        np.greater(ys, hi, out=up)
        np.copyto(lw, False, where=up)
        np.copyto(ys, hi, where=up)

    run_halves(len(xb), xb.size, clamp)
    ctx = ClipCtx(upper, lower, x_min, x_max, argmin, argmax, s_min, s_max)
    return y.reshape(np.shape(x)), ctx


def clip_backward(ctx: ClipCtx, grad, out=None):
    """Exact reverse pass of clip_with_ctx.

    Returns (d_x, d_alpha_min, d_alpha_max). Interior elements pass their
    gradient through; clamped elements route gradient to the logits and,
    because the bound is built from the block's own extremum, to the
    extremal element itself (bound ratio times the summed clamped grad).
    d_x is written into out when given (see formats.out_blocks; out=grad
    runs in place), else into a fresh array. The masked sums and the
    extremum terms run whole; the copy and zeroing of d_x on two row halves
    (formats.run_halves).
    """
    gb = blocks(grad)
    g_up = np.sum(gb, axis=(0, 2), where=ctx.upper)  # (k,)
    g_lo = np.sum(gb, axis=(0, 2), where=ctx.lower)

    dxb = out_blocks(out, grad)
    copy = not np.may_share_memory(dxb, gb)

    def zero(s, e):
        d = dxb[s:e]
        if copy:
            np.copyto(d, gb[s:e])
        np.copyto(d, 0.0, where=ctx.upper[s:e])
        np.copyto(d, 0.0, where=ctx.lower[s:e])

    run_halves(len(dxb), dxb.size, zero)

    # sigmoid'(alpha) = s * (1 - s) with s = sigmoid(alpha), saved by the forward
    d_alpha_max = g_up * (ctx.s_max * (1.0 - ctx.s_max)) * ctx.x_max
    d_alpha_min = g_lo * (ctx.s_min * (1.0 - ctx.s_min)) * ctx.x_min

    # extremum path: d hi / d x[argmax] = sigmoid(alpha_max), same for min
    karange = np.arange(len(ctx.s_max))
    dxb[ctx.argmax // BLOCK, karange, ctx.argmax % BLOCK] += g_up * ctx.s_max
    dxb[ctx.argmin // BLOCK, karange, ctx.argmin % BLOCK] += g_lo * ctx.s_min
    return dxb.reshape(np.shape(grad)), d_alpha_min, d_alpha_max


def clip_gradients(x, params: ClipParams, upstream=None):
    """Gradients of the clip w.r.t. x and both logit vectors.

    upstream defaults to all-ones, i.e. the gradient of sum(clip(x)).
    """
    y, ctx = clip_with_ctx(x, params)
    if upstream is None:
        upstream = np.ones_like(y)
    return clip_backward(ctx, upstream)
