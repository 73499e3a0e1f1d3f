"""Layer-wise calibration of transform factors and clip logits.

The pipeline per training step, for a linear layer Y = X @ W.T:

    x~ = qdq( clip( gpk_forward(X, T) ) )          activation side
    w~ = qdq( clip( gpk_forward(W, T.inverse_transpose()) ) )   weight side
    Y~ = x~ @ w~.T
    L  = || Y - Y~ ||_F^2

The weight side uses the inverse-transpose factors so that with
quantization and clipping disabled Y~ equals Y exactly for any invertible
transform. Both sides run one transform -> clip -> qdq operand path
(_site_operand); quantized_forward (which the toy block's linear sites in
harness call), fuse and fused_forward reuse it. Transform and clip blocks
are the 32-element MX block (formats.BLOCK), so no outlier moves across a
quantization block. The operand path clips and quantizes in place in the
transform's output, which is fresh unless the caller passes an out buffer.

Buffers: calibrate_layer owns one full-size weight-side array and reuses
it in every step. The forward writes the operand there (transform output,
clipped and quantized in place); the reverse pass reads it for dy @ w~,
then writes the weight gradient dy.T @ x~ over it and masks and clips that
in place. One step's context is dropped before the next starts, so its
masks never overlap the next step's. Everything else on the weight side is
a mask or a temporary of at most formats.CHUNK blocks per busy thread.

Threads: every full-size pass of a step runs as the same two row halves
on any CPU count (formats docstring): gpk_forward and qdq through
formats.run_chunks; the clip, the straight-through mask, gpk_backward's
per-block products and the step's three GEMMs (_matmul, split by output
rows or columns) through formats.run_halves.

Gradients are a fixed-graph reverse pass hand-derived for this
pipeline: the quantize-dequantize step is a clipped straight-through
estimator (identity inside the representable range, zero where an element
saturated), clip and the transform contractions use exact adjoints. The
reverse pass is _operand_backward once per operand, the mirror of
_site_operand, which takes the factor adjoints from transform.gpk_backward;
_backward adds the chain rule through A^-T and B_i^-T that ties the weight
side's factors back to theta.

The optimizer recipe is fixed: Adam with bias correction (BETAS, EPS), no
weight decay, and the learning rate decayed from CalibConfig.lr to 0 along
a half cosine over the run's steps. It updates Theta's own arrays in place
(Theta.params), so the learned parameters have one home; calibrate_layer
returns that Theta with its loss trace, and fuse bakes the weight side
only where a caller stores the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .clipping import START_LOGIT, ClipCtx, ClipParams, clip_backward, clip_with_ctx
from .errors import DivergenceError, ShapeError
from .formats import FormatConfig, MxTensor, block_count, quantize_dequantize_with_mask
from .formats import quantize_tensor, run_halves
from .transform import GpkTransform, gpk_backward, gpk_forward

BETAS = (0.9, 0.999)  # Adam moment decay rates
EPS = 1e-8  # Adam denominator guard


@dataclass
class Theta:
    """All learnable parameters of one layer's quantization pipeline."""

    transform: GpkTransform
    act_clip: ClipParams
    weight_clip: ClipParams

    @classmethod
    def init(cls, n: int, clip_init: float = START_LOGIT) -> "Theta":
        t = GpkTransform.identity(n)
        return cls(t, ClipParams.init(t.k, clip_init), ClipParams.init(t.k, clip_init))

    def params(self) -> dict[str, np.ndarray]:
        """The live parameter arrays by name; writing into them updates self."""
        return {
            "a": self.transform.a,
            "b": self.transform.b,
            "act_min": self.act_clip.alpha_min,
            "act_max": self.act_clip.alpha_max,
            "w_min": self.weight_clip.alpha_min,
            "w_max": self.weight_clip.alpha_max,
        }


@dataclass
class CalibConfig:
    """Hyperparameters of one calibration run (the optimizer recipe is fixed)."""

    lr: float = 2e-3
    epochs: int = 5
    batch_size: int = 4
    clip_init: float = START_LOGIT

    def __post_init__(self):
        for f in fields(self):
            self.check_field(f.name, getattr(self, f.name))

    @staticmethod
    def check_field(name: str, value) -> None:
        """Raise ValueError unless value is allowed for the field name."""
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value} is not finite")
        if name == "lr" and value < 0:
            raise ValueError(f"lr = {value} must be non-negative")
        if name in ("epochs", "batch_size") and value < 1:
            raise ValueError(f"{name} = {value} must be at least 1")


@dataclass
class FusedLayer:
    """Deployment artifact: pre-quantized weights plus the online pieces."""

    w_q: MxTensor | np.ndarray
    transform: GpkTransform
    act_clip: ClipParams

    @cached_property
    def weight(self) -> np.ndarray:
        """w_q as a dense float64 matrix; an MxTensor is decoded on first use, once."""
        return self.w_q.to_dense() if isinstance(self.w_q, MxTensor) else self.w_q


# -- forward / backward engine -------------------------------------------


@dataclass
class _Operand:
    """One matmul operand after its site path, with what its adjoint needs."""

    v: np.ndarray  # the operand as given
    t: GpkTransform  # the factors applied to it
    out: np.ndarray  # transform -> clip -> qdq of v
    mask: np.ndarray | None  # qdq in-range mask; None when qdq is skipped
    clip: ClipCtx


@dataclass
class _StepCtx:
    x: _Operand
    w: _Operand
    y: np.ndarray


def _site_operand(v, t: GpkTransform, clip_params: ClipParams, fmt, out=None) -> _Operand:
    """Transform -> clip -> qdq of one matmul operand; fmt None skips qdq.

    The transform writes into out (a fresh array when None); clip and qdq
    then run in place in it.
    """
    vt = gpk_forward(v, t, out=out)
    vc, clip = clip_with_ctx(vt, clip_params, out=vt)
    if fmt is None:
        return _Operand(v, t, vc, None, clip)
    vq, mask = quantize_dequantize_with_mask(vc, fmt, out=vc)
    return _Operand(v, t, vq, mask, clip)


def _matmul(a, b, out=None):
    """a @ b, written into out when given, else into a fresh array.

    The caller and the helper each take half of the output's rows, or of its
    columns when there are more of them (formats.run_halves). A slice of a
    GEMM's output, never of its inner dimension, has the bits of one call.
    """
    m, n = len(a), b.shape[1]
    if out is None:
        out = np.empty((m, n))
    size = a.size + b.size + out.size
    if m >= n:
        run_halves(m, size, lambda s, e: np.matmul(a[s:e], b, out=out[s:e]))
    else:
        run_halves(n, size, lambda s, e: np.matmul(a, b[:, s:e], out=out[:, s:e]))
    return out


def _forward(x, w, theta: Theta, formats: FormatConfig, w_out=None) -> _StepCtx:
    """One forward pass; w_out, when given, receives the weight operand."""
    t = theta.transform
    xo = _site_operand(x, t, theta.act_clip, formats.activations)
    wo = _site_operand(w, t.inverse_transpose(), theta.weight_clip, formats.weights, w_out)
    return _StepCtx(xo, wo, _matmul(xo.out, wo.out.T))


def _operand_backward(op: _Operand, grad):
    """Adjoint of _site_operand: grad at op.out -> (d_a, d_b, d_alpha_min, d_alpha_max).

    qdq passes grad through where it did not saturate (op.mask). grad is the
    caller's own array: the mask, on two row halves (formats.run_halves), and
    the clip's reverse pass run in place in it.
    """
    if op.mask is not None:
        run_halves(len(grad), grad.size,
                   lambda s, e: np.multiply(grad[s:e], op.mask[s:e], out=grad[s:e]))
    dt, d_min, d_max = clip_backward(op.clip, grad, out=grad)
    da, db = gpk_backward(op.v, op.t, dt)
    return da, db, d_min, d_max


def _backward(ctx: _StepCtx, y_ref, w_grad=None) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and gradients of one step.

    w_grad, when given, is the buffer for the weight operand's gradient. It
    may be ctx.w.out: the operand is read (dy @ w~) before the gradient is
    written, and nothing reads it after. Otherwise ctx is left as it is.
    """
    diff = ctx.y - y_ref
    loss = float(np.sum(diff * diff))

    dy = 2.0 * diff
    da_act, db_act, d_act_min, d_act_max = _operand_backward(ctx.x, _matmul(dy, ctx.w.out))
    w_grad = _matmul(dy.T, ctx.x.out, w_grad)
    da_p, db_p, d_w_min, d_w_max = _operand_backward(ctx.w, w_grad)

    # weight path runs through A' = A^-T, B' = B^-T; map those gradients back
    ait = ctx.w.t.a  # A^-T
    bit = ctx.w.t.b  # B_i^-T
    da_w = -ait @ da_p.T @ ait
    db_w = -np.matmul(bit, np.matmul(db_p.transpose(0, 2, 1), bit))

    grads = {
        "a": da_act + da_w,
        "b": db_act + db_w,
        "act_min": d_act_min,
        "act_max": d_act_max,
        "w_min": d_w_min,
        "w_max": d_w_max,
    }
    return loss, grads


def quantized_forward(x, w, theta: Theta, formats: FormatConfig) -> np.ndarray:
    """Simulated quantized output of the layer x @ w.T under theta."""
    return _forward(np.asarray(x, dtype=np.float64), w, theta, formats).y


def backward(x, w, theta: Theta, formats: FormatConfig) -> dict[str, np.ndarray]:
    """Gradients of the reconstruction loss for one batch under theta."""
    x = np.asarray(x, dtype=np.float64)
    ctx = _forward(x, w, theta, formats)
    _, grads = _backward(ctx, x @ w.T)
    return grads


# -- optimizer -------------------------------------------------------------


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at step 0 to 0 at step == total_steps."""
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def adamw_step(params, grads, state, config: CalibConfig, step_index: int, total_steps: int):
    """One Adam update (BETAS, EPS, no weight decay) at the cosine-decayed rate.

    Updates the arrays of params (e.g. Theta.params()) and the (m, v)
    moment pairs of state in place. step_index is the 0-based optimizer
    step; cosine_lr is evaluated at it and bias correction uses
    step_index + 1. Returns the learning rate used.
    """
    lr = cosine_lr(step_index, total_steps, config.lr)
    b1, b2 = BETAS
    t = step_index + 1
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for name, p in params.items():
        gr = grads[name]
        m, v = state[name]
        m *= b1
        m += (1.0 - b1) * gr
        v *= b2
        v += (1.0 - b2) * gr * gr
        p -= lr * ((m / c1) / (np.sqrt(v / c2) + EPS))
    return lr


# -- training loop ---------------------------------------------------------


def calibrate_layer(w, calib_set, config: CalibConfig, formats: FormatConfig):
    """Run the full calibration loop for one linear layer.

    calib_set is one (rows, N) array, split into config.batch_size chunks of
    rows. Returns (theta, loss_trace): the learned Theta and one
    (step, lr, loss) row per optimizer step. A non-finite loss or gradient
    raises DivergenceError carrying the trace up to that step.
    """
    w = np.asarray(w, dtype=np.float64, order="C")  # one BLAS path whatever the layout
    if w.ndim != 2 or w.shape[0] == 0:
        raise ShapeError(f"weights must be 2-D (out > 0, in), got shape {w.shape}")
    n = w.shape[1]
    block_count(n, "input dimension")
    calib_set = np.asarray(calib_set, dtype=np.float64)
    if calib_set.ndim != 2 or calib_set.shape[0] == 0 or calib_set.shape[1] != n:
        raise ShapeError(f"calibration set has shape {calib_set.shape}, expected (rows > 0, {n})")
    batches = [
        np.ascontiguousarray(calib_set[i : i + config.batch_size])
        for i in range(0, calib_set.shape[0], config.batch_size)
    ]

    theta = Theta.init(n, config.clip_init)
    params = theta.params()
    state = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in params.items()}
    loss_trace: list[tuple[int, float, float]] = []

    y_refs = [x @ w.T for x in batches]
    w_buf = np.empty(w.shape)  # every step's weight operand, then its gradient
    total_steps = config.epochs * len(batches)
    step = 0
    for _epoch in range(config.epochs):
        for x, y_ref in zip(batches, y_refs):
            # the step context is a temporary: freed before the next forward
            step_loss, grads = _backward(_forward(x, w, theta, formats, w_buf), y_ref, w_buf)
            if not math.isfinite(step_loss):
                raise DivergenceError("non-finite loss", step, loss_trace)
            if any(not np.all(np.isfinite(g)) for g in grads.values()):
                raise DivergenceError("non-finite gradient", step, loss_trace)
            lr = adamw_step(params, grads, state, config, step, total_steps)
            loss_trace.append((step, lr, step_loss))
            step += 1

    theta.transform.check_invertible()
    return theta, loss_trace


def fuse(w, theta: Theta, formats: FormatConfig) -> FusedLayer:
    """Offline fusion: bake the weight-side pipeline into stored weights."""
    t = theta.transform
    wc = _site_operand(w, t.inverse_transpose(), theta.weight_clip, None).out
    w_q = quantize_tensor(wc, formats.weights) if formats.weights is not None else wc
    return FusedLayer(w_q, t, theta.act_clip)


def fused_forward(x, fused: FusedLayer, formats: FormatConfig) -> np.ndarray:
    """Inference with pre-quantized weights and the online activation path."""
    xq = _site_operand(x, fused.transform, fused.act_clip, formats.activations).out
    return xq @ fused.weight.T
