"""Layer-wise calibration of transform factors and clip logits.

The pipeline per training step, for a linear layer Y = X @ W.T:

    x~ = qdq( clip( gpk_forward(X, T) ) )          activation side
    w~ = qdq( clip( gpk_forward(W, T.inverse_transpose()) ) )   weight side
    Y~ = x~ @ w~.T
    L  = || Y - Y~ ||_F^2

The weight side uses the inverse-transpose factors so that with
quantization and clipping disabled Y~ equals Y exactly for any invertible
transform. Both sides run one transform -> clip -> qdq operand path
(_site_operand); fuse, fused_forward and the toy block's linear sites in
harness reuse it. Transform and clip blocks are the 32-element MX block
(formats.BLOCK, split as transform.G1 x transform.G2), so no outlier moves
across a quantization block.

Gradients are a fixed-graph reverse pass hand-derived for this
pipeline: the quantize-dequantize step is a clipped straight-through
estimator (identity inside the representable range, zero where an element
saturated), clip and the transform contractions use exact adjoints.

Updates are decoupled-weight-decay Adam with bias correction and a cosine
learning-rate schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clipping import ClipParams, clip_backward, clip_with_ctx
from .errors import DivergenceError, ShapeError
from .formats import BLOCK, FormatConfig, MxTensor, quantize_dequantize_with_mask, quantize_tensor
from .transform import G1, G2, GpkTransform, gpk_forward


@dataclass
class Theta:
    """All learnable parameters of one layer's quantization pipeline."""

    transform: GpkTransform
    act_clip: ClipParams
    weight_clip: ClipParams

    @classmethod
    def init(cls, n: int, clip_init: float = 4.0) -> "Theta":
        t = GpkTransform.identity(n)
        return cls(t, ClipParams.init(t.k, clip_init), ClipParams.init(t.k, clip_init))

    def to_params(self) -> dict[str, np.ndarray]:
        return {
            "a": self.transform.a.copy(),
            "b": self.transform.b.copy(),
            "act_min": self.act_clip.alpha_min.copy(),
            "act_max": self.act_clip.alpha_max.copy(),
            "w_min": self.weight_clip.alpha_min.copy(),
            "w_max": self.weight_clip.alpha_max.copy(),
        }

    @classmethod
    def from_params(cls, params: dict[str, np.ndarray]) -> "Theta":
        return cls(
            GpkTransform(params["a"], params["b"]),
            ClipParams(params["act_min"], params["act_max"]),
            ClipParams(params["w_min"], params["w_max"]),
        )


@dataclass
class CalibConfig:
    """Hyperparameters of one calibration run."""

    lr: float = 2e-3
    epochs: int = 5
    batch_size: int = 4
    schedule: str = "cosine"  # "cosine" or "constant"
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    clip_init: float = 4.0

    def __post_init__(self):
        for name in ("lr", "weight_decay", "clip_init", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)} is not finite")
        if self.lr < 0:
            raise ValueError("learning rate must be non-negative")
        if self.eps <= 0:
            raise ValueError(f"eps = {self.eps} must be positive")
        for name, b in zip(("beta1", "beta2"), self.betas):
            if not 0 <= b < 1:
                raise ValueError(f"{name} = {b} is outside [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")
        if self.schedule not in ("cosine", "constant"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


@dataclass
class CalibRun:
    """Result of a calibration job: weights, learned parameters, loss trace."""

    weights: np.ndarray
    theta: Theta
    formats: FormatConfig
    loss_trace: list[tuple[int, float, float]] = field(default_factory=list)


@dataclass
class FusedLayer:
    """Deployment artifact: pre-quantized weights plus the online pieces."""

    w_q: MxTensor | np.ndarray
    transform: GpkTransform
    act_clip: ClipParams


# -- forward / backward engine -------------------------------------------


@dataclass
class _StepCtx:
    x: np.ndarray
    w: np.ndarray
    theta: Theta
    wt_factors: GpkTransform
    xq: np.ndarray
    wq: np.ndarray
    xmask: np.ndarray | None
    wmask: np.ndarray | None
    xclip_ctx: object
    wclip_ctx: object
    y: np.ndarray


def _site_operand(v, t: GpkTransform, clip_params: ClipParams, fmt):
    """Transform -> clip -> qdq of one matmul operand; fmt None skips qdq.

    Returns (out, mask, clip_ctx); mask is None when qdq is skipped.
    """
    vc, ctx = clip_with_ctx(gpk_forward(v, t), clip_params)
    if fmt is None:
        return vc, None, ctx
    out, mask = quantize_dequantize_with_mask(vc, fmt)
    return out, mask, ctx


def _forward(x, w, theta: Theta, formats: FormatConfig) -> _StepCtx:
    t = theta.transform
    wt_factors = t.inverse_transpose()
    xq, xmask, xctx = _site_operand(x, t, theta.act_clip, formats.activations)
    wq, wmask, wctx = _site_operand(w, wt_factors, theta.weight_clip, formats.weights)
    y = xq @ wq.T
    return _StepCtx(x, w, theta, wt_factors, xq, wq, xmask, wmask, xctx, wctx, y)


def _gpk_backward(x, a, b, grad_out):
    """Adjoints of gpk_forward with respect to its factors: returns (d_a, d_b).

    With V the (G2, G1) block slices of x, T1 = V @ A and gradient G at the
    output B_i @ T1: d_b[i] = sum over rows of G @ T1.T, and
    d_a = sum over rows and blocks of V.T @ (B_i.T @ G). Both sums run over
    stacked slices, so d_a is one GEMM.
    """
    v = np.asarray(x, dtype=np.float64).reshape(-1, G1)
    go = np.asarray(grad_out, dtype=np.float64).reshape(-1, b.shape[0], G2, G1)
    t1 = (v @ a).reshape(go.shape)
    db = np.matmul(go, t1.transpose(0, 1, 3, 2)).sum(axis=0)
    dt1 = np.matmul(b.transpose(0, 2, 1), go)
    da = v.T @ dt1.reshape(-1, G1)
    return da, db


def _backward(ctx: _StepCtx, y_ref) -> tuple[float, dict[str, np.ndarray]]:
    diff = ctx.y - y_ref
    loss = float(np.sum(diff * diff))

    dy = 2.0 * diff
    dxq = dy @ ctx.wq
    dwq = dy.T @ ctx.xq

    dxc = dxq if ctx.xmask is None else dxq * ctx.xmask
    dwc = dwq if ctx.wmask is None else dwq * ctx.wmask

    dxt, d_act_min, d_act_max = clip_backward(ctx.xclip_ctx, dxc)
    dwt, d_w_min, d_w_max = clip_backward(ctx.wclip_ctx, dwc)

    t = ctx.theta.transform
    da_act, db_act = _gpk_backward(ctx.x, t.a, t.b, dxt)
    da_p, db_p = _gpk_backward(ctx.w, ctx.wt_factors.a, ctx.wt_factors.b, dwt)

    # weight path runs through A' = A^-T, B' = B^-T; map those gradients back
    ait = ctx.wt_factors.a  # A^-T
    bit = ctx.wt_factors.b  # B_i^-T
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


def quantized_forward(x, run: CalibRun) -> np.ndarray:
    """Simulated quantized layer output for a batch, under run.theta."""
    return _forward(np.asarray(x, dtype=np.float64), run.weights, run.theta, run.formats).y


def loss(y_ref, y_q) -> float:
    """Sum of squared differences (squared Frobenius norm)."""
    d = np.asarray(y_ref, dtype=np.float64) - np.asarray(y_q, dtype=np.float64)
    return float(np.sum(d * d))


def backward(run: CalibRun, batch) -> dict[str, np.ndarray]:
    """Gradients of the reconstruction loss for one batch under run.theta."""
    x = np.asarray(batch, dtype=np.float64)
    ctx = _forward(x, run.weights, run.theta, run.formats)
    _, grads = _backward(ctx, x @ run.weights.T)
    return grads


# -- optimizer -------------------------------------------------------------


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at step 0 to 0 at step == total_steps."""
    if total_steps <= 0:
        return lr0
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def init_opt_state(params: dict[str, np.ndarray]) -> dict:
    return {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in params.items()}


def adamw_step(params, grads, state, config: CalibConfig, step_index: int, total_steps: int):
    """One decoupled-weight-decay Adam update.

    step_index is the 0-based optimizer step; the schedule is evaluated at
    it and bias correction uses step_index + 1. Returns (params, state, lr).
    """
    if config.schedule == "cosine":
        lr = cosine_lr(step_index, total_steps, config.lr)
    else:
        lr = config.lr
    b1, b2 = config.betas
    t = step_index + 1
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    new_params, new_state = {}, {}
    for name, p in params.items():
        gr = grads[name]
        m, v = state[name]
        m = b1 * m + (1.0 - b1) * gr
        v = b2 * v + (1.0 - b2) * gr * gr
        update = (m / c1) / (np.sqrt(v / c2) + config.eps)
        new_params[name] = p - lr * update - lr * config.weight_decay * p
        new_state[name] = (m, v)
    return new_params, new_state, lr


# -- training loop ---------------------------------------------------------


def _as_batches(calib_set, batch_size: int) -> list[np.ndarray]:
    if isinstance(calib_set, np.ndarray):
        if calib_set.ndim != 2:
            raise ShapeError("a single calibration array must be 2-D (rows, features)")
        return [
            np.ascontiguousarray(calib_set[i : i + batch_size], dtype=np.float64)
            for i in range(0, calib_set.shape[0], batch_size)
        ]
    return [np.asarray(b, dtype=np.float64) for b in calib_set]


def calibrate_layer(w, calib_set, config: CalibConfig, formats: FormatConfig):
    """Run the full calibration loop for one linear layer.

    calib_set is a list of (rows, N) batches, or a single 2-D array that is
    split into config.batch_size chunks. Returns (CalibRun, FusedLayer).
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"weights must be 2-D (out, in), got shape {w.shape}")
    n = w.shape[1]
    if n % BLOCK != 0:
        raise ShapeError(f"input dimension {n} is not a multiple of {BLOCK}")
    batches = _as_batches(calib_set, config.batch_size)
    if not batches:
        raise ShapeError("calibration set is empty")
    for bi, x in enumerate(batches):
        if x.ndim != 2 or x.shape[1] != n:
            raise ShapeError(f"batch {bi} has shape {x.shape}, expected (*, {n})")

    theta = Theta.init(n, config.clip_init)
    params = theta.to_params()
    state = init_opt_state(params)
    run = CalibRun(w, theta, formats)

    y_refs = [x @ w.T for x in batches]
    total_steps = config.epochs * len(batches)
    step = 0
    for _epoch in range(config.epochs):
        for x, y_ref in zip(batches, y_refs):
            theta = Theta.from_params(params)
            ctx = _forward(x, w, theta, formats)
            step_loss, grads = _backward(ctx, y_ref)
            if not math.isfinite(step_loss):
                raise DivergenceError("non-finite loss", step, run.loss_trace)
            if any(not np.all(np.isfinite(g)) for g in grads.values()):
                raise DivergenceError("non-finite gradient", step, run.loss_trace)
            params, state, lr = adamw_step(params, grads, state, config, step, total_steps)
            run.loss_trace.append((step, lr, step_loss))
            step += 1

    run.theta = Theta.from_params(params)
    run.theta.transform.check_invertible()
    return run, fuse(run)


def fuse(run: CalibRun) -> FusedLayer:
    """Offline fusion: bake the weight-side pipeline into stored weights."""
    t = run.theta.transform
    wc, _, _ = _site_operand(run.weights, t.inverse_transpose(), run.theta.weight_clip, None)
    if run.formats.weights is not None:
        w_q = quantize_tensor(wc, run.formats.weights)
    else:
        w_q = wc
    return FusedLayer(w_q, t, run.theta.act_clip)


def fused_forward(x, fused: FusedLayer, formats: FormatConfig) -> np.ndarray:
    """Inference with pre-quantized weights and the online activation path."""
    xq, _, _ = _site_operand(x, fused.transform, fused.act_clip, formats.activations)
    w = fused.w_q.to_dense() if isinstance(fused.w_q, MxTensor) else fused.w_q
    return xq @ w.T
