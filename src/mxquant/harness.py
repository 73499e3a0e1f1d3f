"""Desk-scale transformer block with a quantization site at each linear.

Models where block transforms attach in an attention + MLP block:

  text template: p_qkv (input of the fused qkv projection), p_o (input of
  the output projection), p_up (shared input of up/gate), p_down (input of
  the down projection), plus the key and value cache, quantized per head.

  vit template: p_qkv, p_o, p_fc1, p_fc2; no KV cache because there is no
  autoregressive decoding.

Each linear site is a calib.Theta (one transform, an activation clip and a
weight clip) and runs calib.quantized_forward, calibration's own forward,
so the block, calibration and fusion share one transform -> clip -> qdq
path. Normalization and attention scores stay in full precision. K/V
quantization is simulated as one quantize-dequantize of each head's key
and value slice; the cache carries no transform, because calibration
learns only the linear sites. RoPE is deliberately absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .calib import CalibConfig, Theta, calibrate_layer, quantized_forward
from .errors import ShapeError
from .formats import FormatConfig, block_count, quantize_dequantize

SATURATED_LOGIT = 40.0  # sigmoid is exactly 1.0 in float64


@dataclass
class ToyBlockSpec:
    hidden: int
    head_dim: int
    n_heads: int
    mlp_dim: int
    template: str = "text"  # "text" or "vit"

    def __post_init__(self):
        for f in fields(self):
            self.check_field(f.name, getattr(self, f.name))

    @staticmethod
    def check_field(name: str, value) -> None:
        """Raise ShapeError or ValueError unless value is allowed for the field name."""
        if name == "template":
            if value not in ("text", "vit"):
                raise ValueError(f"unknown template {value!r}")
        elif name == "n_heads":
            if value < 1:
                raise ShapeError(f"n_heads = {value} must be at least 1")
        else:
            block_count(value, f"{name} =")


@dataclass
class ToyBlock:
    spec: ToyBlockSpec
    weights: dict[str, np.ndarray]
    sites: dict[str, Theta]  # linear sites

    @property
    def attn_dim(self) -> int:
        return self.spec.n_heads * self.spec.head_dim


def build_toy_block(spec: ToyBlockSpec, seed: int = 0) -> ToyBlock:
    """Random-weight block with identity site transforms and saturated clips."""
    rng = np.random.default_rng(seed)
    h = spec.hidden
    attn = spec.n_heads * spec.head_dim

    def linear(out_dim, in_dim):
        return rng.normal(size=(out_dim, in_dim)) / np.sqrt(in_dim)

    if spec.template == "text":
        weights = {
            "qkv_proj": linear(3 * attn, h),
            "o_proj": linear(h, attn),
            "up_proj": linear(spec.mlp_dim, h),
            "gate_proj": linear(spec.mlp_dim, h),
            "down_proj": linear(h, spec.mlp_dim),
        }
        site_dims = {"p_qkv": h, "p_o": attn, "p_up": h, "p_down": spec.mlp_dim}
    else:
        weights = {
            "qkv_proj": linear(3 * attn, h),
            "o_proj": linear(h, attn),
            "fc1": linear(spec.mlp_dim, h),
            "fc2": linear(h, spec.mlp_dim),
        }
        site_dims = {"p_qkv": h, "p_o": attn, "p_fc1": h, "p_fc2": spec.mlp_dim}
    sites = {site: Theta.init(n, clip_init=SATURATED_LOGIT) for site, n in site_dims.items()}
    return ToyBlock(spec, weights, sites)


def _rmsnorm(x, eps=1e-6):
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)


def _silu(x):
    return x / (1.0 + np.exp(-x))


_erf = np.frompyfunc(math.erf, 1, 1)  # numpy has no erf; this returns an object array


def _gelu(x):
    return 0.5 * x * (1.0 + _erf(x / np.sqrt(2.0)).astype(np.float64))


def _kv_site(per_head_vals, fmt):
    """Quantize-dequantize each head's cache slice on its own."""
    return [quantize_dequantize(vals, fmt) for vals in per_head_vals]


def _block_forward(block: ToyBlock, x, formats: FormatConfig | None, record=None):
    """Run the block; formats None means the plain full-precision block.

    record, when given, maps each linear site to its (input, weight, output).
    """
    spec = block.spec
    quant = formats is not None

    def lin(site, inp, w):
        if quant:
            out = quantized_forward(inp, w, block.sites[site], formats)
        else:
            out = inp @ w.T
        if record is not None:
            record[site] = (inp, w, out)
        return out

    h1 = _rmsnorm(x)
    qkv = lin("p_qkv", h1, block.weights["qkv_proj"])
    attn = block.attn_dim
    q, k, v = (qkv[:, i * attn : (i + 1) * attn] for i in range(3))
    heads_q = [q[:, h * spec.head_dim : (h + 1) * spec.head_dim] for h in range(spec.n_heads)]
    heads_k = [k[:, h * spec.head_dim : (h + 1) * spec.head_dim] for h in range(spec.n_heads)]
    heads_v = [v[:, h * spec.head_dim : (h + 1) * spec.head_dim] for h in range(spec.n_heads)]

    if quant and spec.template == "text":
        heads_k = _kv_site(heads_k, formats.kv)
        heads_v = _kv_site(heads_v, formats.kv)

    outs = []
    for h in range(spec.n_heads):
        scores = heads_q[h] @ heads_k[h].T / np.sqrt(spec.head_dim)
        w_attn = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w_attn /= w_attn.sum(axis=-1, keepdims=True)
        outs.append(w_attn @ heads_v[h])
    attn_out = np.concatenate(outs, axis=1)
    x2 = x + lin("p_o", attn_out, block.weights["o_proj"])

    h2 = _rmsnorm(x2)
    if spec.template == "text":
        w_cat = np.vstack([block.weights["up_proj"], block.weights["gate_proj"]])
        both = lin("p_up", h2, w_cat)
        up, gate = both[:, : spec.mlp_dim], both[:, spec.mlp_dim :]
        down = lin("p_down", _silu(gate) * up, block.weights["down_proj"])
    else:
        mid = lin("p_fc1", h2, block.weights["fc1"])
        down = lin("p_fc2", _gelu(mid), block.weights["fc2"])
    return x2 + down


def simulate_block(block: ToyBlock, x, formats: FormatConfig):
    """Quantized block forward plus per-site output MSE against full precision.

    The report maps each linear site to the MSE of its output versus the
    same site in the unquantized run, and "output" to the whole-block MSE.
    """
    x = np.asarray(x, dtype=np.float64)
    ref: dict[str, tuple] = {}
    y_ref = _block_forward(block, x, None, ref)
    taps: dict[str, tuple] = {}
    y = _block_forward(block, x, formats, taps)
    report = {site: float(np.mean((taps[site][2] - ref[site][2]) ** 2)) for site in taps}
    report["output"] = float(np.mean((y - y_ref) ** 2))
    return y, report


def calibrate_block(block: ToyBlock, x, config: CalibConfig, formats: FormatConfig) -> ToyBlock:
    """Calibrate every linear site on the block's own activations.

    One full-precision forward records each site's input and (stacked)
    weight matrix, then each site is calibrated layer-wise.
    """
    record: dict[str, tuple] = {}
    _block_forward(block, np.asarray(x, dtype=np.float64), None, record)
    for site, (inp, w, _) in record.items():
        block.sites[site], _ = calibrate_layer(w, inp, config, formats)
    return block
