"""Desk-scale transformer block with a quantization site at each linear.

Models where block transforms attach in an attention + MLP block:

  text template: p_qkv (input of the fused qkv projection), p_o (input of
  the output projection), p_up (shared input of up/gate), p_down (input of
  the down projection), plus the key and value cache, quantized per head.

  vit template: p_qkv, p_o, p_fc1, p_fc2; no KV cache because there is no
  autoregressive decoding.

The block is built from its linear sites: ToyBlock.weights maps each site to
its own (out, in) weight, with the keys of ToyBlock.sites, and text p_up
holds the up rows stacked over the gate rows. _TEMPLATES is the one table
that knows each template's MLP sites, the activation between them (SwiGLU
halves or GELU) and whether it has a KV cache.

Each linear site is a calib.Theta (one transform, an activation clip and a
weight clip) and runs calib.quantized_forward, calibration's own forward,
so the block, calibration and fusion share one transform -> clip -> qdq
path. Normalization and attention scores stay in full precision. K/V
quantization is simulated as one quantize-dequantize of each head's key
and value slice; the cache carries no transform, because calibration
learns only the linear sites. RoPE is deliberately absent.

calibrate_block runs the sites through formats.run_parts, split by weight
size, since a calibration step costs about the same per weight element
and each site learns from its own recorded input and weight. Each
calibrate_layer call reads and writes only its own arrays, so every Theta
is byte-identical to a serial loop's, and a failing site leaves the block
as a serial loop over the sites would.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .calib import CalibConfig, Theta, calibrate_layer, quantized_forward
from .errors import ShapeError
from .formats import FormatConfig, block_count, quantize_dequantize, run_parts

SATURATED_LOGIT = 40.0  # sigmoid is exactly 1.0 in float64


def _rmsnorm(x, eps=1e-6):
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _swiglu(both):
    up, gate = np.split(both, 2, axis=1)
    return _silu(gate) * up


_erf = np.frompyfunc(math.erf, 1, 1)  # numpy has no erf; this returns an object array


def _gelu(x):
    return 0.5 * x * (1.0 + _erf(x / np.sqrt(2.0)).astype(np.float64))


@dataclass(frozen=True)
class _Template:
    mlp_sites: tuple[str, str]  # the MLP's input and output site
    act: Callable  # the first MLP site's output -> the second's input
    widen: int  # the first MLP site has widen * mlp_dim output rows
    kv_cache: bool


_TEMPLATES = {
    "text": _Template(("p_up", "p_down"), _swiglu, 2, kv_cache=True),
    "vit": _Template(("p_fc1", "p_fc2"), _gelu, 1, kv_cache=False),
}


@dataclass
class ToyBlockSpec:
    hidden: int
    head_dim: int
    n_heads: int
    mlp_dim: int
    template: str = "text"  # a key of _TEMPLATES

    def __post_init__(self):
        for f in fields(self):
            self.check_field(f.name, getattr(self, f.name))

    @staticmethod
    def check_field(name: str, value) -> None:
        """Raise ShapeError or ValueError unless value is allowed for the field name."""
        if name == "template":
            if value not in _TEMPLATES:
                raise ValueError(f"unknown template {value!r}")
        elif name == "n_heads":
            if value < 1:
                raise ShapeError(f"n_heads = {value} must be at least 1")
        else:
            block_count(value, f"{name} =")


@dataclass
class ToyBlock:
    spec: ToyBlockSpec
    weights: dict[str, np.ndarray]  # linear site -> its (out, in) weight
    sites: dict[str, Theta]  # linear site -> its transform and clips


def build_toy_block(spec: ToyBlockSpec, seed: int = 0) -> ToyBlock:
    """Random-weight block with identity site transforms and saturated clips."""
    rng = np.random.default_rng(seed)
    h, attn, mlp = spec.hidden, spec.n_heads * spec.head_dim, spec.mlp_dim
    t = _TEMPLATES[spec.template]
    mlp_in, mlp_out = t.mlp_sites
    shapes = {"p_qkv": (3 * attn, h), "p_o": (h, attn),
              mlp_in: (t.widen * mlp, h), mlp_out: (h, mlp)}
    weights = {site: rng.normal(size=shape) / np.sqrt(shape[1]) for site, shape in shapes.items()}
    sites = {site: Theta.init(w.shape[1], clip_init=SATURATED_LOGIT) for site, w in weights.items()}
    return ToyBlock(spec, weights, sites)


def _block_forward(block: ToyBlock, x, formats: FormatConfig | None):
    """Run the block; formats None means the plain full-precision block.

    Returns (y, taps): the block output, and each linear site mapped to its
    (input, weight, output).
    """
    spec = block.spec
    t = _TEMPLATES[spec.template]
    taps: dict[str, tuple] = {}

    def lin(site, inp):
        w = block.weights[site]
        if formats is None:
            out = inp @ w.T
        else:
            out = quantized_forward(inp, w, block.sites[site], formats)
        taps[site] = (inp, w, out)
        return out

    qkv = np.split(lin("p_qkv", _rmsnorm(x)), 3, axis=1)
    q, k, v = (np.split(m, spec.n_heads, axis=1) for m in qkv)
    if formats is not None and t.kv_cache:
        # each head's cache slice is quantized on its own
        k = [quantize_dequantize(kh, formats.kv) for kh in k]
        v = [quantize_dequantize(vh, formats.kv) for vh in v]

    outs = []
    for qh, kh, vh in zip(q, k, v):
        scores = qh @ kh.T / np.sqrt(spec.head_dim)
        w_attn = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w_attn /= w_attn.sum(axis=-1, keepdims=True)
        outs.append(w_attn @ vh)
    x2 = x + lin("p_o", np.concatenate(outs, axis=1))

    mlp_in, mlp_out = t.mlp_sites
    return x2 + lin(mlp_out, t.act(lin(mlp_in, _rmsnorm(x2)))), taps


def simulate_block(block: ToyBlock, x, formats: FormatConfig):
    """Quantized block forward plus per-site output MSE against full precision.

    The report maps each linear site to the MSE of its output versus the
    same site in the unquantized run, and "output" to the whole-block MSE.
    """
    x = np.asarray(x, dtype=np.float64)
    y_ref, ref = _block_forward(block, x, None)
    y, taps = _block_forward(block, x, formats)
    report = {site: float(np.mean((taps[site][2] - ref[site][2]) ** 2)) for site in taps}
    report["output"] = float(np.mean((y - y_ref) ** 2))
    return y, report


def calibrate_block(block: ToyBlock, x, config: CalibConfig, formats: FormatConfig) -> ToyBlock:
    """Calibrate every linear site on the block's own activations.

    One full-precision forward records each site's input and weight
    matrix, then each site is calibrated layer-wise through
    formats.run_parts. If a site fails, the error of the first failing site
    in site order is raised once every site group has ended: the sites
    before it keep their new Theta, the later ones their old one, as a
    serial loop over the sites would leave them.
    """
    _, taps = _block_forward(block, np.asarray(x, dtype=np.float64), None)
    order = list(taps)
    thetas: dict[str, Theta] = {}  # one key per site, so no lock

    def run(i):
        inp, w, _ = taps[order[i]]
        thetas[order[i]], _ = calibrate_layer(w, inp, config, formats)

    try:
        run_parts([taps[site][1].size for site in order], run)
    finally:  # the first site without a Theta is the first failing one
        for site in order:
            if site not in thetas:
                break
            block.sites[site] = thetas[site]
    return block
