"""Self-check suite behind `mxquant verify`: fast oracle cross-checks."""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import oracle
from .calib import Theta, _backward, _forward
from .formats import BLOCK, E2M1, E4M3, FormatConfig, MxFormat, quantize_tensor
from .io import read_tensor, write_tensor
from .transform import (
    G1,
    G2,
    DecompositionKind,
    GpkTransform,
    block_hadamard,
    gpk_forward,
    gpk_inverse_forward,
    param_count,
)


@dataclass
class OracleReport:
    """Outcome of one reference cross-check."""

    case_id: str
    max_rel_error: float
    passed: bool


def well_conditioned(rng, n: int, cond_max: float = 10.0) -> np.ndarray:
    """Random matrix with an exact upper bound on its condition number."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    sv = np.geomspace(1.0, cond_max, n)
    return q1 @ np.diag(sv) @ q2


def random_transform(rng, n: int, cond_max: float = 10.0) -> GpkTransform:
    return GpkTransform(
        well_conditioned(rng, G1, cond_max),
        np.stack([well_conditioned(rng, G2, cond_max) for _ in range(n // BLOCK)]),
    )


def _rel_err(got, want):
    want = np.asarray(want, dtype=np.float64)
    scale = np.max(np.abs(want))
    if scale == 0.0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - want)) / scale)


def check_quantizer(
    fmt: MxFormat | None = None, n_blocks: int = 2000, seed: int = 0
) -> OracleReport:
    """Block quantizer versus the exhaustive nearest-grid reference: codes and decoded values."""
    fmts = (fmt,) if fmt is not None else (E2M1, E4M3)
    rng = np.random.default_rng(seed)
    mismatches = 0
    for f in fmts:
        scales = 10.0 ** rng.uniform(-3, 3, size=(n_blocks, 1))
        v = rng.normal(size=(n_blocks, BLOCK)) * scales
        got = quantize_tensor(v, f)
        want, codes = oracle.nearest_mx_oracle_batch(v, f)
        bad = np.any(got.codes != codes, axis=1) | np.any(got.to_dense() != want, axis=1)
        mismatches += int(np.count_nonzero(bad))
    name = "+".join(f.name for f in fmts)
    return OracleReport(f"quantizer-vs-oracle[{name}]", float(mismatches), mismatches == 0)


def check_gpk_dense(seed: int = 0, cases: int = 25) -> OracleReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n = 32 * int(rng.integers(1, 9))
        t = random_transform(rng, n)
        x = rng.normal(size=(int(rng.integers(1, 6)), n))
        worst = max(worst, _rel_err(gpk_forward(x, t), oracle.dense_transform_oracle(x, t)))
    return OracleReport("gpk-vs-dense", worst, worst <= 1e-6)


def check_round_trip(seed: int = 1, cases: int = 25) -> OracleReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n = 32 * int(rng.integers(1, 9))
        t = random_transform(rng, n)
        x = rng.normal(size=(4, n))
        worst = max(worst, _rel_err(gpk_inverse_forward(gpk_forward(x, t), t), x))
    return OracleReport("inverse-round-trip", worst, worst <= 1e-5)


def check_vec_identity(seed: int = 2, cases: int = 100) -> OracleReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        a = rng.normal(size=(G1, G1))
        b = rng.normal(size=(G2, G2))
        v = rng.normal(size=(G2, G1))
        lhs = v.reshape(-1) @ np.kron(b, a)
        rhs = (b.T @ v @ a).reshape(-1)
        worst = max(worst, _rel_err(lhs, rhs))
    return OracleReport("kron-vec-identity", worst, worst <= 1e-6)


def check_gradients(seed: int = 3) -> OracleReport:
    """Analytic pipeline gradients versus finite differences, quantization off."""
    rng = np.random.default_rng(seed)
    n, m = 64, 8
    x = rng.normal(size=(6, n))
    w = rng.normal(size=(m, n))
    theta = Theta.init(n)
    params = theta.params()
    for key in ("a", "b"):
        params[key] += 0.05 * rng.normal(size=params[key].shape)
    fmts = FormatConfig(None, None)
    y_ref = x @ w.T + rng.normal(size=(6, m))

    def loss_fn(_params):
        # finite_diff_oracle perturbs theta's own arrays in place
        ctx = _forward(x, w, theta, fmts)
        return float(np.sum((ctx.y - y_ref) ** 2))

    ctx = _forward(x, w, theta, fmts)
    _, grads = _backward(ctx, y_ref)
    fd = oracle.finite_diff_oracle(loss_fn, params, h=1e-5)
    worst = max(_rel_err(grads[k], fd[k]) for k in params)
    return OracleReport("pipeline-gradients-vs-fd", worst, worst <= 1e-4)


def check_param_counts() -> OracleReport:
    # the paper's N = 4096 counts, in table order
    want = (8192, 131072, 10240, 2112)
    ok = tuple(param_count(kind, 4096) for kind in DecompositionKind) == want
    return OracleReport("param-count-table", 0.0 if ok else 1.0, ok)


def check_hadamard() -> OracleReport:
    """block_hadamard versus the entry-by-entry Sylvester matrix, plus its orthogonality."""
    h = oracle.hadamard_oracle(BLOCK) / np.sqrt(BLOCK)
    err = _rel_err(h @ h.T, np.eye(BLOCK))
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 128))
    y = block_hadamard(x)
    err = max(err, _rel_err(y.reshape(-1, BLOCK), x.reshape(-1, BLOCK) @ h))
    norms_in = np.linalg.norm(x.reshape(-1, BLOCK), axis=1)
    norms_out = np.linalg.norm(y.reshape(-1, BLOCK), axis=1)
    err = max(err, _rel_err(norms_out, norms_in))
    return OracleReport("hadamard-orthogonality", err, err <= 1e-6)


def check_file_round_trip(seed: int = 5) -> OracleReport:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 64))
    ok = True
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "t.mxbt"
        write_tensor(p, x)
        back = read_tensor(p)
        ok &= np.array_equal(back, x.astype(np.float32).astype(np.float64))
        for fmt in (E2M1, E4M3):
            q = quantize_tensor(x, fmt)
            write_tensor(p, q)
            r = read_tensor(p)
            ok &= np.array_equal(r.scale_exps, q.scale_exps) and np.array_equal(r.codes, q.codes)
    return OracleReport("tensor-file-round-trip", 0.0 if ok else 1.0, bool(ok))


ALL_CHECKS = (
    check_quantizer,
    check_gpk_dense,
    check_round_trip,
    check_vec_identity,
    check_gradients,
    check_param_counts,
    check_hadamard,
    check_file_round_trip,
)


def run_all() -> list[OracleReport]:
    return [c() for c in ALL_CHECKS]
