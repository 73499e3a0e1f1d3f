"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import time

import numpy as np
from scipy.linalg import hadamard

import mxquant as mq
from conftest import NO_QUANT, W4A4KV16, make_outlier_instance
from mxquant import io
from mxquant.calib import CalibConfig, Theta, _backward, _forward, calibrate_layer, quantized_forward
from mxquant.cli import main
from mxquant.oracle import bimodality_score, counted_gpk_forward, finite_diff_oracle, nearest_mx_oracle_batch
from mxquant.transform import DecompositionKind, gpk_forward, gpk_inverse_forward, param_count
from mxquant.verify import random_transform


def report(num, desc, ok, elapsed):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} ({elapsed:.2f}s)")
    assert ok, f"criterion {num} failed: {desc}"


def test_c01_param_count_table_exact():
    t0 = time.perf_counter()
    args = (4096, 32, 8, 4)
    got = (
        param_count(DecompositionKind.GLOBAL_KRONECKER, *args),
        param_count(DecompositionKind.FULL, *args),
        param_count(DecompositionKind.NAIVE_KRONECKER, *args),
        param_count(DecompositionKind.GPK, *args),
    )
    elapsed = time.perf_counter() - t0
    ok = got == (8192, 131072, 10240, 2112) and elapsed < 1e-3
    report(1, "parameter-count table reproduced exactly", ok, elapsed)


def test_c02_quantizer_matches_oracle_100k_blocks():
    t0 = time.perf_counter()
    ok = True
    for fmt in (mq.E2M1, mq.E4M3):
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(100_000, 32)) * 10.0 ** rng.uniform(-4, 4, size=(100_000, 1))
        t = mq.quantize_tensor(blocks, fmt)
        dec, codes = nearest_mx_oracle_batch(blocks, fmt)
        ok &= np.array_equal(t.codes, codes)
        ok &= t.to_dense().tobytes() == dec.tobytes()
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(2, "quantizer equals exhaustive oracle on 2x100k random blocks", ok, elapsed)


def test_c03_gpk_dense_equivalence_and_round_trip():
    from mxquant.oracle import dense_transform_oracle

    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_fwd = worst_rt = 0.0
    for _ in range(1000):
        n = 32 * int(rng.integers(1, 17))  # N <= 512
        # per-factor condition up to ~60 keeps cond(P_i) < 1e4 with margin
        t = random_transform(rng, n, cond_max=float(rng.uniform(1.0, 60.0)))
        x = rng.normal(size=(int(rng.integers(1, 5)), n))
        y = gpk_forward(x, t)
        ref = dense_transform_oracle(x, t)
        worst_fwd = max(worst_fwd, np.abs(y - ref).max() / np.abs(ref).max())
        back = gpk_inverse_forward(y, t)
        worst_rt = max(worst_rt, np.abs(back - x).max() / np.abs(x).max())
    elapsed = time.perf_counter() - t0
    ok = worst_fwd <= 1e-6 and worst_rt <= 1e-5 and elapsed < 30.0
    report(3, f"forward/dense rel err {worst_fwd:.2e}, round trip {worst_rt:.2e}", ok, elapsed)


def test_c04_vectorization_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(4, 4))
        v = rng.normal(size=(4, 8))
        lhs = v.reshape(-1) @ np.kron(b, a)
        rhs = (b.T @ v @ a).reshape(-1)
        worst = max(worst, np.abs(lhs - rhs).max() / np.abs(rhs).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    report(4, f"vec(V)(B kron A) == vec(B^T V A), rel err {worst:.2e}", ok, elapsed)


def test_c05_gradients_match_finite_differences_20_seeds():
    t0 = time.perf_counter()
    n, m, rows = 64, 6, 5
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, n))
        x[:, int(rng.integers(n))] *= 15.0
        w = rng.normal(size=(m, n))
        y_ref = x @ w.T + rng.normal(size=(rows, m))
        params = Theta.init(n).to_params()
        params["a"] += 0.05 * rng.normal(size=(8, 8))
        params["b"] += 0.05 * rng.normal(size=params["b"].shape)
        for key in ("act_min", "act_max", "w_min", "w_max"):
            params[key] = rng.normal(size=2) + 1.0

        def loss_fn(p):
            ctx = _forward(x, w, Theta.from_params(p), NO_QUANT)
            return float(np.sum((ctx.y - y_ref) ** 2))

        ctx = _forward(x, w, Theta.from_params(params), NO_QUANT)
        _, grads = _backward(ctx, y_ref)
        fd = finite_diff_oracle(loss_fn, params, h=1e-5)
        for key in params:
            worst = max(worst, np.abs(grads[key] - fd[key]).max() / np.abs(fd[key]).max())
        for i in range(params["b"].shape[0]):  # every private factor separately
            worst = max(worst, np.abs(grads["b"][i] - fd["b"][i]).max() / np.abs(fd["b"][i]).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 120.0
    report(5, f"analytic vs central-difference gradients, rel err {worst:.2e}", ok, elapsed)


def test_c06_identity_baseline_bit_for_bit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    x = rng.normal(size=(24, 96))
    w = rng.normal(size=(10, 96))
    cfg = CalibConfig(lr=0.0, epochs=1, clip_init=40.0)
    run, fused = calibrate_layer(w, x, cfg, W4A4KV16)
    pipeline = quantized_forward(x, run)
    rtn = mq.quantize_dequantize(x, mq.E2M1) @ mq.quantize_dequantize(w, mq.E2M1).T
    ok = pipeline.tobytes() == rtn.tobytes()
    ok &= np.array_equal(fused.w_q.codes, mq.quantize_tensor(w, mq.E2M1).codes)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(6, "identity/saturated/lr=0 pipeline equals plain RTN bit-for-bit", ok, elapsed)


def test_c07_calibration_efficacy_on_outlier_layer():
    t0 = time.perf_counter()
    x, w = make_outlier_instance(seed=0)  # N=128, M=64, 4 blocks, 50x in 2 blocks
    y_ref = x @ w.T
    rtn = mq.quantize_dequantize(x, mq.E2M1) @ mq.quantize_dequantize(w, mq.E2M1).T
    mse_rtn = float(np.mean((rtn - y_ref) ** 2))
    # default lr targets long full-scale runs; 160 steps need a faster rate
    run, _ = calibrate_layer(w, x, CalibConfig(lr=0.02, epochs=5, batch_size=4), W4A4KV16)
    mse_cal = float(np.mean((quantized_forward(x, run) - y_ref) ** 2))
    reduction = 1.0 - mse_cal / mse_rtn
    per_epoch = np.array([v for _, _, v in run.loss_trace]).reshape(5, -1).mean(axis=1)
    monotone = all(b <= a * 1.05 for a, b in zip(per_epoch, per_epoch[1:]))
    elapsed = time.perf_counter() - t0
    ok = reduction >= 0.20 and monotone and elapsed < 300.0
    report(7, f"calibrated MSE {100 * reduction:.1f}% below RTN, epochs non-increasing", ok, elapsed)


def test_c08_bimodality_diagnostic(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    rows = 128
    x = rng.normal(size=(rows, 32)) * 0.05
    x[:, 9] = 50.0 * np.sign(rng.normal(size=rows))  # single-spike outlier block
    w = rng.normal(size=(16, 32)) / np.sqrt(32)

    had = mq.block_hadamard(x)
    score_had = bimodality_score(had)
    run, _ = calibrate_layer(w, x, CalibConfig(lr=0.02), W4A4KV16)
    score_aff = bimodality_score(gpk_forward(x, run.theta.transform))

    # histogram CSV via the CLI, with the Hadamard expressed as a GPK record
    a = hadamard(8) / np.sqrt(8.0)
    b = (hadamard(4) / 2.0).T[None, :, :].copy()
    io.write_transform_record(tmp_path / "had.gpkt", mq.GpkTransform(a, b))
    io.write_tensor(tmp_path / "x.mxbt", x)
    code = main(["stats", "--tensor", str(tmp_path / "x.mxbt"),
                 "--transform", str(tmp_path / "had.gpkt"), "--out", str(tmp_path / "s.csv")])
    row = (tmp_path / "s.csv").read_text().splitlines()[1].split(",")
    post = np.array([int(c) for c in row[3 + 64:]])
    two_bin_mass = np.sort(post)[-2:].sum() / post.sum()

    elapsed = time.perf_counter() - t0
    ok = (score_had > score_aff) and two_bin_mass >= 0.9 and code == 0 and elapsed < 30.0
    report(8, f"hadamard bimodality {score_had:.2f} > affine {score_aff:.2f}; "
              f"two-bin mass {two_bin_mass:.2f}", ok, elapsed)


def test_c09_determinism_byte_identical_csv(tmp_path):
    t0 = time.perf_counter()
    x, w = make_outlier_instance(seed=9, rows=64)
    io.write_tensor(tmp_path / "w.mxbt", w)
    io.write_tensor(tmp_path / "acts.mxbt", x)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = W4A4KV16\nlr = 0.01\nepochs = 2\nseed = 5\n"
                   "weights = w.mxbt\ncalib = acts.mxbt\n")
    assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
    assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0
    csv1 = (tmp_path / "r1" / "loss_trace.csv").read_bytes()
    csv2 = (tmp_path / "r2" / "loss_trace.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    ok = csv1 == csv2 and len(csv1) > 0 and elapsed < 600.0
    report(9, "repeated calibration produces byte-identical loss CSVs", ok, elapsed)


def test_c10_complexity_instrumentation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    t = random_transform(rng, 256)
    x = rng.normal(size=(4, 256))
    y, count = counted_gpk_forward(x, t)
    expected = 4 * 256 * (8 + 4)
    ok = count == expected
    ok &= np.abs(y - gpk_forward(x, t)).max() / np.abs(y).max() <= 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(10, f"gpk_forward costs exactly S*N*(g1+g2) = {expected} multiply-adds", ok, elapsed)
