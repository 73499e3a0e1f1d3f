import math

import numpy as np
import pytest

import mxquant as mq
from conftest import NO_QUANT, W4A4KV16, make_outlier_instance
from mxquant.calib import (
    CalibConfig,
    CalibRun,
    Theta,
    _backward,
    _forward,
    _gpk_backward,
    adamw_step,
    calibrate_layer,
    cosine_lr,
    fused_forward,
    init_opt_state,
    quantized_forward,
)
from mxquant.errors import DivergenceError, SingularTransformError
from mxquant.formats import FormatConfig
from mxquant.oracle import finite_diff_oracle
from mxquant.verify import random_transform

SAT = 40.0


def saturated_theta(n):
    return Theta.init(n, clip_init=SAT)


class TestQuantizedForward:
    def test_identity_no_quant_exact(self, rng):
        x = rng.normal(size=(5, 64))
        w = rng.normal(size=(7, 64))
        run = CalibRun(w, saturated_theta(64), NO_QUANT)
        assert quantized_forward(x, run).tobytes() == (x @ w.T).tobytes()

    def test_identity_equals_plain_rtn(self, rng):
        # with identity transform and saturated clips the pipeline IS plain RTN
        x = rng.normal(size=(6, 96))
        w = rng.normal(size=(5, 96))
        run = CalibRun(w, saturated_theta(96), W4A4KV16)
        direct = mq.quantize_dequantize(x, mq.E2M1) @ mq.quantize_dequantize(w, mq.E2M1).T
        assert quantized_forward(x, run).tobytes() == direct.tobytes()

    def test_general_transform_exact_when_quant_off(self, rng):
        theta = saturated_theta(64)
        theta.transform = random_transform(rng, 64)
        x = rng.normal(size=(4, 64))
        w = rng.normal(size=(3, 64))
        run = CalibRun(w, theta, NO_QUANT)
        err = np.abs(quantized_forward(x, run) - x @ w.T).max()
        assert err <= 1e-9 * np.abs(x @ w.T).max()

    def test_singular_transform_raises(self, rng):
        theta = saturated_theta(64)
        theta.transform.a[:] = 0.0
        run = CalibRun(rng.normal(size=(3, 64)), theta, W4A4KV16)
        with pytest.raises(SingularTransformError):
            quantized_forward(rng.normal(size=(2, 64)), run)


class TestLoss:
    def test_zero_on_equal(self, rng):
        y = rng.normal(size=(3, 4))
        assert mq.loss(y, y) == 0.0

    def test_unit_difference(self):
        a = np.zeros((2, 2))
        b = a.copy()
        b[1, 0] = 1.0
        assert mq.loss(a, b) == 1.0

    def test_matches_kahan_oracle(self, rng):
        a = rng.normal(size=(40, 30))
        b = rng.normal(size=(40, 30))
        s = c = 0.0
        for x, y in zip(a.ravel(), b.ravel()):
            d = (x - y) * (x - y) - c
            t = s + d
            c = (t - s) - d
            s = t
        assert abs(mq.loss(a, b) - s) <= 1e-10 * s


class TestBackward:
    def test_gradients_match_fd_smooth_path(self, rng):
        n, m = 64, 6
        x = rng.normal(size=(5, n))
        x[:, 3] *= 20  # make clipping active
        w = rng.normal(size=(m, n))
        y_ref = x @ w.T + rng.normal(size=(5, m))
        params = saturated_theta(n).to_params()
        params["a"] += 0.05 * rng.normal(size=params["a"].shape)
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
            rel = np.abs(grads[key] - fd[key]).max() / np.abs(fd[key]).max()
            assert rel <= 1e-4, key

    def test_zero_batch_zero_gradients(self, rng):
        n = 64
        w = rng.normal(size=(4, n))
        ctx = _forward(np.zeros((3, n)), w, saturated_theta(n), W4A4KV16)
        _, grads = _backward(ctx, np.zeros((3, 4)))
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_shared_a_accumulates_over_blocks(self, rng):
        # dA is the sum of per-block contributions, each matching per-block FD
        t = random_transform(rng, 96)  # k = 3
        x = rng.normal(size=(4, 96))

        def block_loss(a_dict, block):
            y = mq.gpk_forward(x, mq.GpkTransform(a_dict["a"], t.b))
            yb = y.reshape(4, 3, 32)
            return float(np.sum(yb[:, block, :] ** 2))

        y = mq.gpk_forward(x, t)
        go_full = 2.0 * y
        da_full, _ = _gpk_backward(x, t.a, t.b, go_full)

        total = np.zeros_like(t.a)
        for i in range(3):
            go = np.zeros_like(y).reshape(4, 3, 32)
            go[:, i, :] = 2.0 * y.reshape(4, 3, 32)[:, i, :]
            da_i, _ = _gpk_backward(x, t.a, t.b, go.reshape(4, 96))
            fd = finite_diff_oracle(lambda d, i=i: block_loss(d, i), {"a": t.a.copy()}, h=1e-5)
            assert np.abs(da_i - fd["a"]).max() / np.abs(fd["a"]).max() <= 1e-4
            assert np.abs(da_i).max() > 0
            total += da_i
        assert np.allclose(total, da_full, rtol=1e-12, atol=1e-12)

    def test_factor_adjoints_match_einsum_at_scale(self, rng):
        # 512 rows, W4A4, active clipping and saturation: the GEMM-shaped
        # adjoints equal the direct einsum contractions
        n, m, rows = 256, 96, 512
        x = rng.normal(size=(rows, n))
        x[:, [5, 77, 200]] *= 40.0
        w = rng.normal(size=(m, n)) / 16.0
        w[:, 130] *= 30.0
        params = Theta.init(n).to_params()
        params["a"] += 0.1 * rng.normal(size=params["a"].shape)
        params["b"] += 0.1 * rng.normal(size=params["b"].shape)
        for key in ("act_min", "act_max", "w_min", "w_max"):
            params[key] = rng.normal(size=n // 32)
        theta = Theta.from_params(params)
        ctx = _forward(x, w, theta, W4A4KV16)
        assert not ctx.xmask.all() and not ctx.wmask.all()  # some saturation
        assert ctx.wclip_ctx.upper.any() and ctx.wclip_ctx.lower.any()
        _, grads = _backward(ctx, x @ w.T)

        def old_adjoints(v, a, b, go):
            # the einsum form of the gpk_forward adjoints
            k, g2, g1 = b.shape[0], b.shape[1], a.shape[0]
            v = v.reshape(-1, k, g2, g1)
            go = go.reshape(-1, k, g2, g1)
            t1 = np.matmul(v, a)
            dt1 = np.matmul(b.transpose(0, 2, 1), go)
            return np.einsum("rkij,rkil->jl", v, dt1), np.einsum("rkil,rkjl->kij", go, t1)

        dy = 2.0 * (ctx.y - x @ w.T)
        dxt, _, _ = mq.clipping.clip_backward(ctx.xclip_ctx, (dy @ ctx.wq) * ctx.xmask)
        dwt, _, _ = mq.clipping.clip_backward(ctx.wclip_ctx, (dy.T @ ctx.xq) * ctx.wmask)
        t = theta.transform
        da_x, db_x = old_adjoints(x, t.a, t.b, dxt)
        da_p, db_p = old_adjoints(w, ctx.wt_factors.a, ctx.wt_factors.b, dwt)
        ait, bit = ctx.wt_factors.a, ctx.wt_factors.b
        want_a = da_x - ait @ da_p.T @ ait
        want_b = db_x - np.matmul(bit, np.matmul(db_p.transpose(0, 2, 1), bit))
        for got, want in ((grads["a"], want_a), (grads["b"], want_b)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_backward_api_zero_at_perfect_fit(self, rng):
        # identity pipeline without quantization reproduces y exactly: grads vanish
        n = 64
        w = rng.normal(size=(4, n))
        x = rng.normal(size=(6, n))
        run = CalibRun(w, saturated_theta(n), NO_QUANT)
        grads = mq.backward(run, x)
        for g in grads.values():
            assert np.abs(g).max() <= 1e-12


class TestAdamW:
    def test_zero_grad_no_decay_unchanged(self):
        params = {"p": np.array([1.0, -2.0])}
        state = init_opt_state(params)
        cfg = CalibConfig(lr=0.1, schedule="constant")
        new, _, _ = adamw_step(params, {"p": np.zeros(2)}, state, cfg, 0, 10)
        assert np.array_equal(new["p"], params["p"])

    def test_first_step_closed_form(self, rng):
        g = rng.normal(size=5)
        params = {"p": rng.normal(size=5)}
        state = init_opt_state(params)
        cfg = CalibConfig(lr=0.01, schedule="constant")
        new, _, _ = adamw_step(params, {"p": g}, state, cfg, 0, 10)
        # bias-corrected first step: -lr * g / (|g| + eps)
        want = params["p"] - cfg.lr * g / (np.abs(g) + cfg.eps)
        assert np.allclose(new["p"], want, rtol=1e-12)

    def test_decoupled_decay_shrinks(self):
        params = {"p": np.array([4.0])}
        state = init_opt_state(params)
        cfg = CalibConfig(lr=0.1, weight_decay=0.5, schedule="constant")
        new, _, _ = adamw_step(params, {"p": np.zeros(1)}, state, cfg, 0, 10)
        assert np.allclose(new["p"], 4.0 * (1 - 0.1 * 0.5))

    def test_moments_update(self, rng):
        params = {"p": np.zeros(3)}
        state = init_opt_state(params)
        cfg = CalibConfig(lr=0.0)
        g = rng.normal(size=3)
        _, state, _ = adamw_step(params, {"p": g}, state, cfg, 0, 10)
        m, v = state["p"]
        assert np.allclose(m, (1 - cfg.betas[0]) * g)
        assert np.allclose(v, (1 - cfg.betas[1]) * g * g)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 2e-3) == 2e-3
        assert abs(cosine_lr(100, 100, 2e-3)) <= 1e-18
        assert abs(cosine_lr(50, 100, 2e-3) - 1e-3) <= 1e-18


class TestCalibrateLayer:
    def test_lr_zero_keeps_init_and_matches_rtn(self, rng):
        x = rng.normal(size=(16, 64))
        w = rng.normal(size=(8, 64))
        cfg = CalibConfig(lr=0.0, epochs=2, clip_init=SAT)
        run, fused = calibrate_layer(w, x, cfg, W4A4KV16)
        init = Theta.init(64, SAT)
        assert np.array_equal(run.theta.transform.a, init.transform.a)
        assert np.array_equal(run.theta.transform.b, init.transform.b)
        assert np.array_equal(run.theta.act_clip.alpha_min, init.act_clip.alpha_min)
        # fused weights equal straight RTN of the raw weights
        rtn = mq.quantize_tensor(w, mq.E2M1)
        assert np.array_equal(fused.w_q.codes, rtn.codes)
        assert np.array_equal(fused.w_q.scale_exps, rtn.scale_exps)

    def test_loss_trace_shape_and_lr_schedule(self, rng):
        x = rng.normal(size=(8, 64))
        w = rng.normal(size=(4, 64))
        cfg = CalibConfig(lr=1e-3, epochs=3, batch_size=4)
        run, _ = calibrate_layer(w, x, cfg, W4A4KV16)
        assert len(run.loss_trace) == 3 * 2
        steps = [s for s, _, _ in run.loss_trace]
        assert steps == list(range(6))
        lrs = [lr for _, lr, _ in run.loss_trace]
        assert lrs[0] == 1e-3 and lrs[-1] < lrs[0]

    def test_outlier_layer_beats_rtn(self):
        x, w = make_outlier_instance(seed=1)
        y_ref = x @ w.T
        rtn = mq.quantize_dequantize(x, mq.E2M1) @ mq.quantize_dequantize(w, mq.E2M1).T
        mse_rtn = np.mean((rtn - y_ref) ** 2)
        run, _ = calibrate_layer(w, x, CalibConfig(lr=0.02), W4A4KV16)
        mse_cal = np.mean((quantized_forward(x, run) - y_ref) ** 2)
        assert mse_cal < mse_rtn * 0.8

    def test_private_factors_diverge_on_heterogeneous_blocks(self):
        x, w = make_outlier_instance(seed=2)
        run, _ = calibrate_layer(w, x, CalibConfig(lr=0.02), W4A4KV16)
        b = run.theta.transform.b
        norms = [np.linalg.norm(b[i] - b[j]) for i in range(4) for j in range(i + 1, 4)]
        assert min(norms) > 1e-3

    def test_determinism_bit_identical_traces(self):
        x, w = make_outlier_instance(seed=3, rows=32)
        cfg = CalibConfig(lr=0.01, epochs=2)
        run1, _ = calibrate_layer(w, x, cfg, W4A4KV16)
        run2, _ = calibrate_layer(w, x, cfg, W4A4KV16)
        assert len(run1.loss_trace) == len(run2.loss_trace)
        for (s1, l1, v1), (s2, l2, v2) in zip(run1.loss_trace, run2.loss_trace):
            assert s1 == s2 and l1 == l2 and v1 == v2  # bit-identical floats

    def test_fusion_consistency_exact(self, rng):
        x, w = make_outlier_instance(seed=4, rows=32)
        run, fused = calibrate_layer(w, x, CalibConfig(lr=0.01, epochs=2), W4A4KV16)
        xb = rng.normal(size=(8, 128))
        online = quantized_forward(xb, run)
        offline = fused_forward(xb, fused, W4A4KV16)
        assert online.tobytes() == offline.tobytes()

    def test_divergence_raises_with_step(self):
        x = np.full((4, 64), 1e200)
        w = np.full((4, 64), 1e200)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as e:
            calibrate_layer(w, x, CalibConfig(lr=1e-3, epochs=1), W4A4KV16)
        assert e.value.step == 0

    def test_final_loss_not_above_initial(self):
        x, w = make_outlier_instance(seed=5, rows=64)
        run, _ = calibrate_layer(w, x, CalibConfig(lr=0.01), W4A4KV16)
        losses = [v for _, _, v in run.loss_trace]
        assert losses[-1] <= losses[0]

    def test_epoch_means_non_increasing(self):
        x, w = make_outlier_instance(seed=6)
        run, _ = calibrate_layer(w, x, CalibConfig(lr=0.02), W4A4KV16)
        per_epoch = np.array([v for _, _, v in run.loss_trace]).reshape(5, -1).mean(axis=1)
        for a, b in zip(per_epoch, per_epoch[1:]):
            assert b <= a * 1.05

    def test_empty_calib_set_rejected(self, rng):
        with pytest.raises(mq.ShapeError):
            calibrate_layer(rng.normal(size=(4, 64)), [], CalibConfig(), W4A4KV16)

    def test_w4a8_runs(self, rng):
        x, w = make_outlier_instance(seed=7, rows=32)
        run, fused = calibrate_layer(w, x, CalibConfig(lr=0.01, epochs=1), FormatConfig.from_name("W4A8KV16"))
        assert fused.w_q.fmt is mq.E2M1
        assert math.isfinite(run.loss_trace[-1][2])
