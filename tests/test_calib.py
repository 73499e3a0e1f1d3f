import math

import numpy as np
import pytest

import mxquant as mq
from conftest import NO_QUANT, W4A4KV16, make_outlier_instance, nan_factor_gradient_on_call
from mxquant.calib import (
    BETAS,
    EPS,
    CalibConfig,
    Theta,
    _backward,
    _forward,
    adamw_step,
    calibrate_layer,
    cosine_lr,
    fuse,
    fused_forward,
    quantized_forward,
)
from mxquant.errors import DivergenceError, SingularTransformError
from mxquant.formats import FormatConfig
from mxquant.oracle import finite_diff_oracle
from mxquant.transform import gpk_backward
from mxquant.verify import random_transform

SAT = 40.0


def saturated_theta(n):
    return Theta.init(n, clip_init=SAT)


class TestQuantizedForward:
    def test_identity_no_quant_exact(self, rng):
        x = rng.normal(size=(5, 64))
        w = rng.normal(size=(7, 64))
        out = quantized_forward(x, w, saturated_theta(64), NO_QUANT)
        assert out.tobytes() == (x @ w.T).tobytes()

    def test_identity_equals_plain_rtn(self, rng):
        # with identity transform and saturated clips the pipeline IS plain RTN
        x = rng.normal(size=(6, 96))
        w = rng.normal(size=(5, 96))
        direct = mq.quantize_dequantize(x, mq.E2M1) @ mq.quantize_dequantize(w, mq.E2M1).T
        assert quantized_forward(x, w, saturated_theta(96), W4A4KV16).tobytes() == direct.tobytes()

    def test_general_transform_exact_when_quant_off(self, rng):
        theta = saturated_theta(64)
        theta.transform = random_transform(rng, 64)
        x = rng.normal(size=(4, 64))
        w = rng.normal(size=(3, 64))
        err = np.abs(quantized_forward(x, w, theta, NO_QUANT) - x @ w.T).max()
        assert err <= 1e-9 * np.abs(x @ w.T).max()

    def test_zero_row_batch_is_shape_error(self, rng):
        w = rng.normal(size=(4, 64))
        theta = Theta.init(64)
        fused = fuse(w, theta, W4A4KV16)
        for call in (
            lambda: quantized_forward(np.zeros((0, 64)), w, theta, W4A4KV16),
            lambda: fused_forward(np.zeros((0, 64)), fused, W4A4KV16),
            lambda: mq.clipping.clip_with_ctx(np.zeros((0, 64)), theta.act_clip),
        ):
            with pytest.raises(mq.ShapeError, match=r"^shape \(0, 64\): "):
                call()

    def test_singular_transform_raises(self, rng):
        theta = saturated_theta(64)
        theta.transform.a[:] = 0.0
        w = rng.normal(size=(3, 64))
        with pytest.raises(SingularTransformError):
            quantized_forward(rng.normal(size=(2, 64)), w, theta, W4A4KV16)


class TestLoss:
    # the loss _backward returns, on the exact path (no quantization, identity
    # transform, saturated clips); integer inputs make y = x @ w.T exact
    @staticmethod
    def _case(rng, rows, m):
        x = rng.integers(-4, 5, size=(rows, 32)).astype(np.float64)
        w = rng.integers(-4, 5, size=(m, 32)).astype(np.float64)
        return _forward(x, w, saturated_theta(32), NO_QUANT), x @ w.T

    def test_zero_on_equal(self, rng):
        ctx, y = self._case(rng, 3, 4)
        assert _backward(ctx, y)[0] == 0.0

    def test_unit_difference(self, rng):
        ctx, y = self._case(rng, 2, 2)
        y[1, 0] += 1.0
        assert _backward(ctx, y)[0] == 1.0

    def test_matches_kahan_oracle(self, rng):
        ctx, a = self._case(rng, 40, 30)
        b = rng.normal(size=(40, 30))
        s = c = 0.0
        for x, y in zip(a.ravel(), b.ravel()):
            d = (x - y) * (x - y) - c
            t = s + d
            c = (t - s) - d
            s = t
        assert abs(_backward(ctx, b)[0] - s) <= 1e-10 * s


class TestBackward:
    def test_gradients_match_fd_smooth_path(self, rng):
        n, m = 64, 6
        x = rng.normal(size=(5, n))
        x[:, 3] *= 20  # make clipping active
        w = rng.normal(size=(m, n))
        y_ref = x @ w.T + rng.normal(size=(5, m))
        theta = saturated_theta(n)
        params = theta.params()
        params["a"] += 0.05 * rng.normal(size=params["a"].shape)
        params["b"] += 0.05 * rng.normal(size=params["b"].shape)
        for key in ("act_min", "act_max", "w_min", "w_max"):
            params[key][:] = rng.normal(size=2) + 1.0

        def loss_fn(_params):
            # finite_diff_oracle perturbs theta's own arrays in place
            ctx = _forward(x, w, theta, NO_QUANT)
            return float(np.sum((ctx.y - y_ref) ** 2))

        ctx = _forward(x, w, theta, NO_QUANT)
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
        da_full, _ = gpk_backward(x, t, go_full)

        total = np.zeros_like(t.a)
        for i in range(3):
            go = np.zeros_like(y).reshape(4, 3, 32)
            go[:, i, :] = 2.0 * y.reshape(4, 3, 32)[:, i, :]
            da_i, _ = gpk_backward(x, t, go.reshape(4, 96))
            fd = finite_diff_oracle(lambda d, i=i: block_loss(d, i), {"a": t.a.copy()}, h=1e-5)
            assert np.abs(da_i - fd["a"]).max() / np.abs(fd["a"]).max() <= 1e-4
            assert np.abs(da_i).max() > 0
            total += da_i
        assert np.allclose(total, da_full, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rows", [1, 1024])
    @pytest.mark.parametrize("k", [1, 32])
    def test_factor_adjoints_match_brute_force_loop(self, rows, k):
        # per row and block, y = B_i V A for the (G2, G1) slice V; with G the
        # output gradient, dB_i += G (V A)^T and dA += (B_i V)^T G
        r = np.random.default_rng(rows * 100 + k)
        t = random_transform(r, 32 * k)
        x = r.normal(size=(rows, 32 * k))
        go = r.normal(size=(rows, 32 * k))
        want_a = np.zeros((8, 8))
        want_b = np.zeros((k, 4, 4))
        for row in range(rows):
            for i in range(k):
                v = x[row, 32 * i : 32 * (i + 1)].reshape(4, 8)
                g = go[row, 32 * i : 32 * (i + 1)].reshape(4, 8)
                want_b[i] += g @ (v @ t.a).T
                want_a += (t.b[i] @ v).T @ g
        da, db = gpk_backward(x, t, go)
        assert da.shape == (8, 8) and db.shape == (k, 4, 4)
        assert np.abs(da - want_a).max() <= 1e-12 * np.abs(want_a).max()
        assert np.abs(db - want_b).max() <= 1e-12 * np.abs(want_b).max()

    def test_factor_adjoints_match_finite_differences(self, rng):
        t = random_transform(rng, 64)
        x = rng.normal(size=(3, 64))
        go = rng.normal(size=(3, 64))

        def loss(d):
            return float(np.sum(go * mq.gpk_forward(x, mq.GpkTransform(d["a"], d["b"]))))

        fd = finite_diff_oracle(loss, {"a": t.a.copy(), "b": t.b.copy()}, h=1e-5)
        da, db = gpk_backward(x, t, go)
        assert np.abs(da - fd["a"]).max() <= 1e-7 * np.abs(fd["a"]).max()
        assert np.abs(db - fd["b"]).max() <= 1e-7 * np.abs(fd["b"]).max()

    def test_factor_adjoints_match_einsum_at_scale(self, rng):
        # 512 rows, W4A4, active clipping and saturation: the GEMM-shaped
        # adjoints equal the direct einsum contractions
        n, m, rows = 256, 96, 512
        x = rng.normal(size=(rows, n))
        x[:, [5, 77, 200]] *= 40.0
        w = rng.normal(size=(m, n)) / 16.0
        w[:, 130] *= 30.0
        theta = Theta.init(n)
        params = theta.params()
        params["a"] += 0.1 * rng.normal(size=params["a"].shape)
        params["b"] += 0.1 * rng.normal(size=params["b"].shape)
        for key in ("act_min", "act_max", "w_min", "w_max"):
            params[key][:] = rng.normal(size=n // 32)
        ctx = _forward(x, w, theta, W4A4KV16)
        assert not ctx.x.mask.all() and not ctx.w.mask.all()  # some saturation
        assert ctx.w.clip.upper.any() and ctx.w.clip.lower.any()
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
        dxt, _, _ = mq.clipping.clip_backward(ctx.x.clip, (dy @ ctx.w.out) * ctx.x.mask)
        dwt, _, _ = mq.clipping.clip_backward(ctx.w.clip, (dy.T @ ctx.x.out) * ctx.w.mask)
        t = theta.transform
        da_x, db_x = old_adjoints(x, t.a, t.b, dxt)
        da_p, db_p = old_adjoints(w, ctx.w.t.a, ctx.w.t.b, dwt)
        ait, bit = ctx.w.t.a, ctx.w.t.b
        want_a = da_x - ait @ da_p.T @ ait
        want_b = db_x - np.matmul(bit, np.matmul(db_p.transpose(0, 2, 1), bit))
        for got, want in ((grads["a"], want_a), (grads["b"], want_b)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_backward_api_zero_at_perfect_fit(self, rng):
        # identity pipeline without quantization reproduces y exactly: grads vanish
        n = 64
        w = rng.normal(size=(4, n))
        x = rng.normal(size=(6, n))
        grads = mq.backward(x, w, saturated_theta(n), NO_QUANT)
        for g in grads.values():
            assert np.abs(g).max() <= 1e-12


def zero_state(params):
    return {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in params.items()}


class TestAdamW:
    # adamw_step updates in place: each test steps a copy of its inputs
    def test_zero_grad_no_decay_unchanged(self):
        params = {"p": np.array([1.0, -2.0])}
        state = zero_state(params)
        cfg = CalibConfig(lr=0.1)
        new = {k: v.copy() for k, v in params.items()}
        adamw_step(new, {"p": np.zeros(2)}, state, cfg, 0, 10)
        assert np.array_equal(new["p"], params["p"])

    def test_first_step_closed_form(self, rng):
        g = rng.normal(size=5)
        params = {"p": rng.normal(size=5)}
        state = zero_state(params)
        cfg = CalibConfig(lr=0.01)
        new = {k: v.copy() for k, v in params.items()}
        adamw_step(new, {"p": g}, state, cfg, 0, 10)
        # bias-corrected first step at cosine_lr(0) == lr: -lr * g / (|g| + eps)
        want = params["p"] - cfg.lr * g / (np.abs(g) + EPS)
        assert np.allclose(new["p"], want, rtol=1e-12)

    def test_moments_update(self, rng):
        params = {"p": np.zeros(3)}
        state = zero_state(params)
        cfg = CalibConfig(lr=0.0)
        g = rng.normal(size=3)
        adamw_step(params, {"p": g}, state, cfg, 0, 10)
        m, v = state["p"]
        assert np.allclose(m, (1 - BETAS[0]) * g)
        assert np.allclose(v, (1 - BETAS[1]) * g * g)

    def test_steps_theta_arrays_and_returns_cosine_lr(self, rng):
        theta = Theta.init(64)
        params = theta.params()
        before = {k: v.copy() for k, v in params.items()}
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        lr = adamw_step(params, grads, zero_state(params), CalibConfig(lr=0.1), 3, 10)
        assert lr == cosine_lr(3, 10, 0.1)
        live = {"a": theta.transform.a, "b": theta.transform.b,
                "act_min": theta.act_clip.alpha_min, "act_max": theta.act_clip.alpha_max,
                "w_min": theta.weight_clip.alpha_min, "w_max": theta.weight_clip.alpha_max}
        for name, arr in live.items():
            assert not np.array_equal(arr, before[name]), name
            # zero moments at step_index 3: bias correction uses t = 4
            g = grads[name]
            m_hat = (1 - BETAS[0]) * g / (1 - BETAS[0] ** 4)
            v_hat = (1 - BETAS[1]) * g * g / (1 - BETAS[1] ** 4)
            want = before[name] - lr * m_hat / (np.sqrt(v_hat) + EPS)
            assert np.allclose(arr, want, rtol=1e-12), name


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 2e-3) == 2e-3
        assert abs(cosine_lr(100, 100, 2e-3)) <= 1e-18
        assert abs(cosine_lr(50, 100, 2e-3) - 1e-3) <= 1e-18


class TestCalibConfig:
    @pytest.mark.parametrize("kwargs, message", [
        ({"lr": -1}, "lr = -1 must be non-negative"),
        ({"lr": math.nan}, "lr = nan is not finite"),
        ({"epochs": 0}, "epochs = 0 must be at least 1"),
    ], ids=["lr=-1", "lr=nan", "epochs=0"])
    def test_direct_construction_states_field_and_value(self, kwargs, message):
        with pytest.raises(ValueError) as e:
            CalibConfig(**kwargs)
        assert str(e.value) == message


class TestCalibrateLayer:
    def test_lr_zero_keeps_init_and_matches_rtn(self, rng):
        x = rng.normal(size=(16, 64))
        w = rng.normal(size=(8, 64))
        cfg = CalibConfig(lr=0.0, epochs=2, clip_init=SAT)
        theta, _ = calibrate_layer(w, x, cfg, W4A4KV16)
        fused = fuse(w, theta, W4A4KV16)
        init = Theta.init(64, SAT)
        assert np.array_equal(theta.transform.a, init.transform.a)
        assert np.array_equal(theta.transform.b, init.transform.b)
        assert np.array_equal(theta.act_clip.alpha_min, init.act_clip.alpha_min)
        # fused weights equal straight RTN of the raw weights
        rtn = mq.quantize_tensor(w, mq.E2M1)
        assert np.array_equal(fused.w_q.codes, rtn.codes)
        assert np.array_equal(fused.w_q.scale_exps, rtn.scale_exps)

    def test_loss_trace_shape_and_lr_schedule(self, rng):
        x = rng.normal(size=(8, 64))
        w = rng.normal(size=(4, 64))
        cfg = CalibConfig(lr=1e-3, epochs=3, batch_size=4)
        _, trace = calibrate_layer(w, x, cfg, W4A4KV16)
        assert len(trace) == 3 * 2
        steps = [s for s, _, _ in trace]
        assert steps == list(range(6))
        lrs = [lr for _, lr, _ in trace]
        assert lrs[0] == 1e-3 and lrs[-1] < lrs[0]

    def test_outlier_layer_beats_rtn(self):
        x, w = make_outlier_instance(seed=1)
        y_ref = x @ w.T
        rtn = mq.quantize_dequantize(x, mq.E2M1) @ mq.quantize_dequantize(w, mq.E2M1).T
        mse_rtn = np.mean((rtn - y_ref) ** 2)
        theta, _ = calibrate_layer(w, x, CalibConfig(lr=0.02), W4A4KV16)
        mse_cal = np.mean((quantized_forward(x, w, theta, W4A4KV16) - y_ref) ** 2)
        assert mse_cal < mse_rtn * 0.8

    def test_private_factors_diverge_on_heterogeneous_blocks(self):
        x, w = make_outlier_instance(seed=2)
        theta, _ = calibrate_layer(w, x, CalibConfig(lr=0.02), W4A4KV16)
        b = theta.transform.b
        norms = [np.linalg.norm(b[i] - b[j]) for i in range(4) for j in range(i + 1, 4)]
        assert min(norms) > 1e-3

    def test_determinism_bit_identical_traces(self):
        x, w = make_outlier_instance(seed=3, rows=32)
        cfg = CalibConfig(lr=0.01, epochs=2)
        _, trace1 = calibrate_layer(w, x, cfg, W4A4KV16)
        _, trace2 = calibrate_layer(w, x, cfg, W4A4KV16)
        assert len(trace1) == len(trace2)
        for (s1, l1, v1), (s2, l2, v2) in zip(trace1, trace2):
            assert s1 == s2 and l1 == l2 and v1 == v2  # bit-identical floats

    def test_fusion_consistency_exact(self, rng):
        x, w = make_outlier_instance(seed=4, rows=32)
        theta, _ = calibrate_layer(w, x, CalibConfig(lr=0.01, epochs=2), W4A4KV16)
        xb = rng.normal(size=(8, 128))
        online = quantized_forward(xb, w, theta, W4A4KV16)
        offline = fused_forward(xb, fuse(w, theta, W4A4KV16), W4A4KV16)
        assert online.tobytes() == offline.tobytes()

    def test_fused_layer_decodes_its_weight_once_on_first_use(self, rng, monkeypatch):
        x, w = make_outlier_instance(seed=4, rows=32)
        theta, _ = calibrate_layer(w, x, CalibConfig(lr=0.01, epochs=1), W4A4KV16)
        decode = mq.MxTensor.to_dense
        calls = []
        monkeypatch.setattr(mq.MxTensor, "to_dense", lambda t: calls.append(t) or decode(t))
        fused = fuse(w, theta, W4A4KV16)
        assert isinstance(fused.w_q, mq.MxTensor) and calls == []  # not at construction
        xs = [rng.normal(size=(rows, 128)) for rows in (1, 8, 3, 1)]
        got = [fused_forward(xb, fused, W4A4KV16) for xb in xs]
        assert calls == [fused.w_q]
        dense = mq.FusedLayer(decode(fused.w_q), fused.transform, fused.act_clip)
        for xb, y in zip(xs, got):
            assert y.tobytes() == fused_forward(xb, dense, W4A4KV16).tobytes()

    def test_divergence_raises_with_step(self):
        x = np.full((4, 64), 1e200)
        w = np.full((4, 64), 1e200)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as e:
            calibrate_layer(w, x, CalibConfig(lr=1e-3, epochs=1), W4A4KV16)
        assert e.value.step == 0

    def test_nonfinite_gradient_raises_with_the_trace_so_far(self, monkeypatch):
        x, w = make_outlier_instance(seed=3, rows=32)
        cfg = CalibConfig(lr=0.01, epochs=1, batch_size=8)
        _, trace = calibrate_layer(w, x, cfg, W4A4KV16)
        nan_factor_gradient_on_call(monkeypatch, 3)  # step 1's activation side
        with pytest.raises(DivergenceError) as e:
            calibrate_layer(w, x, cfg, W4A4KV16)
        assert str(e.value) == "non-finite gradient (step 1)"
        assert e.value.step == 1 and e.value.loss_trace == trace[:1]

    def test_final_loss_not_above_initial(self):
        x, w = make_outlier_instance(seed=5, rows=64)
        _, trace = calibrate_layer(w, x, CalibConfig(lr=0.01), W4A4KV16)
        losses = [v for _, _, v in trace]
        assert losses[-1] <= losses[0]

    def test_epoch_means_non_increasing(self):
        x, w = make_outlier_instance(seed=6)
        _, trace = calibrate_layer(w, x, CalibConfig(lr=0.02), W4A4KV16)
        per_epoch = np.array([v for _, _, v in trace]).reshape(5, -1).mean(axis=1)
        for a, b in zip(per_epoch, per_epoch[1:]):
            assert b <= a * 1.05

    def test_empty_calib_set_rejected(self, rng):
        with pytest.raises(mq.ShapeError):
            calibrate_layer(rng.normal(size=(4, 64)), np.empty((0, 64)), CalibConfig(), W4A4KV16)

    def test_weights_without_rows_rejected(self):
        with pytest.raises(mq.ShapeError, match=r"\(0, 64\)"):
            calibrate_layer(np.empty((0, 64)), np.ones((8, 64)), CalibConfig(), W4A4KV16)

    def test_zero_width_rejected(self):
        # a zero-width feature axis holds no MX block, so no site accepts it
        for call in (
            lambda: calibrate_layer(np.empty((4, 0)), np.empty((8, 0)), CalibConfig(), W4A4KV16),
            lambda: mq.GpkTransform.identity(0),
            lambda: mq.block_hadamard(np.empty((3, 0))),
        ):
            with pytest.raises(mq.ShapeError, match="0 is not a positive multiple of 32"):
                call()

    def test_w4a8_runs(self, rng):
        x, w = make_outlier_instance(seed=7, rows=32)
        fmts = FormatConfig.from_name("W4A8KV16")
        theta, trace = calibrate_layer(w, x, CalibConfig(lr=0.01, epochs=1), fmts)
        assert fuse(w, theta, fmts).w_q.fmt is mq.E2M1
        assert math.isfinite(trace[-1][2])
