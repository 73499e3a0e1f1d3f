import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mxquant as mq
from mxquant.clipping import ClipParams, clip_gradients, clip_with_ctx, sigmoid
from mxquant.errors import ShapeError
from mxquant.oracle import finite_diff_oracle

SAT = 40.0  # sigmoid(40) == 1.0 in float64


def bounds(x, p, g=32):
    """The documented bounds: sigmoid(alpha) times the block's own extremum."""
    xb = x.reshape(-1, x.shape[-1] // g, g)
    return sigmoid(p.alpha_min) * xb.min(axis=(0, 2)), sigmoid(p.alpha_max) * xb.max(axis=(0, 2))


class TestClipForward:
    def test_saturated_is_identity(self, rng):
        x = rng.normal(size=(6, 64))
        p = ClipParams.init(2, SAT)
        assert clip_with_ctx(x, p)[0].tobytes() == x.tobytes()

    def test_sigmoid_zero_halves_the_max(self):
        x = np.linspace(-4.0, 10.0, 32)[None, :]
        p = ClipParams(np.zeros(1), np.zeros(1))
        y = clip_with_ctx(x, p)[0]
        assert y.max() == 5.0  # sigma(0) = 0.5, block max 10 -> clamp at 5
        assert y.min() == -2.0

    def test_bounds_formula(self, rng):
        x = rng.normal(size=(4, 96))
        p = ClipParams(rng.normal(size=3), rng.normal(size=3))
        lo, hi = bounds(x, p)
        assert np.all(lo <= hi)  # gaussian blocks bracket zero
        want = np.minimum(np.maximum(x.reshape(4, 3, 32), lo[:, None]), hi[:, None])
        assert np.array_equal(clip_with_ctx(x, p)[0], want.reshape(4, 96))

    def test_output_within_bounds(self, rng):
        x = rng.normal(size=(8, 64)) * 5
        p = ClipParams(rng.normal(size=2), rng.normal(size=2))
        y = clip_with_ctx(x, p)[0]
        lo, hi = bounds(x, p)
        yb = y.reshape(-1, 2, 32)
        for i in range(2):
            assert yb[:, i, :].max() <= hi[i] + 1e-15
            assert yb[:, i, :].min() >= lo[i] - 1e-15

    def test_never_increases_maxabs(self, rng):
        # hence never increases the downstream block scale exponent
        x = rng.normal(size=(4, 64)) * 20
        p = ClipParams(rng.normal(size=2), rng.normal(size=2))
        y = clip_with_ctx(x, p)[0]
        assert np.abs(y).max() <= np.abs(x).max()
        qx = mq.quantize_tensor(x, mq.E2M1)
        qy = mq.quantize_tensor(y, mq.E2M1)
        assert np.all(qy.scale_exps <= qx.scale_exps)

    def test_mixed_sign_block_brackets_zero(self, rng):
        x = rng.normal(size=(6, 64))  # gaussian blocks carry both signs
        p = ClipParams(rng.normal(size=2), rng.normal(size=2))
        lo, hi = bounds(x, p)
        assert np.all(lo <= 0.0)
        assert np.all(hi >= 0.0)
        y = clip_with_ctx(x, p)[0]
        assert np.all(y[x == 0.0] == 0.0) and np.all(np.sign(y) * np.sign(x) >= 0)

    def test_per_block_independence(self, rng):
        x = rng.normal(size=(4, 96))
        p = ClipParams(rng.normal(size=3), rng.normal(size=3))
        x2 = x.copy()
        x2[:, 64:] *= 7.0
        assert np.array_equal(clip_with_ctx(x, p)[0][:, :64], clip_with_ctx(x2, p)[0][:, :64])

    def test_block_count_mismatch(self, rng):
        with pytest.raises(ShapeError):
            clip_with_ctx(rng.normal(size=(2, 64)), ClipParams.init(3))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        amin=st.floats(-6, 6),
        amax=st.floats(-6, 6),
        scale=st.floats(1e-3, 1e3),
    )
    def test_property_output_in_bounds_and_contractive(self, seed, amin, amax, scale):
        x = np.random.default_rng(seed).normal(size=(3, 64)) * scale
        p = ClipParams(np.full(2, amin), np.full(2, amax))
        y = clip_with_ctx(x, p)[0]
        lo, hi = bounds(x, p)
        yb = y.reshape(-1, 2, 32)
        for i in range(2):
            top = max(hi[i], lo[i])  # crossed bounds clamp at the upper stage
            assert yb[:, i, :].max() <= top + 1e-12
            assert yb[:, i, :].min() >= min(lo[i], top) - 1e-12
        assert np.abs(y).max() <= np.abs(x).max() + 1e-12


class TestIdempotence:
    def test_ratio_one_idempotent(self, rng):
        x = rng.normal(size=(3, 64))
        p = ClipParams.init(2, SAT)
        once = clip_with_ctx(x, p)[0]
        assert clip_with_ctx(once, p)[0].tobytes() == once.tobytes()

    def test_contraction_converges(self, rng):
        x = rng.normal(size=(2, 32)) * 10
        p = ClipParams(np.zeros(1), np.zeros(1))  # ratios 0.5
        y = x.copy()
        prev_max = np.abs(y).max()
        for _ in range(60):
            y = clip_with_ctx(y, p)[0]
            cur = np.abs(y).max()
            assert cur <= prev_max
            prev_max = cur
        assert prev_max < 1e-15  # geometric contraction toward zero-width bounds


class TestClipGradients:
    def test_nothing_clipped_zero_alpha_grads(self, rng):
        x = rng.normal(size=(4, 64))
        p = ClipParams.init(2, SAT)
        _, dmin, dmax = clip_gradients(x, p)
        assert np.all(dmin == 0) and np.all(dmax == 0)

    def test_interior_pass_through(self, rng):
        x = rng.normal(size=(4, 64))
        p = ClipParams.init(2, SAT)
        dx, _, _ = clip_gradients(x, p)
        assert np.array_equal(dx, np.ones_like(x))

    def test_matches_finite_differences(self, rng):
        x = rng.normal(size=(5, 64)) * 3
        weights = rng.normal(size=(5, 64))  # random linear functional
        alphas = {"amin": rng.normal(size=2), "amax": rng.normal(size=2)}

        def loss_fn(ps):
            p = ClipParams(ps["amin"], ps["amax"])
            return float(np.sum(weights * clip_with_ctx(x, p)[0]))

        p = ClipParams(alphas["amin"], alphas["amax"])
        _, dmin, dmax = clip_gradients(x, p, upstream=weights)
        fd = finite_diff_oracle(loss_fn, alphas, h=1e-6)
        assert np.max(np.abs(dmin - fd["amin"])) / np.abs(fd["amin"]).max() <= 1e-4
        assert np.max(np.abs(dmax - fd["amax"])) / np.abs(fd["amax"]).max() <= 1e-4

    def test_x_gradient_matches_finite_differences(self, rng):
        x = rng.normal(size=(3, 32)) * 2
        weights = rng.normal(size=(3, 32))
        p = ClipParams(np.array([0.5]), np.array([0.2]))
        dx, _, _ = clip_gradients(x, p, upstream=weights)

        fd = np.zeros_like(x)
        h = 1e-6
        for i in np.ndindex(x.shape):
            xp = x.copy()
            xp[i] += h
            up = np.sum(weights * clip_with_ctx(xp, p)[0])
            xp[i] -= 2 * h
            down = np.sum(weights * clip_with_ctx(xp, p)[0])
            fd[i] = (up - down) / (2 * h)
        assert np.max(np.abs(dx - fd)) / np.abs(fd).max() <= 1e-4

    def test_tied_extrema_take_first_occurrence(self, rng):
        # small integers: each block's max and min repeat within a row and
        # across rows; in blocks 1 and 2 they first appear below row 0
        x = rng.integers(-3, 4, size=(6, 96)).astype(np.float64)
        x[:2, 32:64] = np.clip(x[:2, 32:64], -2, 2)
        x[:4, 64:] = np.clip(x[:4, 64:], -2, 2)
        xb = x.reshape(6, 3, 32)
        for ext in (3.0, -3.0):
            hits = xb == ext
            assert np.all(hits.any(axis=2).sum(axis=0) > 1)  # in several rows
            first = hits.any(axis=2).argmax(axis=0)
            assert np.all(hits[first, np.arange(3)].sum(axis=1) > 1)  # twice in that row
        slabs = xb.transpose(1, 0, 2).reshape(3, -1)
        want_max, want_min = slabs.argmax(axis=1), slabs.argmin(axis=1)
        assert want_max[2] >= 4 * 32 and want_min[2] >= 4 * 32

        p = ClipParams(np.array([0.0, 0.3, -0.2]), np.array([0.0, -0.4, 0.5]))
        _, ctx = clip_with_ctx(x, p)
        assert np.array_equal(ctx.argmax, want_max)
        assert np.array_equal(ctx.argmin, want_min)

        # the extremum term lands on exactly that element and nowhere else
        up = rng.uniform(0.5, 1.5, size=x.shape)
        dx, _, _ = clip_gradients(x, p, upstream=up)
        upb = up.reshape(xb.shape)
        term = dx.reshape(xb.shape) - np.where(ctx.upper | ctx.lower, 0.0, upb)
        expect = np.zeros_like(term)
        karange = np.arange(3)
        g_up = np.where(ctx.upper, upb, 0.0).sum(axis=(0, 2))
        g_lo = np.where(ctx.lower, upb, 0.0).sum(axis=(0, 2))
        assert np.all(g_up > 0) and np.all(g_lo > 0)
        expect[want_max // 32, karange, want_max % 32] += g_up * sigmoid(p.alpha_max)
        expect[want_min // 32, karange, want_min % 32] += g_lo * sigmoid(p.alpha_min)
        assert np.array_equal(term != 0, expect != 0)
        assert np.allclose(term, expect, rtol=1e-14, atol=0)

    def test_saturated_gradient_bound(self, rng):
        # |d/d_alpha| <= sigmoid'(alpha) * max|x| and vanishes as alpha grows
        x = rng.normal(size=(2, 32)) * 4
        prev = np.inf
        for alpha in (2.0, 6.0, 10.0, 20.0):
            p = ClipParams(np.array([alpha]), np.array([alpha]))
            _, dmin, dmax = clip_gradients(x, p)
            mag = max(np.abs(dmin).max(), np.abs(dmax).max())
            s = sigmoid(np.array([alpha]))[0]
            bound = s * (1 - s) * np.abs(x).max() * x.size
            assert mag <= bound + 1e-12
            assert mag <= prev + 1e-12
            prev = mag
