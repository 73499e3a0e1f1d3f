"""The full-size passes of a calibration step split by formats.run_halves give the
bytes of one whole-array call: on one CPU, on two, while the helper is taken (inside a
running half, say) and when no thread can start. Every case but two CPUs runs both
halves on the caller; the whole-array reference patches formats.CHUNK so large that no
run_halves pass splits."""

import threading

import numpy as np
import pytest

from mxquant import calib, formats
from mxquant.clipping import ClipParams, clip_backward, clip_with_ctx, sigmoid
from mxquant.transform import gpk_backward
from mxquant.verify import random_transform

from conftest import W4A4KV16, refuse_thread_start

ROWS, N = 1025, 256  # an odd row count: the caller takes rows 0-512, the helper 513-1024


@pytest.fixture
def modes(patch_cpus, monkeypatch):
    """Run a function unsplit and in each of the four cases; returns its bytes per case
    and the threads each case started."""

    def run(call):
        out = {}
        for mode in ("unsplit", "1 cpu", "2 cpus", "helper held", "no thread can start"):
            started = patch_cpus(1 if mode in ("unsplit", "1 cpu") else 2)
            del started[:]
            with monkeypatch.context() as m:
                if mode == "unsplit":
                    m.setattr(formats, "CHUNK", 1 << 40)
                if mode == "no thread can start":
                    m.setattr(threading.Thread, "start", refuse_thread_start)
                if mode == "helper held":
                    assert formats._helper.acquire(blocking=False)
                try:
                    out[mode] = [np.asarray(a).tobytes() for a in call()], len(started)
                finally:
                    if mode == "helper held":
                        formats._helper.release()
            assert not formats._helper.locked()
            assert not any(t.is_alive() for t in started)
        return out

    return run


def _same_bytes(out):
    want, _ = out["unsplit"]
    serial = ("unsplit", "1 cpu", "helper held", "no thread can start")
    assert [out[mode][1] for mode in serial] == [0, 0, 0, 0]  # no thread may start
    assert out["2 cpus"][1] > 0  # the split ran
    for mode, (got, _) in out.items():
        assert [g == w for g, w in zip(got, want)] == [True] * len(want), mode


def _clip_input():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(ROWS, N)) * rng.lognormal(0.0, 1.0, size=(ROWS, 1))
    x[900, 2 * 32 + 3] = np.nan  # block 2 holds a NaN, in the helper's half
    # block 4's max sits at (row 10, element 20) and at (row 1000, element 5): element-major,
    # the helper's element 5 comes first; its min ties at element 7 in rows 3 and 800
    big, small = np.abs(x[:, 128:160]).max() + 1.0, -np.abs(x[:, 128:160]).max() - 1.0
    x[10, 128 + 20] = x[1000, 128 + 5] = big
    x[3, 128 + 7] = x[800, 128 + 7] = small
    return x


class TestSplitIsExact:
    def test_clip_with_ctx(self, modes):
        x = _clip_input()
        p = ClipParams(np.linspace(-2.0, 3.0, 8), np.linspace(3.0, -2.0, 8))

        def call():
            y, ctx = clip_with_ctx(x, p)
            assert (ctx.argmin[2], ctx.argmax[2]) == (0, 0)  # the NaN block keeps index 0
            assert ctx.argmax[4] == 1000 * 32 + 5 and ctx.argmin[4] == 3 * 32 + 7
            return y, ctx.lower, ctx.upper, ctx.x_min, ctx.x_max, ctx.argmin, ctx.argmax

        _same_bytes(modes(call))

    def test_clip_backward(self, modes):
        x = _clip_input()
        p = ClipParams(np.linspace(-2.0, 3.0, 8), np.linspace(3.0, -2.0, 8))
        grad = np.random.default_rng(4).normal(size=x.shape)

        def call():
            _, ctx = clip_with_ctx(x, p)
            in_place = grad.copy()
            return (*clip_backward(ctx, grad), *clip_backward(ctx, in_place, out=in_place))

        _same_bytes(modes(call))

    def test_gpk_backward(self, modes):
        rng = np.random.default_rng(5)
        x, grad = rng.normal(size=(ROWS, N)), rng.normal(size=(ROWS, N))
        t = random_transform(rng, N)
        _same_bytes(modes(lambda: gpk_backward(x, t, grad)))

    def test_calibration_step_on_calib_layer_shapes(self, modes):
        rng = np.random.default_rng(6)
        n = 1024
        w = rng.normal(size=(n, n)) / np.sqrt(n)
        x = rng.normal(size=(32, n))
        x[:, :8] *= 50.0
        theta = calib.Theta.init(n)
        theta.transform = random_transform(rng, n)

        def call():
            buf = np.empty(w.shape)
            loss, grads = calib._backward(calib._forward(x, w, theta, W4A4KV16, buf), x @ w.T, buf)
            return [loss, *grads.values()]

        _same_bytes(modes(call))


class TestSigmoid:
    def test_equals_the_two_branch_formula_bit_for_bit(self):
        special = [0.0, 1e-300, 36.7, 745.0, np.inf]
        z = np.concatenate([special, np.negative(special), [np.nan, -np.nan],
                            np.random.default_rng(7).normal(scale=20.0, size=10_000)])
        want = np.empty_like(z)
        pos = z >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        want[~pos] = ez / (1.0 + ez)
        assert sigmoid(z).tobytes() == want.tobytes()
        assert np.signbit(z[5]) and sigmoid(z[5:6])[0] == 0.5  # -0.0 takes the z >= 0 branch
