"""The buffer rule (stated in mxquant.formats) and the memory it buys.

The codec and the transform run in chunks of formats.CHUNK blocks, so chunk
boundaries must not change a bit. calibrate_layer reuses one weight-side
array in every step: the weight operand, then the weight gradient over it.
That bounds the peak of a calibration step; fuse keeps its own bound.
"""

import dataclasses

import numpy as np
import pytest

import mxquant as mq
from conftest import W4A4KV16, traced_peak
from mxquant import io
from mxquant.calib import FusedLayer, Theta, _backward, _forward
from mxquant.clipping import ClipParams, clip_backward, clip_with_ctx
from mxquant.formats import CHUNK, quantize_dequantize_with_mask, quantize_tensor
from mxquant.transform import gpk_forward
from mxquant.verify import random_transform


def _arrays(obj):
    """Every ndarray reachable from obj through dataclass fields."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj) for a in _arrays(getattr(obj, f.name))]
    return []


def _snapshot(*objs):
    return [a.tobytes() for o in objs for a in _arrays(o)]


def _layer(rng, n=128, m=64, rows=16):
    """Inputs and a theta whose clips clamp on both sides and whose qdq saturates."""
    x = rng.normal(size=(rows, n))
    x[:, [3, 70]] *= 40.0
    w = rng.normal(size=(m, n)) / 8.0
    w[:, 100] *= 30.0
    theta = Theta(random_transform(rng, n), ClipParams(rng.normal(size=n // 32),
                                                       rng.normal(size=n // 32)),
                  ClipParams(rng.normal(size=n // 32), rng.normal(size=n // 32)))
    return x, w, theta


class TestNoWriteWithoutOut:
    def test_inputs_clamp_and_saturate(self, rng):
        x, w, theta = _layer(rng)
        ctx = _forward(x, w, theta, W4A4KV16)
        for op in (ctx.x, ctx.w):
            assert op.clip.upper.any() and op.clip.lower.any() and not op.mask.all()

    def test_entry_points_leave_their_inputs_unchanged(self, rng):
        x, w, theta = _layer(rng)
        t = theta.transform
        xt = gpk_forward(x, t)
        xc, ctx = clip_with_ctx(xt, theta.act_clip)
        grad = rng.normal(size=x.shape)
        fused = mq.fuse(w, theta, W4A4KV16)
        dense = FusedLayer(fused.w_q.to_dense(), fused.transform, fused.act_clip)
        calls = [
            (lambda: gpk_forward(x, t), (x, t)),
            (lambda: clip_with_ctx(xt, theta.act_clip), (xt, theta.act_clip)),
            (lambda: clip_backward(ctx, grad), (ctx, grad)),
            (lambda: quantize_dequantize_with_mask(xc, mq.E2M1), (xc,)),
            (lambda: quantize_tensor(xc, mq.E2M1), (xc,)),
            (lambda: mq.quantized_forward(x, w, theta, W4A4KV16), (x, w, theta)),
            (lambda: mq.fuse(w, theta, W4A4KV16), (w, theta)),
            (lambda: mq.fused_forward(x, fused, W4A4KV16), (x, fused)),
            (lambda: mq.fused_forward(x, dense, W4A4KV16), (x, dense)),
        ]
        for i, (call, inputs) in enumerate(calls):
            before = _snapshot(*inputs)
            call()
            assert _snapshot(*inputs) == before, f"call {i} wrote into an input"

    def test_backward_leaves_the_step_context_unchanged(self, rng):
        x, w, theta = _layer(rng)
        ctx = _forward(x, w, theta, W4A4KV16)
        before = _snapshot(ctx)
        _backward(ctx, x @ w.T)
        assert _snapshot(ctx) == before
        _backward(ctx, x @ w.T, np.empty_like(w))
        assert _snapshot(ctx) == before

    def test_backward_reads_the_weight_operand_before_writing_its_gradient(self, rng):
        # calibrate_layer passes ctx.w.out as w_grad: dy @ w~ must come first
        x, w, theta = _layer(rng)
        y_ref = x @ w.T
        want_loss, want = _backward(_forward(x, w, theta, W4A4KV16), y_ref)
        ctx = _forward(x, w, theta, W4A4KV16)
        got_loss, got = _backward(ctx, y_ref, ctx.w.out)
        assert got_loss == want_loss
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_calibrate_layer_takes_a_weight_of_any_layout(self, rng):
        # w is made C-ordered first, so every product takes the same BLAS path
        x, w, _ = _layer(rng)
        cfg = mq.CalibConfig(lr=0.01, epochs=1, batch_size=8)
        want_theta, want = mq.calibrate_layer(w, x, cfg, W4A4KV16)
        got_theta, got = mq.calibrate_layer(np.asfortranarray(w), x, cfg, W4A4KV16)
        assert got == want
        for name, a in want_theta.params().items():
            assert got_theta.params()[name].tobytes() == a.tobytes(), name

    def test_forward_alone_allocates_fresh_buffers(self, rng):
        x, w, theta = _layer(rng)
        a, b = (_forward(x, w, theta, W4A4KV16) for _ in range(2))
        assert not np.shares_memory(a.w.out, b.w.out)
        assert a.w.out.tobytes() == b.w.out.tobytes()


class TestOut:
    @pytest.mark.parametrize("name", ["gpk_forward", "clip_with_ctx", "clip_backward", "qdq"])
    def test_out_gives_the_same_bits_in_place_or_not(self, rng, name):
        x, _, theta = _layer(rng)
        _, ctx = clip_with_ctx(gpk_forward(x, theta.transform), theta.act_clip)
        call = {
            "gpk_forward": lambda v, out: gpk_forward(v, theta.transform, out=out),
            "clip_with_ctx": lambda v, out: clip_with_ctx(v, theta.act_clip, out=out)[0],
            "clip_backward": lambda v, out: clip_backward(ctx, v, out=out)[0],
            "qdq": lambda v, out: quantize_dequantize_with_mask(v, mq.E2M1, out=out)[0],
        }[name]
        want = call(x, None).tobytes()
        for out in (np.empty_like(x), x):  # a buffer of the caller's, then x itself
            got = call(x, out)
            assert np.shares_memory(got, out) and got.tobytes() == want

    def test_in_place_qdq_mask_matches_fresh(self, rng):
        x = _layer(rng)[0]
        _, want = quantize_dequantize_with_mask(x, mq.E2M1)
        _, got = quantize_dequantize_with_mask(x, mq.E2M1, out=x)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("out", [np.empty((16, 96)), np.empty((16, 128), np.float32),
                                     np.empty((128, 16)).T],
                             ids=["shape", "dtype", "not-contiguous"])
    def test_out_of_the_wrong_layout_is_rejected(self, rng, out):
        x, _, theta = _layer(rng)
        _, ctx = clip_with_ctx(x, theta.act_clip)
        for call in (lambda: gpk_forward(x, theta.transform, out=out),
                     lambda: clip_with_ctx(x, theta.act_clip, out=out),
                     lambda: clip_backward(ctx, x, out=out),
                     lambda: quantize_dequantize_with_mask(x, mq.E2M1, out=out)):
            with pytest.raises(ValueError, match="C-contiguous float64 array of shape"):
                call()


class TestChunks:
    def test_codec_bits_do_not_depend_on_chunk_boundaries(self, rng):
        # 2 * CHUNK + 5 blocks, against slices of 1000 blocks each (one chunk per call)
        n = 2 * CHUNK + 5
        x = rng.normal(size=(n, 32)) * rng.lognormal(0.0, 2.0, size=(n, 1))
        for fmt in (mq.E2M1, mq.E4M3):
            y, mask = quantize_dequantize_with_mask(x, fmt)
            t = quantize_tensor(x, fmt)
            parts = [slice(s, s + 1000) for s in range(0, len(x), 1000)]
            assert y.tobytes() == b"".join(
                quantize_dequantize_with_mask(x[p], fmt)[0].tobytes() for p in parts)
            assert np.array_equal(mask, np.concatenate(
                [quantize_dequantize_with_mask(x[p], fmt)[1] for p in parts]))
            assert t.codes.tobytes() == b"".join(quantize_tensor(x[p], fmt).codes.tobytes()
                                                 for p in parts)
            assert t.scale_exps.tobytes() == b"".join(
                quantize_tensor(x[p], fmt).scale_exps.tobytes() for p in parts)

    def test_nonfinite_in_the_last_chunk_is_rejected(self, rng):
        x = rng.normal(size=(2 * CHUNK + 5, 32))
        x[-1, 7] = np.nan
        for call in (lambda: quantize_dequantize_with_mask(x, mq.E2M1),
                     lambda: quantize_tensor(x, mq.E4M3)):
            with pytest.raises(mq.NonFiniteError):
                call()

    def test_transform_bits_do_not_depend_on_chunk_boundaries(self, rng):
        # k = 3 blocks: CHUNK // 3 rows per chunk, which does not divide the rows
        t = random_transform(rng, 96)
        x = rng.normal(size=(2 * (CHUNK // 3) + 7, 96))
        y = gpk_forward(x, t)
        assert y.tobytes() == b"".join(gpk_forward(x[s : s + 500], t).tobytes()
                                       for s in range(0, len(x), 500))


class TestPeakMemory:
    """A 1024 x 1024 W4A4 layer; peaks in units of the weight's own bytes.

    Each busy thread holds one chunk's temporaries and the process runs one
    helper thread at most, so the bounds hold at any CPU count: the host's own,
    then 1, 4 and 8 patched CPUs.
    """

    def test_calibrate_layer_and_fuse_peaks(self, rng, monkeypatch):
        n = 1024
        w = rng.normal(size=(n, n)) / np.sqrt(n)
        x = rng.normal(size=(64, n))
        x[:, :8] *= 50.0
        cfg = mq.CalibConfig(lr=0.1, epochs=1, batch_size=32)
        for cpus in (mq.formats._cpu_count(), 1, 4, 8):
            monkeypatch.setattr(mq.formats, "_cpu_count", lambda: cpus)
            peak, (theta, _) = traced_peak(lambda: mq.calibrate_layer(w, x, cfg, W4A4KV16))
            assert peak <= 2.25 * w.nbytes, (cpus, peak / w.nbytes)
            peak, fused = traced_peak(lambda: mq.fuse(w, theta, W4A4KV16))
            assert isinstance(fused.w_q, mq.MxTensor)
            assert peak <= 2.5 * w.nbytes, (cpus, peak / w.nbytes)

    def test_write_tensor_peaks(self, rng, monkeypatch, tmp_path):
        # the writer fills the file body in place: f32 holds its float32 body,
        # mx4 and mx8 their payload, plus one chunk's temporaries per busy thread
        x = rng.normal(size=(2048, 1024))
        tensors = [(x, 0.6 * x.nbytes)]
        for fmt in (mq.E2M1, mq.E4M3):
            t = quantize_tensor(x, fmt)
            tensors.append((t, 1.3 * t.n_blocks * (1 + 32 * fmt.bits // 8)))
        p = tmp_path / "w.mxbt"
        for cpus in (mq.formats._cpu_count(), 1):
            monkeypatch.setattr(mq.formats, "_cpu_count", lambda: cpus)
            for t, bound in tensors:
                peak, _ = traced_peak(lambda: io.write_tensor(p, t))
                assert peak <= bound, (cpus, type(t).__name__, peak / bound)

    def test_read_tensor_mx8_peak(self, rng, tmp_path):
        # the codes stay a view of the file body, which holds only them and the
        # scale bytes; the payload check adds one code-sized temporary
        t = quantize_tensor(rng.normal(size=(2048, 1024)), mq.E4M3)
        p = tmp_path / "w.mxbt"
        io.write_tensor(p, t)
        peak, got = traced_peak(lambda: io.read_tensor(p))
        assert np.array_equal(got.codes, t.codes)
        assert peak <= 2.25 * t.codes.nbytes, peak / t.codes.nbytes
