import sys
import threading

import numpy as np
import pytest

from conftest import NO_QUANT, W4A4KV16, traced_peak
from mxquant import formats, harness, transform
from mxquant.calib import CalibConfig, calibrate_layer
from mxquant.errors import DivergenceError, ShapeError
from mxquant.formats import FormatConfig
from mxquant.harness import (
    ToyBlockSpec,
    _block_forward,
    build_toy_block,
    calibrate_block,
    simulate_block,
)

SPEC = ToyBlockSpec(hidden=128, head_dim=32, n_heads=4, mlp_dim=256)
TEXT_SITES = {"p_qkv", "p_o", "p_up", "p_down"}
VIT_SITES = {"p_qkv", "p_o", "p_fc1", "p_fc2"}
KV4 = FormatConfig.from_name("W16A16KV4")
QUICK = CalibConfig(lr=0.02, epochs=1)  # two steps per site on 8 rows


def _kv_calls(monkeypatch, block, x):
    """The KV4 forward's taps, and the arrays it hands to harness.quantize_dequantize
    in call order."""
    calls = []
    real = harness.quantize_dequantize

    def spy(vals, fmt):
        calls.append(np.array(vals))
        return real(vals, fmt)

    monkeypatch.setattr(harness, "quantize_dequantize", spy)
    _, taps = _block_forward(block, x, KV4)
    return taps, calls


class TestBuild:
    def test_text_has_six_placements(self, rng, monkeypatch):
        # four linear sites, plus the key and the value cache: one qdq per head each
        block = build_toy_block(SPEC)
        assert set(block.sites) == TEXT_SITES
        record, calls = _kv_calls(monkeypatch, block, rng.normal(size=(4, 128)))
        d, attn = SPEC.head_dim, SPEC.n_heads * SPEC.head_dim
        k, v = (record["p_qkv"][2][:, i * attn : (i + 1) * attn] for i in (1, 2))
        heads = [c[:, h * d : (h + 1) * d] for c in (k, v) for h in range(SPEC.n_heads)]
        assert len(calls) == len(heads) == 2 * SPEC.n_heads
        assert all(np.array_equal(c, want) for c, want in zip(calls, heads))

    def test_vit_has_four_placements(self, rng, monkeypatch):
        block = build_toy_block(ToyBlockSpec(128, 32, 4, 256, template="vit"))
        assert len(block.sites) == 4
        assert set(block.sites) == VIT_SITES
        assert _kv_calls(monkeypatch, block, rng.normal(size=(4, 128)))[1] == []

    def test_every_linear_has_exactly_one_activation_placement(self, rng):
        # a recorded forward: each weight matrix is a row block of exactly one site's weight
        for template, sites in (("text", TEXT_SITES), ("vit", VIT_SITES)):
            block = build_toy_block(ToyBlockSpec(128, 32, 4, 256, template=template))
            _, record = _block_forward(block, rng.normal(size=(4, 128)), None)
            assert set(record) == set(block.sites) == sites
            for w in block.weights.values():
                feeds = [
                    site
                    for site, (_, site_w, _) in record.items()
                    if any(
                        np.array_equal(site_w[r : r + len(w)], w)
                        for r in range(0, len(site_w) - len(w) + 1, len(w))
                    )
                ]
                assert len(feeds) == 1
            rows = sum(site_w.shape[0] for _, site_w, _ in record.values())
            assert rows == sum(w.shape[0] for w in block.weights.values())

    def test_each_site_runs_on_its_own_stored_weight(self, rng):
        for template in ("text", "vit"):
            block = build_toy_block(ToyBlockSpec(128, 32, 4, 256, template=template))
            assert block.weights.keys() == block.sites.keys()
            _, record = _block_forward(block, rng.normal(size=(4, 128)), None)
            for site, theta in block.sites.items():
                assert record[site][1] is block.weights[site]
                assert block.weights[site].shape[1] == theta.transform.n

    def test_misaligned_dims_rejected(self):
        with pytest.raises(ShapeError):
            ToyBlockSpec(hidden=120, head_dim=32, n_heads=4, mlp_dim=256)


class TestSimulate:
    def test_identity_no_quant_exact(self, rng):
        block = build_toy_block(SPEC, seed=1)
        x = rng.normal(size=(16, 128))
        y, report = simulate_block(block, x, NO_QUANT)
        ref, _ = _block_forward(block, x, None)
        assert np.array_equal(y, ref)
        assert all(v == 0.0 for v in report.values())

    def test_e2m1_worse_than_e4m3_per_site(self, rng):
        block = build_toy_block(SPEC, seed=2)
        x = rng.normal(size=(64, 128))
        _, rep4 = simulate_block(block, x, W4A4KV16)
        _, rep8 = simulate_block(block, x, FormatConfig.from_name("W8A8KV16"))
        for site in rep4:
            assert rep4[site] > rep8[site]

    def test_kv_quantization_adds_error(self, rng):
        block = build_toy_block(SPEC, seed=3)
        x = rng.normal(size=(32, 128))
        _, kv16 = simulate_block(block, x, FormatConfig.from_name("W16A16KV16"))
        _, kv4 = simulate_block(block, x, FormatConfig.from_name("W16A16KV4"))
        assert kv4["output"] > kv16["output"]

    def test_per_head_independence(self, rng, monkeypatch):
        # scaling one weight row of head 0's key changes only head 0's quantized key
        block = build_toy_block(SPEC, seed=3)
        x = rng.normal(size=(8, 128))
        outs = []
        real = harness.quantize_dequantize
        monkeypatch.setattr(harness, "quantize_dequantize",
                            lambda vals, fmt: outs.append(real(vals, fmt)) or outs[-1])
        _block_forward(block, x, KV4)
        attn = SPEC.n_heads * SPEC.head_dim
        block.weights["p_qkv"][attn + 5] *= 10.0  # the key rows follow the query rows
        _block_forward(block, x, KV4)
        base, pert = outs[: 2 * SPEC.n_heads], outs[2 * SPEC.n_heads :]
        assert len(base) == len(pert) == 2 * SPEC.n_heads
        assert not np.array_equal(base[0], pert[0])
        for h in range(1, 2 * SPEC.n_heads):
            assert np.array_equal(base[h], pert[h])


class TestCalibrateBlock:
    def test_calibration_beats_identity_rtn(self):
        rng = np.random.default_rng(11)
        block = build_toy_block(SPEC, seed=11)
        x = rng.normal(size=(64, 128))
        x[:, 40] *= 30.0  # persistent outlier channel feeding the block
        _, before = simulate_block(block, x, W4A4KV16)
        calibrate_block(block, x, CalibConfig(lr=0.02), W4A4KV16)
        _, after = simulate_block(block, x, W4A4KV16)
        assert after["output"] < before["output"]

    def test_calibrated_sites_have_non_identity_transforms(self):
        rng = np.random.default_rng(12)
        block = build_toy_block(SPEC, seed=12)
        x = rng.normal(size=(32, 128))
        x[:, 7] *= 30.0
        calibrate_block(block, x, CalibConfig(lr=0.02, epochs=2), W4A4KV16)
        a = block.sites["p_qkv"].transform.a
        assert np.abs(a - np.eye(8)).max() > 1e-3


class TestConcurrentCalibration:
    """calibrate_block runs one group of sites per CPU; the results are a serial loop's."""

    @staticmethod
    def _instance():
        rng = np.random.default_rng(13)
        x = rng.normal(size=(8, 128))
        x[:, 40] *= 30.0
        return build_toy_block(SPEC, seed=13), x

    @staticmethod
    def _serial(block, x):
        _, taps = _block_forward(block, x, None)
        return {site: calibrate_layer(w, inp, QUICK, W4A4KV16)[0]
                for site, (inp, w, _) in taps.items()}

    @staticmethod
    def _same_bits(theta, want):
        got = theta.params()
        return all(got[name].tobytes() == p.tobytes() for name, p in want.params().items())

    def test_groups_balance_weight_size(self):
        block = build_toy_block(ToyBlockSpec(256, 32, 8, 512))
        # sites in order p_qkv, p_o, p_up, p_down
        sizes = [w.size for w in block.weights.values()]
        assert list(block.weights) == ["p_qkv", "p_o", "p_up", "p_down"]
        assert formats._balanced_groups(sizes, 2) == [[1, 2], [0, 3]]
        assert formats._balanced_groups(sizes, 1) == [[0, 1, 2, 3]]
        assert formats._balanced_groups(sizes, 4) == [[2], [0], [3], [1]]
        # 8 full chunks and a short last one: equal chunks alternate between the groups
        assert formats._balanced_groups([2] * 8 + [1], 2) == [[0, 2, 4, 6, 8], [1, 3, 5, 7]]

    @pytest.mark.parametrize("cpus", [1, 2, 4, 8])
    def test_matches_serial_calibrate_layer_bit_for_bit(self, monkeypatch, cpus):
        # a helper thread with frequent thread switches is the stress case
        monkeypatch.setattr(formats, "_cpu_count", lambda: cpus)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        block, x = self._instance()
        want = self._serial(block, x)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            calibrate_block(block, x, QUICK, W4A4KV16)
        finally:
            sys.setswitchinterval(interval)
        # the caller runs the first group itself, and one call takes one helper at most
        assert len(started) == min(cpus - 1, formats.LOOP_HELPERS)
        assert not any(t.is_alive() for t in started)
        assert list(block.sites) == list(want)
        for site, theta in want.items():
            assert self._same_bits(block.sites[site], theta), site

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("failing", [("p_o",), ("p_up",), ("p_down",), ("p_up", "p_qkv")])
    def test_first_failing_site_in_site_order_raises(self, monkeypatch, cpus, failing):
        # at 2 CPUs the groups are [p_o, p_up] (the caller's) and [p_qkv, p_down]
        monkeypatch.setattr(formats, "_cpu_count", lambda: cpus)
        block, x = self._instance()
        want = self._serial(block, x)
        old = dict(block.sites)

        def forced(w, inp, config, formats):
            for site in failing:
                if w is block.weights[site]:
                    raise DivergenceError(f"forced at {site}", 0)
            return calibrate_layer(w, inp, config, formats)

        monkeypatch.setattr(harness, "calibrate_layer", forced)
        threads = threading.active_count()
        with pytest.raises(DivergenceError) as e:
            calibrate_block(block, x, QUICK, W4A4KV16)
        assert threading.active_count() == threads
        order = list(block.sites)
        first = min(order.index(site) for site in failing)
        assert str(e.value) == f"forced at {order[first]} (step 0)"
        for site in order[:first]:
            assert self._same_bits(block.sites[site], want[site]), site
        for site in order[first:]:
            assert block.sites[site] is old[site], site

    @pytest.mark.parametrize("cpus", [2, 4, 8])
    def test_at_most_one_site_per_cpu_in_flight(self, monkeypatch, cpus):
        # calibrate_block also holds the recorded taps while two sites run, so its
        # bound adds the recording forward's own peak to the two largest site peaks
        monkeypatch.setattr(formats, "_cpu_count", lambda: cpus)
        block, x = self._instance()
        record, (_, taps) = traced_peak(lambda: _block_forward(block, x, None))
        peaks = sorted(traced_peak(lambda: calibrate_layer(w, inp, QUICK, W4A4KV16))[0]
                       for inp, w, _ in taps.values())
        peak, _ = traced_peak(lambda: calibrate_block(block, x, QUICK, W4A4KV16))
        assert peak <= peaks[-1] + peaks[-2] + record

    @pytest.mark.parametrize("cpus", [2, 4, 8])
    def test_codec_calls_inside_site_groups_start_no_thread(self, monkeypatch, cpus):
        # perfbench's text block: p_up's weight and its transform are 2 chunks each,
        # so at 2 CPUs its chunk loops would take the second CPU if the site groups
        # did not hold it; above 2 they may take a free one
        monkeypatch.setattr(formats, "_cpu_count", lambda: cpus)
        block = build_toy_block(ToyBlockSpec(256, 32, 8, 512), seed=13)
        x = np.random.default_rng(13).normal(size=(8, 256))
        base = threading.active_count()
        calls = []  # (live threads, spans) at each chunk-runner call
        real = formats.run_chunks

        def spy(n, step, body):
            calls.append((threading.active_count(), -(-n // step)))
            return real(n, step, body)

        monkeypatch.setattr(formats, "run_chunks", spy)
        monkeypatch.setattr(transform, "run_chunks", spy)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        calibrate_block(block, x, QUICK, W4A4KV16)
        assert max(spans for _, spans in calls) == 2
        assert max(live for live, _ in calls) <= base + cpus - 1  # the caller and one per CPU
        if cpus == 2:
            assert len(started) == 1  # the second site group's thread
        assert threading.active_count() == base


class TestGelu:
    def test_matches_scipy_erf_gelu(self):
        from scipy.special import erf  # an independent cross-check; not a runtime dependency

        x = np.concatenate([np.random.default_rng(11).normal(size=4096) * 4.0,
                            [0.0, 40.0, -40.0, np.inf, -np.inf]])
        with np.errstate(invalid="ignore"):  # gelu(-inf) = -inf * 0 is NaN on both sides
            got = harness._gelu(x)
            want = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
        assert got.dtype == np.float64
        finite = np.isfinite(x)
        np.testing.assert_array_equal(got[~finite], want[~finite])
        pos = finite & (x >= 0)
        np.testing.assert_allclose(got[pos], want[pos], rtol=1e-15, atol=0)
        # below 0, 1 + erf cancels: an ulp of erf is large against the result itself,
        # so the difference is bounded on the erf term's scale 0.5 * |x|
        neg = finite & (x < 0)
        assert np.all(np.abs(got[neg] - want[neg]) <= 1e-15 * 0.5 * np.abs(x[neg]))
