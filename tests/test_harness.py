import numpy as np
import pytest

from conftest import NO_QUANT, W4A4KV16
from mxquant import harness
from mxquant.calib import CalibConfig
from mxquant.errors import ShapeError
from mxquant.formats import FormatConfig
from mxquant.harness import (
    ToyBlockSpec,
    _block_forward,
    _kv_site,
    build_toy_block,
    calibrate_block,
    simulate_block,
)

SPEC = ToyBlockSpec(hidden=128, head_dim=32, n_heads=4, mlp_dim=256)
TEXT_SITES = {"p_qkv", "p_o", "p_up", "p_down"}
VIT_SITES = {"p_qkv", "p_o", "p_fc1", "p_fc2"}
KV4 = FormatConfig.from_name("W16A16KV4")


def _kv_calls(monkeypatch, block, x, record):
    """Arrays a KV4 forward hands to harness.quantize_dequantize, in call order."""
    calls = []
    real = harness.quantize_dequantize

    def spy(vals, fmt):
        calls.append(np.array(vals))
        return real(vals, fmt)

    monkeypatch.setattr(harness, "quantize_dequantize", spy)
    _block_forward(block, x, KV4, record)
    return calls


class TestBuild:
    def test_text_has_six_placements(self, rng, monkeypatch):
        # four linear sites, plus the key and the value cache: one qdq per head each
        block = build_toy_block(SPEC)
        assert set(block.sites) == TEXT_SITES
        record = {}
        calls = _kv_calls(monkeypatch, block, rng.normal(size=(4, 128)), record)
        d, attn = SPEC.head_dim, SPEC.n_heads * SPEC.head_dim
        k, v = (record["p_qkv"][2][:, i * attn : (i + 1) * attn] for i in (1, 2))
        heads = [c[:, h * d : (h + 1) * d] for c in (k, v) for h in range(SPEC.n_heads)]
        assert len(calls) == len(heads) == 2 * SPEC.n_heads
        assert all(np.array_equal(c, want) for c, want in zip(calls, heads))

    def test_vit_has_four_placements(self, rng, monkeypatch):
        block = build_toy_block(ToyBlockSpec(128, 32, 4, 256, template="vit"))
        assert len(block.sites) == 4
        assert set(block.sites) == VIT_SITES
        assert _kv_calls(monkeypatch, block, rng.normal(size=(4, 128)), {}) == []

    def test_every_linear_has_exactly_one_activation_placement(self, rng):
        # a recorded forward: each weight matrix is a row block of exactly one site's weight
        for template, sites in (("text", TEXT_SITES), ("vit", VIT_SITES)):
            block = build_toy_block(ToyBlockSpec(128, 32, 4, 256, template=template))
            record = {}
            _block_forward(block, rng.normal(size=(4, 128)), None, record)
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

    def test_misaligned_dims_rejected(self):
        with pytest.raises(ShapeError):
            ToyBlockSpec(hidden=120, head_dim=32, n_heads=4, mlp_dim=256)


class TestSimulate:
    def test_identity_no_quant_exact(self, rng):
        block = build_toy_block(SPEC, seed=1)
        x = rng.normal(size=(16, 128))
        y, report = simulate_block(block, x, NO_QUANT)
        ref = _block_forward(block, x, None)
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

    def test_per_head_independence(self, rng):
        # perturbing head 0's K slice changes only head 0's qdq output
        vals = [rng.normal(size=(8, 32)) for _ in range(4)]
        base = _kv_site(vals, KV4.kv)
        vals[0] = vals[0].copy()
        vals[0][3, 5] += 10.0
        pert = _kv_site(vals, KV4.kv)
        assert not np.array_equal(base[0], pert[0])
        for h in range(1, 4):
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
