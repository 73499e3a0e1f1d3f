import numpy as np
import pytest

import mxquant as mq
from mxquant.cli import bimodality_score
from mxquant.errors import ShapeError
from mxquant.oracle import (
    counted_gpk_forward,
    finite_diff_oracle,
    hadamard_oracle,
    nearest_mx_oracle,
    nearest_mx_oracle_batch,
)
from mxquant.transform import hadamard


class TestNearestOracle:
    def test_point_074_rounds_down(self):
        # at scale 1: |0.74 - 0.5| = 0.24 < |0.74 - 1.0| = 0.26
        v = np.zeros(32)
        v[0] = 6.0  # pins the scale exponent at 0
        v[1] = 0.74
        dec = nearest_mx_oracle(v, mq.E2M1)
        assert dec[1] == 0.5

    def test_on_grid_fixed_points(self):
        v = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0] * 4)
        dec = nearest_mx_oracle(v, mq.E2M1)
        assert np.array_equal(dec, v)

    def test_agrees_with_quantizer(self, rng):
        for fmt in (mq.E2M1, mq.E4M3):
            for _ in range(50):
                v = rng.normal(size=32) * 10.0 ** rng.uniform(-3, 3)
                got = mq.quantize_tensor(v, fmt).to_dense()
                assert np.array_equal(got, nearest_mx_oracle(v, fmt))

    def test_batch_matches_scalar(self, rng):
        blocks = rng.normal(size=(64, 32)) * 10.0 ** rng.uniform(-2, 2, size=(64, 1))
        dec, _ = nearest_mx_oracle_batch(blocks, mq.E2M1)
        for i in range(64):
            assert np.array_equal(dec[i], nearest_mx_oracle(blocks[i], mq.E2M1))


class TestFiniteDiff:
    def test_quadratic_exact(self):
        a = np.array([1.0, -2.0, 3.0])

        def f(p):
            return float(np.sum(a * p["x"] ** 2))

        grads = finite_diff_oracle(f, {"x": np.array([2.0, 1.0, -1.0])}, h=1e-5)
        want = 2 * a * np.array([2.0, 1.0, -1.0])
        assert np.allclose(grads["x"], want, atol=1e-8)

    def test_constant_zero(self):
        grads = finite_diff_oracle(lambda p: 7.5, {"x": np.ones(4)}, h=1e-4)
        assert np.all(grads["x"] == 0.0)


class TestBimodality:
    def test_two_point_mass_is_maximal(self):
        v = np.array([-1.0, 1.0] * 16)
        assert bimodality_score(v) == pytest.approx(1.0)

    def test_normal_sample_near_one_third(self):
        v = np.random.default_rng(0).normal(size=200_000)
        assert bimodality_score(v) == pytest.approx(1 / 3, rel=0.05)

    def test_too_few_values(self):
        with pytest.raises(ShapeError):
            bimodality_score(np.ones(4))

    def test_uniform_scores_between(self):
        v = np.random.default_rng(1).uniform(-1, 1, size=100_000)
        # uniform kurtosis 1.8 -> score 5/9
        assert bimodality_score(v) == pytest.approx(5 / 9, rel=0.05)


class TestCountedForward:
    def test_count_formula(self, rng):
        from mxquant.verify import random_transform

        t = random_transform(rng, 64)
        x = rng.normal(size=(2, 64))
        y, count = counted_gpk_forward(x, t)
        assert count == 2 * 64 * (t.g1 + t.g2)
        assert np.allclose(y, mq.gpk_forward(x, t))


class TestHadamardOracle:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
    def test_equals_sylvester_builder(self, n):
        assert np.array_equal(hadamard_oracle(n), hadamard(n))

    def test_block_hadamard_is_oracle_per_block(self, rng):
        x = rng.normal(size=(3, 5, 96))
        h = hadamard_oracle(32) / np.sqrt(32)
        want = (x.reshape(-1, 32) @ h).reshape(x.shape)
        got = mq.block_hadamard(x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
