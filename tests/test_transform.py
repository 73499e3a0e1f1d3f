import numpy as np
import pytest

import mxquant as mq
from mxquant.errors import ShapeError, SingularTransformError
from mxquant.oracle import counted_gpk_forward, dense_block_matrices, dense_transform_oracle
from mxquant.transform import COND_LIMIT, G1, G2, DecompositionKind
from mxquant.verify import random_transform, well_conditioned


def rel_err(got, want):
    want = np.asarray(want)
    scale = np.max(np.abs(want))
    return np.max(np.abs(got - want)) / (scale if scale else 1.0)


class TestForward:
    def test_identity_is_bitwise_exact(self, rng):
        t = mq.GpkTransform.identity(256)
        x = rng.normal(size=(5, 256))
        assert mq.gpk_forward(x, t).tobytes() == x.tobytes()

    def test_matches_dense_oracle(self, rng):
        for _ in range(20):
            n = 32 * int(rng.integers(1, 9))
            t = random_transform(rng, n)
            x = rng.normal(size=(int(rng.integers(1, 7)), n))
            assert rel_err(mq.gpk_forward(x, t), dense_transform_oracle(x, t)) <= 1e-6

    def test_vec_identity(self, rng):
        # row-major vec: vec(V) @ (B kron A) == vec(B.T V A)
        g1, g2 = 8, 4
        for _ in range(100):
            a = rng.normal(size=(g1, g1))
            b = rng.normal(size=(g2, g2))
            v = rng.normal(size=(g2, g1))
            lhs = v.reshape(-1) @ np.kron(b, a)
            rhs = (b.T @ v @ a).reshape(-1)
            assert rel_err(lhs, rhs) <= 1e-6

    def test_locality(self, rng):
        t = random_transform(rng, 160)
        x = rng.normal(size=(3, 160))
        y = mq.gpk_forward(x, t)
        x2 = x.copy()
        x2[:, 64:96] = rng.normal(size=(3, 32))  # block 2 only
        y2 = mq.gpk_forward(x2, t)
        changed = np.abs(y2 - y) > 0
        assert changed[:, 64:96].any()
        assert not changed[:, :64].any() and not changed[:, 96:].any()

    def test_shape_mismatch(self, rng):
        t = mq.GpkTransform.identity(64)
        with pytest.raises(ShapeError, match="96"):
            mq.gpk_forward(rng.normal(size=(2, 96)), t)

    @pytest.mark.parametrize("g1, g2", [(4, 4), (8, 8)], ids=["4x4-A", "8x8-B"])
    def test_other_split_rejected(self, g1, g2):
        # the split of the 32-element MX block is fixed at G1 x G2 = 8 x 4
        with pytest.raises(ShapeError):
            mq.GpkTransform(np.eye(g1), np.stack([np.eye(g2)] * 2))

    def test_madd_count_exact(self, rng):
        t = random_transform(rng, 128)
        x = rng.normal(size=(3, 128))
        y, count = counted_gpk_forward(x, t)
        assert count == 3 * 128 * (G1 + G2) == 3 * 128 * (8 + 4)
        assert rel_err(y, mq.gpk_forward(x, t)) <= 1e-12


class TestInverse:
    def test_identity_factors(self, rng):
        t = mq.GpkTransform.identity(96)
        x = rng.normal(size=(2, 96))
        assert np.array_equal(mq.gpk_inverse_forward(x, t), x)

    def test_round_trip(self, rng):
        for _ in range(20):
            t = random_transform(rng, 128)
            x = rng.normal(size=(4, 128))
            assert rel_err(mq.gpk_inverse_forward(mq.gpk_forward(x, t), t), x) <= 1e-5

    def test_kron_inverse_factorizes(self, rng):
        # (B kron A)^-1 == B^-1 kron A^-1, checked against dense inversion
        a = well_conditioned(rng, 8)
        b = well_conditioned(rng, 4)
        dense_inv = np.linalg.inv(np.kron(b, a))
        assert rel_err(np.kron(np.linalg.inv(b), np.linalg.inv(a)), dense_inv) <= 1e-9

    def test_inverse_matches_dense_inverse(self, rng):
        t = random_transform(rng, 64)
        inv_blocks = dense_block_matrices(t.inverse())
        dense = dense_block_matrices(t)
        for i in range(t.k):
            assert rel_err(inv_blocks[i], np.linalg.inv(dense[i])) <= 1e-9

    def test_singular_factor_reports_block_and_cond(self):
        t = mq.GpkTransform.identity(64)
        t.b[1] = 0.0
        with pytest.raises(SingularTransformError) as e:
            t.inverse()
        assert e.value.block_index == 1
        assert not np.isfinite(e.value.cond) or e.value.cond > COND_LIMIT

    def test_singular_global_factor(self):
        t = mq.GpkTransform.identity(64)
        t.a[:] = 1.0  # rank one
        with pytest.raises(SingularTransformError) as e:
            t.inverse()
        assert e.value.block_index is None

    @pytest.mark.parametrize("where, index", [("a", None), ("b2", 2)], ids=["a", "b2"])
    def test_nonfinite_factor_is_singular(self, where, index):
        # np.linalg.cond raises LinAlgError on NaN; the check must come first
        t = mq.GpkTransform.identity(128)
        t.b[3] = 0.0  # a later singular block must not mask the first bad one
        if where == "a":
            t.a[2, 5] = np.nan
        else:
            t.b[2, 1, 0] = np.nan
        with pytest.raises(SingularTransformError) as e:
            t.check_invertible()
        assert e.value.block_index == index

    def test_inverse_transpose_pairing(self, rng):
        # x @ P paired with w @ P^-T preserves the product exactly
        t = random_transform(rng, 96)
        x = rng.normal(size=(5, 96))
        w = rng.normal(size=(7, 96))
        y = mq.gpk_forward(x, t) @ mq.gpk_forward(w, t.inverse_transpose()).T
        assert rel_err(y, x @ w.T) <= 1e-10


class TestMaterialize:
    def test_identity_blocks(self):
        t = mq.GpkTransform.identity(64)
        blocks = dense_block_matrices(t)
        assert blocks.shape == (2, 32, 32)
        assert all(np.array_equal(b, np.eye(32)) for b in blocks)

    def test_kron_index_convention(self, rng):
        # definitional: kron(B, A)[p*g1+q, r*g1+s] == B[p,r] * A[q,s]
        g1, g2 = 3, 2
        a = rng.normal(size=(g1, g1))
        b = rng.normal(size=(g2, g2))
        kr = np.kron(b, a)
        for p in range(g2):
            for q in range(g1):
                for r in range(g2):
                    for s in range(g1):
                        assert kr[p * g1 + q, r * g1 + s] == b[p, r] * a[q, s]

    def test_dense_matrix_entries_definitional(self, rng):
        t = random_transform(rng, 32)
        blocks = dense_block_matrices(t)
        assert rel_err(blocks[0], np.kron(t.b[0].T, t.a)) == 0.0  # P_i = kron(B_i.T, A)
        g1 = t.g1
        for p in range(t.g2):
            for q in range(g1):
                for r in range(t.g2):
                    for s in range(g1):
                        assert blocks[0, p * g1 + q, r * g1 + s] == t.b[0, r, p] * t.a[q, s]

    def test_materialized_apply_equals_forward(self, rng):
        # x @ blockdiag(P_0, ..., P_{k-1}) with the full dense matrix assembled
        t = random_transform(rng, 224)
        x = rng.normal(size=(6, 224))
        blocks = dense_block_matrices(t)
        g = blocks.shape[1]
        full = np.zeros((224, 224))
        for i in range(t.k):
            full[i * g:(i + 1) * g, i * g:(i + 1) * g] = blocks[i]
        assert rel_err(x @ full, mq.gpk_forward(x, t)) <= 1e-6


class TestParamCount:
    def test_table_values(self):
        args = (4096, 32, 8, 4)
        assert mq.param_count(DecompositionKind.GLOBAL_KRONECKER, *args) == 8192
        assert mq.param_count(DecompositionKind.FULL, *args) == 131072
        assert mq.param_count(DecompositionKind.NAIVE_KRONECKER, *args) == 10240
        assert mq.param_count(DecompositionKind.GPK, *args) == 2112

    def test_single_block(self):
        assert mq.param_count(DecompositionKind.GPK, 32, 32, 8, 4) == 64 + 16

    def test_full_dominates_gpk(self):
        # holds everywhere except the degenerate single-block corner with a
        # trivial 1x1 factor, where GPK = FULL + 1
        for n in (32, 64, 128, 512, 4096):
            for g1, g2 in ((8, 4), (4, 8), (16, 2), (2, 16), (32, 1), (1, 32)):
                full = mq.param_count(DecompositionKind.FULL, n, 32, g1, g2)
                gpk = mq.param_count(DecompositionKind.GPK, n, 32, g1, g2)
                naive = mq.param_count(DecompositionKind.NAIVE_KRONECKER, n, 32, g1, g2)
                assert naive >= gpk  # sharing A saves (k-1) * g1^2
                k = n // 32
                if g1 == 1 or (g2 == 1 and k == 1):
                    assert gpk == full + 1  # trivial factor is pure overhead
                else:
                    assert full >= gpk

    def test_inconsistent_dims(self):
        with pytest.raises(ShapeError):
            mq.param_count(DecompositionKind.GPK, 4096, 32, 8, 8)
        with pytest.raises(ShapeError):
            mq.param_count(DecompositionKind.GPK, 100, 32, 8, 4)


class TestBlockHadamard:
    def test_orthogonality(self):
        from scipy.linalg import hadamard

        h = hadamard(32) / np.sqrt(32)
        assert rel_err(h @ h.T, np.eye(32)) <= 1e-12

    def test_norm_preserved(self, rng):
        x = rng.normal(size=(10, 128))
        y = mq.block_hadamard(x)
        n_in = np.linalg.norm(x.reshape(-1, 32), axis=1)
        n_out = np.linalg.norm(y.reshape(-1, 32), axis=1)
        assert rel_err(n_out, n_in) <= 1e-6

    def test_spike_maps_to_two_values(self):
        # a lone spike spreads to +-magnitude/sqrt(g): exactly two values
        x = np.zeros(32)
        x[7] = 50.0
        y = mq.block_hadamard(x)
        vals = np.unique(y)
        assert len(vals) == 2
        assert np.allclose(np.abs(vals), 50.0 / np.sqrt(32))

    def test_not_a_multiple_of_block(self):
        with pytest.raises(ShapeError, match="48"):
            mq.block_hadamard(np.zeros(48))

    def test_involution(self, rng):
        x = rng.normal(size=(4, 64))
        assert rel_err(mq.block_hadamard(mq.block_hadamard(x)), x) <= 1e-12
