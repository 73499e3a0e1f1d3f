import numpy as np
import pytest

import mxquant as mq
from mxquant.errors import ShapeError, SingularTransformError
from mxquant.oracle import counted_gpk_forward, dense_block_matrices, dense_transform_oracle
from mxquant.transform import COND_LIMIT, G1, G2, DecompositionKind, hadamard
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

    def test_zero_d_input_is_shape_error(self):
        # a scalar has no trailing axis, so it has width 0
        with pytest.raises(ShapeError, match="trailing dimension 0"):
            mq.gpk_forward(np.array(1.0), mq.GpkTransform.identity(64))

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
        # a NaN factor's condition number is NaN, which must count as over the limit
        t = mq.GpkTransform.identity(128)
        t.b[3] = 0.0  # a later singular block must not mask the first bad one
        if where == "a":
            t.a[2, 5] = np.nan
        else:
            t.b[2, 1, 0] = np.nan
        with pytest.raises(SingularTransformError) as e:
            t.check_invertible()
        assert e.value.block_index == index

    @pytest.mark.parametrize("where", ["a", "b1"])
    def test_inverse_near_the_condition_limit_matches_check_then_invert(self, rng, where):
        # the inverses decide through the same condition number as check_invertible:
        # each raises or returns exactly what the check followed by np.linalg.inv gives
        for cond in np.logspace(6, 10, 41):
            g = G1 if where == "a" else G2
            u, v = (np.linalg.qr(rng.normal(size=(g, g)))[0] for _ in range(2))
            m = u @ np.diag(np.geomspace(1.0, 1.0 / cond, g)) @ v.T
            t = mq.GpkTransform.identity(96)
            if where == "a":
                t.a[:] = m
            else:
                t.b[1] = m
            try:
                t.check_invertible()
            except SingularTransformError as e:
                for inverse in (t.inverse, t.inverse_transpose):
                    with pytest.raises(SingularTransformError) as got:
                        inverse()
                    assert (got.value.block_index, got.value.cond) == (e.block_index, e.cond)
                continue
            a_inv, b_inv = np.linalg.inv(t.a), np.linalg.inv(t.b)
            inv, inv_t = t.inverse(), t.inverse_transpose()
            assert inv.a.tobytes() == a_inv.tobytes() and inv.b.tobytes() == b_inv.tobytes()
            assert inv_t.a.tobytes() == a_inv.T.copy().tobytes()
            assert inv_t.b.tobytes() == b_inv.transpose(0, 2, 1).copy().tobytes()

    @pytest.mark.parametrize(
        "where, diag, index, cond",
        [("a", [1.0] * 4 + [2e-8] * 4, None, 2e8), ("b1", [1.0, 1.0, 1.6e-8, 1.6e-8], 1, 1.25e8)],
        ids=["a", "b1"],
    )
    def test_frobenius_condition_number_decides(self, where, diag, index, cond):
        # cond_2 of these factors is within COND_LIMIT and ||M||_F * ||M^-1||_F is
        # not: all three entry points reject them and report np.linalg.cond(M, "fro")
        m = np.diag(diag)
        assert np.linalg.cond(m) <= COND_LIMIT < np.linalg.cond(m, "fro")
        t = mq.GpkTransform.identity(96)
        if where == "a":
            t.a[:] = m
        else:
            t.b[1] = m
        for entry in (t.check_invertible, t.inverse, t.inverse_transpose):
            with pytest.raises(SingularTransformError) as e:
                entry()
            assert (e.value.block_index, e.value.cond) == (index, np.linalg.cond(m, "fro"))
        assert e.value.cond == pytest.approx(cond)

    @pytest.mark.parametrize("where", ["a", "b1"])
    def test_accepted_exactly_within_the_frobenius_limit(self, rng, where):
        outcomes = set()
        for cond in np.logspace(6, 10, 41):
            g = G1 if where == "a" else G2
            u, v = (np.linalg.qr(rng.normal(size=(g, g)))[0] for _ in range(2))
            m = u @ np.diag(np.geomspace(1.0, 1.0 / cond, g)) @ v.T
            t = mq.GpkTransform.identity(96)
            if where == "a":
                t.a[:] = m
            else:
                t.b[1] = m
            accepted = bool(np.linalg.cond(m, "fro") <= COND_LIMIT)
            outcomes.add(accepted)
            for entry in (t.check_invertible, t.inverse, t.inverse_transpose):
                if accepted:
                    entry()
                else:
                    with pytest.raises(SingularTransformError):
                        entry()
        assert outcomes == {True, False}

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
        assert mq.param_count(DecompositionKind.GLOBAL_KRONECKER, 4096) == 8192
        assert mq.param_count(DecompositionKind.FULL, 4096) == 131072
        assert mq.param_count(DecompositionKind.NAIVE_KRONECKER, 4096) == 10240
        assert mq.param_count(DecompositionKind.GPK, 4096) == 2112

    def test_single_block(self):
        assert mq.param_count(DecompositionKind.GPK, 32) == 64 + 16

    def test_full_dominates_gpk(self):
        for n in (32, 64, 128, 512, 4096):
            full = mq.param_count(DecompositionKind.FULL, n)
            gpk = mq.param_count(DecompositionKind.GPK, n)
            naive = mq.param_count(DecompositionKind.NAIVE_KRONECKER, n)
            assert naive >= gpk  # sharing A saves (k-1) * g1^2
            assert full >= gpk

    @pytest.mark.parametrize("n", [32, 96, 4096])
    def test_counts_match_the_transforms_they_describe(self, n):
        # GPK counts the factors GpkTransform holds; FULL and NAIVE_KRONECKER count
        # k blocks of their block shapes
        t = mq.GpkTransform.identity(n)
        assert mq.param_count(DecompositionKind.GPK, n) == t.a.size + t.b.size
        assert mq.param_count(DecompositionKind.FULL, n) == t.k * 32**2
        assert mq.param_count(DecompositionKind.NAIVE_KRONECKER, n) == t.k * (8**2 + 4**2)

    def test_inconsistent_dims(self):
        for n in (100, 33, 0, -32):
            with pytest.raises(ShapeError):
                mq.param_count(DecompositionKind.GPK, n)


class TestBlockHadamard:
    def test_orthogonality(self):
        from scipy.linalg import hadamard

        h = hadamard(32) / np.sqrt(32)
        assert rel_err(h @ h.T, np.eye(32)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
    def test_sylvester_builder_matches_scipy(self, n):
        from scipy.linalg import hadamard as scipy_hadamard

        assert np.array_equal(hadamard(n), scipy_hadamard(n))

    @pytest.mark.parametrize("n", [0, 3, 12, 48])
    def test_sylvester_order_not_a_power_of_two(self, n):
        with pytest.raises(ShapeError, match=str(n)):
            hadamard(n)

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
