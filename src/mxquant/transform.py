"""Block-diagonal affine transforms factored as shared x private Kronecker products.

A transform acts on the trailing axis of size N = k * BLOCK, independently
on each 32-element MX block. The split of the block is fixed: G1 = 8 and
G2 = 4, G1 * G2 == BLOCK. Block i's map, in matrix form, sends the block
reshaped to a (G2, G1) slice V (G1 fastest-varying) to B_i @ V @ A: a
right-contraction with the shared global factor A (G1 x G1) followed by a
left-contraction with the block's private factor B_i (G2 x G2).

Under row-vector application y = x @ P this is P_i = kron(B_i.T, A), which
is what oracle.dense_block_matrices() builds. The identity
vec(V) @ kron(B, A) == vec(B.T @ V @ A) (row-major vec) ties the two
pictures together.

gpk_forward runs on about formats.CHUNK blocks of rows at a time, through
formats.run_chunks, the chunk adapter of formats.run_parts: the chunks run
on the calling thread and on at most one helper thread when the process's
CPU budget has a CPU free; each chunk's arithmetic is the same on any
thread, so the bits do not depend on the CPU count. gpk_backward, the adjoint of
gpk_forward with respect to A and the B_i, sits beside it.
DecompositionKind is the one table of decompositions, each with its name,
matmul cost and parameter count (shared plus per block); param_count reads
the count for a size-N transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ShapeError, SingularTransformError
from .formats import BLOCK, CHUNK, block_count, blocks, out_blocks, run_chunks

G1 = 8  # global factor size
G2 = 4  # private factor size
assert G1 * G2 == BLOCK
COND_LIMIT = 1e8  # factors beyond this are treated as singular


@dataclass
class GpkTransform:
    """Factored block-diagonal transform: one global A, k private B_i.

    a: (G1, G1) shared factor; b: (k, G2, G2) private factors.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.a.shape != (G1, G1):
            raise ShapeError(f"global factor must be ({G1}, {G1}), got {self.a.shape}")
        if self.b.ndim != 3 or self.b.shape[1:] != (G2, G2):
            raise ShapeError(f"private factors must be (k, {G2}, {G2}), got {self.b.shape}")

    # the fixed split, readable from an instance (not dataclass fields)
    g1 = G1
    g2 = G2

    @property
    def k(self) -> int:
        return self.b.shape[0]

    @property
    def n(self) -> int:
        return self.k * BLOCK

    @classmethod
    def identity(cls, n: int) -> "GpkTransform":
        return cls(np.eye(G1), np.broadcast_to(np.eye(G2), (block_count(n), G2, G2)).copy())

    def check_invertible(self) -> None:
        """Raise SingularTransformError if any factor is non-finite or near-singular."""
        # np.linalg.cond raises on NaN (its SVD does not converge): test finiteness first
        ca = np.linalg.cond(self.a) if np.all(np.isfinite(self.a)) else np.nan
        if not ca <= COND_LIMIT:
            raise SingularTransformError(None, ca)
        finite = np.all(np.isfinite(self.b), axis=(1, 2))
        cb = np.linalg.cond(np.where(finite[:, None, None], self.b, np.eye(G2)))
        cb[~finite] = np.nan
        bad = np.flatnonzero(~(cb <= COND_LIMIT))
        if bad.size:
            raise SingularTransformError(int(bad[0]), cb[bad[0]])

    def _inverse_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(A^-1, B_i^-1), each factor inverted once; raises as check_invertible does.

        ||M||_F * ||M^-1||_F bounds cond_2(M) from above, so a factor whose
        bound is at most COND_LIMIT / 16 passes check_invertible and skips its
        SVD; the margin covers rounding in the computed inverse. A non-finite
        factor has a non-finite bound, and any factor over the bound sends the
        whole transform through check_invertible, so the same factors are
        rejected with the same error.
        """
        try:
            a_inv, b_inv = np.linalg.inv(self.a), np.linalg.inv(self.b)
        except np.linalg.LinAlgError:  # an exactly singular factor
            self.check_invertible()
            raise
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the test below
            within = _frobenius_cond(self.a, a_inv) <= COND_LIMIT / 16 and np.all(
                _frobenius_cond(self.b, b_inv) <= COND_LIMIT / 16
            )
        if not within:
            self.check_invertible()
        return a_inv, b_inv

    def inverse(self) -> "GpkTransform":
        """Transform built from A^-1 and B_i^-1; undoes the forward pass."""
        return GpkTransform(*self._inverse_factors())

    def inverse_transpose(self) -> "GpkTransform":
        """Transform built from A^-T and B_i^-T.

        Applying this to the rows of a weight matrix W realizes W @ P^-T,
        the factor that pairs with x @ P so the product X W^T is preserved.
        """
        a_inv, b_inv = self._inverse_factors()
        return GpkTransform(a_inv.T, np.transpose(b_inv, (0, 2, 1)))


def _frobenius_cond(m: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
    """||M||_F * ||M^-1||_F of each trailing square matrix: cond_2(M) <= this."""
    return np.sqrt(np.sum(m * m, axis=(-2, -1)) * np.sum(m_inv * m_inv, axis=(-2, -1)))


def _split_blocks(x: np.ndarray, t: GpkTransform) -> np.ndarray:
    xb = blocks(x)
    if xb.shape[1] != t.k:
        raise ShapeError(
            f"trailing dimension {xb.shape[1] * BLOCK} does not match transform size {t.n} "
            f"(k={t.k} blocks of {BLOCK})"
        )
    return xb.reshape(-1, t.k, G2, G1)


def gpk_forward(x: np.ndarray, t: GpkTransform, out=None) -> np.ndarray:
    """Apply the factored transform to the trailing axis of x.

    Two contractions: V @ A (A is shared, so one GEMM over the (rows * k *
    G2, G1) slices), then B_i @ (V @ A) per block, written into out (see
    formats.out_blocks; out=x runs in place) or a fresh array. Both run on
    rows holding about CHUNK blocks at a time, split between the caller and
    at most one helper thread by formats.run_parts, so V @ A is one chunk's
    temporary per busy thread.
    Cost is rows * N * (G1 + G2) multiply-adds.
    """
    v = _split_blocks(x, t)
    y = out_blocks(out, x).reshape(v.shape)

    def chunk(s, e):
        vc = v[s:e]
        va = (vc.reshape(-1, G1) @ t.a).reshape(vc.shape)
        np.matmul(t.b, va, out=y[s:e])

    run_chunks(len(v), max(1, CHUNK // t.k), chunk)
    return y.reshape(np.shape(x))


def gpk_backward(x: np.ndarray, t: GpkTransform, grad_out: np.ndarray):
    """Adjoints of gpk_forward(x, t) with respect to t's factors: returns (d_a, d_b).

    Block i maps by P_i = kron(B_i.T, A) (the row-vector picture above).
    With X_i, G_i block i's input and output gradient over all rows,
    dP_i = X_i.T @ G_i is one (k, 32, rows) @ (k, rows, 32) batched GEMM,
    and as dP_i[a, c, b, d] (a, b index G2; c, d index G1) it projects onto
        d_b[i][b, a] = sum_{c,d} dP_i[a, c, b, d] * A[c, d]
        d_a[c, d] = sum_i sum_{a,b} dP_i[a, c, b, d] * B_i[b, a].
    """
    dp = np.matmul(blocks(x).transpose(1, 2, 0), blocks(grad_out).transpose(1, 0, 2))
    dp = dp.reshape(-1, G2, G1, G2, G1)
    return np.einsum("kacbd,kba->cd", dp, t.b), np.einsum("kacbd,cd->kba", dp, t.a)


def gpk_inverse_forward(x: np.ndarray, t: GpkTransform) -> np.ndarray:
    """Apply the transform built from A^-1 and B_i^-1; inverts gpk_forward."""
    return gpk_forward(x, t.inverse())


class DecompositionKind(Enum):
    """Parameterizations of a size-N transform, in table order: (table name, cost on S
    rows, parameters shared, parameters per MX block); Kronecker kinds split G1 x G2."""

    # one N x N map as a balanced sqrt(N) x sqrt(N) factor pair: 2N parameters
    GLOBAL_KRONECKER = ("global-kronecker", "S*N^(3/2)", 0, 2 * BLOCK)
    FULL = ("full-block", "S*N*g", 0, BLOCK * BLOCK)  # k dense g x g blocks
    NAIVE_KRONECKER = ("naive-kronecker", "S*N*(g1+g2)", 0, G1 * G1 + G2 * G2)  # (A_i, B_i)
    GPK = ("global+private-kronecker", "S*N*(g1+g2)", G1 * G1, G2 * G2)  # shared A, private B_i

    def __init__(self, table_name: str, cost: str, shared: int, per_block: int):
        self.table_name = table_name
        self.cost = cost
        self.shared = shared
        self.per_block = per_block


def param_count(kind: DecompositionKind, n: int) -> int:
    """Learnable parameter count of kind for size n, a positive multiple of BLOCK."""
    return kind.shared + kind.per_block * block_count(n)


def hadamard(n: int) -> np.ndarray:
    """Sylvester-Hadamard matrix of order n (a power of two), entries +-1.0.

    Built by doubling, H_2m = [[H_m, H_m], [H_m, -H_m]], starting from H_1 = [[1]].
    """
    if n < 1 or n & (n - 1):
        raise ShapeError(f"Hadamard order {n} is not a power of two")
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def block_hadamard(x: np.ndarray) -> np.ndarray:
    """Apply a normalized BLOCK x BLOCK Sylvester-Hadamard matrix to each MX block.

    Entries are +-1/sqrt(BLOCK); the matrix is symmetric and orthogonal, so
    it is its own inverse and preserves per-block L2 norms.
    """
    y = blocks(x) @ (hadamard(BLOCK) / np.sqrt(BLOCK))
    return y.reshape(np.shape(x))
