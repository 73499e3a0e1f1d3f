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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import hadamard

from .errors import ShapeError, SingularTransformError
from .formats import BLOCK

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
        if n % BLOCK != 0:
            raise ShapeError(f"feature dimension {n} is not a multiple of {BLOCK}")
        return cls(np.eye(G1), np.broadcast_to(np.eye(G2), (n // BLOCK, G2, G2)).copy())

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

    def inverse(self) -> "GpkTransform":
        """Transform built from A^-1 and B_i^-1; undoes the forward pass."""
        self.check_invertible()
        return GpkTransform(np.linalg.inv(self.a), np.linalg.inv(self.b))

    def inverse_transpose(self) -> "GpkTransform":
        """Transform built from A^-T and B_i^-T.

        Applying this to the rows of a weight matrix W realizes W @ P^-T,
        the factor that pairs with x @ P so the product X W^T is preserved.
        """
        self.check_invertible()
        return GpkTransform(
            np.linalg.inv(self.a).T, np.transpose(np.linalg.inv(self.b), (0, 2, 1))
        )


def _split_blocks(x: np.ndarray, t: GpkTransform) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != t.n:
        raise ShapeError(
            f"trailing dimension {x.shape[-1]} does not match transform size {t.n} "
            f"(k={t.k} blocks of {BLOCK})"
        )
    return x.reshape(-1, t.k, G2, G1)


def gpk_forward(x: np.ndarray, t: GpkTransform) -> np.ndarray:
    """Apply the factored transform to the trailing axis of x.

    Two contractions: V @ A for every block at once (A is shared, so one
    GEMM over all (rows * k * G2, G1) slices), then B_i @ (V @ A) per block.
    Cost is rows * N * (G1 + G2) multiply-adds.
    """
    lead = np.asarray(x).shape[:-1]
    v = _split_blocks(x, t)
    va = (v.reshape(-1, G1) @ t.a).reshape(v.shape)
    return np.matmul(t.b, va).reshape(*lead, t.n)


def gpk_inverse_forward(x: np.ndarray, t: GpkTransform) -> np.ndarray:
    """Apply the transform built from A^-1 and B_i^-1; inverts gpk_forward."""
    return gpk_forward(x, t.inverse())


class DecompositionKind(Enum):
    """Parameterizations of a size-N transform, by parameter-count formula."""

    FULL = "full"  # k dense g x g blocks
    NAIVE_KRONECKER = "naive-kronecker"  # per-block pairs (A_i, B_i)
    GPK = "gpk"  # shared A, private B_i
    GLOBAL_KRONECKER = "global-kronecker"  # one N x N map as two sqrt(N) factors


def param_count(kind: DecompositionKind, n: int, g: int, g1: int, g2: int) -> int:
    """Learnable parameter count of each decomposition at the given sizes."""
    if g1 * g2 != g:
        raise ShapeError(f"factor sizes g1*g2 = {g1 * g2} must equal g = {g}")
    if n % g != 0:
        raise ShapeError(f"feature dimension {n} is not a multiple of g = {g}")
    k = n // g
    if kind is DecompositionKind.FULL:
        return n * g
    if kind is DecompositionKind.NAIVE_KRONECKER:
        return k * (g1 * g1 + g2 * g2)
    if kind is DecompositionKind.GPK:
        return g1 * g1 + k * g2 * g2
    if kind is DecompositionKind.GLOBAL_KRONECKER:
        return 2 * n  # balanced sqrt(N) x sqrt(N) factor pair
    raise ValueError(f"unknown decomposition kind {kind!r}")


def block_hadamard(x: np.ndarray) -> np.ndarray:
    """Apply a normalized BLOCK x BLOCK Sylvester-Hadamard matrix to each MX block.

    Entries are +-1/sqrt(BLOCK); the matrix is symmetric and orthogonal, so
    it is its own inverse and preserves per-block L2 norms.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] % BLOCK != 0:
        raise ShapeError(f"trailing dimension {x.shape[-1]} is not a multiple of {BLOCK}")
    h = hadamard(BLOCK).astype(np.float64) / np.sqrt(BLOCK)
    lead = x.shape[:-1]
    y = x.reshape(-1, x.shape[-1] // BLOCK, BLOCK) @ h
    return y.reshape(*lead, x.shape[-1])
