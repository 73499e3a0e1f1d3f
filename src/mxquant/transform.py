"""Block-diagonal affine transforms factored as shared x private Kronecker products.

A transform acts on the trailing axis of size N = k * g, independently on
each g-sized block (g = g1 * g2). Block i's map, in matrix form, sends the
block reshaped to a (g2, g1) slice V (g1 fastest-varying) to B_i @ V @ A:
a right-contraction with the shared global factor A followed by a
left-contraction with the block's private factor B_i.

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

COND_LIMIT = 1e8  # factors beyond this are treated as singular


@dataclass
class GpkTransform:
    """Factored block-diagonal transform: one global A, k private B_i.

    a: (g1, g1) shared factor; b: (k, g2, g2) private factors.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ShapeError(f"global factor must be square, got {self.a.shape}")
        if self.b.ndim != 3 or self.b.shape[1] != self.b.shape[2]:
            raise ShapeError(f"private factors must be (k, g2, g2), got {self.b.shape}")

    @property
    def g1(self) -> int:
        return self.a.shape[0]

    @property
    def g2(self) -> int:
        return self.b.shape[1]

    @property
    def g(self) -> int:
        return self.g1 * self.g2

    @property
    def k(self) -> int:
        return self.b.shape[0]

    @property
    def n(self) -> int:
        return self.k * self.g

    @classmethod
    def identity(cls, n: int, g1: int = 8, g2: int = 4) -> "GpkTransform":
        g = g1 * g2
        if n % g != 0:
            raise ShapeError(f"feature dimension {n} is not a multiple of g = {g}")
        k = n // g
        return cls(np.eye(g1), np.broadcast_to(np.eye(g2), (k, g2, g2)).copy())

    def check_invertible(self) -> None:
        """Raise SingularTransformError if any factor is non-finite or near-singular."""
        # np.linalg.cond raises on NaN (its SVD does not converge): test finiteness first
        ca = np.linalg.cond(self.a) if np.all(np.isfinite(self.a)) else np.nan
        if not ca <= COND_LIMIT:
            raise SingularTransformError(None, ca)
        finite = np.all(np.isfinite(self.b), axis=(1, 2))
        cb = np.linalg.cond(np.where(finite[:, None, None], self.b, np.eye(self.g2)))
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
            f"(k={t.k}, g={t.g})"
        )
    return x.reshape(-1, t.k, t.g2, t.g1)


def gpk_forward(x: np.ndarray, t: GpkTransform) -> np.ndarray:
    """Apply the factored transform to the trailing axis of x.

    Two contractions: V @ A for every block at once (A is shared, so one
    GEMM over all (rows * k * g2, g1) slices), then B_i @ (V @ A) per block.
    Cost is rows * N * (g1 + g2) multiply-adds.
    """
    lead = np.asarray(x).shape[:-1]
    v = _split_blocks(x, t)
    va = (v.reshape(-1, t.g1) @ t.a).reshape(v.shape)
    return np.matmul(t.b, va).reshape(*lead, t.n)


def gpk_inverse_forward(x: np.ndarray, t: GpkTransform) -> np.ndarray:
    """Apply the transform built from A^-1 and B_i^-1; inverts gpk_forward."""
    return gpk_forward(x, t.inverse())


def madd_count(rows: int, t: GpkTransform) -> int:
    """Exact multiply-add count of gpk_forward on a (rows, N) input."""
    return rows * t.n * (t.g1 + t.g2)


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


def block_hadamard(x: np.ndarray, g: int) -> np.ndarray:
    """Apply a normalized g x g Sylvester-Hadamard matrix to each g-slice.

    Entries are +-1/sqrt(g); the matrix is symmetric and orthogonal, so it
    is its own inverse and preserves per-block L2 norms.
    """
    if g <= 0 or g & (g - 1):
        raise ShapeError(f"block size {g} is not a power of two")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] % g != 0:
        raise ShapeError(f"trailing dimension {x.shape[-1]} is not a multiple of {g}")
    h = hadamard(g).astype(np.float64) / np.sqrt(g)
    lead = x.shape[:-1]
    y = x.reshape(-1, x.shape[-1] // g, g) @ h
    return y.reshape(*lead, x.shape[-1])
