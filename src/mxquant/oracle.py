"""Independent brute-force references for cross-checking the fast paths.

Nothing here calls into the modules it validates: the quantizer reference
enumerates the decoded grid per element, the transform and Hadamard
references build dense matrices entry by entry, and gradients come from
central finite differences.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError


def nearest_mx_oracle(values, fmt) -> np.ndarray:
    """Decode of the exhaustive nearest-grid quantization of one block.

    Scale exponent: floor(log2(max|v|)) - emax clamped to [-127, 127]
    (0 for an all-zero block). Each element then searches the entire
    decoded grid {+-magnitude * 2^exp}; ties between adjacent magnitudes
    go to the even value-set index.
    """
    v = [float(x) for x in values]
    maxabs = max(abs(x) for x in v)
    if maxabs == 0.0:
        exp = 0
    else:
        _, e = math.frexp(maxabs)
        exp = min(max(e - 1 - fmt.emax, -127), 127)

    grid = [math.ldexp(float(m), exp) for m in fmt.value_set]
    out = []
    for x in v:
        best_idx, best_d = 0, None
        for idx, c in enumerate(grid):
            d = abs(abs(x) - c)
            if best_d is None or d < best_d or (d == best_d and idx % 2 == 0 and best_idx % 2 == 1):
                best_idx, best_d = idx, d
        mag = grid[best_idx]
        out.append(-mag if math.copysign(1.0, x) < 0 else mag)
    return np.array(out)


def dense_block_matrices(t) -> np.ndarray:
    """Per-block dense matrices built entry-wise from the factor definition.

    Row-vector convention: entry [p*g1+q, r*g1+s] of block i is
    B_i[r, p] * A[q, s], so row-vec application reproduces B_i @ V @ A.
    """
    a = np.asarray(t.a, dtype=np.float64)
    b = np.asarray(t.b, dtype=np.float64)
    g1, g2, k = a.shape[0], b.shape[1], b.shape[0]
    g = g1 * g2
    dense = np.einsum("irp,qs->ipqrs", b, a).reshape(k, g, g)
    return dense


def dense_transform_oracle(x, t) -> np.ndarray:
    """Apply the block transform via explicitly assembled dense matrices."""
    dense = dense_block_matrices(t)
    k, g = dense.shape[0], dense.shape[1]
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != k * g:
        raise ShapeError(f"trailing dim {x.shape[-1]} != {k * g}")
    lead = x.shape[:-1]
    xb = x.reshape(-1, k, g)
    y = np.empty_like(xb)
    for i in range(k):
        y[:, i, :] = xb[:, i, :] @ dense[i]
    return y.reshape(*lead, k * g)


def nearest_mx_oracle_batch(blocks, fmt, chunk: int = 4096):
    """Vectorized exhaustive nearest-grid search over many 32-value blocks.

    Same rule as nearest_mx_oracle; distances are computed against every
    grid magnitude (no neighbor shortcut). Returns (decoded, codes) with
    codes packed as sign_bit << (bits-1) | index.
    """
    xb = np.asarray(blocks, dtype=np.float64)
    if xb.ndim != 2 or xb.shape[1] != 32:
        raise ShapeError(f"expected (n, 32) blocks, got {xb.shape}")
    values = np.asarray(fmt.value_set, dtype=np.float64)
    nv = len(values)
    decoded = np.empty_like(xb)
    codes = np.empty(xb.shape, dtype=np.uint8)

    for start in range(0, xb.shape[0], chunk):
        cb = xb[start : start + chunk]
        maxabs = np.abs(cb).max(axis=1)
        _, ex = np.frexp(maxabs)
        exp = np.clip(ex.astype(np.int64) - 1 - fmt.emax, -127, 127)
        exp[maxabs == 0.0] = 0
        grid = np.ldexp(values[None, :], exp[:, None])  # (c, nv)
        d = np.abs(np.abs(cb)[:, :, None] - grid[:, None, :])  # (c, 32, nv)
        first = d.argmin(axis=2)
        dmin = np.take_along_axis(d, first[..., None], axis=2)[..., 0]
        nxt = np.minimum(first + 1, nv - 1)
        d_next = np.take_along_axis(d, nxt[..., None], axis=2)[..., 0]
        # equidistant neighbors: move to the even index (they are adjacent)
        tie_up = (nxt != first) & (d_next == dmin) & (first % 2 == 1)
        idx = np.where(tie_up, nxt, first)
        mag = np.take_along_axis(grid[:, None, :], idx[..., None], axis=2)[..., 0]
        neg = np.signbit(cb)
        decoded[start : start + chunk] = np.where(neg, -mag, mag)
        codes[start : start + chunk] = (neg.astype(np.uint8) << fmt.sign_shift) | idx.astype(
            np.uint8
        )
    return decoded, codes


def hadamard_oracle(n: int) -> np.ndarray:
    """Sylvester-Hadamard matrix of order n built entry by entry.

    H[i, j] = (-1)^popcount(i & j): the sign flips once for each bit that
    row and column index share. For n a power of two this is the matrix the
    doubling construction builds.
    """
    return np.array([[(-1.0) ** bin(i & j).count("1") for j in range(n)] for i in range(n)])


def counted_gpk_forward(x, t):
    """Naive per-scalar contraction that counts every multiply-add.

    Returns (y, madd_count); used to pin the complexity of the fast path.
    """
    a, b = t.a, t.b
    g1, g2, k = t.g1, t.g2, t.k
    xb = np.asarray(x, dtype=np.float64).reshape(-1, k, g2, g1)
    rows = xb.shape[0]
    count = 0
    y = np.zeros_like(xb)
    t1 = np.zeros((g2, g1))
    for r in range(rows):
        for i in range(k):
            v = xb[r, i]
            t1[:] = 0.0
            for p in range(g2):
                for s in range(g1):
                    acc = 0.0
                    for q in range(g1):
                        acc += v[p, q] * a[q, s]
                        count += 1
                    t1[p, s] = acc
            for p in range(g2):
                for s in range(g1):
                    acc = 0.0
                    for q in range(g2):
                        acc += b[i, p, q] * t1[q, s]
                        count += 1
                    y[r, i, p, s] = acc
    return y.reshape(np.asarray(x).shape), count


def finite_diff_oracle(loss_fn, params: dict[str, np.ndarray], h: float = 1e-4):
    """Central-difference gradients of loss_fn over a dict of arrays."""
    grads = {}
    for name, p in params.items():
        p = np.asarray(p, dtype=np.float64)
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_fn(params)
            flat[j] = orig - h
            down = loss_fn(params)
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def bimodality_score(values) -> float:
    """Sarle's bimodality coefficient: (skewness^2 + 1) / kurtosis.

    Population moment estimators, so a symmetric two-point mass scores
    exactly 1.0 (the maximum) and a normal sample about 1/3.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size < 8:
        raise ShapeError(f"need at least 8 values for a bimodality score, got {v.size}")
    c = v - v.mean()
    m2 = np.mean(c * c)
    if m2 == 0.0:
        raise ShapeError("degenerate sample: zero variance")
    skew = np.mean(c**3) / m2**1.5
    kurt = np.mean(c**4) / (m2 * m2)
    return float((skew * skew + 1.0) / kurt)
