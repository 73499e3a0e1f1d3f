"""MX block floating-point formats and the block quantizer.

An MX format quantizes tensors in blocks of 32 elements along the innermost
axis. Each block carries one shared power-of-two scale (a UE8M0 exponent)
and 32 element codes drawn from a small floating-point value grid.

Scale rule (OCP convention): the block exponent is
``floor(log2(max|v|)) - emax`` clamped to [-127, 127], where emax is the
largest element exponent of the format. An all-zero block gets exponent 0.

Element rule: each value is divided by the scale and mapped to the nearest
magnitude in the format's value set, ties on exact midpoints going to the
even code index. Magnitudes above the largest grid value saturate.

A format is its bit layout plus a nan flag (E4M3's top code is NaN); the
value set is derived. With no infinities (OCP MX), binade e runs from
emin = 2 - 2^(exp_bits-1) to emax = 2^(exp_bits-1) and holds
2^mantissa_bits magnitudes with step 2^(e - mantissa_bits); subnormals
continue that step from 2^emin down to zero, and a NaN slot is left out.

Rounding is arithmetic, not a search. So for a scaled
magnitude r in binade e (subnormals use e = emin),
``n = rint(r * 2^(mantissa_bits - e))`` is the nearest grid multiple, and
``n + ((e - emin) << mantissa_bits)`` is its value-set index; n = 2^(m+1)
lands on the first entry of the next binade. Ties are exact midpoints,
where rint picks the even n, and the binade offset is even, so an even n is
an even index.

The binade step (e and n) is one float64 addition shared by encode and
qdq: the unit u = 2^(e - m + 52) has a float64 ulp of exactly the grid step
2^(e - m), and r < 2^(e+1) keeps r + u inside u's binade, so r + u rounds
(to nearest, ties to even) to u + n * 2^(e - m). Subtracting u leaves the
rounded magnitude n * 2^(e - m) exactly; the bits of r + u minus the bits
of u are n. Encode turns (e, n) into the index above and clamps it to the
top entry; qdq keeps the magnitude and clamps it to max_value. The two
clamps agree: index -> magnitude is increasing, and the first index past
the top entry (the excluded E4M3 NaN slot, or E2M1's n = 2^(m+1) in the top
binade) already lies above max_value. Either clamp is saturation.

The codec works on an (n_blocks, 32) float64 view of blocks(x), CHUNK blocks
at a time: its float temporaries are at most one chunk per busy thread,
whatever the tensor's size. Scaling by 2^e is a product with an exact power
of two, which rounds only where the result leaves the float64 normal range,
exactly as ldexp would.

One parallel runner serves the whole package: run_parts(sizes, body)
calls body(i) for every index of sizes, independent parts of one job.
run_chunks adapts it to chunk spans (the codec's and gpk_forward's loops)
and harness.calibrate_block passes it a block's linear sites. The rule:
- Budget. The CPU count (the process's affinity set, else os.cpu_count())
  and the number of helper threads in use live here, read and changed
  under one lock: free = CPUs - 1 - helpers in use. The budget counts
  helper threads only; each calling thread is taken to hold a CPU of its
  own, so threads that call the runner at the same time can keep more
  threads busy than there are CPUs. A call inside a running part (a codec
  loop inside a site's calibration) draws on the same budget.
- Cap. One call claims at most LOOP_HELPERS = 1 helper, and none on one
  CPU: each busy thread holds one part's temporaries, so one call adds at
  most one thread's worth to its caller's peak memory on any host, and a
  wider split is unmeasured.
- Split. The indices go into 1 + helpers groups balanced by size
  (_balanced_groups): largest first, each to the group with the smallest
  total so far. Equal-size chunks alternate between the groups. The caller
  runs group 0 and one threading.Thread each other group, under the
  caller's numpy error state; the call returns once all have ended, so no
  thread outlives it. The caller works rather than waits because each
  started thread gets its own malloc arena, and an idle caller would cost
  one more arena's peak memory.
- Errors. A group stops at its first failing index, and the error of the
  smallest failing index is raised after the join: every smaller index
  has run, as in a serial loop.
A call with one part runs inline without reading the budget. Each part's
arithmetic is the same on any thread, so the bits do not depend on the
CPU count.

Buffer rule: a public function writes only its own fresh arrays, or the
array a caller passes as ``out=`` (numpy-style: "write the result here";
it may be the input itself, for an in-place run). out_blocks checks it.

Decode is a table read. The OCP MX spec defines each element code by its
value, so code_values holds the signed value of every code (-0.0 for the
negative zero, NaN for E4M3's NaN codes): one gather, then one product with
2^scale_exp per block. That product is exact: |scale_exp| <= 127 and every
nonzero magnitude is at least 2^-9, so no result leaves the normal range.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteError, ShapeError

BLOCK = 32
CHUNK = 4096  # blocks per codec (and transform) pass: bounds one thread's float temporaries
LOOP_HELPERS = 1  # helper threads one run_parts call takes at most (module docstring)

_cpu_lock = threading.Lock()
_helpers_in_use = 0  # helper threads running for any caller in this process


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _balanced_groups(sizes: Sequence[int], n_groups: int) -> list[list[int]]:
    """Split the indices of sizes into n_groups groups of about equal total size.

    Largest item first, each item joins the group with the smallest total so
    far. Each group lists its indices in ascending order.
    """
    load = [0] * n_groups
    groups: list[list[int]] = [[] for _ in range(n_groups)]
    for i in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
        g = load.index(min(load))
        groups[g].append(i)
        load[g] += sizes[i]
    return [sorted(group) for group in groups]


def run_parts(sizes: Sequence[int], body: Callable[[int], None]) -> None:
    """Call body(i) for every index i of sizes, on the caller and on the
    helpers it claims, split by size (module docstring).

    A group stops at its first failing index. Once every group has ended,
    the error of the smallest failing index is raised.
    """
    if len(sizes) < 2:  # one part: the budget's per-call cost would show on small calls
        for i in range(len(sizes)):
            body(i)
        return
    global _helpers_in_use
    with _cpu_lock:
        helpers = max(0, min(len(sizes) - 1, LOOP_HELPERS, _cpu_count() - 1 - _helpers_in_use))
        _helpers_in_use += helpers
    errors: dict[int, Exception] = {}  # one key per failing group, so no lock
    err = np.geterr()

    def run(group):
        with np.errstate(**err):  # a started thread begins in numpy's default state
            for i in group:
                try:
                    body(i)
                except Exception as exc:  # re-raised by the caller, smallest index first
                    errors[i] = exc
                    return  # the group's later indices are larger

    groups = _balanced_groups(sizes, 1 + helpers)
    started = []
    try:
        for group in groups[1:]:
            t = threading.Thread(target=run, args=(group,))
            t.start()
            started.append(t)
        run(groups[0])
    finally:
        for t in started:
            t.join()
        with _cpu_lock:
            _helpers_in_use -= helpers
    if errors:
        raise errors[min(errors)]


def run_chunks(n: int, step: int, body: Callable[[int, int], None]) -> None:
    """Call body(s, min(s + step, n)) for every s in range(0, n, step), through
    run_parts with each span's length as its size."""
    starts = range(0, n, step)
    run_parts([min(step, n - s) for s in starts],
              lambda i: body(starts[i], min(starts[i] + step, n)))


def block_count(n: int, what: str = "feature dimension") -> int:
    """Number of MX blocks in an axis of n elements; what names the axis in errors.

    Raises ShapeError unless n is a positive multiple of BLOCK.
    """
    if n <= 0 or n % BLOCK != 0:
        raise ShapeError(f"{what} {n} is not a positive multiple of {BLOCK}")
    return n // BLOCK


def blocks(x, what: str = "trailing dimension") -> np.ndarray:
    """x as float64 MX blocks of shape (rows, k, BLOCK) along its last axis.

    Raises ShapeError naming x's shape and what (the axis) unless the last
    axis is a positive multiple of BLOCK; a scalar counts as width 0.
    """
    x = np.asarray(x, dtype=np.float64)
    k = block_count(x.shape[-1] if x.ndim else 0, f"shape {x.shape}: {what}")
    return x.reshape(-1, k, BLOCK)


def out_blocks(out, x) -> np.ndarray:
    """The (rows, k, BLOCK) view of the array that receives a result shaped like x.

    out None gives a fresh array. Otherwise out must be a C-contiguous
    float64 array of x's shape (it may be x itself); anything else raises
    ValueError, since reshaping it would copy and lose the writes.
    """
    shape = np.shape(x)
    if out is None:
        return blocks(np.empty(shape))
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}, got "
                         f"{out.dtype} {out.shape}")
    return blocks(out)


@dataclass(frozen=True)
class MxFormat:
    """An MX element format: a sign bit, exp_bits and mantissa_bits; nan marks
    the top code of the top binade as NaN. value_set, derived from the layout,
    holds the ascending magnitudes from 0.0; a code is ``sign << (bits-1) | index``.
    """

    name: str
    exp_bits: int
    mantissa_bits: int
    nan: bool = False

    @property
    def bits(self) -> int:
        return 1 + self.exp_bits + self.mantissa_bits

    @property
    def sign_shift(self) -> int:
        return self.bits - 1

    @property
    def emin(self) -> int:
        """Smallest normal element exponent (IEEE bias rule)."""
        return 2 - 2 ** (self.exp_bits - 1)

    @property
    def emax(self) -> int:
        """Largest element exponent: the top binade holds numbers, not infinities."""
        return 2 ** (self.exp_bits - 1)

    @cached_property
    def value_set(self) -> np.ndarray:
        m = self.mantissa_bits
        n = np.arange(1 << m, dtype=np.float64)
        grid = [n * 2.0 ** (self.emin - m)]  # zero and the subnormals
        grid += [(2**m + n) * 2.0 ** (e - m) for e in range(self.emin, self.emax + 1)]
        vs = np.concatenate(grid)[: (1 << self.sign_shift) - self.nan]
        vs.setflags(write=False)
        return vs

    @cached_property
    def code_values(self) -> np.ndarray:
        """The signed value of each of the 2^bits codes: entry ``sign << (bits-1) | i``
        is +-value_set[i]; the index past the value set (E4M3's NaN slot) is NaN."""
        half = np.full(1 << self.sign_shift, np.nan)
        half[: len(self.value_set)] = self.value_set
        table = np.concatenate([half, -half])
        table.setflags(write=False)
        return table

    @property
    def max_value(self) -> float:
        return float(self.value_set[-1])

    def __repr__(self):
        return f"MxFormat({self.name})"


E2M1 = MxFormat("e2m1", 2, 1)
E4M3 = MxFormat("e4m3", 4, 3, nan=True)


def format_for_bits(bits: int) -> MxFormat | None:
    """Map a site bit-width to its element format; 16 disables quantization."""
    if bits == 4:
        return E2M1
    if bits == 8:
        return E4M3
    if bits == 16:
        return None
    raise ValueError(f"unsupported bit-width {bits}; expected 4, 8 or 16")


def _bits_of(fmt: MxFormat | None) -> int:
    return 16 if fmt is None else fmt.bits


@dataclass(frozen=True)
class FormatConfig:
    """Per-site element formats; None means the site stays unquantized."""

    weights: MxFormat | None
    activations: MxFormat | None
    kv: MxFormat | None = None

    @classmethod
    def from_name(cls, name: str) -> "FormatConfig":
        """Parse a W{bits}A{bits}KV{bits} configuration name, e.g. W4A4KV16."""
        import re

        m = re.fullmatch(r"W(\d+)A(\d+)KV(\d+)", name.strip(), re.IGNORECASE)
        if m is None:
            raise ValueError(f"bad format name {name!r}; expected W<b>A<b>KV<b>")
        w, a, kv = (int(x) for x in m.groups())
        return cls(format_for_bits(w), format_for_bits(a), format_for_bits(kv))

    @property
    def name(self) -> str:
        return f"W{_bits_of(self.weights)}A{_bits_of(self.activations)}KV{_bits_of(self.kv)}"


@dataclass
class MxTensor:
    """A block-quantized tensor.

    Blocks run along the innermost axis in row-major order: block b covers
    flat elements [32*b, 32*(b+1)).
    """

    shape: tuple[int, ...]
    fmt: MxFormat
    scale_exps: np.ndarray  # int8, shape (n_blocks,)
    codes: np.ndarray  # uint8, shape (n_blocks, 32)

    @property
    def n_blocks(self) -> int:
        return self.scale_exps.shape[0]

    def to_dense(self) -> np.ndarray:
        """Decode to float64. Exact: a code_values lookup scaled by 2^scale_exp."""
        return _decode_blocks(self.scale_exps, self.codes, self.fmt).reshape(self.shape)


# -- block codec -----------------------------------------------------------


_EXP_FIELD = np.int64(0x7FF0000000000000)  # exponent bits of a float64


def _scaled_magnitudes(xb, fmt: MxFormat):
    """Block scale exponents and the magnitudes |v| / 2^scale, one per element.

    The block max of |v| runs on the int64 view of its bits, cheaper than a
    float max: with the sign bit clear, bits order like values, with inf
    above every finite value and NaN above inf, so _check_finite sees both.
    """
    r = np.abs(xb)
    maxabs = r.view(np.int64).max(axis=1).view(np.float64)
    _check_finite(maxabs)
    _, ex = np.frexp(maxabs)  # maxabs = m * 2^ex, m in [0.5, 1)
    se = np.clip(ex.astype(np.int64) - 1 - fmt.emax, -127, 127)
    se[maxabs == 0.0] = 0
    r *= np.ldexp(1.0, -se)[:, None]  # a power-of-two product: rounds as ldexp does
    return se, r


def _binade_round(r, fmt: MxFormat):
    """The binade step, in place: r += u with u = 2^(e - m + 52) per element.

    e is r's binade (emin for subnormals), so the sum rounds r to its grid,
    ties to even (see the module docstring). Returns u.
    """
    u = np.maximum(r, 2.0**fmt.emin)
    ui = u.view(np.int64)
    ui &= _EXP_FIELD
    ui += (52 - fmt.mantissa_bits) << 52
    r += u
    return u


def _encode_blocks(xb, fmt: MxFormat):
    m = fmt.mantissa_bits
    top = len(fmt.value_set) - 1
    scale_exps = np.empty(len(xb), dtype=np.int8)
    codes = np.empty(xb.shape, dtype=np.uint8)

    def chunk(s, e):
        xc = xb[s:e]
        se, r = _scaled_magnitudes(xc, fmt)
        ui = _binade_round(r, fmt).view(np.int64)
        idx = r.view(np.int64)
        idx -= ui  # n
        ui >>= 52  # biased exponent of u: e - m + 52 + 1023
        ui -= 1075 - m + fmt.emin
        ui <<= m
        idx += ui  # n + ((e - emin) << m)
        np.minimum(idx, top, out=idx)
        scale_exps[s:e] = se
        codes[s:e] = (np.signbit(xc).astype(np.uint8) << fmt.sign_shift) | idx

    run_chunks(len(xb), CHUNK, chunk)
    return scale_exps, codes


def _decode_blocks(scale_exps, codes, fmt: MxFormat):
    table = fmt.code_values
    lo = -len(table) if codes.dtype.kind == "i" else 0  # table[c] wraps c in [lo, 0)
    out = np.empty(codes.shape)

    def chunk(s, e):
        c = codes[s:e]
        # table[c]'s bounds: take's own check buffers out, so mode="wrap" skips it
        if c.max() >= len(table) or (lo and c.min() < lo):
            raise IndexError(f"a code is out of bounds for {len(table)} codes")
        np.take(table, c, out=out[s:e], mode="wrap")
        out[s:e] *= np.ldexp(1.0, scale_exps[s:e])[:, None]  # exact (module docstring)

    run_chunks(len(codes), CHUNK, chunk)
    return out


def _qdq_blocks(xb, fmt: MxFormat, out):
    """qdq of xb into out (both (n_blocks, BLOCK); out may be xb) and the in-range mask."""
    top = fmt.max_value
    mask = np.empty(xb.shape, dtype=bool)

    def chunk(s, e):
        xc = xb[s:e]
        se, r = _scaled_magnitudes(xc, fmt)
        np.less_equal(r, top, out=mask[s:e])
        r -= _binade_round(r, fmt)  # n * 2^(e - m)
        np.minimum(r, top, out=r)
        r *= np.ldexp(1.0, se)[:, None]
        np.copysign(r, xc, out=out[s:e])

    run_chunks(len(xb), CHUNK, chunk)
    return out, mask


def _check_finite(x):
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("non-finite values (NaN or inf) in quantizer input")


def quantize_block(values, fmt: MxFormat) -> MxTensor:
    """Quantize exactly 32 finite values to a one-block MxTensor."""
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (BLOCK,):
        raise ShapeError(f"a block holds exactly {BLOCK} elements, got shape {v.shape}")
    return quantize_tensor(v, fmt)


def dequantize_block(block: MxTensor) -> np.ndarray:
    """Decode a one-block MxTensor to its 32 float64 values."""
    return block.to_dense()


def quantize_tensor(x, fmt: MxFormat) -> MxTensor:
    """Quantize a dense tensor block-wise along its innermost axis."""
    se, codes = _encode_blocks(blocks(x, "innermost dimension").reshape(-1, BLOCK), fmt)
    return MxTensor(tuple(np.asarray(x).shape), fmt, se, codes)


def quantize_dequantize(x, fmt: MxFormat | None) -> np.ndarray:
    """Round-trip through the format (the RTN simulation). None is identity."""
    if fmt is None:
        return np.asarray(x, dtype=np.float64)
    y, _ = quantize_dequantize_with_mask(x, fmt)
    return y


def quantize_dequantize_with_mask(x, fmt: MxFormat, out=None):
    """Round-trip plus the in-range mask used by the straight-through pass.

    mask is False exactly where |v| / scale exceeds the largest grid value,
    i.e. where the element saturated. The round-trip is written into out
    when given (see out_blocks; out=x runs in place), else into a fresh array.
    On a NonFiniteError, out may hold the round-trip of any chunk but the
    bad one (chunks run concurrently), and its old values elsewhere.
    """
    x = np.asarray(x, dtype=np.float64)
    xb = blocks(x, "innermost dimension").reshape(-1, BLOCK)
    y, mask = _qdq_blocks(xb, fmt, out_blocks(out, x).reshape(-1, BLOCK))
    return y.reshape(x.shape), mask.reshape(x.shape)
