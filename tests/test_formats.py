import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mxquant as mq
from mxquant import formats
from mxquant.errors import NonFiniteError, ShapeError
from mxquant.formats import BLOCK, CHUNK, blocks
from mxquant.oracle import nearest_mx_oracle, nearest_mx_oracle_batch
from mxquant.transform import gpk_forward
from mxquant.verify import random_transform

from conftest import refuse_thread_start


class TestValueSets:
    def test_e2m1_magnitudes(self):
        assert mq.E2M1.value_set.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]

    def test_e4m3_grid(self):
        vs = mq.E4M3.value_set
        assert len(vs) == 127  # zero + 126 finite positive magnitudes, NaN code excluded
        assert vs[-1] == 448.0
        assert np.all(np.diff(vs) > 0)

    def test_grids_exactly_representable(self):
        # at most 1 + mantissa_bits significant bits per magnitude
        for fmt in (mq.E2M1, mq.E4M3):
            m, _ = np.frexp(fmt.value_set[1:])
            steps = 2 ** (1 + fmt.mantissa_bits)
            assert np.all(m * steps == np.floor(m * steps))

    def test_emax(self):
        assert mq.E2M1.emax == 2
        assert mq.E4M3.emax == 8

    @pytest.mark.parametrize("fmt, decode, n_codes", [
        # OCP E2M1, bias 1: field E = 0 is M/2, otherwise (1 + M/2) * 2^(E-1)
        (mq.E2M1, lambda e, m: m / 2 if e == 0 else (1 + m / 2) * 2.0 ** (e - 1), 8),
        # OCP E4M3, bias 7: E = 0 is M/8 * 2^-6, otherwise (1 + M/8) * 2^(E-7);
        # index 127 (E = 15, M = 7) is NaN
        (mq.E4M3, lambda e, m: m / 8 * 2.0**-6 if e == 0 else (1 + m / 8) * 2.0 ** (e - 7), 127),
    ], ids=["e2m1", "e4m3"])
    def test_value_set_decodes_bit_patterns(self, fmt, decode, n_codes):
        m_bits = fmt.mantissa_bits
        want = [decode(i >> m_bits, i & ((1 << m_bits) - 1)) for i in range(n_codes)]
        assert fmt.value_set.tolist() == want

    def test_formats_are_values(self):
        assert mq.MxFormat("e2m1", 2, 1) == mq.E2M1
        assert mq.MxFormat("e2m1", 2, 1, nan=True) != mq.E2M1
        assert {mq.E2M1: 4, mq.E4M3: 8}[mq.MxFormat("e4m3", 4, 3, nan=True)] == 8

    def test_format_for_bits(self):
        assert mq.format_for_bits(4) is mq.E2M1
        assert mq.format_for_bits(8) is mq.E4M3
        assert mq.format_for_bits(16) is None
        with pytest.raises(ValueError):
            mq.format_for_bits(6)


class TestQuantizeBlock:
    def test_all_zero_block(self):
        blk = mq.quantize_block(np.zeros(32), mq.E2M1)
        assert int(blk.scale_exps[0]) == 0
        assert np.all(mq.dequantize_block(blk) == 0.0)

    def test_single_six_exact(self):
        # floor(log2 6) - emax = 2 - 2 = 0, so 6.0 lands on the grid exactly
        v = np.zeros(32)
        v[0] = 6.0
        blk = mq.quantize_block(v, mq.E2M1)
        assert int(blk.scale_exps[0]) == 0
        dec = mq.dequantize_block(blk)
        assert dec[0] == 6.0
        assert np.array_equal(dec, nearest_mx_oracle(v, mq.E2M1))

    def test_on_grid_fixed_point(self, rng):
        v = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0], size=32)
        v[0] = 6.0  # pin the scale at 2^0
        blk = mq.quantize_block(v, mq.E2M1)
        assert np.array_equal(mq.dequantize_block(blk), v)

    def test_half_gap_error_bound(self, rng):
        # derived bound: in-range elements land within half the local grid gap
        for fmt in (mq.E2M1, mq.E4M3):
            v = rng.uniform(-6, 6, size=32)
            blk = mq.quantize_block(v, fmt)
            dec = mq.dequantize_block(blk)
            grid = np.ldexp(fmt.value_set, int(blk.scale_exps[0]))
            full = np.sort(np.concatenate([-grid, grid]))
            for x, d in zip(v, dec):
                if abs(x) > grid[-1]:  # saturated: clamps to the max magnitude
                    assert abs(d) == grid[-1]
                    continue
                j = np.searchsorted(full, x)
                j = min(max(j, 1), len(full) - 1)
                gap = full[j] - full[j - 1]
                assert abs(d - x) <= gap / 2 + 1e-15

    def test_nonfinite_rejected(self):
        v = np.zeros(32)
        v[3] = np.nan
        with pytest.raises(NonFiniteError):
            mq.quantize_block(v, mq.E2M1)
        v[3] = np.inf
        with pytest.raises(NonFiniteError):
            mq.quantize_block(v, mq.E2M1)

    def test_nonfinite_message_names_no_caller(self):
        # the quantizer serves calibration, stats and export alike
        with pytest.raises(NonFiniteError) as exc:
            mq.quantize_tensor(np.full((1, 32), np.nan), mq.E2M1)
        assert "calibration" not in str(exc.value)
        assert "non-finite" in str(exc.value)

    def test_wrong_length(self):
        with pytest.raises(ShapeError):
            mq.quantize_block(np.zeros(31), mq.E2M1)


def _bits(u):
    return np.array([u], dtype=np.uint64).view(np.float64)[0]


class TestBlockMax:
    """The block max of |v| behind every scale, seen through the public codec."""

    TINY = 5e-324  # the smallest subnormal
    HUGE = 1.7976931348623157e308  # the largest finite float64

    @staticmethod
    def reference_scales(x, fmt):
        # the OCP scale rule from a float max of |v|
        maxabs = np.abs(x).reshape(-1, 32).max(axis=1)
        se = np.clip(np.frexp(maxabs)[1] - 1 - fmt.emax, -127, 127)
        return np.where(maxabs == 0.0, 0, se)

    @pytest.mark.parametrize("fmt", [mq.E2M1, mq.E4M3], ids=lambda f: f.name)
    def test_scales_match_float_max(self, rng, fmt):
        x = np.zeros((9, 32))
        x[0, ::2] = -0.0  # +-0.0 only
        x[1] = 0.0  # all zero
        x[2, 7] = self.TINY
        x[3, [0, 31]] = [-self.TINY, -0.0]
        x[4, 5] = self.HUGE
        x[5, [3, 30]] = [-self.HUGE, 1.0]
        x[6] = rng.normal(size=32) * 1e-300
        x[7] = -np.abs(rng.normal(size=32)) * 1e300
        x[8] = rng.normal(size=32)
        assert np.signbit(x[0, 0]) and np.signbit(x[3, 0])
        got = mq.quantize_tensor(x.reshape(3, 96), fmt).scale_exps
        assert got.tolist() == self.reference_scales(x, fmt).tolist()
        assert got[[0, 1]].tolist() == [0, 0]
        assert got[2] == got[3] == -127  # clamped: 2^-1074 lies far below the scale range
        assert got[4] == got[5] == 127

    @pytest.mark.parametrize("slot", [0, 16, 31])
    @pytest.mark.parametrize(
        "bad",
        [np.nan, _bits(0xFFF8000000000000), _bits(0x7FF0000000000001),
         _bits(0xFFF0000000000001), np.inf, -np.inf],
        ids=["nan", "negative-nan", "smallest-nan", "negative-smallest-nan", "inf", "-inf"],
    )
    def test_nonfinite_in_any_slot_rejected(self, rng, slot, bad):
        x = rng.normal(size=(2, 64))
        x[1, 32 + slot] = bad
        assert not np.isfinite(x[1, 32 + slot]) and np.signbit(x[1, 32 + slot]) == np.signbit(bad)
        for call in (mq.quantize_tensor, mq.quantize_dequantize_with_mask):
            with pytest.raises(NonFiniteError):
                call(x, mq.E2M1)

    def test_zero_rows_qdq_stays_empty(self):
        y = mq.quantize_dequantize(np.zeros((0, 64)), mq.E2M1)
        assert y.shape == (0, 64)


class TestQuantizeTensor:
    def test_block_count(self, rng):
        t = mq.quantize_tensor(rng.normal(size=(2, 64)), mq.E2M1)
        assert t.n_blocks == 4
        assert t.shape == (2, 64)

    def test_shape_error_names_dimension(self):
        with pytest.raises(ShapeError, match="48"):
            mq.quantize_tensor(np.zeros((2, 48)), mq.E2M1)

    def test_blocks_view(self, rng):
        x = rng.normal(size=(2, 3, 64))
        xb = blocks(x)
        assert xb.shape == (6, 2, 32)
        assert np.array_equal(xb[4, 1], x[1, 1, 32:])
        with pytest.raises(ShapeError, match=re.escape("shape (2, 33): trailing dimension 33")):
            blocks(np.zeros((2, 33)))

    def test_per_block_independence(self, rng):
        x = rng.normal(size=(2, 64))
        base = mq.quantize_tensor(x, mq.E2M1)
        x2 = x.copy()
        x2[1, 32:] += 100.0  # only the last block changes
        pert = mq.quantize_tensor(x2, mq.E2M1)
        assert np.array_equal(base.codes[:3], pert.codes[:3])
        assert np.array_equal(base.scale_exps[:3], pert.scale_exps[:3])
        assert not np.array_equal(base.codes[3], pert.codes[3])

    def test_e4m3_beats_e2m1_on_uniform(self, rng):
        x = rng.uniform(-1, 1, size=(64, 128))
        err4 = np.mean((mq.quantize_dequantize(x, mq.E2M1) - x) ** 2)
        err8 = np.mean((mq.quantize_dequantize(x, mq.E4M3) - x) ** 2)
        assert err8 < err4

    def test_round_trip_matches_block_api(self, rng):
        x = rng.normal(size=(3, 64))
        t = mq.quantize_tensor(x, mq.E4M3)
        dense = t.to_dense()
        for b in range(t.n_blocks):
            blk = mq.MxTensor((32,), mq.E4M3, t.scale_exps[b : b + 1], t.codes[b : b + 1])
            assert np.array_equal(dense.reshape(-1, 32)[b], mq.dequantize_block(blk))

    def test_qdq_equals_decode_of_encode(self, rng):
        x = rng.normal(size=(8, 96)) * 37.0
        for fmt in (mq.E2M1, mq.E4M3):
            direct = mq.quantize_dequantize(x, fmt)
            via_codes = mq.quantize_tensor(x, fmt).to_dense()
            assert np.array_equal(direct, via_codes)
        # scales across 12 decades, zero blocks and both ends of the exponent clamp
        x = rng.normal(size=(800, 32)) * 10.0 ** rng.uniform(-6, 6, size=(800, 1))
        x[0] = 0.0
        x[1, :16] = 0.0
        x[2] = np.ldexp(rng.normal(size=32), 120)
        x[3] = np.ldexp(rng.normal(size=32), -120)
        for fmt in (mq.E2M1, mq.E4M3):
            y, mask = mq.quantize_dequantize_with_mask(x, fmt)
            t = mq.quantize_tensor(x, fmt)
            assert y.tobytes() == t.to_dense().tobytes()
            r = np.abs(np.ldexp(x, -t.scale_exps.astype(np.int64)[:, None]))
            assert np.array_equal(mask, r <= fmt.max_value)

    def test_tie_to_even(self):
        # 0.75 is the exact midpoint of 0.5 and 1.0; index 1 vs 2 -> even wins
        x = np.zeros(32)
        x[0] = 6.0  # pins scale_exp at 0
        x[1] = 0.75
        x[2] = -0.75
        x[3] = 1.25  # midpoint of 1.0 (idx 2) and 1.5 (idx 3): even wins -> 1.0
        t = mq.quantize_tensor(x, mq.E2M1)
        assert t.scale_exps[0] == 0
        assert t.codes[0, 1] == 2  # 1.0
        assert t.codes[0, 2] == 8 | 2  # -1.0
        assert t.codes[0, 3] == 2  # 1.0

    @pytest.mark.parametrize("fmt", [mq.E2M1, mq.E4M3], ids=lambda f: f.name)
    def test_adversarial_rounding_matches_oracle(self, rng, fmt):
        # grid points, midpoints, their float64 neighbours, values past the
        # top magnitude and zeros, with random signs
        vs = fmt.value_set
        top = 2.0 ** (fmt.emax + 1)  # past it the block scale moves
        pts = np.concatenate([vs, (vs[1:] + vs[:-1]) / 2, np.linspace(vs[-1], top, 9)[1:-1]])
        pts = np.concatenate([pts, np.nextafter(pts, np.inf), np.nextafter(pts, 0.0), np.zeros(8)])
        pts = pts[pts < top]
        n = 4096
        x = rng.choice(pts, size=(n, 32)) * rng.choice([-1.0, 1.0], size=(n, 32))
        x[: n // 2, 0] = vs[-1]  # pin half the blocks at scale exponent 0
        x[n // 4 : n // 2, 0] = np.nextafter(top, 0.0)  # largest value at scale 0
        x = np.ldexp(x, rng.integers(-20, 21, size=(n, 1)))  # exact: shifts the scale only
        x[-1] = 0.0
        x[-2, :16] = -0.0
        dec, codes = nearest_mx_oracle_batch(x, fmt)
        t = mq.quantize_tensor(x, fmt)
        assert np.array_equal(t.codes, codes)
        assert mq.quantize_dequantize(x, fmt).tobytes() == dec.tobytes()
        # the straight-through mask is the documented r <= max_value, with the
        # block scale written out here rather than taken from the codec
        maxabs = np.abs(x).max(axis=1)
        se = np.clip(np.frexp(maxabs)[1].astype(np.int64) - 1 - fmt.emax, -127, 127)
        se[maxabs == 0.0] = 0
        r = np.abs(np.ldexp(x, -se[:, None]))
        y, mask = mq.quantize_dequantize_with_mask(x, fmt)
        assert np.array_equal(mask, r <= fmt.max_value)
        assert not mask[n // 4 : n // 2, 0].any()  # just below 2**(emax+1) saturates
        assert mask[-2, :16].all() and np.signbit(y[-2, :16]).all()  # -0.0 stays -0.0

    def test_qdq_none_is_identity(self, rng):
        x = rng.normal(size=(4, 32))
        assert mq.quantize_dequantize(x, None) is not None
        assert np.array_equal(mq.quantize_dequantize(x, None), x)


def _ldexp_decode(scale_exps, codes, fmt):
    """The decode before the code table: value-set gather, ldexp, then the sign."""
    idx = codes & ((1 << fmt.sign_shift) - 1)
    out = np.ldexp(fmt.value_set[idx], scale_exps.astype(np.int64)[:, None])
    return np.where((codes >> fmt.sign_shift) != 0, -out, out)


class TestDecode:
    @pytest.mark.parametrize("fmt", [mq.E2M1, mq.E4M3], ids=lambda f: f.name)
    def test_every_code_at_every_scale_matches_ldexp(self, fmt):
        # every code outside E4M3's NaN slot, at every scale exponent in [-127, 127]
        codes = np.arange(1 << fmt.bits)
        codes = codes[(codes & ((1 << fmt.sign_shift) - 1)) < len(fmt.value_set)]
        row = np.resize(codes, -(-len(codes) // 32) * 32).astype(np.uint8)  # whole blocks
        exps = np.arange(-127, 128)
        t = mq.MxTensor((len(exps), len(row)), fmt,
                        np.repeat(exps, len(row) // 32).astype(np.int8),
                        np.tile(row, len(exps)).reshape(-1, 32))
        want = _ldexp_decode(t.scale_exps, t.codes, fmt).reshape(t.shape)
        assert t.to_dense().tobytes() == want.tobytes()

    def test_a_code_past_the_table_raises(self):
        codes = np.zeros((2, 32), dtype=np.uint8)
        codes[1, 3] = 1 << mq.E2M1.bits  # a uint8 holds it; the 4-bit table does not
        t = mq.MxTensor((64,), mq.E2M1, np.zeros(2, dtype=np.int8), codes)
        with pytest.raises(IndexError):
            t.to_dense()

    def test_negative_codes_raise(self):
        # a hand-built tensor's signed codes: 0 .. n - 1 decode as the table, and any
        # negative one raises, within table[c]'s wrap range [-n, 0) or below it
        n = len(mq.E2M1.code_values)
        codes = np.arange(64, dtype=np.int16).reshape(2, 32) % n  # 0 .. n - 1
        t = mq.MxTensor((64,), mq.E2M1, np.zeros(2, dtype=np.int8), codes)
        assert t.to_dense().tobytes() == mq.E2M1.code_values[codes].reshape(64).tobytes()
        for bad in (-1, -n, -n - 1):
            codes[1, 3] = bad
            with pytest.raises(IndexError, match=f"out of bounds for {n} codes"):
                t.to_dense()

    @pytest.mark.parametrize("fmt", [mq.E2M1, mq.E4M3], ids=lambda f: f.name)
    def test_code_values_table(self, fmt):
        table = fmt.code_values
        half = 1 << fmt.sign_shift
        assert table.shape == (1 << fmt.bits,)
        n = len(fmt.value_set)
        assert table[:n].tobytes() == fmt.value_set.tobytes()
        assert table[half:half + n].tobytes() == (-fmt.value_set).tobytes()
        assert table[0] == 0.0 and not np.signbit(table[0])
        assert table[half] == 0.0 and np.signbit(table[half])  # -0.0
        want_nan = [0x7F, 0xFF] if fmt is mq.E4M3 else []
        assert np.flatnonzero(np.isnan(table)).tolist() == want_nan
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 7.0


class TestChunkRunner:
    """run_split, through run_chunks, runs the chunks of the codec and of gpk_forward
    on the caller and at most one helper thread per process; the bits never depend on
    the CPU count."""

    @pytest.fixture
    def cpus(self, patch_cpus):
        """conftest's patch_cpus, with frequent thread switches, so that chunks
        interleave."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield patch_cpus
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _tensor(n_chunks):
        # 4 blocks per row, so gpk_forward's chunks (CHUNK // 4 rows) are the codec's
        rng = np.random.default_rng(n_chunks)
        rows = n_chunks * CHUNK // 4
        return rng.normal(size=(rows, 128)) * rng.lognormal(0.0, 2.0, size=(rows, 1))

    @staticmethod
    def _outputs(x, t):
        out = []
        for fmt in (mq.E2M1, mq.E4M3):
            q = mq.quantize_tensor(x, fmt)
            out += [q.scale_exps, q.codes, q.to_dense(), *mq.quantize_dequantize_with_mask(x, fmt)]
        return [a.tobytes() for a in out + [gpk_forward(x, t)]]

    @pytest.mark.parametrize("n_chunks", [1, 2, 9])
    def test_bits_do_not_depend_on_the_cpu_count(self, cpus, n_chunks):
        x = self._tensor(n_chunks)
        t = random_transform(np.random.default_rng(5), 128)
        started = cpus(1)
        want = self._outputs(x, t)
        assert started == []  # one CPU: every loop is the serial loop
        for n in (2, 4, 8):
            cpus(n)
            threads = threading.active_count()
            assert self._outputs(x, t) == want, n
            assert threading.active_count() == threads
        assert not any(t.is_alive() for t in started)
        # 7 runner calls (2 encodes, 2 decodes, 2 qdqs, gpk_forward) at each of 2, 4 and
        # 8 CPUs, one helper per loop at most, and none for a one-chunk loop
        assert len(started) == 3 * 7 * min(1, n_chunks - 1)

    @pytest.mark.parametrize("cpus_n", [1, 2, 8])
    def test_nonfinite_in_a_helper_chunk_raises(self, cpus, cpus_n):
        x = self._tensor(9)
        # in chunk 7: the helper runs chunks 5-8 of 9 unless there is one CPU
        x[7 * CHUNK // 4, 7] = np.nan
        started = cpus(cpus_n)
        threads = threading.active_count()
        out = np.zeros_like(x)
        for call in (lambda: mq.quantize_tensor(x, mq.E2M1),
                     lambda: mq.quantize_dequantize_with_mask(x, mq.E4M3, out=out)):
            with pytest.raises(NonFiniteError):
                call()
            assert threading.active_count() == threads
        assert len(started) == 2 * min(1, cpus_n - 1)
        assert not out[7 * CHUNK // 4:8 * CHUNK // 4].any()  # the bad chunk's is never written

    @pytest.mark.parametrize("cpus_n", [1, 2, 4])
    def test_first_failing_span_in_span_order_raises(self, cpus, cpus_n):
        # 9 spans; above 1 CPU the caller runs spans 0-4 and the helper 5-8, each stopping
        # at its first failing span. With spans 1, 4 and 7 failing, the caller stops at
        # span 1 and the helper at span 7, and span 1 is raised; with spans 6 and 7, the
        # caller runs all of its spans and the helper's first failure is raised
        cpus(cpus_n)
        for failing, first, ran in (((1, 4, 7), 1, [0, 5, 6]), ((6, 7), 6, [0, 1, 2, 3, 4, 5])):
            done = []

            def body(s, e):
                if s // 2 in failing:
                    raise ValueError(f"span {s // 2}")
                done.append((s, e))

            threads = threading.active_count()
            with pytest.raises(ValueError, match=f"^span {first}$"):
                formats.run_chunks(17, 2, body)
            assert threading.active_count() == threads
            want = [i for i in ran if cpus_n > 1 or i < first]
            assert sorted(done) == [(2 * i, 2 * i + 2) for i in want]

    @pytest.mark.parametrize("n_spans", [2, 9, 10])
    def test_each_thread_runs_one_contiguous_run_in_order(self, cpus, n_spans):
        # the caller runs the first half of the spans (one more on an odd count) and the
        # helper the rest, each in span order
        started = cpus(2)
        ran = []
        formats.run_chunks(3 * n_spans - 1, 3, lambda s, e: ran.append((s, e, threading.get_ident())))
        h = (n_spans + 1) // 2
        caller = [(s, e) for s, e, who in ran if who == threading.get_ident()]
        helper = [(s, e) for s, e, who in ran if who != threading.get_ident()]
        spans = [(s, min(s + 3, 3 * n_spans - 1)) for s in range(0, 3 * n_spans - 1, 3)]
        assert caller == spans[:h] and helper == spans[h:]
        assert len(started) == 1 and not started[0].is_alive()

    @pytest.mark.parametrize("cpus_n", [2, 8])
    def test_a_call_while_the_helper_runs_is_serial(self, cpus, cpus_n):
        # one thread's call holds the helper until its second half is released; a
        # second call meanwhile runs first() then second() on its own caller and starts
        # no thread
        started = cpus(cpus_n)
        entered, release = threading.Event(), threading.Event()
        held_by = []

        def second():
            held_by.append(threading.current_thread())
            entered.set()
            assert release.wait(10)

        outer = threading.Thread(target=formats.run_split, args=(lambda: None, second))
        outer.start()
        try:
            assert entered.wait(10)
            ran = []
            formats.run_split(lambda: ran.append(("first", threading.get_ident())),
                              lambda: ran.append(("second", threading.get_ident())))
        finally:
            release.set()
            outer.join(10)
        assert not outer.is_alive()
        assert ran == [("first", threading.get_ident()), ("second", threading.get_ident())]
        assert len(started) == 2 and held_by == [started[1]]  # the outer call split

    @pytest.mark.parametrize("adapter, args, spans", [
        ("run_chunks", (17, 2), [(s, min(s + 2, 17)) for s in range(0, 17, 2)]),
        ("run_chunks", (10, 3), [(0, 3), (3, 6), (6, 9), (9, 10)]),
        ("run_chunks", (3, 4), [(0, 3)]),
        ("run_halves", (1025, 2 * CHUNK * BLOCK), [(0, 513), (513, 1025)]),
        ("run_halves", (2, 2 * CHUNK * BLOCK), [(0, 1), (1, 2)]),
        ("run_halves", (1025, 2 * CHUNK * BLOCK - 1), [(0, 1025)]),
        ("run_halves", (1, 2 * CHUNK * BLOCK), [(0, 1)]),
    ])
    def test_spans_depend_only_on_the_sizes(self, cpus, monkeypatch, adapter, args, spans):
        # one CPU, two, the helper held and no thread able to start run the same body
        # calls; the serial cases run them in order on the caller
        got = {}
        for mode in ("1 cpu", "2 cpus", "helper held", "no thread can start"):
            started = cpus(1 if mode == "1 cpu" else 2)
            del started[:]
            ran = []
            with monkeypatch.context() as m:
                if mode == "no thread can start":
                    m.setattr(threading.Thread, "start", refuse_thread_start)
                if mode == "helper held":
                    assert formats._helper.acquire(blocking=False)
                try:
                    getattr(formats, adapter)(*args, lambda s, e: ran.append(
                        (s, e, threading.get_ident())))
                finally:
                    if mode == "helper held":
                        formats._helper.release()
            assert not formats._helper.locked()
            assert len(started) == (1 if mode == "2 cpus" and len(spans) > 1 else 0)
            got[mode] = sorted((s, e) for s, e, _ in ran)
            if mode != "2 cpus":
                assert ran == [(s, e, threading.get_ident()) for s, e in spans], mode
        assert got == dict.fromkeys(got, spans)

    def test_no_thread_can_start(self, cpus, monkeypatch):
        # the codec and gpk_forward on 9 chunks give the bytes of a split run when
        # threading.Thread.start raises, and leave the helper free
        x = self._tensor(9)
        t = random_transform(np.random.default_rng(5), 128)
        cpus(2)
        want = self._outputs(x, t)
        monkeypatch.setattr(threading.Thread, "start", refuse_thread_start)
        assert self._outputs(x, t) == want
        assert not formats._helper.locked()

    def test_helpers_run_under_the_callers_error_state(self, cpus):
        # the last of 2 spans runs on a helper at 2 CPUs; numpy's error state is
        # per thread, and a warning is an error under this suite's filter
        cpus(2)

        def body(s, e):
            if e == 2:
                np.divide(np.ones(1), np.zeros(1))

        with np.errstate(divide="ignore"):
            formats.run_chunks(2, 1, body)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            formats.run_chunks(2, 1, body)


class TestInvariants:
    def test_oracle_equivalence_sample(self, rng):
        for fmt in (mq.E2M1, mq.E4M3):
            blocks = rng.normal(size=(3000, 32)) * 10.0 ** rng.uniform(-4, 4, size=(3000, 1))
            t = mq.quantize_tensor(blocks, fmt)
            dec, codes = nearest_mx_oracle_batch(blocks, fmt)
            assert np.array_equal(t.codes, codes)
            assert t.to_dense().tobytes() == dec.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(j=st.integers(min_value=-100, max_value=100), seed=st.integers(0, 1000))
    def test_scale_monotonicity(self, j, seed):
        # scaling the block by 2^j shifts the exponent by j, codes untouched
        v = np.random.default_rng(seed).normal(size=32)
        base = mq.quantize_block(v, mq.E2M1)
        shifted = mq.quantize_block(np.ldexp(v, j), mq.E2M1)
        assert int(shifted.scale_exps[0]) == int(base.scale_exps[0]) + j
        assert np.array_equal(shifted.codes[0], base.codes[0])

    def test_determinism(self, rng):
        v = rng.normal(size=(100, 32))
        a = mq.quantize_tensor(v, mq.E4M3)
        b = mq.quantize_tensor(v, mq.E4M3)
        assert a.scale_exps.tobytes() == b.scale_exps.tobytes()
        assert a.codes.tobytes() == b.codes.tobytes()

    def test_decoded_magnitude_bounded_by_scale(self, rng):
        v = rng.normal(size=32) * 1e6
        blk = mq.quantize_block(v, mq.E2M1)
        dec = mq.dequantize_block(blk)
        assert np.all(np.abs(dec) <= np.ldexp(mq.E2M1.max_value, int(blk.scale_exps[0])))


class TestFormatConfig:
    def test_parse(self):
        fc = mq.FormatConfig.from_name("W4A8KV16")
        assert fc.weights is mq.E2M1
        assert fc.activations is mq.E4M3
        assert fc.kv is None
        assert fc.name == "W4A8KV16"

    def test_bad_names(self):
        with pytest.raises(ValueError):
            mq.FormatConfig.from_name("W4A4")
        with pytest.raises(ValueError):
            mq.FormatConfig.from_name("W3A4KV16")
