import argparse
import os
import re
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import mxquant as mq
from conftest import nan_factor_gradient_on_call, refuse_thread_start, traced_peak
from mxquant import cli, formats, io, verify
from mxquant.cli import _build_parser, main
from mxquant.errors import FileFormatError
from mxquant.formats import CHUNK
from mxquant.harness import build_toy_block, calibrate_block, simulate_block
from mxquant.verify import check_quantizer, random_transform


def _write_unchecked(write, path, *args):
    """Call an io writer with its finiteness check off, so that it writes the non-finite
    file another program could, for a reader's own check to reject."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(io, "_check_finite", lambda *_: None)
        write(path, *args)


def _start_clips(k):
    """Activation and weight clip logits at the start logit, as every record carries."""
    return mq.ClipParams.init(k), mq.ClipParams.init(k)


class TestTensorFile:
    def test_f32_round_trip(self, tmp_path, rng):
        x = rng.normal(size=(3, 5, 64)).astype(np.float32).astype(np.float64)
        p = tmp_path / "x.mxbt"
        io.write_tensor(p, x)
        assert np.array_equal(io.read_tensor(p), x)

    @pytest.mark.parametrize("fmt", [mq.E2M1, mq.E4M3], ids=lambda f: f.name)
    def test_mx_round_trip(self, tmp_path, rng, fmt):
        t = mq.quantize_tensor(rng.normal(size=(4, 96)) * 11, fmt)
        p = tmp_path / "q.mxbt"
        io.write_tensor(p, t)
        r = io.read_tensor(p)
        assert r.shape == t.shape and r.fmt is fmt
        assert np.array_equal(r.scale_exps, t.scale_exps)
        assert np.array_equal(r.codes, t.codes)
        assert np.array_equal(r.to_dense(), t.to_dense())

    def test_write_read_write_is_byte_stable(self, tmp_path, rng):
        t = mq.quantize_tensor(rng.normal(size=(2, 64)), mq.E2M1)
        p1, p2 = tmp_path / "a.mxbt", tmp_path / "b.mxbt"
        io.write_tensor(p1, t)
        io.write_tensor(p2, io.read_tensor(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_nibble_order_documented_low_first(self, tmp_path):
        x = np.zeros(32)
        x[0], x[1] = 6.0, 1.0  # codes 7 and 2 at scale 2^0
        t = mq.quantize_tensor(x[None, :], mq.E2M1)
        p = tmp_path / "n.mxbt"
        io.write_tensor(p, t)
        raw = p.read_bytes()
        header = 8 + 4 * 2  # magic/version/dtype/rank + two dims
        assert raw[header] == struct.pack("<b", 0)[0]  # scale_exp 0
        first_byte = raw[header + 1]
        assert first_byte & 0x0F == 7  # code of 6.0 in the low nibble
        assert first_byte >> 4 == 2  # code of 1.0 in the high nibble

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n_blocks", [1, CHUNK, 2 * CHUNK + 5],
                             ids=["1", "CHUNK", "2CHUNK+5"])
    @pytest.mark.parametrize("fmt", [mq.E2M1, mq.E4M3], ids=lambda f: f.name)
    def test_body_is_the_documented_layout(self, tmp_path, monkeypatch, rng, fmt, n_blocks,
                                           cpus):
        # every valid code (16 for e2m1; 254 for e4m3, all but the two NaN codes) and
        # every scale exponent, against a packing of the layout built here
        monkeypatch.setattr(mq.formats, "_cpu_count", lambda: cpus)
        valid = np.array([c for c in range(1 << fmt.bits)
                          if c & ((1 << fmt.sign_shift) - 1) < len(fmt.value_set)], np.uint8)
        assert len(valid) == {4: 16, 8: 254}[fmt.bits]
        codes = rng.choice(valid, size=(n_blocks, 32))
        head = min(len(valid), codes.size)
        codes.reshape(-1)[:head] = valid[:head]
        scale_exps = rng.integers(-127, 128, size=n_blocks).astype(np.int8)
        scale_exps[: min(255, n_blocks)] = np.arange(-127, 128)[: min(255, n_blocks)]
        t = mq.MxTensor((n_blocks, 32), fmt, scale_exps, codes)
        p = tmp_path / "l.mxbt"
        io.write_tensor(p, t)

        packed = codes[:, 0::2] | codes[:, 1::2] << 4 if fmt.bits == 4 else codes
        blocks = [bytes([e & 0xFF]) + bytes(c) for e, c in zip(scale_exps.tolist(), packed)]
        raw = p.read_bytes()
        head_size = 8 + 4 * 2
        assert raw[:head_size] == b"MXBT" + struct.pack("<HBB2I", 1, io._TAGS[fmt], 2,
                                                        n_blocks, 32)
        assert raw[head_size:] == b"".join(blocks)
        r = io.read_tensor(p)
        assert r.shape == t.shape and r.fmt is fmt
        assert r.scale_exps.dtype == np.int8 and np.array_equal(r.scale_exps, scale_exps)
        assert r.codes.dtype == np.uint8 and np.array_equal(r.codes, codes)
        assert r.to_dense().tobytes() == t.to_dense().tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("side", ["writer", "reader"])
    def test_first_nonfinite_in_a_later_chunk_named_by_global_index(self, tmp_path,
                                                                    monkeypatch, rng, side,
                                                                    cpus):
        # 9 chunks of CHUNK blocks' values: at 2 CPUs the helper thread runs the contiguous
        # chunks h-8 with h = (9 + 1) // 2 = 5, chunk 7 among them
        span = CHUNK * 32
        sizes = [span] * 8 + [100]
        assert (len(sizes) + 1) // 2 <= 7 < len(sizes)
        monkeypatch.setattr(mq.formats, "_cpu_count", lambda: cpus)
        p = tmp_path / "x.mxbt"
        for bad in ([7 * span + 5], [7 * span + 5, 2 * span + 3]):
            x = rng.normal(size=sum(sizes))
            x[bad] = np.nan
            message = f"{p}: non-finite value nan at element {min(bad)}"
            if side == "writer":
                with pytest.raises(FileFormatError) as e:
                    io.write_tensor(p, x)
                assert not p.exists()
            else:
                _write_unchecked(io.write_tensor, p, x)
                with pytest.raises(FileFormatError) as e:
                    io.read_tensor(p)
            assert str(e.value) == message

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mxbt"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FileFormatError):
            io.read_tensor(p)

    def test_truncated_payload(self, tmp_path, rng):
        p = tmp_path / "t.mxbt"
        io.write_tensor(p, rng.normal(size=(2, 32)))
        raw = p.read_bytes()
        p.write_bytes(raw[:-3])
        with pytest.raises(FileFormatError):
            io.read_tensor(p)

    @pytest.mark.parametrize("tag", [0, 1, 2], ids=["f32", "mx4", "mx8"])
    def test_dims_product_overflowing_u64_rejected(self, tmp_path, tag):
        # 2^21 * 2^21 * 2^22 = 2^64 wraps to 0 in fixed-width integers
        p = tmp_path / "huge.mxbt"
        p.write_bytes(b"MXBT" + struct.pack("<HBB3I", 1, tag, 3, 1 << 21, 1 << 21, 1 << 22))
        with pytest.raises(FileFormatError, match="payload"):
            io.read_tensor(p)

    @pytest.mark.parametrize("fmt", [mq.E2M1, mq.E4M3], ids=lambda f: f.name)
    def test_scale_exp_minus_128_rejected(self, tmp_path, rng, fmt):
        t = mq.quantize_tensor(rng.normal(size=(2, 64)), fmt)
        p = tmp_path / "s.mxbt"
        io.write_tensor(p, t)
        raw = bytearray(p.read_bytes())
        header = 8 + 4 * 2
        assert raw[header] == t.scale_exps[0].tobytes()[0]
        raw[header] = 0x80  # -128: outside the scale rule's [-127, 127]
        p.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="-128"):
            io.read_tensor(p)

    @pytest.mark.parametrize("code", [0x7F, 0xFF])
    def test_mx8_nan_code_rejected(self, tmp_path, rng, code):
        # index 127 is the E4M3 NaN slot, excluded from the value set
        t = mq.quantize_tensor(rng.normal(size=(2, 64)), mq.E4M3)
        p = tmp_path / "c.mxbt"
        io.write_tensor(p, t)
        raw = bytearray(p.read_bytes())
        raw[8 + 4 * 2 + 33 + 5] = code  # block 1, element 4
        p.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="code index"):
            io.read_tensor(p)

    @pytest.mark.parametrize("se", [-128, 200])
    def test_write_rejects_out_of_range_scale(self, tmp_path, se):
        t = mq.MxTensor((1, 32), mq.E2M1, np.array([se]), np.zeros((1, 32), np.uint8))
        with pytest.raises(FileFormatError, match="scale exponent"):
            io.write_tensor(tmp_path / "w.mxbt", t)

    @pytest.mark.parametrize("fmt, code", [(mq.E2M1, 0x13), (mq.E2M1, 0x10), (mq.E2M1, -1),
                                           (mq.E4M3, 0x7F), (mq.E4M3, 0xFF)],
                             ids=["e2m1-0x13", "e2m1-0x10", "e2m1-neg", "e4m3-0x7f", "e4m3-0xff"])
    def test_write_rejects_codes_the_reader_rejects(self, tmp_path, fmt, code):
        # a 5-bit or negative e2m1 code would not survive the nibble packing;
        # e4m3 index 127 is the NaN slot
        codes = np.zeros((2, 32), np.int16 if code < 0 else np.uint8)
        codes[1, 5] = code
        t = mq.MxTensor((2, 32), fmt, np.zeros(2, np.int8), codes)
        p = tmp_path / "w.mxbt"
        with pytest.raises(FileFormatError, match=re.escape(str(p))):
            io.write_tensor(p, t)
        assert not p.exists()

    @pytest.mark.parametrize("code", [0x7F, 0xFF])
    def test_read_checks_the_last_code_of_the_last_block(self, tmp_path, rng, code):
        t = mq.quantize_tensor(rng.normal(size=(3, 128)), mq.E4M3)
        p = tmp_path / "c.mxbt"
        io.write_tensor(p, t)
        raw = bytearray(p.read_bytes())
        raw[-1] = code
        p.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError) as e:
            io.read_tensor(p)
        assert str(e.value) == f"{p}: code index outside the e4m3 value set"

    @pytest.mark.parametrize("fmt, at, code, message", [
        (mq.E2M1, -1, 0x13, "code 0x13 is not a 4-bit code"),
        (mq.E2M1, 0, 0x10, "code 0x10 is not a 4-bit code"),  # ahead of the -7 below
        (mq.E4M3, -1, 0x7F, "code index outside the e4m3 value set"),
        (mq.E4M3, 0, 0x100, "code 0x100 is not a 8-bit code"),
        (mq.E2M1, -1, -1, "code -0x1 is not a 4-bit code"),
    ], ids=["e2m1-last-0x13", "e2m1-first-0x10", "e4m3-last-0x7f", "e4m3-first-0x100",
            "e2m1-last-neg"])
    def test_write_names_the_first_bad_code(self, tmp_path, fmt, at, code, message):
        # int16 codes; with the bad code in block 0, block 2 also holds a -7, the
        # smallest code: the message names the first bad code in order, not an extreme
        codes = np.zeros((4, 32), np.int16)
        if at == 0:
            codes[2, 9] = -7
        codes[at, -1] = code
        t = mq.MxTensor((4, 32), fmt, np.zeros(4, np.int8), codes)
        p = tmp_path / "w.mxbt"
        with pytest.raises(FileFormatError) as e:
            io.write_tensor(p, t)
        assert str(e.value) == f"{p}: {message}"
        assert not p.exists()

    @pytest.mark.parametrize("exps, first", [
        ([0, 127, -127, -128], -128), ([0, 200, -128, 5], 200), ([-128, 200, 0, 0], -128),
    ], ids=["last--128", "200-then--128", "-128-then-200"])
    def test_write_names_the_first_bad_scale_exponent(self, tmp_path, exps, first):
        t = mq.MxTensor((4, 32), mq.E2M1, np.array(exps), np.zeros((4, 32), np.uint8))
        p = tmp_path / "w.mxbt"
        with pytest.raises(FileFormatError) as e:
            io.write_tensor(p, t)
        assert str(e.value) == f"{p}: scale exponent {first} is outside [-127, 127]"
        assert not p.exists()

    @pytest.mark.parametrize("tag, dims", [(1, (2, 16)), (2, (32, 1)), (1, ())],
                             ids=["mx4-2x16", "mx8-32x1", "mx4-scalar"])
    def test_mx_width_not_whole_blocks_rejected(self, tmp_path, tag, dims):
        # 32 elements make one block's payload, but no block may span rows
        n_blocks = max(1, int(np.prod(dims)) // 32)
        block = 1 + (16 if tag == 1 else 32)
        p = tmp_path / "w.mxbt"
        p.write_bytes(b"MXBT" + struct.pack(f"<HBB{len(dims)}I", 1, tag, len(dims), *dims)
                      + bytes(n_blocks * block))
        with pytest.raises(FileFormatError, match="innermost dimension") as e:
            io.read_tensor(p)
        assert str(p) in str(e.value)

    @pytest.mark.parametrize("fmt", [mq.E2M1, mq.E4M3], ids=lambda f: f.name)
    def test_write_rejects_mx_width_not_whole_blocks(self, tmp_path, fmt):
        t = mq.MxTensor((2, 16), fmt, np.zeros(1, np.int8), np.zeros((1, 32), np.uint8))
        with pytest.raises(FileFormatError, match="innermost dimension 16"):
            io.write_tensor(tmp_path / "w.mxbt", t)
        assert not (tmp_path / "w.mxbt").exists()

    @pytest.mark.parametrize("shape, n_exps, codes_shape", [
        ((2, 64), 1, (1, 32)),  # one block for a four-block shape
        ((1, 32), 1, (1, 16)),  # codes half a block wide
        ((1, 32), 2, (1, 32)),  # two scale exponents for one block of codes
    ], ids=["too-few-blocks", "codes-16-wide", "extra-scale-exp"])
    @pytest.mark.parametrize("fmt", [mq.E2M1, mq.E4M3], ids=lambda f: f.name)
    def test_write_rejects_blocks_not_covering_shape(self, tmp_path, fmt, shape, n_exps,
                                                     codes_shape):
        t = mq.MxTensor(shape, fmt, np.zeros(n_exps, np.int8), np.zeros(codes_shape, np.uint8))
        with pytest.raises(FileFormatError, match="needs .* blocks of 32 codes") as e:
            io.write_tensor(tmp_path / "w.mxbt", t)
        assert "w.mxbt" in str(e.value)
        assert not (tmp_path / "w.mxbt").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_f32_nonfinite_value_names_file_and_element(self, tmp_path, rng, bad):
        x = rng.normal(size=(4, 64))
        x[2, 5] = bad
        p = tmp_path / "x.mxbt"
        _write_unchecked(io.write_tensor, p, x)
        message = f"{p}: non-finite value {np.float32(bad)} at element 133"
        with pytest.raises(FileFormatError, match=re.escape(message)):
            io.read_tensor(p)

    @pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (np.inf, "inf"), (1e39, "inf")],
                             ids=["nan", "inf", "1e39"])
    def test_write_rejects_what_the_reader_rejects(self, tmp_path, rng, bad, shown):
        # 1e39 overflows float32 to inf, silently: the suite makes a warning an error
        x = rng.normal(size=(4, 64))
        x[2, 5] = bad
        p = tmp_path / "x.mxbt"
        message = f"{p}: non-finite value {shown} at element 133"
        with pytest.raises(FileFormatError, match=re.escape(message)):
            io.write_tensor(p, x)
        assert not p.exists()

    def test_all_mx4_codes_accepted(self, tmp_path):
        raw = b"MXBT" + struct.pack("<HBB2I", 1, 1, 2, 1, 32) + struct.pack("<b", -127)
        p = tmp_path / "all.mxbt"
        p.write_bytes(raw + bytes(range(0, 256, 17)))  # byte 17*b holds code b twice
        r = io.read_tensor(p)
        assert r.scale_exps.tolist() == [-127]
        assert r.codes[0].tolist() == [c for b in range(16) for c in (b, b)]

    @pytest.mark.parametrize("head, mention", [
        (struct.pack("<4sHBBI", b"MXBT", 2, 0, 1, 32) + bytes(128), "unsupported version 2"),
        (struct.pack("<4sHBBI", b"MXBT", 1, 0, 3, 32), "truncated header"),
        (struct.pack("<4sHBBI", b"MXBT", 1, 3, 1, 32) + bytes(128), "unknown dtype tag 3"),
    ], ids=["version-2", "dims-past-end", "dtype-3"])
    def test_header_faults_name_the_file(self, tmp_path, head, mention):
        # dims-past-end: rank 3, but the file ends after the first dim
        p = tmp_path / "h.mxbt"
        p.write_bytes(head)
        with pytest.raises(FileFormatError, match=re.escape(f"{p}: {mention}")):
            io.read_tensor(p)


class TestTransformRecord:
    def test_round_trip_with_clips(self, tmp_path, rng):
        t = random_transform(rng, 128)
        act = mq.ClipParams(rng.normal(size=4), rng.normal(size=4))
        wgt = mq.ClipParams(rng.normal(size=4), rng.normal(size=4))
        p = tmp_path / "t.gpkt"
        io.write_transform_record(p, t, act, wgt)
        assert struct.unpack_from("<5I", p.read_bytes(), 6) == (128, 32, 8, 4, 4)
        t2, act2, wgt2 = io.read_transform_record(p)
        assert (t2.n, t2.k) == (128, 4)
        # storage is float32: compare against the f32-rounded originals
        assert np.array_equal(t2.a, t.a.astype(np.float32).astype(np.float64))
        assert np.array_equal(t2.b, t.b.astype(np.float32).astype(np.float64))
        assert np.array_equal(act2.alpha_min, act.alpha_min.astype(np.float32).astype(np.float64))
        assert np.array_equal(wgt2.alpha_max, wgt.alpha_max.astype(np.float32).astype(np.float64))

    def test_clipless_body_refused_naming_its_size(self, tmp_path, rng, capsys):
        # A (64 floats) and B (2 x 16) without the (4, 2) clip logits: 384 of 416 bytes
        p = tmp_path / "bare.gpkt"
        io.write_transform_record(p, random_transform(rng, 64), *_start_clips(2))
        p.write_bytes(p.read_bytes()[:-4 * 4 * 2])
        message = f"{p}: payload is 384 bytes, expected 416"
        with pytest.raises(FileFormatError, match=re.escape(message)):
            io.read_transform_record(p)
        io.write_tensor(tmp_path / "x.mxbt", rng.normal(size=(16, 64)))
        _expect_one_data_error(["stats", "--tensor", str(tmp_path / "x.mxbt"), "--transform",
                                str(p), "--out", str(tmp_path / "s.csv")], capsys, message)

    @pytest.mark.parametrize("k_act, k_wgt", [(1, 4), (4, 1), (1, 1)])
    def test_write_rejects_clip_sections_of_other_width(self, tmp_path, rng, k_act, k_wgt):
        # a length-1 section must not be broadcast to the transform's 4 blocks
        t = random_transform(rng, 128)
        act = mq.ClipParams(rng.normal(size=k_act), rng.normal(size=k_act))
        wgt = mq.ClipParams(rng.normal(size=k_wgt), rng.normal(size=k_wgt))
        with pytest.raises(ValueError, match="4 logit pairs"):
            io.write_transform_record(tmp_path / "t.gpkt", t, act, wgt)
        assert not (tmp_path / "t.gpkt").exists()

    def test_inconsistent_header_rejected(self, tmp_path, rng):
        t = random_transform(rng, 64)
        p = tmp_path / "t.gpkt"
        io.write_transform_record(p, t, *_start_clips(2))
        raw = bytearray(p.read_bytes())
        struct.pack_into("<I", raw, 6, 999)  # corrupt N
        p.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            io.read_transform_record(p)

    def test_version_2_rejected(self, tmp_path):
        p = tmp_path / "t.gpkt"
        io.write_transform_record(p, mq.GpkTransform.identity(64), *_start_clips(2))
        raw = bytearray(p.read_bytes())
        struct.pack_into("<H", raw, 4, 2)
        p.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match=re.escape(f"{p}: unsupported version 2")):
            io.read_transform_record(p)

    def test_zero_blocks_header_rejected(self, tmp_path):
        p = tmp_path / "t.gpkt"
        p.write_bytes(b"GPKT" + struct.pack("<H5I", 1, 0, 32, 8, 4, 0)
                      + np.eye(8, dtype="<f4").tobytes())
        with pytest.raises(FileFormatError, match="k >= 1"):
            io.read_transform_record(p)

    @pytest.mark.parametrize("cut", [-3, 4, -4], ids=["truncated", "extra-word", "short-clips"])
    def test_body_of_neither_legal_size_rejected(self, tmp_path, rng, cut):
        # the one legal body: 64*4 + 2*16*4 + the (4, 2) clip logits' 32 = 416 bytes
        t = random_transform(rng, 64)
        p = tmp_path / "t.gpkt"
        io.write_transform_record(p, t, *_start_clips(2))
        raw = p.read_bytes()
        p.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
        message = f"{p}: payload is {416 + cut} bytes, expected 416"
        with pytest.raises(FileFormatError, match=re.escape(message)):
            io.read_transform_record(p)

    def test_header_too_large_for_any_body_rejected(self, tmp_path):
        # k = 2^26 would need a body of over 5 GiB; the file holds only A
        p = tmp_path / "t.gpkt"
        p.write_bytes(b"GPKT" + struct.pack("<H5I", 1, 1 << 31, 32, 8, 4, 1 << 26)
                      + np.eye(8, dtype="<f4").tobytes())
        with pytest.raises(FileFormatError, match="k=67108864 needs a body over 2 GiB"):
            io.read_transform_record(p)

    @pytest.mark.parametrize("where", ["a", "b", "clip"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_record_rejected(self, tmp_path, rng, where, bad):
        t = random_transform(rng, 64)
        act = mq.ClipParams(rng.normal(size=2), rng.normal(size=2))
        wgt = mq.ClipParams(rng.normal(size=2), rng.normal(size=2))
        if where == "a":
            t.a[1, 2] = bad
        elif where == "b":
            t.b[1, 0, 3] = bad
        else:
            wgt.alpha_max[1] = bad
        p = tmp_path / "t.gpkt"
        _write_unchecked(io.write_transform_record, p, t, act, wgt)
        with pytest.raises(FileFormatError, match="non-finite"):
            io.read_transform_record(p)

    @pytest.mark.parametrize("where, section, element",
                             [("a", "A", 10), ("b", "B", 19), ("clip", "clip", 7)])
    @pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (np.inf, "inf"), (1e39, "inf")],
                             ids=["nan", "inf", "1e39"])
    def test_write_rejects_what_the_reader_rejects(self, tmp_path, rng, where, section,
                                                   element, bad, shown):
        t = random_transform(rng, 64)
        act = mq.ClipParams(rng.normal(size=2), rng.normal(size=2))
        wgt = mq.ClipParams(rng.normal(size=2), rng.normal(size=2))
        if where == "a":
            t.a[1, 2] = bad
        elif where == "b":
            t.b[1, 0, 3] = bad
        else:
            wgt.alpha_max[1] = bad
        p = tmp_path / "t.gpkt"
        message = f"{p}: non-finite value {shown} at element {element} of section {section}"
        with pytest.raises(FileFormatError, match=re.escape(message)):
            io.write_transform_record(p, t, act, wgt)
        assert not p.exists()


class TestHeaderFirst:
    """A reader reads the header and checks the payload size against the file's
    before it reads or allocates any payload byte: sparse files of 64 and 256 MiB
    are refused within a traced peak of 64 KiB."""

    @pytest.mark.parametrize("read, what", [(io.read_tensor, "tensor file"),
                                            (io.read_transform_record, "transform record")],
                             ids=["tensor", "record"])
    def test_huge_file_without_magic(self, tmp_path, read, what):
        p = tmp_path / "big.bin"
        with open(p, "wb") as f:
            f.truncate(256 << 20)
        peak, e = traced_peak(lambda: pytest.raises(FileFormatError, read, p))
        assert str(e.value) == f"{p}: not a {what} (bad magic)"
        assert peak < 64 << 10, peak

    def test_short_payload_of_a_huge_header(self, tmp_path):
        p = tmp_path / "short.mxbt"
        with open(p, "wb") as f:
            f.write(b"MXBT" + struct.pack("<HBB2I", 1, 0, 2, 4096, 4096))
            f.truncate(64 << 20)
        peak, e = traced_peak(lambda: pytest.raises(FileFormatError, io.read_tensor, p))
        assert str(e.value) == f"{p}: payload is 67108848 bytes, expected 67108864"
        assert peak < 64 << 10, peak

    @pytest.mark.parametrize("read", [io.read_tensor, io.read_transform_record],
                             ids=["tensor", "record"])
    def test_pipe_refused_by_name(self, tmp_path, rng, read):
        # a pipe has no size to check the header against: refused, naming the path
        p = tmp_path / "x.bin"
        if read is io.read_tensor:
            io.write_tensor(p, rng.normal(size=(4, 32)))
        else:
            io.write_transform_record(p, random_transform(rng, 32), *_start_clips(1))
        r, w = os.pipe()
        try:
            os.write(w, p.read_bytes())  # a few hundred bytes: fits the pipe buffer
            os.close(w)
            src = f"/dev/fd/{r}"
            with pytest.raises(FileFormatError) as e:
                read(src)
            assert str(e.value) == f"{src}: not a regular file"
        finally:
            os.close(r)


class TestKvConfig:
    def test_parse_and_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# demo\nformat = W4A8KV16\nlr = 0.01\nepochs = 2\nseed = 7\n"
            "weights = w.mxbt\ncalib = act_*.mxbt\n"
        )
        io.write_tensor(tmp_path / "w.mxbt", np.zeros((4, 64)))
        io.write_tensor(tmp_path / "act_0.mxbt", np.zeros((8, 64)))
        io.write_tensor(tmp_path / "act_1.mxbt", np.zeros((8, 64)))
        rc = io.RunConfig.from_file(cfg)
        assert rc.formats.name == "W4A8KV16"
        assert rc.calib.lr == 0.01 and rc.calib.epochs == 2
        assert rc.calib.batch_size == 4  # default
        assert len(rc.calib_paths) == 2
        assert rc.weights_path.endswith("w.mxbt")

    def test_readme_examples_parse(self, tmp_path):
        # both bare fenced blocks of README.md, read verbatim
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [body for lang, body in re.findall(r"^```(\w*)\n(.*?)^```$", readme, re.M | re.S)
                  if not lang]
        (run_cfg,) = [b for b in blocks if "weights =" in b]
        (spec_cfg,) = [b for b in blocks if "hidden =" in b]
        (tmp_path / "run.cfg").write_text(run_cfg)
        (tmp_path / "block.cfg").write_text(spec_cfg)
        io.write_tensor(tmp_path / "layer.mxbt", np.zeros((4, 64)))
        for i in range(2):
            io.write_tensor(tmp_path / f"acts_{i}.mxbt", np.zeros((8, 64)))
        rc = io.RunConfig.from_file(tmp_path / "run.cfg")
        assert rc.formats.name == "W4A4KV16" and rc.calib.lr == 0.02
        assert rc.weights_path == str(tmp_path / "layer.mxbt")
        assert len(rc.calib_paths) == 2
        assert rc.out_dir == str(tmp_path / "artifacts")
        spec, formats, seed = io.read_block_spec(tmp_path / "block.cfg")
        assert (spec.hidden, spec.template, formats.name, seed) == (128, "text", "W4A4KV16", 3)

    @pytest.mark.parametrize("literal, decoy", [("run[1]", "run1"), ("run*", "runA")])
    def test_config_directory_is_literal_and_only_calib_is_a_pattern(self, tmp_path, literal,
                                                                     decoy):
        # the config's directory holds glob metacharacters; a sibling that they would
        # match holds a decoy x.mxbt, which must not be read in place of the real one
        d = tmp_path / literal
        d.mkdir()
        io.write_tensor(d / "w.mxbt", np.zeros((4, 64)))
        io.write_tensor(d / "x.mxbt", np.zeros((8, 64)))
        cfg = d / "run.cfg"
        cfg.write_text("weights = w.mxbt\ncalib = x.mxbt\n")
        assert io.RunConfig.from_file(cfg).calib_paths == [str(d / "x.mxbt")]
        (tmp_path / decoy).mkdir()
        io.write_tensor(tmp_path / decoy / "x.mxbt", np.zeros((6, 64)))
        assert io.RunConfig.from_file(cfg).calib_paths == [str(d / "x.mxbt")]
        cfg.write_text("weights = w.mxbt\ncalib = y*.mxbt\n")
        with pytest.raises(FileFormatError,
                           match=re.escape(f"{cfg}:2: calib = y*.mxbt: no calibration files")):
            io.RunConfig.from_file(cfg)

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a key value line\n")
        with pytest.raises(FileFormatError):
            io.RunConfig.from_file(cfg)


def _write_calib_bundle(tmp_path, seed=0, lr="0.02", clip_init="4.0", fmt="W4A4KV16"):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(32, 64))
    x[:, 10] *= 40.0
    w = rng.normal(size=(8, 64)) / 8.0
    io.write_tensor(tmp_path / "w.mxbt", w)
    io.write_tensor(tmp_path / "acts.mxbt", x)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"format = {fmt}\nlr = {lr}\nepochs = 2\nbatch_size = 8\nclip_init = {clip_init}\n"
        f"weights = w.mxbt\ncalib = acts.mxbt\nout = out\n"
    )
    return cfg, x, w


_SPEC = "hidden = 128\nhead_dim = 32\nn_heads = 4\nmlp_dim = 256\n"


def _expect_one_data_error(argv, capsys, mention):
    """main(argv) exits 2 with one `mxquant: data:` stderr line that mentions mention."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mxquant: data:") and mention in err[0], err
    assert not caught, [str(w.message) for w in caught]
    return err[0]


class TestCli:
    def test_calibrate_writes_artifacts(self, tmp_path, capsys):
        cfg, _, _ = _write_calib_bundle(tmp_path)
        assert main(["calibrate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "transform.gpkt").exists()
        assert (out / "fused_weights.mxbt").exists()
        assert (out / "loss_trace.csv").exists()
        lines = (out / "loss_trace.csv").read_text().splitlines()
        assert lines[0] == "step,lr,loss"
        assert len(lines) == 1 + 2 * 4  # 2 epochs x 4 batches

    def test_calibrate_deterministic_csv(self, tmp_path):
        cfg, _, _ = _write_calib_bundle(tmp_path)
        assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
        assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0
        csv1 = (tmp_path / "r1" / "loss_trace.csv").read_bytes()
        csv2 = (tmp_path / "r2" / "loss_trace.csv").read_bytes()
        assert csv1 == csv2

    def test_calibrate_lr0_equals_rtn_artifacts(self, tmp_path):
        cfg, x, w = _write_calib_bundle(tmp_path, lr="0.0", clip_init="40.0")
        assert main(["calibrate", "--config", str(cfg)]) == 0
        fused = io.read_tensor(tmp_path / "out" / "fused_weights.mxbt")
        rtn = mq.quantize_tensor(w.astype(np.float32).astype(np.float64), mq.E2M1)
        assert np.array_equal(fused.codes, rtn.codes)
        assert np.array_equal(fused.scale_exps, rtn.scale_exps)

    def test_calibrate_missing_config_is_data_error(self, tmp_path):
        assert main(["calibrate", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("key", ["weights", "calib"])
    def test_calibrate_config_without_input_is_data_error(self, tmp_path, capsys, key):
        cfg, _, _ = _write_calib_bundle(tmp_path)
        cfg.write_text("".join(ln + "\n" for ln in cfg.read_text().splitlines()
                               if not ln.startswith(key)))
        _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys,
                               f"{cfg}: missing config key '{key}'")
        assert not (tmp_path / "out").exists()

    def test_usage_error_exit_code(self):
        # missing --config; flags the subcommands do not take
        for argv in (["calibrate"], ["param-count", "--n", "4096", "--g", "32"],
                     ["stats", "--tensor", "x.mxbt", "--out", "s.csv", "--format", "W4A8KV16"],
                     ["verify", "--files", "."],
                     ["calibrate", "--config", "x.cfg", "--format", "W4A4KV16"]):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 1

    def test_readme_cli_flags_match_parser(self):
        # the README's CLI block documents exactly the flags each subcommand takes
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", readme, re.M | re.S).group(1)
        documented = {m.group(1): set(re.findall(r"--[\w-]+", m.group(2)))
                      for m in re.finditer(r"^mxquant ([\w-]+)(.*)$", block, re.M)}
        (sub,) = [a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        parsed = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                  for name, p in sub.choices.items()}
        assert documented == parsed

    def test_numeric_failure_exit_code(self, tmp_path):
        # absurd learning rate: the transform factors blow up mid-training
        rng = np.random.default_rng(0)
        io.write_tensor(tmp_path / "w.mxbt", rng.normal(size=(4, 64)))
        io.write_tensor(tmp_path / "acts.mxbt", rng.normal(size=(16, 64)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("weights = w.mxbt\ncalib = acts.mxbt\nlr = 1e8\nepochs = 3\n")
        with np.errstate(all="ignore"):
            assert main(["calibrate", "--config", str(cfg)]) == 3

    def test_nonfinite_input_is_data_error(self, tmp_path, capsys):
        # 1e200 overflows the f32 payload to inf; reading the weights rejects it
        _write_unchecked(io.write_tensor, tmp_path / "w.mxbt", np.full((4, 64), 1e200))
        _write_unchecked(io.write_tensor, tmp_path / "acts.mxbt", np.full((8, 64), 1e200))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("weights = w.mxbt\ncalib = acts.mxbt\nlr = 1e-3\nepochs = 1\n")
        with np.errstate(all="ignore"):
            assert main(["calibrate", "--config", str(cfg)]) == 2
        assert f"{tmp_path / 'w.mxbt'}: non-finite value inf" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["w.mxbt", "acts.mxbt"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_f32_input_names_its_file(self, tmp_path, capsys, name, bad):
        # rejected when read: one stderr line naming the file, no numpy warning
        cfg, x, w = _write_calib_bundle(tmp_path)
        v = (w if name == "w.mxbt" else x).copy()
        v[1, 3] = bad
        _write_unchecked(io.write_tensor, tmp_path / name, v)
        _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys,
                               f"{tmp_path / name}: non-finite value {np.float32(bad)}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("blocks", ["g = 64\ng1 = 8\ng2 = 8", "g = 16\ng1 = 4\ng2 = 4",
                                        "g1 = 4", "g = 32\ng1 = 8\ng2 = 2"],
                             ids=["g64", "g16", "g1-4", "g2-2"])
    def test_calibrate_block_other_than_mx_block_is_data_error(self, tmp_path, capsys, blocks):
        # a transform or clip block that is not the 32-element MX block split 8 x 4
        # straddles quantization blocks
        cfg, _, _ = _write_calib_bundle(tmp_path)
        cfg.write_text(cfg.read_text() + blocks + "\n")
        err = _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys, "MX block")
        bad = next(line for line in blocks.splitlines() if line not in ("g = 32", "g1 = 8"))
        assert bad in err
        assert not (tmp_path / "out" / "loss_trace.csv").exists()

    def test_calibrate_g1_flag_is_usage_error(self, tmp_path, capsys):
        cfg, _, _ = _write_calib_bundle(tmp_path)
        with pytest.raises(SystemExit) as e:
            main(["calibrate", "--config", str(cfg), "--g1", "8"])
        assert e.value.code == 1
        assert capsys.readouterr().err.startswith("mxquant: usage:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["epoch = 1", "learning_rate = 0.5", "g_1 = 4",
                                      "schedule = cosine", "weight_decay = 0.0"],
                             ids=lambda line: line.split()[0])
    def test_calibrate_unknown_key_is_data_error(self, tmp_path, capsys, line):
        # a misspelt key (epoch for epochs) used to calibrate with the default
        cfg, _, _ = _write_calib_bundle(tmp_path)
        cfg.write_text(cfg.read_text() + line + "\n")
        key = line.split()[0]
        err = _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys,
                                     f"unknown key {key!r}")
        assert str(cfg) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines, mention", [
        ("epochs = 1.5", ":3: epochs = 1.5"),
        ("g = 32.0", ":3: g = 32.0"),
        ("format = W4A4", ":3: format = W4A4"),
        ("lr = 0.1\nlr = 5", ":4: 'lr' is set twice"),
        ("lr = -1", ":3: lr = -1.0 must be non-negative"),
        ("lr = nan", ":3: lr = nan is not finite"),
        ("epochs = 0", ":3: epochs = 0 must be at least 1"),
        ("batch_size = 0", ":3: batch_size = 0 must be at least 1"),
    ], ids=["epochs=1.5", "g=32.0", "format=W4A4", "lr-twice", "lr=-1", "lr=nan", "epochs=0",
            "batch_size=0"])
    def test_calibrate_bad_config_line_names_file_line_and_key(self, tmp_path, capsys, lines,
                                                               mention):
        cfg, _, _ = _write_calib_bundle(tmp_path)
        cfg.write_text(f"weights = w.mxbt\ncalib = acts.mxbt\n{lines}\nout = out\n")
        _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys, f"{cfg}{mention}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, mention", [
        ("weights =\ncalib = acts.mxbt\n", ":1: weights = : empty path"),
        ("weights = w.mxbt\ncalib =\n", ":2: calib = : empty path"),
        ("weights = w.mxbt\ncalib = acts.mxbt\nout =\n", ":3: out = : empty path"),
        ("weights = w.mxbt\ncalib = acts.mxbt, nope_*.mxbt\n",
         ":2: calib = acts.mxbt, nope_*.mxbt: no calibration files match 'nope_*.mxbt'"),
    ], ids=["empty-weights", "empty-calib", "empty-out", "calib-no-match"])
    def test_calibrate_bad_path_names_file_line_and_key(self, tmp_path, capsys, text, mention):
        # an empty path used to resolve to the config's directory and fail as EISDIR
        cfg, _, _ = _write_calib_bundle(tmp_path)
        cfg.write_text(text)
        _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys, f"{cfg}{mention}")
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "transform.gpkt").exists()

    def test_calibrate_out_flag_is_relative_to_working_directory(self, tmp_path, monkeypatch):
        # paths inside the config are relative to the config; --out is a command-line path
        (tmp_path / "cfgdir").mkdir()
        _write_calib_bundle(tmp_path / "cfgdir")  # its config says out = out
        monkeypatch.chdir(tmp_path)
        assert main(["calibrate", "--config", "cfgdir/run.cfg", "--out", "results"]) == 0
        assert (tmp_path / "results" / "loss_trace.csv").exists()
        assert not (tmp_path / "cfgdir" / "results").exists()
        assert not (tmp_path / "cfgdir" / "out").exists()

    def test_calibrate_accepts_g32_and_seed(self, tmp_path):
        # configs that name the MX block and a seed keep running; seed is a no-op
        cfg, _, _ = _write_calib_bundle(tmp_path)
        base = cfg.read_text()
        assert main(["calibrate", "--config", str(cfg)]) == 0
        plain = (tmp_path / "out" / "loss_trace.csv").read_bytes()
        cfg.write_text(base + "g = 32\nseed = 123\n")
        assert main(["calibrate", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "loss_trace.csv").read_bytes() == plain

    @pytest.mark.parametrize("line, at, message", [
        # a CalibConfig field replaces its own line in the bundle config
        ("lr = nan", 2, "lr = nan is not finite"),
        ("lr = inf", 2, "lr = inf is not finite"),
        ("clip_init = nan", 5, "clip_init = nan is not finite"),
        # the AdamW constants are fixed, not config keys: an appended line is unknown
        ("beta1 = 2", 9, "unknown key 'beta1'"),
        ("beta2 = 1", 9, "unknown key 'beta2'"),
        ("beta1 = -0.1", 9, "unknown key 'beta1'"),
        ("eps = 0", 9, "unknown key 'eps'"),
        ("eps = nan", 9, "unknown key 'eps'"),
        ("weight_decay = inf", 9, "unknown key 'weight_decay'"),
    ], ids=["lr=nan", "lr=inf", "clip_init=nan", "beta1=2", "beta2=1", "beta1=-0.1", "eps=0",
            "eps=nan", "weight_decay=inf"])
    def test_bad_hyperparameter_rejected_before_compute(self, tmp_path, capsys, line, at,
                                                        message):
        cfg, _, _ = _write_calib_bundle(tmp_path)
        lines = cfg.read_text().splitlines()
        lines[at - 1:at] = [line]
        cfg.write_text("\n".join(lines) + "\n")
        err = _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys, message)
        assert err == f"mxquant: data: {cfg}:{at}: {message}"
        assert not (tmp_path / "out" / "loss_trace.csv").exists()

    @pytest.mark.parametrize("kind, text, line", [
        ("run", "weights = w.mxbt\nlr = nan\n", "2: lr = nan is not finite"),
        ("run", "weights = w.mxbt\nlr = abc\n",
         "2: lr = abc: could not convert string to float: 'abc'"),
        ("spec", "hidden = 0\n", "1: hidden = 0 is not a positive multiple of 32"),
        ("spec", "hidden = 128\nhead_dim = 32\nn_heads = 0\n", "3: n_heads = 0 must be at least 1"),
    ], ids=["run-lr=nan", "run-lr=abc", "spec-hidden=0", "spec-n_heads=0"])
    def test_config_error_states_key_and_value_once(self, tmp_path, capsys, kind, text, line):
        # a field's own rule states `key = value`; only a failed cast gets that prefix
        path = tmp_path / f"{kind}.cfg"
        path.write_text(text)
        out = tmp_path / "report.csv"
        argv = (["calibrate", "--config", str(path)] if kind == "run"
                else ["simulate", "--spec", str(path), "--out", str(out)])
        err = _expect_one_data_error(argv, capsys, line)
        assert err == f"mxquant: data: {path}:{line}"
        assert not (tmp_path / "out").exists() and not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "simulate"])
    def test_huge_config_refused_by_name(self, tmp_path, capsys, command):
        # a 64 MiB sparse file is refused after one bounded read, in one short line
        big = tmp_path / "big.cfg"
        with open(big, "wb") as f:
            f.truncate(64 << 20)
        argv = (["calibrate", "--config", str(big)] if command == "calibrate"
                else ["simulate", "--spec", str(big), "--out", str(tmp_path / "report.csv")])
        peak, err = traced_peak(lambda: _expect_one_data_error(argv, capsys, str(big)))
        assert err == f"mxquant: data: {big}: over {io.CONFIG_MAX_BYTES} bytes, not a config file"
        assert len(err) < 300 and peak < 4 << 20, (len(err), peak)

    @pytest.mark.parametrize("line, message", [
        ("k" * 5000 + " = 1", "2: unknown key 'kkk"),
        ("lr = " + "x" * 5000, "2: lr = xxx"),
    ], ids=["key", "value"])
    def test_long_config_text_is_cut_in_the_message(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"weights = w.mxbt\n{line}\n")
        err = _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys, message)
        assert err.startswith(f"mxquant: data: {cfg}:{message}") and len(err) < 300, err

    def test_spec_read_from_a_pipe(self, tmp_path):
        r, w = os.pipe()
        try:
            os.write(w, _SPEC.encode())  # a few dozen bytes: fits the pipe buffer
            os.close(w)
            out = tmp_path / "report.csv"
            assert main(["simulate", "--spec", f"/dev/fd/{r}", "--out", str(out),
                         "--rows", "16"]) == 0
            assert out.exists()
        finally:
            os.close(r)

    @pytest.mark.parametrize("command", ["calibrate", "simulate"])
    def test_file_not_utf8_names_file_and_line(self, tmp_path, capsys, command):
        cfg, _, _ = _write_calib_bundle(tmp_path)
        out = tmp_path / "report.csv"
        if command == "calibrate":
            cfg.write_bytes(b"weights = w.mxbt\ncalib = \xffacts.mxbt\n")
            argv = ["calibrate", "--config", str(cfg)]
        else:
            cfg.write_bytes(_SPEC.replace("32", "\xff").encode("latin-1"))
            argv = ["simulate", "--spec", str(cfg), "--out", str(out)]
        err = _expect_one_data_error(argv, capsys, "not UTF-8")
        assert err.startswith(f"mxquant: data: {cfg}:2: not UTF-8 text")
        assert not (tmp_path / "out").exists() and not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "simulate"])
    def test_config_with_a_byte_order_mark_gives_the_same_artifacts(self, tmp_path, command):
        # an editor may save a config with a leading UTF-8 byte-order mark
        cfg, _, _ = _write_calib_bundle(tmp_path)
        if command == "simulate":
            cfg.write_text(_SPEC + "seed = 3\n")
        text = cfg.read_bytes()
        written = []
        for tag, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            cfg.write_bytes(data)
            out = tmp_path / tag
            argv = (["calibrate", "--config", str(cfg), "--out", str(out)]
                    if command == "calibrate" else
                    ["simulate", "--spec", str(cfg), "--out", str(out / "report.csv"),
                     "--rows", "16"])
            out.mkdir()
            assert main(argv) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert written[0] == written[1] and len(written[0]) == (3 if command == "calibrate" else 1)

    @pytest.mark.parametrize("command", ["calibrate", "simulate"])
    def test_no_thread_can_start_gives_the_same_artifacts(self, tmp_path, patch_cpus,
                                                          monkeypatch, command):
        # at a thread limit threading.Thread.start raises RuntimeError; every split then
        # runs both halves on the caller. A 256 x 1024 weight splits its step's passes
        # and its fused weights' chunk loops, and simulate splits the site groups
        if command == "calibrate":
            rng = np.random.default_rng(2)
            io.write_tensor(tmp_path / "w.mxbt", rng.normal(size=(256, 1024)) / 32.0)
            io.write_tensor(tmp_path / "acts.mxbt", rng.normal(size=(16, 1024)))
            cfg = tmp_path / "run.cfg"
            cfg.write_text("weights = w.mxbt\ncalib = acts.mxbt\nepochs = 1\nbatch_size = 8\n")
        else:
            cfg = tmp_path / "spec.cfg"
            cfg.write_text(_SPEC + "seed = 3\n")
        started = patch_cpus(2)
        written = []
        for tag in ("split", "no-thread"):
            out = tmp_path / tag
            out.mkdir()
            argv = (["calibrate", "--config", str(cfg), "--out", str(out)]
                    if command == "calibrate" else
                    ["simulate", "--spec", str(cfg), "--out", str(out / "report.csv"),
                     "--rows", "16", "--calibrate"])
            del started[:]
            with monkeypatch.context() as m:
                if tag == "no-thread":
                    m.setattr(threading.Thread, "start", refuse_thread_start)
                assert main(argv) == 0
            assert (len(started) > 0) == (tag == "split")  # the helper ran only if it could
            assert not formats._helper.locked()
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert written[0] == written[1] and len(written[0]) == (3 if command == "calibrate" else 1)

    def test_not_utf8_after_a_byte_order_mark_names_its_line(self, tmp_path, capsys):
        # dropping the mark must not shift the bad byte's offset off its line
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfweights = w.mxbt\n\xffcalib = acts.mxbt\n")
        err = _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys, "not UTF-8")
        assert err.startswith(f"mxquant: data: {cfg}:2: not UTF-8 text")

    @pytest.mark.parametrize("text, at, key", [
        ("\ufeff\ufeffweights = w.mxbt\ncalib = acts.mxbt\n", 1, "weights"),
        ("weights = w.mxbt\n\ufeffcalib = acts.mxbt\n", 2, "calib"),
    ], ids=["second-leading", "later-line"])
    def test_other_byte_order_marks_are_part_of_a_key(self, tmp_path, capsys, text, at, key):
        # only one leading byte-order mark is dropped
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        err = _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys, "unknown key")
        assert err == f"mxquant: data: {cfg}:{at}: unknown key '\\ufeff{key}'"

    @pytest.mark.parametrize("line3", ["\x0c", "epochs\u2028= 1"],
                             ids=["form-feed-line", "line-separator-inside-a-line"])
    def test_a_line_ends_only_at_a_newline(self, tmp_path, capsys, line3):
        # as grep -n counts: a form-feed line is one blank line, and a U+2028 stays part of
        # its line, so lr is on line 4 in both files
        _write_calib_bundle(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"weights = w.mxbt\ncalib = acts.mxbt\n{line3}\nlr = -1\n".encode())
        err = _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys, "lr")
        assert err == f"mxquant: data: {cfg}:4: lr = -1.0 must be non-negative"

    def test_a_line_end_inside_a_value_is_escaped(self, tmp_path, capsys):
        # the message quotes the value as one line, by str.splitlines' count too
        _write_calib_bundle(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("weights = w.mxbt\ncalib = acts.mxbt\nlr = 1\x0b2\u20283\n".encode())
        err = _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys, "lr")
        assert err == (f"mxquant: data: {cfg}:3: lr = 1\\x0b2\\u20283: could not convert "
                       "string to float: '1\\x0b2\\u20283'")

    @pytest.mark.parametrize("name, mention", [
        ("w.mxbt", "calibration needs full-precision weights"),
        ("acts.mxbt", "calibration activations must be f32 tensors"),
    ], ids=["weights", "activations"])
    def test_calibrate_mx4_input_is_data_error(self, tmp_path, capsys, name, mention):
        cfg, x, w = _write_calib_bundle(tmp_path)
        dense = {"w.mxbt": w, "acts.mxbt": x}[name]
        io.write_tensor(tmp_path / name, mq.quantize_tensor(dense, mq.E2M1))
        _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys,
                               f"{tmp_path / name}: {mention}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shape", [(64,), (2, 4, 64)], ids=["1d", "3d"])
    def test_calibrate_non_2d_weights_is_data_error(self, tmp_path, capsys, shape):
        cfg, _, _ = _write_calib_bundle(tmp_path)
        io.write_tensor(tmp_path / "w.mxbt", np.ones(shape))
        _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys, "2-D")
        assert not (tmp_path / "out").exists()

    def test_calibrate_weights_without_rows_is_data_error(self, tmp_path, capsys):
        cfg, _, _ = _write_calib_bundle(tmp_path)
        io.write_tensor(tmp_path / "w.mxbt", np.ones((0, 64)))
        err = _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys, "(0, 64)")
        assert "w.mxbt" in err
        assert not (tmp_path / "out").exists()

    def test_calibrate_activation_width_mismatch_is_data_error(self, tmp_path, capsys):
        # (8, 128) activations for (8, 64) weights used to calibrate as 16 rows
        cfg, _, _ = _write_calib_bundle(tmp_path)
        io.write_tensor(tmp_path / "acts.mxbt", np.ones((8, 128)))
        err = _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys, "width 64")
        assert "acts.mxbt" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("width", [0, 48])
    def test_calibrate_width_not_whole_blocks_is_data_error(self, tmp_path, capsys, width):
        cfg, _, _ = _write_calib_bundle(tmp_path)
        io.write_tensor(tmp_path / "w.mxbt", np.ones((4, width)))
        io.write_tensor(tmp_path / "acts.mxbt", np.ones((8, width)))
        err = _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys,
                                     f"input width {width} is not a positive multiple of 32")
        assert "w.mxbt" in err
        assert not (tmp_path / "out").exists()

    def test_param_count_table(self, capsys):
        assert main(["param-count", "--n", "4096"]) == 0
        assert capsys.readouterr().out == (
            "N=4096 g=32 g1=8 g2=4 k=128\n"
            "decomposition              matmul cost        params\n"
            "global-kronecker           S*N^(3/2)            8192\n"
            "full-block                 S*N*g              131072\n"
            "naive-kronecker            S*N*(g1+g2)         10240\n"
            "global+private-kronecker   S*N*(g1+g2)          2112\n"
        )

    @pytest.mark.parametrize("n", ["0", "-32", "33"])
    def test_param_count_bad_n_is_data_error(self, capsys, n):
        _expect_one_data_error(["param-count", "--n", n], capsys, "multiple of 32")
        assert capsys.readouterr().out == ""

    def test_param_count_single_block(self, capsys):
        assert main(["param-count", "--n", "32"]) == 0
        assert "80" in capsys.readouterr().out

    def test_stats_identity_pre_equals_post(self, tmp_path, rng, capsys):
        x = rng.normal(size=(16, 64))
        io.write_tensor(tmp_path / "x.mxbt", x)
        out = tmp_path / "stats.csv"
        assert main(["stats", "--tensor", str(tmp_path / "x.mxbt"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2  # header + N/32 blocks
        for row in lines[1:]:
            cells = row.split(",")
            pre = cells[3 : 3 + 64]
            post = cells[3 + 64 :]
            assert pre == post

    def test_stats_mx4_equals_its_decoded_f32(self, tmp_path, rng):
        t = mq.quantize_tensor(rng.normal(size=(16, 64)) * 3.0, mq.E2M1)
        io.write_tensor(tmp_path / "q.mxbt", t)
        io.write_tensor(tmp_path / "d.mxbt", t.to_dense())
        for name in ("q", "d"):
            assert main(["stats", "--tensor", str(tmp_path / f"{name}.mxbt"),
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "q.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()

    def test_stats_block_count(self, tmp_path, rng):
        io.write_tensor(tmp_path / "x.mxbt", rng.normal(size=(4, 256)))
        out = tmp_path / "s.csv"
        assert main(["stats", "--tensor", str(tmp_path / "x.mxbt"), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 256 // 32

    @pytest.mark.parametrize("bad", ["nan-tensor", "inf-tensor", "nan-transform"])
    def test_stats_nonfinite_input_is_data_error(self, tmp_path, rng, capsys, bad):
        x = rng.normal(size=(16, 64))
        if bad != "nan-transform":
            x[3, 5] = np.nan if bad == "nan-tensor" else np.inf
        _write_unchecked(io.write_tensor, tmp_path / "x.mxbt", x)
        args = ["stats", "--tensor", str(tmp_path / "x.mxbt"), "--out", str(tmp_path / "s.csv")]
        if bad == "nan-transform":
            t = mq.GpkTransform.identity(64)
            t.a[2, 3] = np.nan
            _write_unchecked(io.write_transform_record, tmp_path / "t.gpkt", t, *_start_clips(2))
            args += ["--transform", str(tmp_path / "t.gpkt")]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("mxquant: data:")
        assert not (tmp_path / "s.csv").exists()
        if bad != "nan-transform":
            assert f"{tmp_path / 'x.mxbt'}: non-finite value" in err[0]

    @pytest.mark.parametrize("header, a_size, b_size", [
        ((64, 64, 8, 8, 1), 8, 8),  # one transform straddles two MX blocks
        ((64, 32, 4, 8, 2), 4, 8),  # the MX block split 4 x 8
    ], ids=["g64", "split-4x8"])
    def test_stats_transform_header_other_than_mx_block_is_data_error(
            self, tmp_path, rng, capsys, header, a_size, b_size):
        io.write_tensor(tmp_path / "x.mxbt", rng.normal(size=(16, 64)))
        k = header[4]
        a = np.eye(a_size, dtype="<f4")
        b = np.broadcast_to(np.eye(b_size, dtype="<f4"), (k, b_size, b_size))
        (tmp_path / "t.gpkt").write_bytes(
            b"GPKT" + struct.pack("<H5I", 1, *header) + a.tobytes() + b.tobytes())
        out = tmp_path / "s.csv"
        _expect_one_data_error(["stats", "--tensor", str(tmp_path / "x.mxbt"), "--transform",
                                str(tmp_path / "t.gpkt"), "--out", str(out)], capsys, "header")
        assert not out.exists()

    def test_stats_mx8_nan_code_is_data_error(self, tmp_path, rng, capsys):
        t = mq.quantize_tensor(rng.normal(size=(16, 64)), mq.E4M3)
        p = tmp_path / "q.mxbt"
        io.write_tensor(p, t)
        raw = bytearray(p.read_bytes())
        raw[8 + 4 * 2 + 1] = 0x7F
        p.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["stats", "--tensor", str(p), "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("mxquant: data:")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("side, scale", [("post", 3e38), ("post", 1e38), ("pre", None)],
                             ids=["post-3e38", "post-1e38", "pre-mx8"])
    def test_stats_scale_exponent_clamp_is_data_error(self, tmp_path, capsys, side, scale):
        # scaled values past [-8, 8]: a score that overflowed to nan (3e38), a histogram
        # that counted none of them (1e38), or an mx8 tensor of 448 * 2^127
        p = tmp_path / "x.mxbt"
        args = ["stats", "--tensor", str(p), "--out", str(tmp_path / "s.csv")]
        if side == "post":
            x = np.full((64, 32), 3e38, dtype=np.float32)
            x[:, ::2] *= -1
            x[:, ::3] /= 2
            io.write_tensor(p, x)
            t = mq.GpkTransform(scale * np.eye(8), scale * np.eye(4)[None])
            io.write_transform_record(tmp_path / "t.gpkt", t, *_start_clips(1))
            args += ["--transform", str(tmp_path / "t.gpkt")]
        else:
            codes = np.resize(np.arange(0x38, 0x7F, dtype=np.uint8), (16, 32))
            io.write_tensor(p, mq.MxTensor((16, 32), mq.E4M3, np.full(16, 127, np.int8), codes))
        _expect_one_data_error(args, capsys, f"{p}: block 0 ({side}-transform): scaled values "
                                             "reach")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("shape", [(8, 0), ()], ids=["zero-width", "scalar"])
    def test_stats_width_not_whole_blocks_is_data_error(self, tmp_path, capsys, shape):
        io.write_tensor(tmp_path / "x.mxbt", np.ones(shape))
        out = tmp_path / "s.csv"
        err = _expect_one_data_error(["stats", "--tensor", str(tmp_path / "x.mxbt"),
                                      "--out", str(out)], capsys, "not a positive multiple of 32")
        assert "x.mxbt" in err
        assert not out.exists()

    @pytest.mark.parametrize("case, mention", [
        ("transform-width", "transform width 32 does not match the trailing dimension 64"),
        ("all-zero", "block 0 (pre-transform): degenerate sample: zero variance"),
        ("constant-block", "block 1 (pre-transform): degenerate sample: zero variance"),
    ], ids=["transform-width", "all-zero", "constant-block"])
    def test_stats_data_error_names_its_files(self, tmp_path, rng, capsys, case, mention):
        x = rng.normal(size=(16, 64))
        if case == "all-zero":
            x[:] = 0.0
        elif case == "constant-block":
            x[:, 32:] = 1.5
        io.write_tensor(tmp_path / "x.mxbt", x)
        args = ["stats", "--tensor", str(tmp_path / "x.mxbt"), "--out", str(tmp_path / "s.csv")]
        if case == "transform-width":
            io.write_transform_record(tmp_path / "t.gpkt", mq.GpkTransform.identity(32),
                                      *_start_clips(1))
            args += ["--transform", str(tmp_path / "t.gpkt")]
        err = _expect_one_data_error(args, capsys, mention)
        assert "x.mxbt" in err
        assert case != "transform-width" or "t.gpkt" in err
        assert not (tmp_path / "s.csv").exists()

    def test_stats_missing_tensor(self, tmp_path):
        assert main(["stats", "--tensor", str(tmp_path / "no.mxbt"), "--out", "x.csv"]) == 2

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out

    def test_verify_failure_exits_3_and_counts_it(self, capsys, monkeypatch):
        failing = lambda: verify.OracleReport("injected-failure", 1.0, False)  # noqa: E731
        monkeypatch.setattr(verify, "ALL_CHECKS", (*verify.ALL_CHECKS[:-1], failing))
        assert main(["verify"]) == 3
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in out if line.endswith("FAIL")] == ["injected-failure"]
        assert out[-1] == "1 of 8 checks failed"

    def test_calibrate_nonfinite_gradient_exits_3(self, tmp_path, capsys, monkeypatch):
        cfg, _, _ = _write_calib_bundle(tmp_path)
        nan_factor_gradient_on_call(monkeypatch, 3)  # step 1's activation side
        capsys.readouterr()
        assert main(["calibrate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["mxquant: numeric: non-finite gradient (step 1)"]
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _python(*args):
        """A fresh interpreter with this checkout's package on the path."""
        src = str(Path(mq.__file__).resolve().parents[1])
        return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)

    def test_python_m_mxquant_runs_the_cli(self):
        # an uninstalled checkout has no `mxquant` script; `python -m` must work
        proc = self._python("-m", "mxquant", "param-count", "--n", "32")
        assert proc.returncode == 0, proc.stderr
        assert "80" in proc.stdout

    def test_cli_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; scipy is a test-only cross-check, and the
        # judges (oracle, verify) load only when `mxquant verify` runs
        proc = self._python("-c", "import sys, mxquant.cli; "
                            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
                            "or m in ('mxquant.oracle', 'mxquant.verify')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_verify_passes_without_scipy(self):
        # a None entry in sys.modules makes every `import scipy` raise ImportError
        proc = self._python("-c", "import sys; sys.modules['scipy'] = None; "
                            "from mxquant.cli import main; sys.exit(main(['verify']))")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all 8 checks passed" in proc.stdout

    def test_simulate_writes_report(self, tmp_path):
        spec = tmp_path / "block.cfg"
        spec.write_text(
            "hidden = 128\nhead_dim = 32\nn_heads = 4\nmlp_dim = 256\n"
            "template = text\nformat = W4A4KV16\nseed = 3\n"
        )
        out = tmp_path / "report.csv"
        assert main(["simulate", "--spec", str(spec), "--out", str(out), "--rows", "16"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "site,mse_before,mse_after"
        sites = {ln.split(",")[0] for ln in lines[1:]}
        assert sites == {"p_qkv", "p_o", "p_up", "p_down", "output"}

    def test_simulate_calibrate_report(self, tmp_path):
        spec = tmp_path / "block.cfg"
        spec.write_text("hidden = 64\nhead_dim = 32\nn_heads = 2\nmlp_dim = 128\n")
        outs = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for out in outs:
            assert main(["simulate", "--spec", str(spec), "--out", str(out), "--rows", "8",
                         "--calibrate"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        rows = [ln.split(",") for ln in outs[0].read_text().splitlines()[1:]]
        assert len(rows) == 5
        # the same run by hand: the block, its inputs and the CLI's default --lr
        block_spec, formats, seed = io.read_block_spec(spec)
        block = build_toy_block(block_spec, seed=seed)
        x = np.random.default_rng(seed + 1).normal(size=(8, 64))
        calibrate_block(block, x, mq.CalibConfig(lr=0.02), formats)
        _, after = simulate_block(block, x, formats)
        for site, _, mse_after in rows:
            assert np.isfinite(float(mse_after))
            assert float(mse_after) == after[site]

    @pytest.mark.parametrize("exc, mention", [
        (MemoryError("Unable to allocate 46.6 TiB for an array"), "out of memory: Unable to"),
        (MemoryError(), "out of memory: allocation failed"),
    ], ids=["numpy", "bare"])
    def test_simulate_out_of_memory_is_data_error(self, tmp_path, capsys, monkeypatch, exc,
                                                   mention):
        # stands in for a --rows too large to allocate; the test allocates nothing
        # large, since under memory overcommit a real 46 TiB allocation can succeed
        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "simulate_block", fail)
        spec = tmp_path / "block.cfg"
        spec.write_text("hidden = 128\nhead_dim = 32\nn_heads = 4\nmlp_dim = 256\n")
        out = tmp_path / "report.csv"
        _expect_one_data_error(["simulate", "--spec", str(spec), "--out", str(out),
                                "--rows", "16"], capsys, mention)
        assert not out.exists()

    @pytest.mark.parametrize("line", ["heads = 4", "mlp = 256", "seeed = 3"],
                             ids=lambda line: line.split()[0])
    def test_simulate_unknown_spec_key_is_data_error(self, tmp_path, capsys, line):
        spec = tmp_path / "block.cfg"
        spec.write_text("hidden = 128\nhead_dim = 32\nn_heads = 4\nmlp_dim = 256\n"
                        "template = text\nformat = W4A4KV16\nseed = 3\n" + line + "\n")
        out = tmp_path / "report.csv"
        key = line.split()[0]
        err = _expect_one_data_error(["simulate", "--spec", str(spec), "--out", str(out),
                                      "--rows", "16"], capsys, f"unknown key {key!r}")
        assert str(spec) in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        "hidden = 0", "head_dim = 0", "mlp_dim = -32", "n_heads = 0", "--lr inf", "--lr nan",
        "--rows 0", "--rows -1",
    ], ids=lambda bad: bad.strip("-").replace(" = ", "=").replace(" ", "="))
    def test_simulate_bad_size_or_lr_is_data_error(self, tmp_path, capsys, bad):
        spec = {"hidden": "128", "head_dim": "32", "n_heads": "4", "mlp_dim": "256"}
        argv = ["--calibrate"]
        if bad.startswith("--"):
            argv += bad.split()
        else:
            key, _, value = bad.partition(" = ")
            spec[key] = value
        (tmp_path / "block.cfg").write_text("".join(f"{k} = {v}\n" for k, v in spec.items()))
        out = tmp_path / "report.csv"
        _expect_one_data_error(["simulate", "--spec", str(tmp_path / "block.cfg"),
                                "--out", str(out), "--rows", "16", *argv], capsys,
                               bad.strip("-").split()[0])
        assert not out.exists()


    @pytest.mark.parametrize("spec, mention", [
        (_SPEC.replace("256", "64.5"), ":4: mlp_dim = 64.5"),
        (_SPEC + "seed = -1\n", ":5: seed = -1"),
        (_SPEC + "n_heads = 2\n", ":5: 'n_heads' is set twice"),
        (_SPEC.replace("hidden = 128\n", ""), ": missing block spec key 'hidden'"),
        (_SPEC + "template = tex\n", ":5: template = tex: unknown template 'tex'"),
        (_SPEC.replace("hidden = 128", "hidden = 0"), ":1: hidden = 0"),
        (_SPEC.replace("n_heads = 4", "n_heads = 0"), ":3: n_heads = 0"),
    ], ids=["mlp_dim=64.5", "seed=-1", "n_heads-twice", "no-hidden", "template=tex", "hidden=0",
            "n_heads=0"])
    def test_simulate_bad_spec_names_file_and_key(self, tmp_path, capsys, spec, mention):
        path = tmp_path / "block.cfg"
        path.write_text(spec)
        out = tmp_path / "report.csv"
        _expect_one_data_error(["simulate", "--spec", str(path), "--out", str(out),
                                "--rows", "16"], capsys, f"{path}{mention}")
        assert not out.exists()


class TestVerifyMutation:
    def test_broken_value_set_fails_quantizer_check(self, monkeypatch):
        # a wrong top magnitude, injected into the implementation side only;
        # the oracle keeps the true grid and disagrees
        # (a NaN flag on e2m1 drops its top magnitude, 6.0)
        bad = mq.MxFormat("e2m1-bad", 2, 1, nan=True)
        monkeypatch.setattr("mxquant.verify.quantize_tensor",
                            lambda v, _fmt: mq.quantize_tensor(v, bad))
        report = check_quantizer()
        assert not report.passed

    def test_fresh_build_passes(self):
        report = check_quantizer()
        assert report.passed
