import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mxquant as mq
from mxquant import io
from mxquant.cli import main
from mxquant.errors import FileFormatError
from mxquant.verify import check_quantizer, random_transform


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

    def test_all_mx4_codes_accepted(self, tmp_path):
        raw = b"MXBT" + struct.pack("<HBB2I", 1, 1, 2, 1, 32) + struct.pack("<b", -127)
        p = tmp_path / "all.mxbt"
        p.write_bytes(raw + bytes(range(0, 256, 17)))  # byte 17*b holds code b twice
        r = io.read_tensor(p)
        assert r.scale_exps.tolist() == [-127]
        assert r.codes[0].tolist() == [c for b in range(16) for c in (b, b)]


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

    def test_round_trip_without_clips(self, tmp_path, rng):
        t = random_transform(rng, 64)
        p = tmp_path / "bare.gpkt"
        io.write_transform_record(p, t)
        t2, act2, wgt2 = io.read_transform_record(p)
        assert act2 is None and wgt2 is None
        assert t2.k == 2

    def test_inconsistent_header_rejected(self, tmp_path, rng):
        t = random_transform(rng, 64)
        p = tmp_path / "t.gpkt"
        io.write_transform_record(p, t)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<I", raw, 6, 999)  # corrupt N
        p.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
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
        io.write_transform_record(p, t, act, wgt)
        with pytest.raises(FileFormatError, match="non-finite"):
            io.read_transform_record(p)


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

    def test_overrides_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = W4A4KV16\nout = a\n")
        rc = io.RunConfig.from_file(cfg, {"format": "W4A8KV8", "out": str(tmp_path / "b")})
        assert rc.formats.name == "W4A8KV8"
        assert rc.out_dir == str(tmp_path / "b")

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

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as e:
            main(["calibrate"])  # missing --config
        assert e.value.code == 1

    def test_numeric_failure_exit_code(self, tmp_path):
        # absurd learning rate: the transform factors blow up mid-training
        rng = np.random.default_rng(0)
        io.write_tensor(tmp_path / "w.mxbt", rng.normal(size=(4, 64)))
        io.write_tensor(tmp_path / "acts.mxbt", rng.normal(size=(16, 64)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("weights = w.mxbt\ncalib = acts.mxbt\nlr = 1e8\nepochs = 3\n")
        with np.errstate(all="ignore"):
            assert main(["calibrate", "--config", str(cfg)]) == 3

    def test_nonfinite_input_is_data_error(self, tmp_path):
        # 1e200 overflows the f32 payload to inf; the quantizer rejects it
        with np.errstate(over="ignore"):
            io.write_tensor(tmp_path / "w.mxbt", np.full((4, 64), 1e200))
            io.write_tensor(tmp_path / "acts.mxbt", np.full((8, 64), 1e200))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("weights = w.mxbt\ncalib = acts.mxbt\nlr = 1e-3\nepochs = 1\n")
        with np.errstate(all="ignore"):
            assert main(["calibrate", "--config", str(cfg)]) == 2

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

    @pytest.mark.parametrize("line", ["epoch = 1", "learning_rate = 0.5", "g_1 = 4"],
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

    def test_calibrate_accepts_g32_and_seed(self, tmp_path):
        # configs that name the MX block and a seed keep running; seed is a no-op
        cfg, _, _ = _write_calib_bundle(tmp_path)
        base = cfg.read_text()
        assert main(["calibrate", "--config", str(cfg)]) == 0
        plain = (tmp_path / "out" / "loss_trace.csv").read_bytes()
        cfg.write_text(base + "g = 32\nseed = 123\n")
        assert main(["calibrate", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "loss_trace.csv").read_bytes() == plain

    @pytest.mark.parametrize("line", [
        "beta1 = 2", "beta2 = 1", "beta1 = -0.1", "lr = nan", "lr = inf", "eps = 0",
        "eps = nan", "weight_decay = inf", "clip_init = nan",
    ], ids=lambda line: line.replace(" = ", "="))
    def test_bad_hyperparameter_rejected_before_compute(self, tmp_path, capsys, line):
        cfg, _, _ = _write_calib_bundle(tmp_path)
        cfg.write_text(cfg.read_text() + line + "\n")
        _expect_one_data_error(["calibrate", "--config", str(cfg)], capsys, line.split()[0])
        assert not (tmp_path / "out" / "loss_trace.csv").exists()

    def test_param_count_table(self, capsys):
        assert main(["param-count", "--n", "4096", "--g", "32", "--g1", "8", "--g2", "4"]) == 0
        out = capsys.readouterr().out
        for value in ("8192", "131072", "10240", "2112"):
            assert value in out

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
        io.write_tensor(tmp_path / "x.mxbt", x)
        args = ["stats", "--tensor", str(tmp_path / "x.mxbt"), "--out", str(tmp_path / "s.csv")]
        if bad == "nan-transform":
            t = mq.GpkTransform.identity(64)
            t.a[2, 3] = np.nan
            io.write_transform_record(tmp_path / "t.gpkt", t)
            args += ["--transform", str(tmp_path / "t.gpkt")]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("mxquant: data:")
        assert not (tmp_path / "s.csv").exists()

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

    def test_stats_missing_tensor(self, tmp_path):
        assert main(["stats", "--tensor", str(tmp_path / "no.mxbt"), "--out", "x.csv"]) == 2

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out

    def test_verify_empty_files_dir_usage_error(self, tmp_path):
        assert main(["verify", "--files", str(tmp_path)]) == 1

    def test_python_m_mxquant_runs_the_cli(self):
        # an uninstalled checkout has no `mxquant` script; `python -m` must work
        src = str(Path(mq.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "mxquant", "param-count", "--n", "32"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "80" in proc.stdout

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


class TestVerifyMutation:
    def test_broken_value_set_fails_quantizer_check(self):
        # off-by-one in the top magnitude, injected into the implementation
        # side only; the oracle keeps the true grid and disagrees
        bad = mq.MxFormat("e2m1-bad", 2, 1, 2, np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0]))
        report = check_quantizer(mq.E2M1, n_blocks=300, impl_fmt=bad)
        assert not report.passed

    def test_fresh_build_passes(self):
        report = check_quantizer(n_blocks=300)
        assert report.passed
