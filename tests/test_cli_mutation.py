"""Seeded mutations of every kind of file the CLI reads, run through cli.main.

Each case copies one valid set of inputs (a run config, a block spec, f32
and mx tensors, a transform record with clip sections), mutates one file
and runs the command that reads it. Whatever the mutation:
- the command exits 0, 2 or 3, and no exception escapes main;
- a non-zero exit prints exactly one stderr line, `mxquant: data:` for 2
  and `mxquant: numeric:` for 3;
- an exit-0 run writes no NaN or inf;
- a NaN or inf written into a float section of a tensor or record is never
  accepted: the run exits non-zero.
"""

from __future__ import annotations

import contextlib
import io as stdio
import math
import random
import shutil
import struct
import warnings

import numpy as np
import pytest

from mxquant import io
from mxquant.cli import main
from mxquant.clipping import ClipParams
from mxquant.formats import E2M1, E4M3, quantize_tensor
from mxquant.transform import GpkTransform

CASES = 50  # per kind of file
SEEDS = {"config": 11, "spec": 12, "mxbt": 13, "gpkt": 14}
WIDTH = 64  # two MX blocks

RUN_CFG = ("format = W4A4KV16\nlr = 0.02\nepochs = 1\nbatch_size = 8\nclip_init = 4.0\n"
           "weights = w.mxbt\ncalib = x.mxbt\nout = out\n")
SPEC = ("hidden = 64\nhead_dim = 32\nn_heads = 2\nmlp_dim = 64\ntemplate = text\n"
        "format = W4A4KV4\nseed = 3\n")
# replacement values for a config or spec line; no int here makes a long run
VALUES = ["0", "-1", "1", "2", "32", "96", "1.5", "nan", "inf", "-inf", "1e308", "-1e308",
          "1e-320", "abc", "", "W8A8KV4", "W4A4", "vit", "text", "x.mxbt", "nope_*.mxbt"]
SPECIALS = [np.nan, np.inf, -np.inf, 3e38, -3e38, 1e-45]

TENSOR_HEAD = 8 + 4 * 2  # magic, version, dtype tag, rank, then two u32 dims
RECORD_HEAD = 4 + 2 + 5 * 4
K = WIDTH // 32
RECORD_SECTIONS = {"A": (0, 64), "B": (64, K * 16), "clip": (64 + K * 16, 4 * K)}


def _write_base(d):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, WIDTH))
    x[:, 5] *= 40.0
    io.write_tensor(d / "x.mxbt", x)
    io.write_tensor(d / "w.mxbt", rng.normal(size=(8, WIDTH)) / 8.0)
    io.write_tensor(d / "q4.mxbt", quantize_tensor(x, E2M1))
    io.write_tensor(d / "q8.mxbt", quantize_tensor(x, E4M3))
    t = GpkTransform(np.eye(8) + 0.1 * rng.normal(size=(8, 8)),
                     np.eye(4) + 0.1 * rng.normal(size=(K, 4, 4)))
    clips = [ClipParams(rng.normal(size=K) + 3.0, rng.normal(size=K) + 3.0) for _ in range(2)]
    io.write_transform_record(d / "t.gpkt", t, *clips)
    (d / "run.cfg").write_text(RUN_CFG)
    (d / "block.cfg").write_text(SPEC)


def _mutate_text(rnd: random.Random, raw: bytes) -> tuple[bytes, str]:
    lines = raw.split(b"\n")[:-1]
    i = rnd.randrange(len(lines))
    op = rnd.choice(["drop", "repeat", "value", "key", "insert", "truncate", "bit"])
    if op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(i, lines[i])
    elif op == "value":
        lines[i] = lines[i].split(b"=")[0] + b"= " + rnd.choice(VALUES).encode()
    elif op == "key":
        key = lines[i].split(b" ")[0]
        j = rnd.randrange(len(key))
        lines[i] = key[:j] + key[j + 1:] + lines[i][len(key):]
    else:
        out = b"\n".join(lines) + b"\n"
        at = rnd.randrange(len(out))
        if op == "insert":
            return out[:at] + rnd.randbytes(rnd.randint(1, 4)) + out[at:], f"insert@{at}"
        if op == "truncate":
            return out[:at], f"truncate@{at}"
        return _flip(out, at, rnd.randrange(8)), f"bit@{at}"
    return b"\n".join(lines) + b"\n", f"{op}@line{i + 1}"


def _flip(raw: bytes, at: int, bit: int) -> bytes:
    return raw[:at] + bytes([raw[at] ^ (1 << bit)]) + raw[at + 1:]


def _mutate_binary(rnd: random.Random, raw: bytes, head: int, sections) -> tuple[bytes, str, bool]:
    """A mutated file, its description, and whether a NaN or inf was written into a
    float section. sections maps a float section to its (first float, count), or is
    None for a file without float sections."""
    ops = ["truncate", "append", "header-bit", "body-bit"] + ["float"] * 2 * bool(sections)
    op = rnd.choice(ops)
    if op == "truncate":
        at = rnd.randrange(len(raw))
        return raw[:at], f"truncate@{at}", False
    if op == "append":
        return raw + rnd.randbytes(rnd.randint(1, 64)), "append", False
    if op != "float":
        at = rnd.randrange(head) if op == "header-bit" else rnd.randrange(head, len(raw))
        return _flip(raw, at, rnd.randrange(8)), f"{op}@{at}", False
    name = rnd.choice(sorted(sections))
    first, count = sections[name]
    at = head + 4 * (first + rnd.randrange(count))
    value = rnd.choice(SPECIALS)
    return (raw[:at] + struct.pack("<f", value) + raw[at + 4:], f"{name}={value}@{at}",
            not math.isfinite(value))


def _argv(target: str, rnd: random.Random, d):
    """The file to mutate, its float sections (None if it has none) and the command,
    whose paths all lie in d, that reads it."""
    if target == "config":
        return "run.cfg", None, ["calibrate", "--config", str(d / "run.cfg")]
    if target == "spec":
        return "block.cfg", None, ["simulate", "--spec", str(d / "block.cfg"),
                                   "--out", str(d / "report.csv"), "--rows", "4"]
    stats = ["stats", "--tensor", str(d / "x.mxbt"), "--out", str(d / "s.csv")]
    if target == "gpkt":
        return "t.gpkt", RECORD_SECTIONS, stats + ["--transform", str(d / "t.gpkt")]
    name = rnd.choice(["w.mxbt", "x.mxbt", "q4.mxbt", "q8.mxbt"])
    if name in ("q4.mxbt", "q8.mxbt"):
        return name, None, ["stats", "--tensor", str(d / name), "--out", str(d / "s.csv")]
    body = {"body": (0, (8 if name == "w.mxbt" else 16) * WIDTH)}
    if name == "w.mxbt" or rnd.random() < 0.5:
        return name, body, ["calibrate", "--config", str(d / "run.cfg")]
    return name, body, stats


def _nonfinite_outputs(d) -> list[str]:
    """Output files of an exit-0 run that hold NaN or inf."""
    bad = []
    for csv in d.rglob("*.csv"):
        cells = [c for line in csv.read_text().splitlines()[1:] for c in line.split(",")]
        numbers = []
        for c in cells:
            with contextlib.suppress(ValueError):  # a site name
                numbers.append(float(c))
        if not all(map(math.isfinite, numbers)):
            bad.append(csv.name)
    out = d / "out"
    if out.exists():
        if not np.all(np.isfinite(np.frombuffer((out / "transform.gpkt").read_bytes(),
                                                "<f4", offset=RECORD_HEAD))):
            bad.append("transform.gpkt")
        if not np.all(np.isfinite(io.read_tensor(out / "fused_weights.mxbt").to_dense())):
            bad.append("fused_weights.mxbt")
    return bad


def _run_case(argv) -> tuple[int | None, list[str], str]:
    """(exit code or None, stderr lines, escaped exception) of main(argv)."""
    err = stdio.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(stdio.StringIO()):
        # numpy's floating-point warnings on the way to a numeric failure are not
        # the CLI's error line
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            code = main(argv)
        except (Exception, SystemExit) as e:  # any escape is a finding
            return None, err.getvalue().splitlines(), repr(e)
    return code, err.getvalue().splitlines(), ""


@pytest.mark.parametrize("target", sorted(SEEDS))
def test_mutated_inputs_exit_cleanly(tmp_path, target):
    base = tmp_path / "base"
    base.mkdir()
    _write_base(base)
    rnd = random.Random(SEEDS[target])
    problems, codes = [], []
    for i in range(CASES):
        d = tmp_path / f"case{i:02d}"
        shutil.copytree(base, d)
        name, sections, argv = _argv(target, rnd, d)
        raw = (d / name).read_bytes()
        if name.endswith(".cfg"):
            mutated, what = _mutate_text(rnd, raw)
            nonfinite = False
        else:
            head = RECORD_HEAD if name.endswith(".gpkt") else TENSOR_HEAD
            mutated, what, nonfinite = _mutate_binary(rnd, raw, head, sections)
        (d / name).write_bytes(mutated)
        code, err, escaped = _run_case(argv)
        codes.append(code)
        case = f"case {i} {name} {what}: {argv[0]}"
        if escaped:
            problems.append(f"{case}: {escaped} escaped main")
        elif code not in (0, 2, 3):
            problems.append(f"{case}: exit {code}")
        elif code == 0:
            if nonfinite:
                problems.append(f"{case}: a non-finite value was accepted")
            problems += [f"{case}: {f} holds NaN or inf" for f in _nonfinite_outputs(d)]
        else:
            prefix = "mxquant: data: " if code == 2 else "mxquant: numeric: "
            if len(err) != 1 or not err[0].startswith(prefix):
                problems.append(f"{case}: exit {code} with stderr {err}")
        shutil.rmtree(d)
    assert not problems, "\n".join(problems)
    # the seeded cases reach both outcomes, so neither property is vacuous
    assert 0 in codes and 2 in codes
