"""Binary tensor files, transform records, config files, and CSV reports.

Tensor file (.mxbt), little-endian throughout:
    magic   4 bytes  b"MXBT"
    version u16      1
    dtype   u8       0 = f32, 1 = mx4 (e2m1 codes), 2 = mx8 (e4m3 codes)
    rank    u8
    dims    rank * u32
    payload f32: row-major float32
            mx4/mx8: per block (innermost axis, row-major block order):
                scale_exp i8, then 32 * bits / 8 bytes of codes; mx4 packs
                two 4-bit codes per byte with the first code in the LOW
                nibble (16 bytes), mx8 stores one code per byte (32 bytes)
    An mx tensor's innermost dimension is a positive multiple of the
    32-element MX block (rank 0 counts as width 0).

Transform record (.gpkt):
    magic   4 bytes  b"GPKT"
    version u16      1
    header  5 * u32  N, g, g1, g2, k   must be (32k, 32, 8, 4, k) with
                     k >= 1: the MX block and the fixed split
                     transform.G1 x transform.G2
    body    float32, row-major: A (g1, g1), then B (k, g2, g2) (block 0
            first), then the (4, k) clip logits, whose rows are
            activation alpha_min, activation alpha_max, weight alpha_min,
            weight alpha_max; (64 + 20k) * 4 bytes, the one legal size

Each layout is one header struct and one body dtype, shared by writer and
reader. Both readers read the fixed header (and a tensor's dims) alone,
check magic and version, and compare the payload size the header implies
with the file's size from os.fstat, all before any payload byte is read or
allocated (so a path that is not a regular file, such as a pipe, is
refused); then readinto fills one array of the body dtype. Each writer
fills one array that is the file body and hands its buffer to f.write.
Each payload rule is one check, run by the writer before it opens the file
and by the reader after it unpacks the payload: mx scale exponents lie in
[-127, 127] and codes index the format's value set (_check_payload), and
f32 values and record sections are finite, once cast (_check_finite).

A tensor body is filled and unpacked in chunks on formats.run_chunks:
CHUNK blocks of an mx body, CHUNK * BLOCK values of an f32 one. The
writer's chunk casts (f32) or packs (mx4) its part of the body, and an f32
chunk is then checked; the reader's f32 chunk is checked, then widened into
the float64 result. mx4 packs a code pair by viewing it as one '<u2' v:
both codes are below 16, so the low byte of v | v >> 4 is lo | hi << 4;
the reader reverses it in place, v |= v << 4, v &= 0x0F0F. A failing chunk
reports its first bad value by its index in the whole tensor, and the
first failing chunk's error is raised (the runner rule of the formats
docstring), so the message names the first bad value, as a serial check
would.

Config files are flat text, one `key = value` per line; blank lines and
lines starting with # are ignored. Both kinds (run configs, block specs)
are read by _read_config: the fields of one dataclass (CalibConfig,
ToyBlockSpec), cast to their type hints and then checked by its own
check_field, plus `format` and the file's own keys (_run_schema, a spec's
seed). read_kv_file is the only place a config value is cast. A cast also
applies the value's rules: paths resolve against the file's directory, taken
literally, and calib patterns, which glob only their own text, must match a
file. A file that is not UTF-8 text, an unknown key, a key set twice or a
value its cast rejects is an error naming file:line, so nothing falls back
silently; the message quotes at most _ECHO_CHARS characters of each piece of
file text. A config file is read with one bounded read, so it may be a pipe,
and one over CONFIG_MAX_BYTES (1 MiB) is refused by name without being read
whole.
"""

from __future__ import annotations

import glob
import math
import os
import stat
import struct
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .calib import CalibConfig
from .clipping import ClipParams
from .errors import DataError, FileFormatError, ShapeError
from .formats import (BLOCK, CHUNK, E2M1, E4M3, FormatConfig, MxFormat, MxTensor,
                      block_count, run_chunks)
from .harness import ToyBlockSpec
from .transform import G1, G2, GpkTransform

TENSOR_MAGIC = b"MXBT"
RECORD_MAGIC = b"GPKT"
VERSION = 1

_TENSOR_HEAD = struct.Struct("<4sHBB")  # magic, version, dtype tag, rank; then rank u32 dims
_RECORD_HEAD = struct.Struct("<4sH5I")  # magic, version, N, g, g1, g2, k

# dtype tag -> element format, None for f32
_DTYPES = {0: None, 1: E2M1, 2: E4M3}
_TAGS = {fmt: tag for tag, fmt in _DTYPES.items()}
_F32_CHUNK = CHUNK * BLOCK  # f32 values per chunk of a tensor body


def _block_dtype(fmt: MxFormat) -> np.dtype:
    # one record per block: scale_exp, then the codes at fmt.bits each
    return np.dtype([("e", "i1"), ("c", "u1", BLOCK * fmt.bits // 8)])


def _record_dtype(k: int) -> np.dtype:
    """The .gpkt body after the header."""
    return np.dtype([("A", "<f4", (G1, G1)), ("B", "<f4", (k, G2, G2)),
                     ("clip", "<f4", (4, k))])


def _check_mx_width(shape, where) -> None:
    try:
        block_count(shape[-1] if shape else 0, f"{where}: innermost dimension")
    except ShapeError as e:
        raise FileFormatError(str(e)) from None


def _first_outside(a, lo: int, hi: int):
    """The first element of a outside [lo, hi], or None. A min/max reduction
    decides, and a bound that a's integer dtype already keeps is not reduced;
    only a failed one searches the elements."""
    if a.size == 0:
        return None
    low_ok = high_ok = False
    if a.dtype.kind in "ui":
        info = np.iinfo(a.dtype)
        low_ok, high_ok = lo <= info.min, hi >= info.max
    if (low_ok or lo <= a.min()) and (high_ok or a.max() <= hi):
        return None
    return a[(a < lo) | (a > hi)][0]


def _check_payload(path, fmt: MxFormat, scale_exps, codes) -> None:
    """Scale exponents lie in [-127, 127]; codes fit fmt.bits and index fmt's value
    set. An index check is skipped where the value set fills the index bits (e2m1),
    so uint8 codes take one reduction: e2m1 a max, e4m3 a masked max."""
    bad = _first_outside(np.asarray(scale_exps), -127, 127)
    if bad is not None:
        raise FileFormatError(f"{path}: scale exponent {bad} is outside [-127, 127]")
    codes = np.asarray(codes)
    bad = _first_outside(codes, 0, (1 << fmt.bits) - 1)
    if bad is not None:
        raise FileFormatError(f"{path}: code {bad:#x} is not a {fmt.bits}-bit code")
    if (codes.size and len(fmt.value_set) < 1 << fmt.sign_shift
            and (codes & ((1 << fmt.sign_shift) - 1)).max() >= len(fmt.value_set)):
        raise FileFormatError(f"{path}: code index outside the {fmt.name} value set")


def _check_finite(path, a, where: str = "", start: int = 0) -> None:
    """Every element of the float array a is finite; else name the first bad one,
    numbering a's elements from start."""
    if not (ok := np.isfinite(a)).all():
        bad = int(np.argmin(ok))
        raise FileFormatError(
            f"{path}: non-finite value {a.flat[bad]} at element {start + bad}{where}")


def _read_head(f, path, magic: bytes, head: struct.Struct, what: str):
    """The header fields after magic and version, read from the open file f."""
    raw = f.read(head.size)
    if len(raw) < head.size or raw[:4] != magic:
        raise FileFormatError(f"{path}: not a {what} (bad magic)")
    _, version, *fields = head.unpack(raw)
    if version != VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    return fields


def _read_body(f, path, dt: np.dtype, count: int) -> np.ndarray:
    """The rest of the open file f as count items of dt, which must be its exact
    size. The size is the file's, so a wrong one is refused before any payload
    byte is read or allocated.

    Sizes are Python ints, so a product of header fields cannot wrap. A pipe or
    other stream has no size to check, so it is refused.
    """
    st = os.fstat(f.fileno())
    if not stat.S_ISREG(st.st_mode):
        raise FileFormatError(f"{path}: not a regular file")
    size, expect = st.st_size - f.tell(), count * dt.itemsize
    if size == expect:
        body = np.empty(count, dtype=dt)
        size = f.readinto(body)  # short if the file shrank since fstat
    if size != expect:
        raise FileFormatError(f"{path}: payload is {size} bytes, expected {expect}")
    return body


def write_tensor(path, tensor) -> None:
    """Write a float array (as f32) or an MxTensor to a .mxbt file.

    The body is filled, and every payload rule checked, before the file is
    opened, so a refused tensor leaves no file.
    """
    if isinstance(tensor, MxTensor):
        fmt = tensor.fmt
        if fmt not in _TAGS:
            raise FileFormatError(f"no dtype tag for format {fmt.name}")
        tag = _TAGS[fmt]
        _check_mx_width(tensor.shape, path)
        blocks = math.prod(tensor.shape) // BLOCK
        scale_exps, codes = tensor.scale_exps, tensor.codes
        if scale_exps.shape != (blocks,) or codes.shape != (blocks, BLOCK):
            raise FileFormatError(
                f"{path}: shape {tensor.shape} needs {blocks} blocks of {BLOCK} codes, got "
                f"scale exponents {scale_exps.shape} and codes {codes.shape}")
        _check_payload(path, fmt, scale_exps, codes)
        body = np.empty(blocks, dtype=_block_dtype(fmt))

        def fill(s, e):
            body["e"][s:e] = scale_exps[s:e]
            c = np.ascontiguousarray(codes[s:e], dtype=np.uint8)
            if fmt.bits == 4:  # code pair v = lo | hi << 8: v >> 4 | v ends in lo | hi << 4
                v = c.view("<u2")
                c = v >> 4
                c |= v
            body["c"][s:e] = c

        run_chunks(blocks, CHUNK, fill)
    else:
        tag = _TAGS[None]
        tensor = np.asarray(tensor)
        src = tensor.reshape(-1)
        body = np.empty(src.size, dtype="<f4")

        def fill(s, e):
            body[s:e] = src[s:e]
            _check_finite(path, body[s:e], "", s)

        with np.errstate(over="ignore"):  # an overflow to inf is reported by the check
            run_chunks(src.size, _F32_CHUNK, fill)

    shape = tensor.shape
    with open(path, "wb") as f:
        f.write(_TENSOR_HEAD.pack(TENSOR_MAGIC, VERSION, tag, len(shape)))
        f.write(struct.pack(f"<{len(shape)}I", *shape))
        f.write(body)


def read_tensor(path):
    """Read a .mxbt file; returns a float64 array or an MxTensor.

    Sizes, the MX block rule, scale exponents and code indices are checked
    against the layout before the payload is decoded; f32 values must be
    finite.
    """
    with open(path, "rb") as f:
        tag, rank = _read_head(f, path, TENSOR_MAGIC, _TENSOR_HEAD, "tensor file")
        raw = f.read(4 * rank)
        if len(raw) < 4 * rank:
            raise FileFormatError(f"{path}: truncated header")
        dims = struct.unpack(f"<{rank}I", raw)
        count = math.prod(dims)  # Python ints: no overflow
        if tag not in _DTYPES:
            raise FileFormatError(f"{path}: unknown dtype tag {tag}")
        fmt = _DTYPES[tag]
        if fmt is None:
            data = _read_body(f, path, np.dtype("<f4"), count)
        else:
            _check_mx_width(dims, path)
            rec = _read_body(f, path, _block_dtype(fmt), count // BLOCK)

    if fmt is None:
        out = np.empty(count)

        def widen(s, e):
            _check_finite(path, data[s:e], "", s)
            out[s:e] = data[s:e]

        run_chunks(count, _F32_CHUNK, widen)
        return out.reshape(dims)

    scale_exps = rec["e"].copy()
    if fmt.bits == 4:
        codes = np.empty((len(rec), BLOCK), dtype=np.uint8)

        def unpack(s, e):
            v = codes[s:e].view("<u2")  # one code pair per packed byte, low nibble first
            v[...] = rec["c"][s:e]
            v |= v << 4
            v &= 0x0F0F

        run_chunks(len(rec), CHUNK, unpack)
    else:  # a view: the body holds nothing but these codes and the scale bytes
        codes = rec["c"]
    _check_payload(path, fmt, scale_exps, codes)
    return MxTensor(tuple(dims), fmt, scale_exps, codes)


def write_transform_record(path, t: GpkTransform, act_clip, weight_clip) -> None:
    if not act_clip.k == weight_clip.k == t.k:
        raise ValueError(f"clip sections need {t.k} logit pairs, one per block")
    body = np.empty((), dtype=_record_dtype(t.k))
    with np.errstate(over="ignore"):  # an overflow to inf is reported just below
        body["A"], body["B"] = t.a, t.b
        body["clip"] = (act_clip.alpha_min, act_clip.alpha_max,
                        weight_clip.alpha_min, weight_clip.alpha_max)
    for name in body.dtype.names:
        _check_finite(path, body[name], f" of section {name}")
    with open(path, "wb") as f:
        f.write(_RECORD_HEAD.pack(RECORD_MAGIC, VERSION, t.n, BLOCK, G1, G2, t.k))
        f.write(body)


def read_transform_record(path):
    """Returns (transform, act_clip, weight_clip)."""
    with open(path, "rb") as f:
        n, g, g1, g2, k = _read_head(f, path, RECORD_MAGIC, _RECORD_HEAD, "transform record")
        if k == 0 or (n, g, g1, g2) != (k * BLOCK, BLOCK, G1, G2):
            raise FileFormatError(
                f"{path}: header (N={n}, g={g}, g1={g1}, g2={g2}, k={k}) is not "
                f"(N={BLOCK}k, g={BLOCK}, g1={G1}, g2={G2}, k) with k >= 1: transforms act "
                f"on the {BLOCK}-element MX block split {G1}x{G2}"
            )
        try:  # numpy caps a record below 2 GiB
            dt = _record_dtype(k)
        except ValueError:
            raise FileFormatError(f"{path}: header k={k} needs a body over 2 GiB") from None
        rec = _read_body(f, path, dt, 1)[0]
    for name in rec.dtype.names:
        _check_finite(path, rec[name], f" of section {name}")
    clip = rec["clip"]
    return GpkTransform(rec["A"], rec["B"]), ClipParams(*clip[:2]), ClipParams(*clip[2:])


# -- flat key=value config files ------------------------------------------


CONFIG_MAX_BYTES = 1 << 20  # a longer file is refused; every config here is under 1 KB
_ECHO_CHARS = 80  # a message quotes at most this much of each piece of file text


def _echo(text: str) -> str:
    """text for a one-line message: cut to _ECHO_CHARS characters, non-printables escaped."""
    text = text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."
    return "".join(c if c.isprintable() else ascii(c)[1:-1] for c in text)


def read_kv_file(path, schema) -> dict:
    """Parse a config file into {key: schema[key](value)}.

    Raises FileFormatError naming path for a file over CONFIG_MAX_BYTES, and
    naming path:line for bytes that are not UTF-8, a line that is not
    `key = value`, a key not in schema, a key set twice, or a value its cast
    rejects with ValueError or DataError. A rejection gets the prefix
    `key = value: ` unless it already starts with `key = ` (a check_field
    message states the field and its value itself). The line, key, value and
    cast message a message quotes are each cut and escaped by _echo.
    """
    with open(path, "rb") as f:
        raw = f.read(CONFIG_MAX_BYTES + 1)
    if len(raw) > CONFIG_MAX_BYTES:
        raise FileFormatError(f"{path}: over {CONFIG_MAX_BYTES} bytes, not a config file")
    raw = raw.removeprefix(b"\xef\xbb\xbf")  # one leading UTF-8 byte-order mark is not text
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        ln = raw.count(b"\n", 0, e.start) + 1
        raise FileFormatError(f"{path}:{ln}: not UTF-8 text ({e.reason})") from None
    out = {}
    for ln, line in enumerate(text.split("\n"), start=1):  # lines end at \n, as grep -n counts
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise FileFormatError(f"{path}:{ln}: expected 'key = value', got '{_echo(line)}'")
        if key not in schema:
            raise FileFormatError(f"{path}:{ln}: unknown key '{_echo(key)}'")
        if key in out:
            raise FileFormatError(f"{path}:{ln}: {key!r} is set twice")
        try:
            out[key] = schema[key](value)
        except (ValueError, DataError) as e:
            msg = _echo(str(e))
            if not msg.startswith(f"{key} = "):
                msg = f"{key} = {_echo(value)}: {msg}"
            raise FileFormatError(f"{path}:{ln}: {msg}") from e
    return out


def _int_where(ok, rule: str):
    """Cast to int, rejecting with rule a value for which ok is false."""

    def cast(value: str) -> int:
        if not ok(n := int(value)):
            raise ValueError(rule)
        return n

    return cast


def _checked(cls, name: str, cast):
    """Cast, then apply the dataclass cls's own rule for the field name (cls.check_field)."""

    def checked(value: str):
        v = cast(value)
        cls.check_field(name, v)
        return v

    return checked


_MX_BLOCK = f"transform and clip blocks are the {BLOCK}-element MX block, split {G1} x {G2}"
_DEFAULT_FORMATS = FormatConfig.from_name("W4A4KV16")


def _run_schema(base: Path) -> dict:
    """Casts of a run config's own keys, whose paths are relative to base.

    `g`, `g1`, `g2` (fixed by the MX block) and `seed` (ignored: calibration
    draws no random numbers) keep older configs running.
    """

    def path(value: str) -> str:
        if not value:
            raise ValueError("empty path")
        return str(base / value)

    def patterns(value: str) -> list[str]:
        pats = value.replace(",", " ").split()
        if not pats:
            raise ValueError("empty path")
        hits = []
        for pat in pats:
            found = sorted(glob.glob(str(Path(glob.escape(str(base))) / pat)))
            if not found:
                raise ValueError(f"no calibration files match {pat!r}")
            hits.extend(found)
        return hits

    return {
        "weights": path, "calib": patterns, "out": path, "seed": int,
        "g": _int_where(lambda n: n == BLOCK, _MX_BLOCK),
        "g1": _int_where(lambda n: n == G1, _MX_BLOCK),
        "g2": _int_where(lambda n: n == G2, _MX_BLOCK),
    }


def _read_config(path, cls, own: dict, required: tuple[str, ...], what: str):
    """Read cls's fields (cast to their type hints, then cls.check_field), `format` and
    own's keys (cast by own). Fields without a default and the keys of required must be
    set. Returns (cls instance, formats or _DEFAULT_FORMATS, {own key: value})."""
    hints = get_type_hints(cls)
    kv = read_kv_file(path, {**{n: _checked(cls, n, cast) for n, cast in hints.items()},
                             "format": FormatConfig.from_name, **own})
    for key in [f.name for f in fields(cls) if f.default is MISSING] + list(required):
        if key not in kv:
            raise FileFormatError(f"{path}: missing {what} key {key!r}")
    obj = cls(**{n: kv.pop(n) for n in hints if n in kv})
    return obj, kv.pop("format", _DEFAULT_FORMATS), kv


@dataclass
class RunConfig:
    """A calibration job parsed from a config file.

    weights and calib are required. Absent hyperparameters take
    CalibConfig's defaults and an absent format takes _DEFAULT_FORMATS.
    Paths in the file are relative to the file's directory; calib patterns
    are expanded while parsing. No tensor is read here.
    """

    formats: FormatConfig
    calib: CalibConfig
    weights_path: str
    calib_paths: list[str]
    out_dir: str | None = None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        calib, formats, kv = _read_config(path, CalibConfig, _run_schema(Path(path).parent),
                                          ("weights", "calib"), "config")
        return cls(formats, calib, kv["weights"], kv["calib"], kv.get("out"))


# -- CSV reports -----------------------------------------------------------


def _write_csv(path, header, rows) -> None:
    """Header, then one line per row: a str cell as is, any other cell as its repr."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else repr(c) for c in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_loss_csv(path, trace) -> None:
    """Loss trace rows (step, lr, loss)."""
    _write_csv(path, ["step", "lr", "loss"], trace)


def write_stats_csv(path, rows, n_bins: int) -> None:
    """Per-block histogram report from cmd_stats."""
    header = ["block", "bimodality_pre", "bimodality_post"]
    header += [f"pre_{i}" for i in range(n_bins)]
    header += [f"post_{i}" for i in range(n_bins)]
    _write_csv(path, header, ([r["block"], r["bimodality_pre"], r["bimodality_post"],
                               *map(int, r["pre"]), *map(int, r["post"])] for r in rows))


def write_error_report(path, rows) -> None:
    """Harness comparison rows: (site, mse_before, mse_after)."""
    _write_csv(path, ["site", "mse_before", "mse_after"], rows)


def read_block_spec(path):
    """Parse a toy-block spec file into (ToyBlockSpec, FormatConfig, seed)."""
    seed = {"seed": _int_where(lambda n: n >= 0, "must be non-negative")}
    spec, formats, kv = _read_config(path, ToyBlockSpec, seed, (), "block spec")
    return spec, formats, kv.get("seed", 0)
