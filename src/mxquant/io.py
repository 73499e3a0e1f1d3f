"""Binary tensor files, transform records, config files, and CSV reports.

Tensor file (.mxbt), little-endian throughout:
    magic   4 bytes  b"MXBT"
    version u16      1
    dtype   u8       0 = f32, 1 = mx4 (e2m1 codes), 2 = mx8 (e4m3 codes)
    rank    u8
    dims    rank * u32
    payload f32: row-major float32
            mx4/mx8: per block (innermost axis, row-major block order):
                scale_exp i8, then codes; mx4 packs two 4-bit codes per
                byte with the first code in the LOW nibble (16 bytes),
                mx8 stores one code per byte (32 bytes)

Transform record (.gpkt):
    magic   4 bytes  b"GPKT"
    version u16      1
    header  5 * u32  N, g, g1, g2, k   must be (32k, 32, 8, 4, k): the MX
                     block and the fixed split transform.G1 x transform.G2
    A       g1*g1 float32, row-major
    B       k*g2*g2 float32, row-major (block 0 first)
    optional clip section, 4*k float32: activation alpha_min, activation
    alpha_max, weight alpha_min, weight alpha_max

Config files are flat text, one `key = value` per line; blank lines and
lines starting with # are ignored. Each kind of file has one schema mapping
its keys to casts (_run_schema, _SPEC_SCHEMA), and read_kv_file is the only
place a config value is cast. A cast also applies the value's rules: paths
resolve against the file's directory and calib patterns must match a file,
and block spec values pass ToyBlockSpec's own check. An unknown key, a key
set twice or a value its cast rejects is an error naming file:line, so
nothing falls back silently.
"""

from __future__ import annotations

import glob
import math
import struct
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .calib import CalibConfig
from .clipping import ClipParams
from .errors import DataError, FileFormatError
from .formats import BLOCK, E2M1, E4M3, FormatConfig, MxTensor
from .harness import ToyBlockSpec
from .transform import G1, G2, GpkTransform

TENSOR_MAGIC = b"MXBT"
RECORD_MAGIC = b"GPKT"
VERSION = 1

_DTYPE_TAGS = {"f32": 0, "mx4": 1, "mx8": 2}
_TAG_FORMATS = {1: E2M1, 2: E4M3}


def _block_dtype(tag: int) -> np.dtype:
    # one record per block: scale_exp, then the (packed) codes
    return np.dtype([("e", "i1"), ("c", "u1", BLOCK // 2 if tag == _DTYPE_TAGS["mx4"] else BLOCK)])


def write_tensor(path, tensor) -> None:
    """Write a float array (as f32) or an MxTensor to a .mxbt file."""
    path = Path(path)
    if isinstance(tensor, MxTensor):
        if tensor.fmt.name == "e2m1":
            tag = _DTYPE_TAGS["mx4"]
        elif tensor.fmt.name == "e4m3":
            tag = _DTYPE_TAGS["mx8"]
        else:
            raise FileFormatError(f"no dtype tag for format {tensor.fmt.name}")
        shape = tensor.shape
        if np.any(np.abs(tensor.scale_exps.astype(np.int64)) > 127):
            raise FileFormatError("scale exponent outside [-127, 127]")
        rec = np.empty(tensor.n_blocks, dtype=_block_dtype(tag))
        rec["e"] = tensor.scale_exps
        c = tensor.codes
        if tag == _DTYPE_TAGS["mx4"]:
            # two codes per byte, first code in the low nibble
            c = (c[:, 0::2] & 0x0F) | (c[:, 1::2] << 4)
        rec["c"] = c
        payload = rec.tobytes()
    else:
        tag = _DTYPE_TAGS["f32"]
        tensor = np.asarray(tensor)
        shape = tensor.shape
        payload = np.ascontiguousarray(tensor, dtype="<f4").tobytes()

    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC)
        f.write(struct.pack("<HBB", VERSION, tag, len(shape)))
        f.write(struct.pack(f"<{len(shape)}I", *shape))
        f.write(payload)


def read_tensor(path):
    """Read a .mxbt file; returns a float64 array or an MxTensor.

    Sizes, scale exponents and code indices are checked against the layout
    before the payload is decoded.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 8 or raw[:4] != TENSOR_MAGIC:
        raise FileFormatError(f"{path}: not a tensor file (bad magic)")
    version, tag, rank = struct.unpack_from("<HBB", raw, 4)
    if version != VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    off = 8
    if len(raw) < off + 4 * rank:
        raise FileFormatError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{rank}I", raw, off)
    off += 4 * rank
    count = math.prod(dims)  # Python ints: no overflow

    if tag == _DTYPE_TAGS["f32"]:
        expect = count * 4
        if len(raw) - off != expect:
            raise FileFormatError(f"{path}: payload is {len(raw) - off} bytes, expected {expect}")
        data = np.frombuffer(raw, dtype="<f4", count=count, offset=off)
        return data.astype(np.float64).reshape(dims)

    if tag not in _TAG_FORMATS:
        raise FileFormatError(f"{path}: unknown dtype tag {tag}")
    fmt = _TAG_FORMATS[tag]
    if count % BLOCK:
        raise FileFormatError(f"{path}: element count {count} is not a multiple of {BLOCK}")
    n_blocks = count // BLOCK
    dt = _block_dtype(tag)
    expect = n_blocks * dt.itemsize
    if len(raw) - off != expect:
        raise FileFormatError(f"{path}: payload is {len(raw) - off} bytes, expected {expect}")

    rec = np.frombuffer(raw, dtype=dt, count=n_blocks, offset=off)
    scale_exps = rec["e"].copy()
    if np.any(scale_exps == -128):
        raise FileFormatError(f"{path}: scale exponent -128 is outside [-127, 127]")
    if tag == _DTYPE_TAGS["mx4"]:
        codes = np.empty((n_blocks, BLOCK), dtype=np.uint8)
        codes[:, 0::2] = rec["c"] & 0x0F
        codes[:, 1::2] = rec["c"] >> 4
    else:
        codes = rec["c"].copy()
    if np.any((codes & ((1 << fmt.sign_shift) - 1)) >= len(fmt.value_set)):
        raise FileFormatError(f"{path}: code index outside the {fmt.name} value set")
    return MxTensor(tuple(dims), fmt, scale_exps, codes)


def write_transform_record(path, t: GpkTransform, act_clip=None, weight_clip=None) -> None:
    if (act_clip is None) != (weight_clip is None):
        raise ValueError("write both clip sections or neither")
    with open(path, "wb") as f:
        f.write(RECORD_MAGIC)
        f.write(struct.pack("<H", VERSION))
        f.write(struct.pack("<5I", t.n, BLOCK, G1, G2, t.k))
        f.write(np.ascontiguousarray(t.a, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(t.b, dtype="<f4").tobytes())
        if act_clip is not None:
            for arr in (
                act_clip.alpha_min,
                act_clip.alpha_max,
                weight_clip.alpha_min,
                weight_clip.alpha_max,
            ):
                f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_transform_record(path):
    """Returns (transform, act_clip | None, weight_clip | None)."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 26 or raw[:4] != RECORD_MAGIC:
        raise FileFormatError(f"{path}: not a transform record (bad magic)")
    version = struct.unpack_from("<H", raw, 4)[0]
    if version != VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    header = struct.unpack_from("<5I", raw, 6)
    k = header[4]
    if header != (k * BLOCK, BLOCK, G1, G2, k):
        n, g, g1, g2, _ = header
        raise FileFormatError(
            f"{path}: header (N={n}, g={g}, g1={g1}, g2={g2}, k={k}) is not "
            f"(N={k * BLOCK}, g={BLOCK}, g1={G1}, g2={G2}, k={k}): transforms act on the "
            f"{BLOCK}-element MX block split {G1}x{G2}"
        )
    off = 26
    need = (G1 * G1 + k * G2 * G2) * 4
    if len(raw) - off < need:
        raise FileFormatError(f"{path}: truncated factor payload")
    a = np.frombuffer(raw, dtype="<f4", count=G1 * G1, offset=off).astype(np.float64)
    off += G1 * G1 * 4
    b = np.frombuffer(raw, dtype="<f4", count=k * G2 * G2, offset=off).astype(np.float64)
    off += k * G2 * G2 * 4
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise FileFormatError(f"{path}: non-finite transform factor")
    t = GpkTransform(a.reshape(G1, G1), b.reshape(k, G2, G2))

    rest = len(raw) - off
    if rest == 0:
        return t, None, None
    if rest != 4 * k * 4:
        raise FileFormatError(f"{path}: clip section is {rest} bytes, expected {4 * k * 4}")
    logits = np.frombuffer(raw, dtype="<f4", count=4 * k, offset=off).astype(np.float64)
    if not np.all(np.isfinite(logits)):
        raise FileFormatError(f"{path}: non-finite clip logit")
    act = ClipParams(logits[:k], logits[k : 2 * k])
    wgt = ClipParams(logits[2 * k : 3 * k], logits[3 * k :])
    return t, act, wgt


# -- flat key=value config files ------------------------------------------


def read_kv_file(path, schema) -> dict:
    """Parse a config file into {key: schema[key](value)}.

    Raises FileFormatError naming path:line for a line that is not
    `key = value`, a key not in schema, a key set twice, or a value its cast
    rejects with ValueError or DataError.
    """
    out = {}
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise FileFormatError(f"{path}:{ln}: expected 'key = value', got {line!r}")
        if key not in schema:
            raise FileFormatError(f"{path}:{ln}: unknown key {key!r}")
        if key in out:
            raise FileFormatError(f"{path}:{ln}: {key!r} is set twice")
        try:
            out[key] = schema[key](value)
        except (ValueError, DataError) as e:
            raise FileFormatError(f"{path}:{ln}: {key} = {value}: {e}") from e
    return out


def _int_where(ok, rule: str):
    """Cast to int, rejecting with rule a value for which ok is false."""

    def cast(value: str) -> int:
        if not ok(n := int(value)):
            raise ValueError(rule)
        return n

    return cast


_MX_BLOCK = f"transform and clip blocks are the {BLOCK}-element MX block, split {G1} x {G2}"
_DEFAULT_FORMATS = FormatConfig.from_name("W4A4KV16")


def _run_schema(base: Path) -> dict:
    """Casts of a run config whose paths are relative to base.

    Every CalibConfig field is cast to its default's type. `g`, `g1`, `g2`
    (fixed by the MX block) and `seed` (ignored: calibration draws no random
    numbers) keep older configs running.
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
            found = sorted(glob.glob(str(base / pat)))
            if not found:
                raise ValueError(f"no calibration files match {pat!r}")
            hits.extend(found)
        return hits

    return {
        **{f.name: type(f.default) for f in fields(CalibConfig)},
        "format": FormatConfig.from_name, "weights": path, "calib": patterns, "out": path,
        "seed": int,
        "g": _int_where(lambda n: n == BLOCK, _MX_BLOCK),
        "g1": _int_where(lambda n: n == G1, _MX_BLOCK),
        "g2": _int_where(lambda n: n == G2, _MX_BLOCK),
    }


def _spec_value(name: str, cast):
    """Cast, then apply ToyBlockSpec's own rule for the field name."""

    def checked(value: str):
        v = cast(value)
        ToyBlockSpec.check_field(name, v)
        return v

    return checked


_SPEC_SCHEMA = {
    **{name: _spec_value(name, cast) for name, cast in (
        ("hidden", int), ("head_dim", int), ("n_heads", int), ("mlp_dim", int), ("template", str))},
    "format": FormatConfig.from_name, "seed": _int_where(lambda n: n >= 0, "must be non-negative"),
}


@dataclass
class RunConfig:
    """A calibration job parsed from a config file (_run_schema).

    Absent hyperparameters take CalibConfig's defaults and an absent format
    takes _DEFAULT_FORMATS. Paths in the file are relative to the file's
    directory; calib patterns are expanded while parsing. No tensor is read
    here.
    """

    formats: FormatConfig
    calib: CalibConfig
    weights_path: str | None = None
    calib_paths: list[str] = field(default_factory=list)
    out_dir: str | None = None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        kv = read_kv_file(path, _run_schema(Path(path).parent))
        calib = CalibConfig(**{f.name: kv[f.name] for f in fields(CalibConfig) if f.name in kv})
        return cls(kv.get("format", _DEFAULT_FORMATS), calib, kv.get("weights"),
                   kv.get("calib", []), kv.get("out"))


# -- CSV reports -----------------------------------------------------------


def write_loss_csv(path, trace) -> None:
    """Loss trace rows (step, lr, loss); floats as shortest round-trip repr."""
    lines = ["step,lr,loss"]
    lines += [f"{step},{lr!r},{loss!r}" for step, lr, loss in trace]
    Path(path).write_text("\n".join(lines) + "\n")


def write_stats_csv(path, rows, n_bins: int) -> None:
    """Per-block histogram report from cmd_stats."""
    header = ["block", "bimodality_pre", "bimodality_post"]
    header += [f"pre_{i}" for i in range(n_bins)]
    header += [f"post_{i}" for i in range(n_bins)]
    lines = [",".join(header)]
    for r in rows:
        cells = [str(r["block"]), repr(r["bimodality_pre"]), repr(r["bimodality_post"])]
        cells += [str(int(c)) for c in r["pre"]]
        cells += [str(int(c)) for c in r["post"]]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def write_error_report(path, rows) -> None:
    """Harness comparison rows: (site, mse_before, mse_after)."""
    lines = ["site,mse_before,mse_after"]
    lines += [f"{site},{before!r},{after!r}" for site, before, after in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def read_block_spec(path):
    """Parse a toy-block spec file (_SPEC_SCHEMA) into (ToyBlockSpec, FormatConfig, seed)."""
    kv = read_kv_file(path, _SPEC_SCHEMA)
    formats = kv.pop("format", _DEFAULT_FORMATS)
    seed = kv.pop("seed", 0)
    for f in fields(ToyBlockSpec):
        if f.default is MISSING and f.name not in kv:
            raise FileFormatError(f"{path}: missing block spec key {f.name!r}")
    return ToyBlockSpec(**kv), formats, seed
