"""Span tracing of the mxquant layers, installed by patching from outside.

A traced run wraps the public functions of each package module. Every
call through a wrapper records one span: name, start, end, parent span
and invocation id, plus a few counts taken from its arguments and result
(elements, bytes, saturated or clamped elements). Spans stay in memory
until the run writes them out.

Patching replaces a function object in *every* loaded ``mxquant`` module
that holds it, so names bound with ``from ... import`` are traced too.
Methods are replaced on their class. ``Tracer.uninstall`` puts every
original back.

Layers are the package modules. ``formats`` includes ``_kernels`` (the
codec runs inside the formats spans); ``oracle`` and ``verify`` are the
judges and are never traced.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("formats", "transform", "clipping", "calib", "io", "harness", "cli")
ROOT_LAYER = "bench"


def _fmt_name(fmt) -> str:
    return getattr(fmt, "name", "none")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _path_bytes(args, kwargs, name="path"):
    return os.path.getsize(_arg(args, kwargs, 0, name))


def _qdq_attrs(args, kwargs, out):
    _, mask = out
    return {"fmt": _fmt_name(_arg(args, kwargs, 1, "fmt")), "elems": int(mask.size),
            "saturated": int(mask.size - mask.sum())}


def _encode_attrs(args, kwargs, out):
    return {"fmt": out.fmt.name, "elems": int(out.codes.size)}


def _decode_attrs(args, kwargs, out):
    return {"elems": int(out.size)}


def _forward_attrs(args, kwargs, out):
    t = _arg(args, kwargs, 1, "t")
    rows = out.size // t.n
    return {"madds": rows * t.n * (t.g1 + t.g2)}


def _clip_attrs(args, kwargs, out):
    y, ctx = out
    return {"elems": int(y.size), "clamped": int(ctx.upper.sum() + ctx.lower.sum())}


def _tensor_dtype(t) -> str:
    fmt = getattr(t, "fmt", None)
    if fmt is None:
        return "f32"
    return {"e2m1": "mx4", "e4m3": "mx8"}.get(fmt.name, fmt.name)


def _write_tensor_attrs(args, kwargs, out):
    return {"dtype": _tensor_dtype(_arg(args, kwargs, 1, "tensor")),
            "bytes_out": _path_bytes(args, kwargs)}


def _read_tensor_attrs(args, kwargs, out):
    return {"dtype": _tensor_dtype(out), "bytes_in": _path_bytes(args, kwargs)}


def _bytes_out(args, kwargs, out):
    return {"bytes_out": _path_bytes(args, kwargs)}


def _bytes_in(args, kwargs, out):
    return {"bytes_in": _path_bytes(args, kwargs)}


# (layer, module, attribute, kind, attrs). An attribute "Class.method" is
# patched on the class. Functions that only delegate to a traced function
# through their own module (formats.quantize_dequantize, clipping.clip,
# formats.dequantize_tensor) need no wrapper: the inner call is traced.
# Scalar helpers (madd_count, cosine_lr, sigmoid, ...) stay unwrapped; their
# time is their caller's self time.
TARGETS = (
    ("formats", "mxquant.formats", "quantize_dequantize_with_mask", "qdq", _qdq_attrs),
    ("formats", "mxquant.formats", "quantize_tensor", "encode", _encode_attrs),
    ("formats", "mxquant.formats", "MxTensor.to_dense", "decode", _decode_attrs),
    ("formats", "mxquant.formats", "quantize_block", "encode_block", None),
    ("formats", "mxquant.formats", "dequantize_block", "decode_block", None),
    ("transform", "mxquant.transform", "gpk_forward", "forward", _forward_attrs),
    ("transform", "mxquant.transform", "gpk_inverse_forward", "inverse_forward", None),
    ("transform", "mxquant.transform", "GpkTransform.inverse_transpose", "invert", None),
    ("transform", "mxquant.transform", "GpkTransform.inverse", "invert", None),
    ("transform", "mxquant.transform", "block_hadamard", "hadamard", None),
    ("clipping", "mxquant.clipping", "clip_with_ctx", "forward", _clip_attrs),
    ("clipping", "mxquant.clipping", "clip_backward", "backward", None),
    ("clipping", "mxquant.clipping", "clip_gradients", "gradients", None),
    ("calib", "mxquant.calib", "calibrate_layer", "calibrate", None),
    ("calib", "mxquant.calib", "adamw_step", "optimizer", None),
    ("calib", "mxquant.calib", "fuse", "fuse", None),
    ("calib", "mxquant.calib", "fused_forward", "fused_forward", None),
    ("calib", "mxquant.calib", "quantized_forward", "quantized_forward", None),
    ("calib", "mxquant.calib", "backward", "backward", None),
    ("io", "mxquant.io", "write_tensor", "write", _write_tensor_attrs),
    ("io", "mxquant.io", "read_tensor", "read", _read_tensor_attrs),
    ("io", "mxquant.io", "write_transform_record", "record", _bytes_out),
    ("io", "mxquant.io", "read_transform_record", "record", _bytes_in),
    ("io", "mxquant.io", "read_kv_file", "record", _bytes_in),
    ("io", "mxquant.io", "RunConfig.from_file", "record", None),
    ("io", "mxquant.io", "read_block_spec", "record", None),
    ("io", "mxquant.io", "write_loss_csv", "record", _bytes_out),
    ("io", "mxquant.io", "write_stats_csv", "record", _bytes_out),
    ("io", "mxquant.io", "write_error_report", "record", _bytes_out),
    ("harness", "mxquant.harness", "build_toy_block", "build", None),
    ("harness", "mxquant.harness", "simulate_block", "simulate", None),
    ("harness", "mxquant.harness", "calibrate_block", "calibrate_block", None),
    ("cli", "mxquant.cli", "main", "command", None),
)


@dataclass
class Span:
    sid: int
    parent: int  # -1 for a root span
    invocation: int
    layer: str
    kind: str
    name: str
    start: float
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class CoverageError(AssertionError):
    """A traced count disagrees with the count the workload implies."""


class Tracer:
    """Records spans while installed; restores every patched name on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.errors = {layer: 0 for layer in LAYERS}
        self.invocation = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, layer, kind, name) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else -1,
                    self.invocation, layer, kind, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, invocation: int):
        """The benchmark's root span around one operation."""
        self.invocation = invocation
        span = self._open(ROOT_LAYER, "op", "op")
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)

    def wrap(self, fn, layer, kind, name, attrs=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(layer, kind, name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                tracer.errors[layer] += 1
                raise
            finally:
                tracer._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    # -- patching ----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for layer, modname, attr, kind, attrs in targets:
                self._patch(layer, modname, attr, kind, attrs)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, layer, modname, attr, kind, attrs) -> None:
        module = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            orig = owner.__dict__[meth]
            if isinstance(orig, classmethod):
                new = classmethod(self.wrap(orig.__func__, layer, kind, attr, attrs))
            else:
                new = self.wrap(orig, layer, kind, attr, attrs)
            setattr(owner, meth, new)
            self._patches.append((owner, meth, orig))
            return
        orig = getattr(module, attr)
        new = self.wrap(orig, layer, kind, attr, attrs)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "mxquant" or mname.startswith("mxquant.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._patches.append((mod, key, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "sid": s.sid, "parent": s.parent, "invocation": s.invocation,
                    "layer": s.layer, "kind": s.kind, "name": s.name,
                    "start": s.start, "end": s.end, "error": s.error, **s.attrs,
                }) + "\n")


# -- span arithmetic ---------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, so a child that
    overruns its parent never makes self time negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.sid, ())]
        out.append(s.duration - union_length([k for k in kids if k[1] > k[0]]))
    return out


def select(spans, layer, kind=None, **match) -> list[Span]:
    """Spans of one layer (and kind) whose attrs hold every given value."""
    return [s for s in spans if s.layer == layer and (kind is None or s.kind == kind)
            and all(s.attrs.get(k) == v for k, v in match.items())]


def _busy(spans) -> float:
    return union_length([(s.start, s.end) for s in spans])


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Counts, busy and self seconds are per operation (totals divided by the
    number of traced operations); rates and fractions are over all spans.
    Busy time is the union of a kind's spans, so nested spans of one kind
    count once.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    per = 1.0 / max(n_ops, 1)

    def pick(layer, kind=None, **match):
        return select(spans, layer, kind, **match)

    def layer_self(layer, exclude=()):
        return sum(t for s, t in zip(spans, selfs) if s.layer == layer and s.kind not in exclude)

    m: dict[str, float] = {}
    qdq = pick("formats", "qdq")
    for fmt in ("e2m1", "e4m3"):
        sp = pick("formats", "qdq", fmt=fmt)
        m[f"formats.qdq.{fmt}.calls"] = len(sp) * per
        m[f"formats.qdq.{fmt}.ns_per_elem"] = 1e9 * _ratio(
            sum(s.duration for s in sp), sum(s.attrs.get("elems", 0) for s in sp))
    m["formats.qdq.saturated_frac"] = _ratio(
        sum(s.attrs.get("saturated", 0) for s in qdq), sum(s.attrs.get("elems", 0) for s in qdq))
    for fmt in ("e2m1", "e4m3"):
        sp = pick("formats", "encode", fmt=fmt)
        m[f"formats.encode.{fmt}.ns_per_elem"] = 1e9 * _ratio(
            sum(s.duration for s in sp), sum(s.attrs.get("elems", 0) for s in sp))
    dec = pick("formats", "decode")
    m["formats.decode.ns_per_elem"] = 1e9 * _ratio(
        sum(s.duration for s in dec), sum(s.attrs.get("elems", 0) for s in dec))
    m["formats.self_s"] = layer_self("formats") * per

    fwd = pick("transform", "forward")
    inv = pick("transform", "invert")
    m["transform.forward.calls"] = len(fwd) * per
    m["transform.forward.busy_s"] = _busy(fwd) * per
    m["transform.forward.gmadd_per_s"] = 1e-9 * _ratio(
        sum(s.attrs.get("madds", 0) for s in fwd), sum(s.duration for s in fwd))
    m["transform.invert.calls"] = len(inv) * per
    m["transform.invert.busy_s"] = _busy(inv) * per
    m["transform.self_s"] = layer_self("transform") * per

    cf = pick("clipping", "forward")
    m["clipping.forward.busy_s"] = _busy(cf) * per
    m["clipping.backward.busy_s"] = _busy(pick("clipping", "backward")) * per
    m["clipping.clamped_frac"] = _ratio(
        sum(s.attrs.get("clamped", 0) for s in cf), sum(s.attrs.get("elems", 0) for s in cf))
    m["clipping.self_s"] = layer_self("clipping") * per

    steps = len(pick("calib", "optimizer"))
    loop_s = _busy(pick("calib", "calibrate")) - _busy(pick("calib", "fuse"))
    m["calib.steps"] = steps * per
    m["calib.step_ms"] = 1e3 * _ratio(loop_s, steps)
    m["calib.self_s"] = layer_self("calib", exclude=("optimizer",)) * per
    m["calib.optimizer_s"] = _busy(pick("calib", "optimizer")) * per
    m["calib.fuse_s"] = _busy(pick("calib", "fuse")) * per

    for direction, kind, key in (("write", "write", "bytes_out"), ("read", "read", "bytes_in")):
        for dtype in ("f32", "mx4", "mx8"):
            sp = pick("io", kind, dtype=dtype)
            m[f"io.{direction}.{dtype}.mb_per_s"] = 1e-6 * _ratio(
                sum(s.attrs.get(key, 0) for s in sp), sum(s.duration for s in sp))
    io_spans = pick("io")
    m["io.bytes_written"] = sum(s.attrs.get("bytes_out", 0) for s in io_spans) * per
    m["io.bytes_read"] = sum(s.attrs.get("bytes_in", 0) for s in io_spans) * per
    m["io.record.busy_s"] = _busy(pick("io", "record")) * per
    m["io.self_s"] = layer_self("io") * per

    m["harness.simulate.busy_s"] = _busy(pick("harness", "simulate")) * per
    m["harness.calibrate_block.busy_s"] = _busy(pick("harness", "calibrate_block")) * per
    m["harness.self_s"] = layer_self("harness") * per

    m["cli.self_s"] = layer_self("cli") * per

    for layer in LAYERS:
        m[f"{layer}.errors"] = float(tracer.errors[layer])

    accounted = sum(selfs)
    m["bench.self_s"] = layer_self(ROOT_LAYER) * per
    m["trace.ops"] = float(n_ops)
    m["trace.spans"] = len(spans) * per
    m["trace.unaccounted_frac"] = _ratio(traced_wall_s - accounted, traced_wall_s)
    return m


def count(tracer: Tracer, layer: str, kind: str, **match) -> int:
    """Number of recorded spans of one layer and kind (with matching attrs)."""
    return len(select(tracer.spans, layer, kind, **match))


def expect_count(what: str, got: int, want: int) -> None:
    if got != want:
        raise CoverageError(f"trace coverage: {what} is {got}, expected {want}")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in ((".calls", "count"), (".steps", "count"), (".errors", "count"),
                         (".ops", "count"), (".spans", "count"), (".ns_per_elem", "ns"),
                         (".mb_per_s", "MB/s"), (".gmadd_per_s", "Gmadd/s"),
                         (".step_ms", "ms"), ("_frac", "ratio"), ("bytes_written", "B"),
                         ("bytes_read", "B"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name!r}")
