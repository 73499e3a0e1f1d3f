"""The perfbench workloads: seeded inputs, one timed operation, output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished. ``setup`` makes every input from the
seed and writes the input files; the program receives only those files and
arrays. ``op`` is the timed operation. ``check`` runs outside the timed
region and raises ``CheckFailed`` when an output is wrong.

The package is always reached through its module attributes (``cli.main``,
``formats.quantize_tensor``, ...), never through names bound here, so that
a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io as stdio
import math
import time
from pathlib import Path
from statistics import median

import numpy as np

from mxquant import calib, cli, formats, oracle
from mxquant import io as mxio

from tracing import count, expect_count

# A second seed kept for confirming a claimed gain; tune on other seeds.
CONFIRM_SEED = 7919


class CheckFailed(Exception):
    """An output of the program is wrong."""


class OpFailed(Exception):
    """The program exited non-zero."""


def run_cli(argv: list[str]) -> None:
    """Run one ``mxquant`` command in-process; raise OpFailed on a non-zero exit."""
    err = stdio.StringIO()
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"mxquant {argv[0]} exited {rc}: {err.getvalue().strip()}")


def _write_kv(path: Path, entries: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.dir: Path | None = None

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def op(self) -> None:
        raise NotImplementedError

    def check(self, index: int) -> None:
        raise NotImplementedError

    def headline(self, op_times: list[float]) -> list[tuple[str, float, str]]:
        """The workload's own end-to-end metrics: (name, value, unit)."""
        raise NotImplementedError

    def working_set_bytes(self) -> int:
        """Bytes the hot loop touches, computed from array sizes."""
        raise NotImplementedError

    def expect_coverage(self, tracer, n_ops: int) -> None:
        """Raise CoverageError unless the traced counts match the workload."""
        raise NotImplementedError


class CalibLayer(Workload):
    """Repeated ``mxquant calibrate`` on one seeded 1024x1024 layer."""

    name = "calib-layer"
    why = ("the paper's headline path: qdq of the 1M-element weight side is about half of "
           "each step; transform, clip and the reverse pass are the rest; I/O is a few MB")

    N = 1024
    ROWS = 256
    OUTLIERS = 8  # channels scaled x50, the make_outlier_instance pattern scaled up
    FACTOR = 50.0
    # Eight steps of 32 rows keep one invocation near 2 s, so a run holds
    # about ten samples. At eight steps lr 0.02 raises the loss (ratio 1.03
    # on seed 1) and 0.05 leaves it flat (0.98-1.07 on seeds 1-3); 0.1 lowers
    # it (0.68-0.94), so the quality ratio moves.
    BATCH = 32
    LR = 0.1
    FORMAT = "W4A4KV16"
    STEPS = ROWS // BATCH  # one epoch

    def setup(self, workdir: Path) -> None:
        rng = np.random.default_rng(self.seed)
        n = self.N
        w = rng.normal(size=(n, n)) / np.sqrt(n)
        x = rng.normal(size=(self.ROWS, n))
        x[:, rng.choice(n, self.OUTLIERS, replace=False)] *= self.FACTOR
        workdir.mkdir(parents=True, exist_ok=True)
        mxio.write_tensor(workdir / "weights.mxbt", w)
        mxio.write_tensor(workdir / "acts.mxbt", x)
        _write_kv(workdir / "run.cfg", {
            "format": self.FORMAT, "lr": self.LR, "epochs": 1, "batch_size": self.BATCH,
            "seed": self.seed, "g": 32, "g1": 8, "g2": 4,
            "weights": "weights.mxbt", "calib": "acts.mxbt", "out": "out",
        })
        # the program reads float32 files; the checks use the same values
        self.w = w.astype(np.float32).astype(np.float64)
        self.x = x.astype(np.float32).astype(np.float64)
        self.dir = workdir
        self._artifacts = None
        self._ratio = None

    def op(self) -> None:
        run_cli(["calibrate", "--config", str(self.dir / "run.cfg")])

    def check(self, index: int) -> None:
        out = self.dir / "out"
        with open(out / "loss_trace.csv") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != self.STEPS:
            raise CheckFailed(f"loss trace has {len(rows)} steps, expected {self.STEPS}")
        if not all(math.isfinite(float(r["loss"])) and math.isfinite(float(r["lr"]))
                   for r in rows):
            raise CheckFailed("loss trace holds a non-finite value")
        t, act_clip, _ = mxio.read_transform_record(out / "transform.gpkt")
        if act_clip is None or t.n != self.N:
            raise CheckFailed("transform record lacks clip logits or has the wrong size")
        wq = mxio.read_tensor(out / "fused_weights.mxbt")
        if not isinstance(wq, formats.MxTensor) or wq.fmt is not formats.E2M1 \
                or wq.shape != (self.N, self.N):
            raise CheckFailed("fused weights are not a (1024, 1024) mx4 tensor")
        blobs = tuple((out / f).read_bytes()
                      for f in ("loss_trace.csv", "transform.gpkt", "fused_weights.mxbt"))
        if self._artifacts is None:
            self._ratio = self._loss_ratio(t, act_clip, wq)
            self._artifacts = blobs
        elif blobs != self._artifacts:
            raise CheckFailed("artifacts differ between invocations on the same input")

    def _loss_ratio(self, t, act_clip, wq) -> float:
        """Loss under the written artifacts over loss under identity + RTN."""
        fmts = formats.FormatConfig.from_name(self.FORMAT)
        fused = calib.FusedLayer(wq.to_dense(), t, act_clip)
        w_rtn = formats.quantize_dequantize(self.w, fmts.weights)
        num = den = 0.0
        for i in range(0, self.ROWS, self.BATCH):
            xb = self.x[i:i + self.BATCH]
            y = xb @ self.w.T
            num += float(np.sum((calib.fused_forward(xb, fused, fmts) - y) ** 2))
            den += float(np.sum((formats.quantize_dequantize(xb, fmts.activations) @ w_rtn.T
                                 - y) ** 2))
        ratio = num / den
        if not (math.isfinite(ratio) and ratio > 0):
            raise CheckFailed(f"calibration loss ratio is {ratio}")
        return ratio

    def headline(self, op_times):
        return [
            ("calib_steps_per_s", self.STEPS * len(op_times) / sum(op_times), "steps/s"),
            ("calibrate_s_p50", median(op_times), "s"),
            ("calib_loss_ratio", self._ratio, "ratio"),
        ]

    def working_set_bytes(self) -> int:
        # weight side per step: w, transformed, clipped, qdq and their three
        # gradients (float64) plus the saturation mask; inputs beside it
        return (7 * 8 + 1) * self.N * self.N + 2 * self.ROWS * self.N * 8

    def expect_coverage(self, tracer, n_ops):
        steps = count(tracer, "calib", "optimizer")
        expect_count("calib.steps", steps, self.STEPS * n_ops)
        expect_count("formats.qdq.e2m1.calls",
                     count(tracer, "formats", "qdq", fmt="e2m1"), 2 * steps)
        expect_count("formats.qdq.e4m3.calls", count(tracer, "formats", "qdq", fmt="e4m3"), 0)
        expect_count("formats.encode.e2m1.calls",
                     count(tracer, "formats", "encode", fmt="e2m1"), n_ops)
        expect_count("cli commands", count(tracer, "cli", "command"), n_ops)


class TensorIO(Workload):
    """Export, then load, a seeded checkpoint of (512, 4096) tensors."""

    name = "tensor-io"
    why = ("the per-block struct loop in io dominates; no transform, clip, calibration or "
           "qdq runs, so it is the no-change case for calibration speed-ups")

    # Half the rows of a (1024, 4096) checkpoint tensor keep one round trip
    # near 2 s, so a run holds about ten samples.
    SHAPE = (512, 4096)
    MIX = (("mx4", formats.E2M1), ("mx8", formats.E4M3), ("f32", None))
    ORACLE_BLOCKS = 256  # per mx tensor and operation

    def setup(self, workdir: Path) -> None:
        rng = np.random.default_rng(self.seed)
        # rows with log-normal scales, as in trained weight matrices
        self.src = [rng.normal(size=self.SHAPE) * rng.lognormal(0.0, 1.0, size=(self.SHAPE[0], 1))
                    for _ in self.MIX]
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = [workdir / f"t{i}_{tag}.mxbt" for i, (tag, _) in enumerate(self.MIX)]
        self.dir = workdir
        self.export_s: list[float] = []
        self.load_s: list[float] = []
        self._refs: dict[int, np.ndarray] = {}
        self._rel_err = None

    def op(self) -> None:
        self.written = self.loaded = None  # the previous operation's outputs
        t0 = time.perf_counter()
        written = []
        for (_, fmt), x, path in zip(self.MIX, self.src, self.paths):
            t = formats.quantize_tensor(x, fmt) if fmt is not None else x
            mxio.write_tensor(path, t)
            written.append(t)
        t1 = time.perf_counter()
        loaded = []
        for path in self.paths:
            r = mxio.read_tensor(path)
            loaded.append((r, r.to_dense() if isinstance(r, formats.MxTensor) else r))
        t2 = time.perf_counter()
        self.written, self.loaded = written, loaded
        self.export_s.append(t1 - t0)
        self.load_s.append(t2 - t1)

    def _reference(self, i: int) -> np.ndarray:
        if i not in self._refs:
            self._refs[i] = formats.quantize_dequantize(self.src[i], self.MIX[i][1])
        return self._refs[i]

    def check(self, index: int) -> None:
        err = ref = 0.0
        for i, ((tag, fmt), x, w, (r, d)) in enumerate(
                zip(self.MIX, self.src, self.written, self.loaded)):
            if fmt is None:
                if not np.array_equal(r, x.astype(np.float32).astype(np.float64)):
                    raise CheckFailed(f"{tag}: read-back differs from the float32 cast")
            else:
                if not isinstance(r, formats.MxTensor) or r.fmt is not fmt or r.shape != self.SHAPE:
                    raise CheckFailed(f"{tag}: read back as the wrong type, format or shape")
                if not (np.array_equal(r.scale_exps, w.scale_exps)
                        and np.array_equal(r.codes, w.codes)):
                    raise CheckFailed(f"{tag}: read-back scales or codes differ from written")
                if not np.array_equal(d, self._reference(i)):
                    raise CheckFailed(f"{tag}: decoded values differ from quantize_dequantize")
                rng = np.random.default_rng((self.seed, index, i))
                pick = rng.choice(r.n_blocks, self.ORACLE_BLOCKS, replace=False)
                want, codes = oracle.nearest_mx_oracle_batch(x.reshape(-1, 32)[pick], fmt)
                if not (np.array_equal(d.reshape(-1, 32)[pick], want)
                        and np.array_equal(r.codes[pick], codes)):
                    raise CheckFailed(f"{tag}: sampled blocks differ from the oracle")
            err += float(np.sum((d - x) ** 2))
            ref += float(np.sum(x * x))
        self._rel_err = err / ref

    def headline(self, op_times):
        elems = len(self.MIX) * self.SHAPE[0] * self.SHAPE[1]
        return [
            # medians over every export and load, the warm-up included
            ("export_melem_per_s", 1e-6 * elems / median(self.export_s), "Melem/s"),
            ("load_melem_per_s", 1e-6 * elems / median(self.load_s), "Melem/s"),
            ("checkpoint_rel_sq_err", self._rel_err, "ratio"),
        ]

    def working_set_bytes(self) -> int:
        # every source and every decoded tensor (float64) plus the mx codes
        elems = self.SHAPE[0] * self.SHAPE[1]
        return len(self.MIX) * elems * 16 + sum(1 for _, f in self.MIX if f) * elems

    def expect_coverage(self, tracer, n_ops):
        n_mx = sum(1 for _, f in self.MIX if f is not None)
        expect_count("formats encode calls", count(tracer, "formats", "encode"),
                     n_mx * n_ops)
        expect_count("formats decode calls", count(tracer, "formats", "decode"),
                     n_mx * n_ops)
        expect_count("formats qdq calls", count(tracer, "formats", "qdq"), 0)
        expect_count("io tensor writes", count(tracer, "io", "write"),
                     len(self.MIX) * n_ops)
        expect_count("io tensor reads", count(tracer, "io", "read"),
                     len(self.MIX) * n_ops)


class SimulateBlock(Workload):
    """Repeated ``mxquant simulate --calibrate`` on a text-template block."""

    name = "simulate-block"
    why = ("same layers used differently: 10x the calibration steps of calib-layer on weights "
           "1/4 to 1/16 the size, e4m3 qdq, per-head KV transforms and the harness forward")

    SPEC = {"hidden": 256, "head_dim": 32, "n_heads": 8, "mlp_dim": 512, "template": "text",
            "format": "W8A8KV4"}
    ROWS = 16  # 80 calibration steps, about 3 s per invocation
    LR = 0.02
    SITES = ("output", "p_down", "p_o", "p_qkv", "p_up")
    LINEAR_SITES = 4  # p_qkv, p_o, p_up, p_down

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        _write_kv(workdir / "block.cfg", {**self.SPEC, "seed": self.seed})
        self.dir = workdir
        self._report = None
        self._ratio = None

    def op(self) -> None:
        run_cli(["simulate", "--spec", str(self.dir / "block.cfg"),
                 "--out", str(self.dir / "report.csv"), "--rows", str(self.ROWS),
                 "--calibrate", "--lr", str(self.LR)])

    def check(self, index: int) -> None:
        raw = (self.dir / "report.csv").read_bytes()
        rows = list(csv.DictReader(stdio.StringIO(raw.decode())))
        sites = tuple(r["site"] for r in rows)
        if sites != self.SITES:
            raise CheckFailed(f"report sites {sites}, expected {self.SITES}")
        vals = {r["site"]: (float(r["mse_before"]), float(r["mse_after"])) for r in rows}
        if not all(math.isfinite(v) and v >= 0 for pair in vals.values() for v in pair):
            raise CheckFailed("report holds a negative or non-finite value")
        before, after = vals["output"]
        if not before > 0:
            raise CheckFailed("block output error before calibration is zero")
        if self._report is None:
            self._report, self._ratio = raw, after / before
        elif raw != self._report:
            raise CheckFailed("report differs between invocations on the same input")

    def headline(self, op_times):
        return [
            ("simulate_s_p50", median(op_times), "s"),
            ("sim_output_mse_ratio", self._ratio, "ratio"),
        ]

    def working_set_bytes(self) -> int:
        h, mlp = self.SPEC["hidden"], self.SPEC["mlp_dim"]
        attn = self.SPEC["n_heads"] * self.SPEC["head_dim"]
        weights = 3 * attn * h + h * attn + 2 * mlp * h + h * mlp
        # all weights, plus the weight-side arrays of the largest site (p_up)
        return 8 * weights + (7 * 8 + 1) * 2 * mlp * h

    def expect_coverage(self, tracer, n_ops):
        cfg = calib.CalibConfig()
        steps = count(tracer, "calib", "optimizer")
        sims = count(tracer, "harness", "simulate")
        per_site = cfg.epochs * math.ceil(self.ROWS / cfg.batch_size)
        expect_count("calib.steps", steps, self.LINEAR_SITES * per_site * n_ops)
        expect_count("harness simulate calls", sims, 2 * n_ops)
        # each quantized block forward: activation + weight qdq per linear
        # site (e4m3) and one KV qdq per head for keys and for values (e2m1)
        expect_count("formats.qdq.e4m3.calls", count(tracer, "formats", "qdq", fmt="e4m3"),
                     2 * steps + 2 * self.LINEAR_SITES * sims)
        expect_count("formats.qdq.e2m1.calls", count(tracer, "formats", "qdq", fmt="e2m1"),
                     2 * self.SPEC["n_heads"] * sims)


WORKLOADS = {w.name: w for w in (CalibLayer, TensorIO, SimulateBlock)}
