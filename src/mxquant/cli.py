"""Command-line surface.

Subcommands: calibrate, stats, param-count, verify, simulate.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Errors print a single machine-parsable line to stderr:
    mxquant: <usage|data|numeric>: <message>
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io
from .calib import CalibConfig, calibrate_layer
from .errors import DataError, MxQuantError, NumericalError
from .formats import BLOCK, E2M1, FormatConfig, MxTensor, quantize_tensor
from .harness import build_toy_block, calibrate_block, simulate_block
from .oracle import bimodality_score
from .transform import DecompositionKind, GpkTransform, gpk_forward, param_count
from .verify import run_all

HIST_BINS = 64
HIST_RANGE = (-8.0, 8.0)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"mxquant: usage: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="mxquant", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("calibrate", help="calibrate one layer and write its artifacts")
    c.add_argument("--config", required=True, help="flat key=value config file")
    c.add_argument("--out", help="output directory (overrides config)")
    c.add_argument("--format", dest="format_name", help="override, e.g. W4A4KV16")

    s = sub.add_parser("stats", help="per-block histograms before/after a transform")
    s.add_argument("--tensor", required=True, help="input .mxbt tensor (f32)")
    s.add_argument("--transform", help="optional .gpkt transform record")
    s.add_argument("--out", required=True, help="output CSV path")
    s.add_argument("--format", dest="format_name", default="W4A4KV16",
                   help="element format naming (scale rule uses the activation format)")

    pc = sub.add_parser("param-count", help="decomposition parameter-count table")
    pc.add_argument("--n", type=int, required=True, help="feature dimension N")
    pc.add_argument("--g", type=int, default=32)
    pc.add_argument("--g1", type=int, default=8)
    pc.add_argument("--g2", type=int, default=4)

    v = sub.add_parser("verify", help="run the oracle cross-check suite")
    v.add_argument("--files", help="optional directory of .mxbt files to round-trip")

    sim = sub.add_parser("simulate", help="toy block simulation from a spec file")
    sim.add_argument("--spec", required=True, help="block spec file (key = value)")
    sim.add_argument("--out", required=True, help="error report CSV (site, mse_before, mse_after)")
    sim.add_argument("--rows", type=int, default=64, help="number of activation rows")
    sim.add_argument("--calibrate", action="store_true",
                     help="also calibrate the linear sites and report mse_after")
    sim.add_argument("--lr", type=float, default=0.02,
                     help="calibration learning rate (desk-scale default)")
    return p


def _cmd_calibrate(args) -> int:
    overrides = {"format": args.format_name, "out": args.out}
    cfg = io.RunConfig.from_file(args.config, overrides)
    if cfg.weights_path is None:
        raise DataError("config is missing the 'weights' entry")
    if not cfg.calib_paths:
        raise DataError("config names no calibration files ('calib' entry)")
    out_dir = Path(cfg.out_dir or Path(args.config).parent)
    out_dir.mkdir(parents=True, exist_ok=True)

    w = io.read_tensor(cfg.weights_path)
    if isinstance(w, MxTensor):
        raise DataError(f"{cfg.weights_path}: calibration needs full-precision weights")
    rows = []
    for p in cfg.calib_paths:
        x = io.read_tensor(p)
        if isinstance(x, MxTensor):
            raise DataError(f"{p}: calibration activations must be f32 tensors")
        rows.append(np.asarray(x, dtype=np.float64).reshape(-1, w.shape[1]))
    calib_data = np.vstack(rows)

    run, fused = calibrate_layer(w, calib_data, cfg.calib, cfg.formats)

    io.write_transform_record(out_dir / "transform.gpkt", run.theta.transform,
                              run.theta.act_clip, run.theta.weight_clip)
    io.write_tensor(out_dir / "fused_weights.mxbt", fused.w_q)
    io.write_loss_csv(out_dir / "loss_trace.csv", run.loss_trace)

    first, last = run.loss_trace[0][2], run.loss_trace[-1][2]
    print(f"calibrated {cfg.formats.name}: {len(run.loss_trace)} steps, "
          f"loss {first:.6g} -> {last:.6g}")
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def _stats_rows(x: np.ndarray, fmt, transform: GpkTransform | None):
    n = x.shape[-1]
    if n % BLOCK:
        raise DataError(f"trailing dimension {n} is not a multiple of {BLOCK}")
    post = gpk_forward(x, transform) if transform is not None else x

    def scaled(vals):
        # quantize_tensor rejects non-finite values, so NaN never reaches a score
        se = quantize_tensor(vals, fmt).scale_exps.astype(np.int64)
        r = np.ldexp(vals.reshape(-1, BLOCK), -se[:, None])
        return r.reshape(-1, n // BLOCK, BLOCK)

    pre_r, post_r = scaled(np.asarray(x, dtype=np.float64)), scaled(post)
    rows = []
    for b in range(n // BLOCK):
        pre_vals = pre_r[:, b, :].reshape(-1)
        post_vals = post_r[:, b, :].reshape(-1)
        rows.append({
            "block": b,
            "bimodality_pre": bimodality_score(pre_vals),
            "bimodality_post": bimodality_score(post_vals),
            "pre": np.histogram(pre_vals, bins=HIST_BINS, range=HIST_RANGE)[0],
            "post": np.histogram(post_vals, bins=HIST_BINS, range=HIST_RANGE)[0],
        })
    return rows


def _cmd_stats(args) -> int:
    x = io.read_tensor(args.tensor)
    if isinstance(x, MxTensor):
        x = x.to_dense()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    fmt = FormatConfig.from_name(args.format_name).activations or E2M1
    transform = None
    if args.transform:
        transform, _, _ = io.read_transform_record(args.transform)
    rows = _stats_rows(x, fmt, transform)
    io.write_stats_csv(args.out, rows, HIST_BINS)
    print(f"wrote {len(rows)} block rows to {args.out}")
    return EXIT_OK


def _cmd_param_count(args) -> int:
    kinds = (
        ("global-kronecker", DecompositionKind.GLOBAL_KRONECKER),
        ("full-block", DecompositionKind.FULL),
        ("naive-kronecker", DecompositionKind.NAIVE_KRONECKER),
        ("global+private-kronecker", DecompositionKind.GPK),
    )
    complexity = {
        "global-kronecker": "S*N^(3/2)",
        "full-block": "S*N*g",
        "naive-kronecker": "S*N*(g1+g2)",
        "global+private-kronecker": "S*N*(g1+g2)",
    }
    print(f"N={args.n} g={args.g} g1={args.g1} g2={args.g2} k={args.n // args.g}")
    print(f"{'decomposition':<26} {'matmul cost':<14} {'params':>10}")
    for name, kind in kinds:
        count = param_count(kind, args.n, args.g, args.g1, args.g2)
        print(f"{name:<26} {complexity[name]:<14} {count:>10}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = run_all()
    if args.files is not None:
        d = Path(args.files)
        files = sorted(d.glob("*.mxbt")) if d.is_dir() else []
        if not files:
            print(f"mxquant: usage: --files {args.files}: no .mxbt files found", file=sys.stderr)
            return EXIT_USAGE
        for f in files:
            io.read_tensor(f)
        print(f"round-tripped {len(files)} tensor files from {d}")
    width = max(len(r.case_id) for r in reports)
    failed = 0
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.case_id:<{width}}  max_rel_err={r.max_rel_error:<12.3e} {status}")
        failed += not r.passed
    if failed:
        print(f"{failed} of {len(reports)} checks failed")
        return EXIT_NUMERIC
    print(f"all {len(reports)} checks passed")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = CalibConfig(lr=args.lr) if args.calibrate else None
    spec, formats, seed = io.read_block_spec(args.spec)
    block = build_toy_block(spec, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(args.rows, spec.hidden))
    _, before = simulate_block(block, x, formats)
    if config is not None:
        calibrate_block(block, x, config, formats)
        _, after = simulate_block(block, x, formats)
    else:
        after = before
    rows = [(site, before[site], after[site]) for site in sorted(before)]
    io.write_error_report(args.out, rows)
    print(f"wrote {len(rows)} site rows to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "calibrate": _cmd_calibrate,
        "stats": _cmd_stats,
        "param-count": _cmd_param_count,
        "verify": _cmd_verify,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except NumericalError as e:
        print(f"mxquant: numeric: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, MxQuantError, OSError, ValueError) as e:
        print(f"mxquant: data: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
