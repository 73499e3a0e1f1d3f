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
from .calib import CalibConfig, calibrate_layer, fuse
from .errors import DataError, MxQuantError, NumericalError, ShapeError
from .formats import BLOCK, E2M1, MxTensor, block_count, blocks, quantize_tensor
from .harness import build_toy_block, calibrate_block, simulate_block
from .oracle import bimodality_score
from .transform import G1, G2, DecompositionKind, GpkTransform, gpk_forward, param_count
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
    c.add_argument("--out", help="output directory, relative to the working directory")
    c.set_defaults(handler=_cmd_calibrate)

    s = sub.add_parser("stats", help="per-block histograms before/after a transform")
    s.add_argument("--tensor", required=True, help="input .mxbt tensor (f32)")
    s.add_argument("--transform", help="optional .gpkt transform record")
    s.add_argument("--out", required=True, help="output CSV path")
    s.set_defaults(handler=_cmd_stats)

    pc = sub.add_parser("param-count", help="decomposition parameter-count table")
    pc.add_argument("--n", type=int, required=True, help="feature dimension N")
    pc.set_defaults(handler=_cmd_param_count)

    sub.add_parser("verify", help="run the oracle cross-check suite").set_defaults(
        handler=_cmd_verify)

    sim = sub.add_parser("simulate", help="toy block simulation from a spec file")
    sim.add_argument("--spec", required=True, help="block spec file (key = value)")
    sim.add_argument("--out", required=True, help="error report CSV (site, mse_before, mse_after)")
    sim.add_argument("--rows", type=int, default=64, help="number of activation rows")
    sim.add_argument("--calibrate", action="store_true",
                     help="also calibrate the linear sites and report mse_after")
    sim.add_argument("--lr", type=float, default=0.02,
                     help="calibration learning rate (desk-scale default)")
    sim.set_defaults(handler=_cmd_simulate)
    return p


def _cmd_calibrate(args) -> int:
    cfg = io.RunConfig.from_file(args.config)
    out_dir = Path(args.out or cfg.out_dir or Path(args.config).parent)

    w = io.read_tensor(cfg.weights_path)
    if isinstance(w, MxTensor):
        raise DataError(f"{cfg.weights_path}: calibration needs full-precision weights")
    if w.ndim != 2 or w.shape[0] == 0:
        raise ShapeError(f"{cfg.weights_path}: weights must be 2-D (out > 0, in), got {w.shape}")
    block_count(w.shape[1], f"{cfg.weights_path}: input width")
    rows = []
    for p in cfg.calib_paths:
        x = io.read_tensor(p)
        if isinstance(x, MxTensor):
            raise DataError(f"{p}: calibration activations must be f32 tensors")
        if x.shape[-1:] != (w.shape[1],):
            raise ShapeError(f"{p}: activations of shape {x.shape} do not end in the "
                             f"weights' input width {w.shape[1]}")
        rows.append(np.asarray(x, dtype=np.float64).reshape(-1, w.shape[1]))
    calib_data = np.vstack(rows)

    theta, trace = calibrate_layer(w, calib_data, cfg.calib, cfg.formats)

    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_transform_record(out_dir / "transform.gpkt", theta.transform,
                              theta.act_clip, theta.weight_clip)
    io.write_tensor(out_dir / "fused_weights.mxbt", fuse(w, theta, cfg.formats).w_q)
    io.write_loss_csv(out_dir / "loss_trace.csv", trace)

    first, last = trace[0][2], trace[-1][2]
    print(f"calibrated {cfg.formats.name}: {len(trace)} steps, "
          f"loss {first:.6g} -> {last:.6g}")
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def _stats_rows(x: np.ndarray, k: int, transform: GpkTransform | None, where):
    """One row per MX block of x's last axis (k blocks), scaled by the E2M1 scale rule."""
    post = gpk_forward(x, transform) if transform is not None else x

    def scaled(vals):
        # quantize_tensor rejects non-finite values, so NaN never reaches a score
        se = quantize_tensor(vals, E2M1).scale_exps.astype(np.int64)
        return np.ldexp(blocks(vals), -se.reshape(-1, k, 1))

    sides = (("pre", scaled(x)), ("post", scaled(post)))
    rows = []
    for b in range(k):
        row = {"block": b}
        for side, r in sides:
            vals = r[:, b, :].reshape(-1)
            try:
                row[f"bimodality_{side}"] = bimodality_score(vals)
            except ShapeError as e:
                raise ShapeError(f"{where}: block {b} ({side}-transform): {e}") from None
            row[side] = np.histogram(vals, bins=HIST_BINS, range=HIST_RANGE)[0]
        rows.append(row)
    return rows


def _cmd_stats(args) -> int:
    x = io.read_tensor(args.tensor)
    if isinstance(x, MxTensor):
        x = x.to_dense()
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    k = block_count(x.shape[-1], f"{args.tensor}: trailing dimension")
    transform = None
    if args.transform:
        transform, _, _ = io.read_transform_record(args.transform)
        if transform.n != x.shape[-1]:
            raise ShapeError(f"{args.transform}: transform width {transform.n} does not match "
                             f"the trailing dimension {x.shape[-1]} of {args.tensor}")
    rows = _stats_rows(x, k, transform, args.tensor)
    io.write_stats_csv(args.out, rows, HIST_BINS)
    print(f"wrote {len(rows)} block rows to {args.out}")
    return EXIT_OK


def _cmd_param_count(args) -> int:
    # every count first, so a bad --n prints nothing to stdout
    counts = [(kind, param_count(kind, args.n)) for kind in DecompositionKind]
    print(f"N={args.n} g={BLOCK} g1={G1} g2={G2} k={args.n // BLOCK}")
    print(f"{'decomposition':<26} {'matmul cost':<14} {'params':>10}")
    for kind, count in counts:
        print(f"{kind.table_name:<26} {kind.cost:<14} {count:>10}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = run_all()
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
    if args.rows < 1:
        raise DataError(f"--rows {args.rows} must be at least 1")
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
    try:
        return args.handler(args)
    except NumericalError as e:
        print(f"mxquant: numeric: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MxQuantError, OSError, ValueError) as e:
        print(f"mxquant: data: {e}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as e:  # the data is too large for this host, e.g. a huge --rows
        print(f"mxquant: data: out of memory: {str(e) or 'allocation failed'}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
