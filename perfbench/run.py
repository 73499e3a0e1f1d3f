"""perfbench: the end-to-end and per-layer benchmark of mxquant.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload calib-layer --seed 1 --seconds 24 --trace 0

Workloads (see workloads.py for why each was chosen): calib-layer,
tensor-io, simulate-block. Each run is one process with one BLAS thread:
it sets up three times from the seed, runs one warm-up
operation, then runs operations in a closed loop until ``--seconds`` of
operation time have passed, checking every output outside the timed
region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced operations; the traced ones give the per-layer metrics
(spans are written to ``.perfbench_out/``) and the pair gives the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every metric by name and unit, with the machine facts. Exit codes:
0 every output correct, 1 an operation failed, 2 the sources or arguments
are unusable, 3 the trace missed calls it should have seen.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 3
BLAS_THREADS = 1
WORKLOAD_NAMES = ("calib-layer", "tensor-io", "simulate-block")


@dataclass
class OpStats:
    attempted: int = 0
    failed: int = 0
    warmup_s: float | None = None  # the first operation, run before timing
    times: list = field(default_factory=list)  # successful untraced operations
    traced_times: list = field(default_factory=list)  # every traced operation
    errors: list = field(default_factory=list)


def _attempt(wl, stats: OpStats, tracer=None) -> float | None:
    """One operation and its check; returns its wall time, None if it failed."""
    index = stats.attempted
    stats.attempted += 1
    t0 = time.perf_counter()
    try:
        if tracer is None:
            wl.op()
            dt = time.perf_counter() - t0
        else:
            with tracer:
                t0 = time.perf_counter()
                try:
                    with tracer.op(index):
                        wl.op()
                finally:
                    dt = time.perf_counter() - t0
                    stats.traced_times.append(dt)
        wl.check(index)
    except Exception as e:  # a failed operation is counted; the run goes on
        stats.failed += 1
        stats.errors.append(f"op {index}: {type(e).__name__}: {e}")
        return None
    return dt


def run_ops(wl, seconds: float, tracer=None) -> OpStats:
    """Closed loop: one warm-up, then operate until ``seconds`` of operation time.

    With a tracer, every second timed operation is traced (at least one
    is). A raised error or a failed check counts the operation as failed
    and the loop goes on.
    """
    stats = OpStats()
    stats.warmup_s = _attempt(wl, stats)
    spent = 0.0
    traced = False
    while spent < seconds or (tracer is not None and not stats.traced_times):
        t0 = time.perf_counter()
        dt = _attempt(wl, stats, tracer if traced else None)
        spent += time.perf_counter() - t0 if dt is None else dt
        if dt is not None and not traced:
            stats.times.append(dt)
        traced = tracer is not None and not traced
    return stats


def tail_percentile(samples):
    """Highest pNN with at least ten samples beyond it, or None."""
    for nn in (99.9, 99, 95, 90, 75, 50):
        if len(samples) * (100 - nn) / 100 >= 10:
            return nn, statistics.quantiles(samples, n=1000, method="inclusive")[int(nn * 10) - 1]
    return None


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _caches() -> dict[str, int]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        mult = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = int(size.rstrip("KM")) * mult
    return out


def machine_facts(mxquant) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    caches = _caches()
    unified = [k for k in caches if k[-1].isdigit()]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache_bytes": caches,
        "llc_bytes": caches[max(unified)] if unified else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mxquant_backend": mxquant.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": _blas_threads(),
    }


def import_seconds() -> float:
    """Wall time of a fresh interpreter's import of mxquant and its CLI."""
    code = ("import time; t = time.perf_counter(); import mxquant.cli; "
            "print(time.perf_counter() - t)")
    p = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                       capture_output=True, text=True, timeout=120, check=True)
    return float(p.stdout)


def _print_metric(name, value, unit, note="") -> None:
    print(f"  {name} = {value!r} {unit}{'  ' + note if note else ''}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "mxquant" / "__init__.py").is_file():
        print(f"perfbench: no mxquant sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread (nproc allows more): the matmuls here are too small to
    # gain from a second thread, which only spins (measured on 2 cores: same
    # wall time, 50-75% more CPU time). Must be set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    try:
        mxquant = importlib.import_module("mxquant")
        importlib.import_module("mxquant.cli")
    except ImportError as e:
        print(f"perfbench: cannot import mxquant from {SRC}: {e}", file=sys.stderr)
        return 2
    if Path(mxquant.__file__).resolve().parent != (SRC / "mxquant").resolve():
        print(f"perfbench: mxquant was imported from {mxquant.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for i in range(SETUPS):
            imp = import_seconds()
            wl = None  # let the previous set-up's inputs go first
            wl = cls(args.seed)
            t0 = time.perf_counter()
            wl.setup(work / f"setup{i}")
            setup_times.append(imp + time.perf_counter() - t0)
        tracer = tracing.Tracer() if args.trace else None
        stats = run_ops(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            if stats.failed == 0:
                try:
                    wl.expect_coverage(tracer, len(stats.traced_times))
                except tracing.CoverageError as e:
                    print(f"perfbench: {e}", file=sys.stderr)
                    return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = statistics.median(setup_times)
    facts = machine_facts(mxquant)
    correct = stats.failed == 0 and bool(stats.times)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"why: {cls.why}")
    print(f"machine: {json.dumps(facts)}")
    print(f"working set (computed from array sizes): {wl.working_set_bytes()} bytes; "
          f"last-level cache {facts['llc_bytes']} bytes")
    print("waits: none; every layer runs single-threaded batch work with no queue")
    for err in stats.errors:
        print(f"failed: {err}")

    print("end-to-end:")
    _print_metric("setup_s", setup_s, "s",
                  f"(median of {SETUPS} set-ups, each a fresh import plus input generation)")
    _print_metric("peak_rss_mb", peak_rss_mb, "MiB")
    _print_metric("ops_failed_frac", stats.failed / stats.attempted, "ratio",
                  f"({stats.failed} of {stats.attempted})")
    if stats.warmup_s is not None:
        _print_metric("warmup_op_s", stats.warmup_s, "s", "(first operation, not in the samples)")
    times = stats.times
    metrics = {}
    if times:
        op_s_p50 = statistics.median(times)
        _print_metric("op_s_p50", op_s_p50, "s", f"(n={len(times)})")
        print(f"  op_s samples: {[round(t, 4) for t in times]}")
        tail = tail_percentile(times)
        if tail is None:
            print(f"  no tail percentile: {len(times)} samples leave fewer than ten beyond p50")
        else:
            _print_metric(f"op_s_p{tail[0]:g}", tail[1], "s", f"(n={len(times)})")
        for name, value, unit in wl.headline(times):
            _print_metric(name, value, unit, f"(n={len(times)})" if unit == "s" else "")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s_p50": {"value": op_s_p50, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }

    if tracer is not None and times and stats.traced_times:
        per_layer = tracing.layer_metrics(tracer, len(stats.traced_times),
                                          sum(stats.traced_times))
        per_layer["trace.overhead_frac"] = (
            statistics.median(stats.traced_times) / statistics.median(times) - 1.0)
        print(f"per-layer ({len(stats.traced_times)} traced operations; counts and seconds "
              f"are per operation):")
        metrics = {}
        for name, value in per_layer.items():
            unit = tracing.unit_of(name)
            _print_metric(name, value, unit)
            metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({"correct": correct, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
