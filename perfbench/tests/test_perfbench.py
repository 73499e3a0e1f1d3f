"""Tests of the benchmark itself: names, span arithmetic, patching, failure counting.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import mxquant  # noqa: E402
import mxquant.cli  # noqa: E402,F401
from mxquant import formats  # noqa: E402
from mxquant import io as mxio  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = _bench_json()
    traced = tracing.layer_metrics(tracing.Tracer(), 1, 1.0)
    traced["trace.overhead_frac"] = 0.0
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(traced)
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert [m["name"] for m in spec["per_layer"]] == list(traced)
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.unit_of(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def _span(sid, parent, start, end, layer="formats", kind="qdq"):
    return tracing.Span(sid, parent, 0, layer, kind, kind, start, end)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(0, -1, 0.0, 10.0, "bench", "op"),
        _span(1, 0, 1.0, 4.0),   # overlaps the next child on [3, 4]
        _span(2, 0, 3.0, 6.0),
        _span(3, 0, 8.0, 12.0),  # runs past its parent: clipped to [8, 10]
        _span(4, 2, 3.5, 4.5),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10.0 - (5.0 + 2.0), 3.0, 3.0 - 1.0, 4.0, 1.0])
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def _bindings():
    """Every attribute of every mxquant module and class, by identity."""
    seen = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "mxquant" or name.startswith("mxquant.")):
            continue
        for key, val in vars(mod).items():
            seen[(name, key)] = val
            if isinstance(val, type) and val.__module__ == name:
                for meth, desc in vars(val).items():
                    seen[(name, f"{key}.{meth}")] = desc
    return seen


def test_wrappers_patch_from_imports_and_restore_every_original():
    before = _bindings()
    orig_qdq = formats.quantize_dequantize_with_mask
    tracer = tracing.Tracer()
    with tracer:
        # the name calib bound with "from .formats import ..." is traced too
        assert mxquant.calib.quantize_dequantize_with_mask is not orig_qdq
        assert mxquant.calib.quantize_dequantize_with_mask.__wrapped__ is orig_qdq
        # harness reaches qdq through formats.quantize_dequantize
        mxquant.harness.quantize_dequantize(np.ones((2, 32)), formats.E4M3)
        formats.MxTensor.to_dense(formats.quantize_tensor(np.ones(32), formats.E2M1))
    assert tracing.count(tracer, "formats", "qdq", fmt="e4m3") == 1
    assert tracing.count(tracer, "formats", "encode", fmt="e2m1") == 1
    assert tracing.count(tracer, "formats", "decode") == 1
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_uninstall_runs_even_when_the_traced_call_raises():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(mxquant.ShapeError):
        with tracer:
            formats.quantize_tensor(np.ones(31), formats.E2M1)
    assert tracer.errors["formats"] == 1
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_missing_calls_fail_the_coverage_check():
    with pytest.raises(tracing.CoverageError):
        workloads.CalibLayer(0).expect_coverage(tracing.Tracer(), 1)


class SmallTensorIO(workloads.TensorIO):
    SHAPE = (64, 256)
    ORACLE_BLOCKS = 16


def test_a_corrupted_file_counts_as_one_failed_operation(tmp_path, monkeypatch):
    wl = SmallTensorIO(3)
    wl.setup(tmp_path)
    real_write = mxio.write_tensor
    mx4_writes = []

    def write_then_flip(path, tensor):
        real_write(path, tensor)
        if isinstance(tensor, formats.MxTensor) and tensor.fmt is formats.E2M1:
            mx4_writes.append(path)
            if len(mx4_writes) == 2:  # the first timed operation
                raw = bytearray(Path(path).read_bytes())
                raw[8 + 4 * len(tensor.shape) + 1] ^= 0x5A  # a code byte of block 0
                Path(path).write_bytes(bytes(raw))

    monkeypatch.setattr(mxio, "write_tensor", write_then_flip)
    stats = run.run_ops(wl, seconds=0.05)
    assert stats.failed == 1
    assert stats.attempted >= 3
    assert stats.errors[0].startswith("op 1: CheckFailed")
    assert len(stats.times) == stats.attempted - 2  # minus warm-up and the failed one


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(19))) is None
    nn, value = run.tail_percentile([float(i) for i in range(100)])
    assert nn == 90 and value == pytest.approx(89.1)


def test_without_the_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tensor-io",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
