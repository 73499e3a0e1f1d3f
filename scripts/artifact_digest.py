"""Print the sha256 of every artifact that the byte-identity rule compares.

For seeds 1 and perfbench's CONFIRM_SEED (7919), run the calib-layer,
tensor-io and simulate-block workloads of perfbench/workloads.py once each
(setup, op, check) with one BLAS thread, and print one sha256sum-style line
per artifact: calib-layer's fused_weights.mxbt, transform.gpkt and
loss_trace.csv, tensor-io's t0_mx4.mxbt, t1_mx8.mxbt and t2_f32.mxbt (the
codec on 2M elements per tensor), and simulate-block's report.csv. Two
source trees agree when their outputs are identical:

    python3 scripts/artifact_digest.py > new.txt
    python3 scripts/artifact_digest.py ../other-checkout > old.txt
    diff old.txt new.txt

Run under `taskset -c 0`, every chunk loop and calibrate_block run on the
calling thread alone, so diffing that output against a default run compares
the threaded and the serial code byte for byte.

The optional argument is the checkout whose src/ and perfbench/ are used;
it defaults to the one holding this script.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads, as perfbench/run.py does

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1]).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import mxquant  # noqa: E402
from workloads import CONFIRM_SEED, CalibLayer, SimulateBlock, TensorIO  # noqa: E402

ARTIFACTS = {
    CalibLayer: ("out/fused_weights.mxbt", "out/transform.gpkt", "out/loss_trace.csv"),
    TensorIO: ("t0_mx4.mxbt", "t1_mx8.mxbt", "t2_f32.mxbt"),
    SimulateBlock: ("report.csv",),
}


def main() -> int:
    if Path(mxquant.__file__).resolve().parent != ROOT / "src" / "mxquant":
        sys.exit(f"mxquant was imported from {mxquant.__file__}, not {ROOT / 'src'}")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (1, CONFIRM_SEED):
            for cls, files in ARTIFACTS.items():
                wl = cls(seed)
                wl.setup(Path(tmp) / f"seed{seed}" / cls.name)
                wl.op()
                wl.check(0)
                for f in files:
                    path = wl.dir / f
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {path.relative_to(tmp)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
