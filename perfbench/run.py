"""Benchmark for meshmotion: one workload per invocation, from the repo root.

    python3 perfbench/run.py --workload train_diffusion --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around every module boundary and prints the per-layer
metrics instead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON report (environment, tail percentiles, output digests).
The command exits non-zero when an output check fails. See README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train_diffusion", "train_deterministic")
# numpy's BLAS is pinned before numpy loads; one thread is within the
# 2-core host's nproc and keeps step times free of thread hand-off jitter
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "meshmotion" / "__init__.py").is_file():
        print(f"no meshmotion sources under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import meshmotion
    if Path(meshmotion.__file__).resolve().parent != (src / "meshmotion").resolve():
        print(f"meshmotion imported from {meshmotion.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), STARTED, OUT_DIR)
    metrics, report = run.execute()
    correct = run.checks.failed == 0
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
