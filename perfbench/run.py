"""xampus benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ``src/``).  The
last line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` line counts, and the metrics (the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``).  Lines above it print
every metric with its unit, the environment and the gate's findings.  The
full record, and with ``--trace 1`` the spans, go to ``.perfbench/results/``.
Exits 1 when the correctness gate fails, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# One BLAS thread (<= nproc) for steady timings; fixed before numpy loads,
# and inherited by every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ["lowrate-L5", "reference-das", "recover-L30"]


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS numpy loaded, if it is one."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # self-test only: one line per image and one set-up probe; corrupt the
    # first branch-sample vector to prove the gate trips
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def show(metrics: dict, units: dict, computed=()) -> None:
    for name, value in metrics.items():
        tag = "  (computed)" if name in computed else ""
        print(f"  {name:<42} {value:>14.6g} {units[name][0]}{tag}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xampus" / "__init__.py").is_file():
        print(f"error: no xampus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    out = ROOT / ".perfbench"
    work = out / f"work-{os.getpid()}"
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = environment(args.seed)
    try:
        run = bench.Run(args.workload, args.seed, work,
                        lines_per_image=1 if args.tiny else 4,
                        corrupt=args.corrupt)
        record, tracer = run.measure(args.seconds, bool(args.trace),
                                     probes=1 if args.tiny else 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = env

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(results / f"{stem}.spans.json")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}: {record['lines']} lines in "
          f"{record['images']} images, {record['failed']} failed")
    print("end to end:")
    show(record["end_to_end"], bench.END_TO_END)
    tail = record["tail"]
    print(f"  line_s_tail is p{tail['percentile']:.1f} of {tail['samples']} "
          f"samples, {tail['beyond']} beyond it")
    if args.trace:
        print("per layer (traced run; 'computed' = from sizes and the cost "
              "model, not timed):")
        show(record["per_layer"], bench.PER_LAYER, bench.COMPUTED)
        print("shares of the median traced line (imaging.assemble and "
              "imaging.pgm are per image):")
        for name, share in record["shares"].items():
            print(f"  {name:<42} {share:>8.1%}")
    for text, count in record["warnings"].items():
        print(f"warning x{count}: {text}")
    problems = record["problems"]
    print("gate: " + ("ok" if not problems else
                      f"FAILED ({len(problems)} problems)"))
    for problem in problems[:20]:
        print(f"  {problem}")

    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    units = bench.PER_LAYER if args.trace else bench.END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": record["lines"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
