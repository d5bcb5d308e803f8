"""shotrope benchmark.

    python3 perfbench/run.py --workload {train,sample,continue} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  One workload per process, with
BLAS pinned to one thread.  --trace 0 measures the end-to-end metrics;
--trace 1 runs the same operations untraced and then traced, and reports
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Results and traces
are also written to perfbench/results/.  Exit code 2: the program or the
fixed weights are missing.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # same import cost on every run

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
EXIT_UNAVAILABLE = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description="shotrope benchmark")
    ap.add_argument("--workload", required=True, choices=("train", "sample", "continue"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import numpy and shotrope from this checkout; returns seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "shotrope", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import shotrope
    from shotrope import attention, checkpoint, engine, model, rope, shots, synthetic, tensor  # noqa: F401

    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(shotrope.__file__)) != os.path.join(SRC, "shotrope"):
        return None
    return elapsed


def machine():
    import platform

    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"cpu": platform.processor() or platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def main(argv=None):
    args = parse_args(argv)
    import_s = import_program()
    if import_s is None:
        print(f"shotrope sources not found under {SRC}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    import workloads

    try:
        workloads.verify_weights()
    except workloads.BenchmarkError as exc:
        print(exc, file=sys.stderr)
        return EXIT_UNAVAILABLE

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        run, problems, detail, metrics = workloads.traced(
            args.workload, args.seed, args.seconds, stem + ".trace.json.gz"
        )
    else:
        run, problems, detail, metrics = workloads.measure(
            args.workload, args.seed, args.seconds, import_s
        )
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    for key, value in detail.items():
        print(f"# {key}: {value}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "machine": machine(), "detail": detail, "problems": problems,
                   "result": result}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
