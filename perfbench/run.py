"""Benchmark runner for bioir.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scale_search --seed 3 --seconds 20 --trace 0

Each run is one fresh process and one closed-loop client: no concurrency, and
BLAS pinned to one thread. It generates its inputs with
`make_synthetic_fixture(seed, n_docs)`, imports bioir from `src/`, checks the
outputs, and prints a report line (provenance, workload-specific figures,
errors) followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from a traced pass compared against an untraced pass of
the same work. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def provenance(args, bioir, numpy):
    def cpu_model():
        try:
            with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def git_commit():
        head = os.path.join(ROOT, ".git", "HEAD")
        try:
            with open(head, "r", encoding="utf-8") as fh:
                ref = fh.read().strip()
            if ref.startswith("ref: "):
                with open(os.path.join(ROOT, ".git", ref[5:]), "r", encoding="utf-8") as fh:
                    return fh.read().strip()
            return ref
        except OSError:
            return "unavailable (not a git checkout)"

    src = hashlib.sha256()
    pkg = os.path.dirname(bioir.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "load": "closed loop, one client, one process",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "bioir")):
        print(f"error: no bioir package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import numpy
    import bioir

    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    root = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    try:
        ctx = measure.Context(args.seed, args.seconds, root)
        workload = WORKLOADS[args.workload]()
        run = measure.run_traced if args.trace else measure.run_untraced
        metrics, extra = run(workload, ctx)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(root))
        except OSError:
            pass

    ledger = ctx.ledger
    report = dict(extra, provenance=provenance(args, bioir, numpy),
                  error_rate=ledger.failed / ledger.attempted, errors=ledger.errors)
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
