"""One pass of a workload in a fresh interpreter; started by run.py.

The process imports ``qwalk.cli``, builds the pass's inputs and prints
``ready``; run.py times set-up up to that line.  In ``setup`` mode it
stops there.  Otherwise it runs every job in order, timing each, then
checks the outputs and prints one JSON line with the job times,
failures, output digests, peak RSS and, in ``traced`` mode, the
per-layer trace.

    PYTHONPATH=src python3 perfbench/one_pass.py --workload walks --seed 1 \
        --pass-index 0 --workdir .perfbench_work/x --mode plain
"""

import os

# pinned before numpy loads; forked pool workers inherit them
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import qwalk.cli  # noqa: E402,F401
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": openblas}


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any pool worker it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def _output_size(workdir: str) -> tuple[int, int]:
    files = [os.path.join(workdir, name) for name in os.listdir(workdir)]
    return len(files), sum(os.path.getsize(path) for path in files)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    traced = args.mode == "traced"
    jobs = workloads.plan(args.workload, args.seed, args.pass_index, args.workdir, traced)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    outcomes = []
    for job in jobs:
        start = time.perf_counter()
        try:
            value, error = job.run(), None
        except Exception:  # a failing job is counted, and the pass goes on
            value, error = None, traceback.format_exc(limit=3)
        outcomes.append((job, time.perf_counter() - start, value, error))
    if tracer:
        tracer.uninstall()
    peak_rss_mb = _peak_rss_mb()
    out_files, out_bytes = _output_size(args.workdir)

    results = []
    for job, seconds, value, error in outcomes:
        if error is None:
            failures, digests = job.check(value)
        else:
            failures, digests = [f"raised: {error.strip().splitlines()[-1]}"], {}
            sys.stderr.write(error)
        results.append({"name": job.name, "group": job.group, "cells": job.cells,
                        "seconds": seconds, "failures": failures, "digests": digests})
    results[-1]["failures"] += workloads.cross_check(args.workload, args.workdir)

    report = {
        "jobs": results,
        "peak_rss_mb": peak_rss_mb,
        "out_files": out_files,
        "out_bytes": out_bytes,
        "env": _environment(),
    }
    if tracer:
        report["trace"] = tracer.metrics()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
