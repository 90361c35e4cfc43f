"""One fresh interpreter: import levelform, build one workload, solve it once.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  Its
last stdout line is a JSON record of set-up and solve times, peak resident
memory, per-task oracle verdicts and output fingerprints, and, in trace
mode, per-layer self times and work counts.  Set-up is timed from the
parent's CLOCK_MONOTONIC stamp taken just before this process was spawned.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

start_import = time.perf_counter()
import levelform  # noqa: E402

import_s = time.perf_counter() - start_import

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "solve", "trace"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.mode == "trace" else None
    tasks = workloads.WORKLOADS[args.workload](
        args.seed, tracer.count if tracer else None, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    record = {"import_s": import_s, "setup_s": setup_s,
              "levelform_file": levelform.__file__}
    if args.mode == "setup":
        print(json.dumps(record))
        return

    if tracer:
        tracer.install()
    outputs, failures = [], {}
    start = time.perf_counter()
    for task in tasks:
        try:
            outputs.append(task.run())
        except Exception:  # a failed task is a failed operation, not a crash
            outputs.append(None)
            failures[task.name] = traceback.format_exc()
    solve_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    fingerprints = {}
    for task, output in zip(tasks, outputs):
        if task.name in failures:
            continue
        try:
            fingerprints[task.name] = workloads.fingerprint(output)
            reason = task.check(output)
        except Exception:
            reason = traceback.format_exc()
        if reason is not None:
            failures[task.name] = reason

    record.update(solve_s=solve_s, peak_rss_mb=peak_rss_mb, tasks=len(tasks),
                  failures=failures, fingerprints=fingerprints, versions=versions())
    if tracer:
        record.update(busy=dict(tracer.busy), counts=dict(tracer.counts),
                      calls=dict(tracer.calls))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
