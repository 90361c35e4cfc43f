#!/usr/bin/env python3
"""levelform benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; levelform is imported from the
checkout's `src`, nothing is installed.  Every measurement runs in a fresh
interpreter (perfbench/worker.py), so module caches start empty as they do
for a user.  One untimed warm-up interpreter first compiles the bytecode.

--trace 0 measures the end-to-end metrics with tracing off: one full solve
per fresh interpreter, at least twice and then while another still fits in
--seconds, plus set-up-only interpreters until at least three set-ups are
timed.  Each metric is the median over its samples.

--trace 1 alternates untraced and traced solves and reports the per-layer
metrics of the traced ones, plus the tracing overhead (traced minus
untraced solve time).

Every task's output is checked by its oracle, and the output fingerprints
of all solves in a run, traced or not, must be bit-identical.  The last
stdout line is {"correct", "attempted", "failed", "metrics"}; the line
before it holds the sample counts, per-task failures, exact work counts and
library versions.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("truncation-ladder", "monte-carlo", "fiber-quadrature", "cli-suite")
# fewest solves a run makes, however long they take
MIN_ROUNDS = 2
# fewest set-ups a run times; set-up-only interpreters make up any shortfall
MIN_SETUPS = 3
# a run must end within 180 s; stop waiting on workers well before that
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"
# work counts that must repeat exactly for a given seed
EXACT_COUNTS = ("sampling.points_requested", "pushforward.mc.points_used",
                "kernels.truncation.cell_pairs", "pushforward.coarea.levels",
                "pushforward.weight_points", "sparse.members")


class WorkerError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.monotonic()
        self.env = dict(os.environ)
        paths = [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self.env.pop("LEVELFORM_OUT", None)

    def spawn(self, mode: str) -> dict:
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 1.0:
            raise WorkerError("out of time for another worker")
        spawned_at = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--workdir", self.workdir,
               "--spawned-at", repr(spawned_at)]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{mode} worker still running after {left:.0f} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values), "values": values}


def _solve_loop(runner: Runner, modes: tuple[str, ...], seconds: float) -> list[dict]:
    """Run rounds of `modes` workers, MIN_ROUNDS and then while another fits."""
    deadline = runner.started + seconds
    records = []
    for rounds in itertools.count(1):
        begun = time.monotonic()
        records += [runner.spawn(mode) for mode in modes]
        now = time.monotonic()
        if rounds >= MIN_ROUNDS and now + (now - begun) > deadline:
            return records


def _consistency(records: list[dict]) -> list[str]:
    """Tasks whose output bits differ between solves of the same seed."""
    tasks = set().union(*(rec["fingerprints"] for rec in records))
    return sorted(task for task in tasks
                  if len({rec["fingerprints"].get(task) for rec in records}) > 1)


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    runner.spawn("setup")  # untimed: compiles bytecode and warms the file cache
    records = _solve_loop(runner, ("solve", "trace") if trace else ("solve",), seconds)
    setups = [runner.spawn("setup") for _ in range(MIN_SETUPS - len(records))]
    plain = [r for r in records if "busy" not in r]
    traced = [r for r in records if "busy" in r]
    for rec in setups + records:
        if not rec["levelform_file"].startswith(str(ROOT / "src")):
            raise WorkerError(f"levelform imported from {rec['levelform_file']}")

    attempted = sum(r["tasks"] for r in records)
    failed = sum(len(r["failures"]) for r in records)
    inconsistent = _consistency(records)
    samples = {
        "setup_s": _summary([r["setup_s"] for r in setups + records]),
        "solve_s": _summary([r["solve_s"] for r in plain]),
        "peak_rss_mb": _summary([r["peak_rss_mb"] for r in plain]),
        "levelform.import_s": _summary([r["import_s"] for r in setups + records]),
    }
    detail = {"workload": runner.workload, "seed": runner.seed, "trace": int(trace),
              "versions": records[0]["versions"], "attempted": attempted, "failed": failed,
              "fail_rate": failed / attempted,
              "failures": [r["failures"] for r in records if r["failures"]],
              "inconsistent_outputs": inconsistent}
    values = {name: samples[name]["median"] for name in ("setup_s", "solve_s", "peak_rss_mb")}

    drifting = []
    if trace:
        samples["trace.solve_s"] = _summary([r["solve_s"] for r in traced])
        for group in sorted(set().union(*(r["busy"] for r in traced))):
            samples[f"{group}.busy_s"] = _summary([r["busy"].get(group, 0.0) for r in traced])
        samples["trace.unattributed_s"] = _summary(
            [r["solve_s"] - sum(r["busy"].values()) for r in traced])
        for name, summary in samples.items():
            values[name] = summary["median"]
        values["trace.overhead_s"] = values["trace.solve_s"] - values["solve_s"]

        counts = traced[0]["counts"]
        drifting = [name for name in EXACT_COUNTS
                    if len({r["counts"].get(name, 0) for r in traced}) > 1]
        for name in EXACT_COUNTS + ("sampling.calls", "cli.report_bytes"):
            values[name] = counts.get(name, 0)
        busy = values.get("kernels.truncation.busy_s", 0.0)
        values["kernels.truncation.cell_pairs_per_s"] = (
            values["kernels.truncation.cell_pairs"] / busy if busy > 0 else 0.0)
        requested = values["sampling.points_requested"]
        used = values["pushforward.mc.points_used"]
        values["sampling.use_ratio"] = used / requested if requested else 0.0
        # more points used than requested means sampling bypassed the wrappers
        values["sampling.unseen_points"] = max(0, used - requested)
        if values["sampling.unseen_points"]:
            print(f"perfbench: {used} Monte Carlo points used but only {requested} "
                  "requested through sample_domain*; the sampling counters are blind",
                  file=sys.stderr)
        detail.update(exact_counts={name: counts.get(name, 0) for name in EXACT_COUNTS},
                      drifting_counts=drifting, calls=traced[0]["calls"])
    detail["samples"] = samples
    correct = failed == 0 and not inconsistent and not drifting
    return {"correct": correct, "attempted": attempted, "failed": failed}, values, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # let `finally` and subprocess.run stop the worker when the run is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "levelform" / "__init__.py").is_file():
        print(f"perfbench: no levelform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        result, values, detail = measure(runner, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def value(name: str):
        # a layer the workload never called was busy for no time
        return values.get(name, 0.0) if name.endswith(".busy_s") else values[name]

    result["metrics"] = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
                         for m in wanted}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
