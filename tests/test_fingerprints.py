"""Every output of the benchmark workloads, bit for bit.

Each task of `perfbench/workloads.py`, built at seed 101 and run in-process,
must give the sha256 that `fingerprints.txt` pins for it. A deliberate output
change rewrites the table with `scripts/refresh_baselines.py`, which prints
`task: old -> new` for each task that moved. The bits are pinned for one
Python, numpy and BLAS stack, which the table records.
"""

import importlib.util
import pathlib
import platform
import sys

import numpy as np

from levelform.config import parse_kv_text

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLE = pathlib.Path(__file__).with_name("fingerprints.txt")
SEED = 101
STACK_KEYS = ("python", "numpy", "blas")


def stack() -> dict[str, str]:
    """The versions the pinned bits depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def task_key(workload: str, task: str) -> str:
    # a table key may not hold "=", which task names such as ladder[eps=0.25] do
    return f"{workload}/{task}".replace("=", "%3D")


def measure(workdir) -> dict[str, str]:
    """`task_key` -> sha256 of the task's output, for every task at SEED.

    The cli-suite tasks write into `workdir` and point LEVELFORM_OUT at it.
    """
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look the module up by name
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return {task_key(name, task.name): workloads.fingerprint(task.run())
            for name, build in workloads.WORKLOADS.items()
            for task in build(SEED, None, str(workdir))}


def read_table() -> tuple[dict[str, str], dict[str, str]]:
    """The recorded stack and the pinned fingerprints."""
    entries = parse_kv_text(TABLE.read_text())
    return ({k: entries.pop(k) for k in STACK_KEYS if k in entries}, entries)


def write_table(fingerprints: dict[str, str]) -> None:
    lines = ["# sha256 of every perfbench workload task's output at seed "
             f"{SEED}, run in-process;",
             "# written by scripts/refresh_baselines.py, do not edit by hand"]
    lines += [f"{name} = {value}" for name, value in stack().items()]
    lines += [f"{key} = {value}" for key, value in fingerprints.items()]
    TABLE.write_text("\n".join(lines) + "\n")


def test_every_task_output_matches_its_fingerprint(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVELFORM_OUT", str(tmp_path))
    pinned_stack, pinned = read_table()
    got = measure(tmp_path)
    moved = sorted(key for key in pinned.keys() & got.keys() if pinned[key] != got[key])
    missing = sorted(pinned.keys() - got.keys())
    extra = sorted(got.keys() - pinned.keys())
    assert not (moved or missing or extra), (
        f"moved: {moved}; pinned but not run: {missing}; run but not pinned: {extra}; "
        f"table taken on {pinned_stack}, this run on {stack()}")
