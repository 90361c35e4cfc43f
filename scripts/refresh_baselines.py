#!/usr/bin/env python3
"""Recompute the frozen benchmark numbers and the output fingerprints, and
rewrite baselines.txt and tests/fingerprints.txt.

Run from the repository root after any change that legitimately moves the
pinned experiments or a benchmark task's output, then inspect the diff
before committing. It prints each constant as `name: old -> new`, both as
`repr`, and each task whose fingerprint moved as `task: old -> new`, for the
CHANGES.md record.
"""

import importlib.util
import pathlib
import tempfile

from levelform.benchmarks import domination_benchmark, load_baselines, uniform_benchmark

ROOT = pathlib.Path(__file__).resolve().parents[1]
TARGET = ROOT / "src" / "levelform" / "baselines.txt"


def refresh_constants() -> None:
    old = load_baselines()
    dom = domination_benchmark()
    new = {"sparse_domination_max_ratio": dom.max_ratio,
           "uniform_budget_constant": uniform_benchmark().max_ratio}
    lines = ["# measured by scripts/refresh_baselines.py; do not edit by hand"]
    lines += [f"{name} = {value!r}" for name, value in new.items()]
    TARGET.write_text("\n".join(lines) + "\n")
    print(f"wrote {TARGET} (worst eta {dom.worst_eta})")
    for name, value in new.items():
        print(f"  {name}: {old.get(name)!r} -> {value!r}")


def refresh_fingerprints() -> None:
    # the table's format and the measurement belong to the test that reads them
    spec = importlib.util.spec_from_file_location("test_fingerprints",
                                                  ROOT / "tests" / "test_fingerprints.py")
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    _, old = table.read_table()
    with tempfile.TemporaryDirectory() as workdir:
        new = table.measure(workdir)
    table.write_table(new)
    moved = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    print(f"wrote {table.TABLE} ({len(new)} tasks, {len(moved)} moved)")
    for key in moved:
        print(f"  {key}: {old.get(key)} -> {new.get(key)}")


def main() -> None:
    refresh_constants()
    refresh_fingerprints()


if __name__ == "__main__":
    main()
