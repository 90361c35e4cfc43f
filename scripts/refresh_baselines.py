#!/usr/bin/env python3
"""Recompute the frozen benchmark numbers and rewrite baselines.txt.

Run from the repository root after any change that legitimately moves the
pinned experiments, then inspect the diff before committing. It prints each
constant as `name: old -> new`, both as `repr`, for the CHANGES.md record.
"""

import pathlib

from levelform.benchmarks import domination_benchmark, load_baselines, uniform_benchmark

TARGET = pathlib.Path(__file__).resolve().parents[1] / "src" / "levelform" / "baselines.txt"


def main() -> None:
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


if __name__ == "__main__":
    main()
