#!/usr/bin/env python3
"""Drive the full desk-scale experiment suite and drop reports in ./out.

Covers every preset: closed-form density tables, reduction identity checks, a
sparse domination table, and regime classification. Every command
runs in this process through `levelform.cli.main`, so the package only has to
be importable, not installed as a console script.
"""

import os
import pathlib
import sys

from levelform import LevelformError, cli

OUT = pathlib.Path(os.environ.get("LEVELFORM_OUT", "out"))


def run(*args: str) -> int:
    print("$ levelform", " ".join(args))
    try:
        return cli.main(list(args))
    except LevelformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    env_out = str(OUT)
    os.environ["LEVELFORM_OUT"] = env_out
    failures = 0

    for preset in ("linear", "radial2", "radial-power4", "radial-power8",
                   "saddle"):
        failures += run("density", "--preset", preset, "--bins", "256",
                        "--subdivide", "5",
                        "--csv", f"density_{preset}.csv",
                        "--json", f"density_{preset}.json") != 0

    # the power preset's density blows up like t^(-1/2) at the bottom level,
    # so its reduced side needs finer bins and denser in-bin averaging
    for preset, eps, bins, sub in (("linear", "0.25", "256", "5"),
                                   ("linear", "0.125", "256", "5"),
                                   ("radial2", "0.25", "256", "5"),
                                   ("radial-power4", "0.25", "1024", "21")):
        tag = f"{preset}_{eps.replace('.', 'p')}"
        failures += run("reduce", "--preset", preset, "--eps", eps,
                        "--samples", "400000", "--bins", bins,
                        "--subdivide", sub,
                        "--json", f"reduce_{tag}.json") != 0

    failures += run("sparse", "--cells", "1024", "--depth", "8",
                    "--seed", "1", "--csv", "sparse_domination.csv",
                    "--json", "sparse_family.json") != 0

    for preset in ("linear", "radial2", "radial-power4", "radial-power8",
                   "saddle"):
        failures += run("regime", "--preset", preset,
                        "--json", f"regime_{preset}.json") != 0

    print(f"done; {failures} failures; reports in {OUT}/")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
