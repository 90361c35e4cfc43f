"""Command line harness: density tables, reduction checks, sparse families,
and regime classification, with JSON/CSV outputs suitable for pipelines.

Exit codes: 0 success, 1 a verification failed, 2 usage or configuration
problems.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import sys

from fractions import Fraction

import numpy as np

from . import geometry, reduction, sparse
from .config import parse_kv_text, phase_from_config
from .errors import ConfigError, LevelformError
from .geometry import Phase
from .benchmarks import pair_domination
from .kernels import bump_mixture, eps_ladder, hilbert_kernel
from .pushforward import (CLOSED_FORM, METHODS, ROUTE_PARAMETERS, LevelFunction,
                          LevelGrid, RadialFunction, density_on_grid)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _indicator_profile(t):
    return (np.asarray(t, dtype=float) > 0.0).astype(float)


def _one_profile(t):
    return np.ones_like(np.asarray(t, dtype=float))


# phase configs on the unit disk, the domain a config gets by default
PRESETS = {
    "linear": {"phase.kind": geometry.LINEAR},
    "radial2": {"phase.kind": geometry.RADIAL_QUADRATIC},
    "radial-power4": {"phase.kind": geometry.RADIAL_POWER, "phase.gamma": "4"},
    "radial-power8": {"phase.kind": geometry.RADIAL_POWER, "phase.gamma": "8"},
    "saddle": {"phase.kind": geometry.SADDLE},
}


def preset_pair(name: str):
    phase = phase_from_config(PRESETS[name])
    if name == "linear":
        f = LevelFunction(_indicator_profile)
        g = LevelFunction(_one_profile)
    else:
        f = RadialFunction(lambda rr: 1.0 - np.asarray(rr, dtype=float))
        g = RadialFunction(_one_profile)
    return phase, phase, f, g


def _load_phase(args) -> Phase:
    if args.config:
        with open(args.config) as fh:
            return phase_from_config(parse_kv_text(fh.read()))
    return phase_from_config(PRESETS[args.preset])


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _resolve(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("LEVELFORM_OUT")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _finite_or_none(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return _finite_or_none(obj)


def _write_csv(path: str, header: list[str], rows) -> None:
    """One header line, then the rows; csv writes each float as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_report(path: str | None, command: str, payload: dict,
                 config: dict, seed: int | None) -> dict:
    payload = _sanitize(payload)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    report = {
        "schema": 1,
        "command": command,
        "payload": payload,
        "metadata": {
            "config": _sanitize(config),
            "seed": seed,
            "payload_sha256": digest,
            "timestamp": datetime.datetime.now(datetime.timezone.utc)
                         .isoformat(),
        },
    }
    if path is not None:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1)
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# the command line's own route-flag defaults; ROUTE_PARAMETERS says which routes
# read each, and reduce reads --samples on every route, for its sampled left side
_ROUTE_FLAGS = {"fiber_nodes": 1024, "subdivide": 3, "samples": 200_000}


def _route_flags(args) -> None:
    """Fill in the unset route flags that the route reads; refuse any set that
    it ignores, which stays None."""
    for name, default in _ROUTE_FLAGS.items():
        if name not in vars(args):
            continue
        routes = ROUTE_PARAMETERS["sample_count" if name == "samples" else name]
        reads = args.method in routes or (args.command, name) == ("reduce", "samples")
        if getattr(args, name) is None:
            setattr(args, name, default if reads else None)
        elif not reads:
            raise ConfigError(f"--{name.replace('_', '-')} has no effect with "
                              f"--method {args.method}")


def _density(args, phase: Phase, t_lo: float, t_hi: float):
    """The estimate `density` and `regime` read; regime has no --subdivide."""
    return density_on_grid(phase, LevelGrid(t_lo, t_hi, args.bins), args.method,
                           fiber_nodes=args.fiber_nodes,
                           subdivide=getattr(args, "subdivide", None),
                           sample_count=args.samples,
                           seed=args.seed if args.method in ROUTE_PARAMETERS["seed"] else None)


def _cmd_density(args) -> tuple[dict, str, bool]:
    phase = _load_phase(args)
    lo, hi = geometry.image_interval(phase)
    est = _density(args, phase, lo if args.t_lo is None else args.t_lo,
                   hi if args.t_hi is None else args.t_hi)
    csv_path = _resolve(args.csv)
    if csv_path:
        edges = est.grid.edges.tolist()
        se = np.zeros_like(est.values) if est.stderr is None else est.stderr
        _write_csv(csv_path, ["t_lo", "t_hi", "value", "stderr", "method"],
                   [[lo, hi, v, s, est.method] for lo, hi, v, s
                    in zip(edges, edges[1:], est.values.tolist(), se.tolist())])
    line = (f"density[{phase.label}] bins={args.bins} method={args.method} "
            f"mass={est.mass():.6g}")
    return est.to_json_dict(), line, True


def _cmd_reduce(args) -> tuple[dict, str, bool]:
    phase_in, phase_out, f, g = preset_pair(args.preset)
    form = reduction.SynchronizedForm(phase_in=phase_in, phase_out=phase_out,
                                      kernel=hilbert_kernel(), f=f, g=g,
                                      eps=args.eps)
    report = reduction.verify_reduction_identity(
        form, sample_count=args.samples, bins=args.bins, seed=args.seed,
        method=args.method, fiber_nodes=args.fiber_nodes,
        subdivide=args.subdivide)
    payload = {
        "preset": args.preset,
        "eps": args.eps,
        "lhs": {"value": report.lhs.value, "stderr": report.lhs.error,
                "samples": report.lhs.sample_count},
        "rhs": {"value": report.rhs.value, "refinement_error": report.rhs.error},
        "discrepancy": report.discrepancy,
        "tolerance": report.tolerance,
        "relative_discrepancy": report.relative_discrepancy,
        "passed": report.passed,
    }
    status = "ok" if report.passed else "FAIL"
    line = (f"reduce[{args.preset}] eps={args.eps} lhs={report.lhs.value:.6g} "
            f"rhs={report.rhs.value:.6g} disc={report.discrepancy:.3g} "
            f"tol={report.tolerance:.3g} {status}")
    return payload, line, report.passed


def _cmd_sparse(args) -> tuple[dict, str, bool]:
    # --seed p draws the bump-mixture signals of domination_benchmark's pair p
    F = bump_mixture(-1.0, 1.0, args.cells, 2 * args.seed)
    G = bump_mixture(-1.0, 1.0, args.cells, 2 * args.seed + 1)
    eps_values = eps_ladder(args.eps_min, args.eps_max)
    result = pair_domination(F, G, eps_values, args.lam, args.depth)
    rows = [(eps, lhs, result.sparse_value, ratio)
            for eps, lhs, ratio in zip(eps_values, result.pairings, result.ratios)]
    csv_path = _resolve(args.csv)
    if csv_path:
        _write_csv(csv_path, ["epsilon", "lhs", "sparse_value", "ratio", "seed"],
                   [[*row, args.seed] for row in rows])
    payload = dict(sparse.family_to_json_dict(result.family))
    payload["ratios"] = [
        {"epsilon": eps, "lhs": lhs, "sparse_value": sp, "ratio": ratio}
        for eps, lhs, sp, ratio in rows]
    ok = result.eta >= Fraction(1, 2)
    line = (f"sparse cells={args.cells} depth={args.depth} members="
            f"{len(result.family.members)} eta={float(result.eta):.4f} "
            f"max_ratio={max(result.ratios):.4f} "
            f"{'ok' if ok else 'FAIL'}")
    return payload, line, ok


def _cmd_regime(args) -> tuple[dict, str, bool]:
    phase = _load_phase(args)
    profile = reduction.estimate_beta(_density(args, phase, args.t_lo, args.t_hi))
    window = reduction.critical_window(profile.beta, profile.beta)
    payload = {
        "phase": phase.label,
        "regime": profile.regime,
        "beta": profile.beta,
        "window": [window[0], window[1]],
        "fit": {
            "slope": profile.slope,
            "intercept": profile.intercept,
            "rel_rms_power": profile.rel_rms_power,
            "rel_rms_log": profile.rel_rms_log,
            "log_coefficients": list(profile.log_coefficients),
        },
    }
    upper = "inf" if math.isinf(window[1]) else f"{window[1]:.4g}"
    line = (f"regime[{phase.label}] {profile.regime} beta={profile.beta:.4f} "
            f"window=({window[0]:.4g}, {upper})")
    return payload, line, True


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelform",
        description="level-set reduction laboratory for synchronized forms")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, preset_default="linear"):
        p.add_argument("--preset", default=preset_default, choices=list(PRESETS))
        p.add_argument("--method", default=CLOSED_FORM, choices=METHODS)
        p.add_argument("--bins", type=int, default=256)
        p.add_argument("--fiber-nodes", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", help="write a JSON report here")

    p = sub.add_parser("density", help="tabulate a pushforward density")
    common(p)
    p.add_argument("--config", help="key = value phase description file")
    p.add_argument("--subdivide", type=int)
    p.add_argument("--t-lo", type=float)
    p.add_argument("--t-hi", type=float)
    p.add_argument("--csv", help="write the density table here")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("reduce", help="check the reduction identity")
    common(p)
    p.add_argument("--subdivide", type=int)
    p.add_argument("--eps", type=float, default=0.25)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("sparse", help="build and test a sparse family")
    p.add_argument("--cells", type=int, default=1024)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--lam", type=float, default=4.0)
    p.add_argument("--eps-min", type=int, default=2,
                   help="smallest dyadic exponent in the truncation ladder")
    p.add_argument("--eps-max", type=int, default=6,
                   help="largest dyadic exponent in the truncation ladder")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write a JSON report here")
    p.add_argument("--csv", help="write the domination table here")
    p.set_defaults(func=_cmd_sparse)

    p = sub.add_parser("regime", help="classify small-level density behavior")
    common(p, preset_default="radial-power4")
    p.add_argument("--config", help="key = value phase description file")
    p.add_argument("--t-lo", type=float, default=1e-3)
    p.add_argument("--t-hi", type=float, default=1e-1)
    p.set_defaults(func=_cmd_regime)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; its handler returns the payload, the printed line
    and whether it passed, and only here is the report written."""
    args = build_parser().parse_args(argv)
    _route_flags(args)
    try:
        payload, line, passed = args.func(args)
        config = {k: v for k, v in vars(args).items() if k != "func"}
        report = write_report(_resolve(args.json), args.command, payload, config,
                              args.seed)
    except OSError as exc:  # --json, --csv, --config or LEVELFORM_OUT
        raise ConfigError(f"cannot use file: {exc}") from exc
    except MemoryError as exc:  # a count too large for the address space
        raise ConfigError(f"cannot allocate: {exc}") from exc
    print(line)
    if args.command == "density" and not (args.json or args.csv):
        json.dump(report, sys.stdout, indent=1)
        print()
    return 0 if passed else 1


def entry() -> None:
    try:
        raise SystemExit(main())
    except LevelformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
