"""The four benchmark workloads, built only from levelform's public API.

Each workload function takes the workload seed and returns the workload's
fixed task list.  Building it is set-up (phases, grid functions, the
reparametrization table and weight callables); running every task once is
the solve.  Each task carries an oracle check that holds for any workload
seed, so a faster but wrong program fails it.  Every Monte Carlo stream
seed is derived from the workload seed and the task index, so no task
reuses a stream another task or run filled a cache with, except the three
weights that deliberately share one stream in `monte-carlo`.

Calls go through `lf.<name>` so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import struct
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import levelform as lf
from levelform import cli

# absolute slack on the maximal-function budget, as in acceptance check 6
BUDGET_SLACK = 1e-12
# Hoelder holds exactly for the binned sums; this covers rounding only
HOLDER_SLACK = 1e-9
# level norms must reproduce the direct L^r norm to this relative error
ISOMETRY_TOL = 0.01
# relative rounding of a difference of two prefix sums of |F|
PREFIX_ROUNDING = 1e-13
# largest bin z-score accepted for a Monte Carlo histogram; the per-bin
# two-sided tail beyond it is 6e-7, so over 120 bins a correct estimate
# fails with odds below 1e-4 even if the Sobol error were fully random
Z_MAX = 5.0


@dataclasses.dataclass
class Task:
    name: str
    run: Callable[[], Any]
    # returns None when the output passes, else the reason it fails
    check: Callable[[Any], str | None]


def stream_seed(seed: int, index: int) -> int:
    """Seed of task `index`'s stream under workload seed `seed`."""
    return (seed & 0xFFFFFFFF) * 10_000 + index


def counted(fn: Callable, tally) -> Callable:
    """Benchmark-owned weight callable; `tally` sees how many points it gets."""
    if tally is None:
        return fn

    def weight(pts):
        tally("pushforward.weight_points", len(pts))
        return fn(pts)

    return weight


def abs_power(f: Callable, r: float) -> Callable:
    return lambda pts: np.abs(np.asarray(f(pts), dtype=float)) ** r


# ---------------------------------------------------------------------------
# truncation-ladder
# ---------------------------------------------------------------------------

TRUNCATION_CELLS = 4096
TRUNCATION_BUMPS = 3
TRUNCATION_NOISE = 3
SPARSE_CELLS = 1024
SPARSE_PAIRS = 2
SPARSE_DEPTH = 8
SPARSE_LAM = 4.0
# rows of each truncated action compared with a direct quadrature
SPOT_ROWS = (0, TRUNCATION_CELLS // 4, TRUNCATION_CELLS // 2, 3 * TRUNCATION_CELLS // 4,
             TRUNCATION_CELLS - 1)
# relative to the sum of |terms|, which bounds summation-order rounding
SPOT_TOL = 1e-9


def direct_truncation(kernel, F, row: int, eps: float, mode: str, cutoff) -> tuple[float, float]:
    """One row of a truncated action by a separate midpoint quadrature.

    Follows the documented rule of the kernels module, not its code: each
    cell is split where |s - t| crosses eps or 2 eps, every piece is
    evaluated at its midpoint, and the cell holding s itself is skipped.
    Returns the value and the sum of the absolute terms.
    """
    h = F.spacing
    t = F.nodes
    s = t[row]
    lo, hi = t - h / 2, t + h / 2
    cut = hi.copy()
    for c in (s - 2 * eps, s - eps, s + eps, s + 2 * eps):
        inside = (c > lo) & (c < hi)
        cut[inside] = c
    value = scale = 0.0
    for seg_lo, seg_hi in ((lo, cut), (cut, hi)):
        mid = 0.5 * (seg_lo + seg_hi)
        dist = np.abs(mid - s)
        keep = (seg_hi > seg_lo) & (np.abs(t - s) > h / 2)
        chi = np.asarray(cutoff.fn(dist[keep] / eps)) if cutoff is not None else 0.0
        hard = (dist[keep] > eps).astype(float)
        weight = {lf.HARD: hard, lf.SMOOTH: chi, lf.RESIDUAL: hard - chi}[mode]
        terms = (np.asarray(kernel.evaluate(s, mid[keep])) * weight
                 * F.values[keep] * (seg_hi - seg_lo)[keep])
        value += float(np.sum(terms))
        scale += float(np.sum(np.abs(terms)))
    return value, scale


def truncation_ladder(seed: int, tally, workdir: str) -> list[Task]:
    """Check-6 jobs over eps_ladder(2, 8) at m = 4096, plus check-7 pairs."""
    functions = [lf.bump_mixture(-2.0, 2.0, TRUNCATION_CELLS, stream_seed(seed, i))
                 for i in range(TRUNCATION_BUMPS)]
    for i in range(TRUNCATION_BUMPS, TRUNCATION_BUMPS + TRUNCATION_NOISE):
        values = lf.derived_rng(stream_seed(seed, i), 0).standard_normal(TRUNCATION_CELLS)
        functions.append(lf.GridFunction1D(-2.0, 2.0, values))
    smoothstep = lf.smoothstep_cutoff()
    jobs = [(lf.RESIDUAL, smoothstep), (lf.SMOOTH, smoothstep),
            (lf.SMOOTH, lf.linear_ramp_cutoff())]
    eps_values = lf.eps_ladder(2, 8)
    base = TRUNCATION_BUMPS + TRUNCATION_NOISE
    pairs = [(lf.bump_mixture(-1.0, 1.0, SPARSE_CELLS, stream_seed(seed, base + 2 * p)),
              lf.bump_mixture(-1.0, 1.0, SPARSE_CELLS, stream_seed(seed, base + 2 * p + 1)))
             for p in range(SPARSE_PAIRS)]
    maximal: dict[int, np.ndarray] = {}

    def hl_task(j: int) -> Task:
        F = functions[j]

        def run():
            maximal[j] = lf.hl_maximal(F).values
            return maximal[j]

        def check(hl):
            # |F| <= MF (the one-cell window) and MF <= max |F|, up to the
            # rounding of the prefix sums the averages are taken from
            absf = np.abs(F.values)
            slack = PREFIX_ROUNDING * float(np.sum(absf))
            if np.all(hl >= absf - slack) and np.all(hl <= absf.max() + slack):
                return None
            return "maximal average outside [|F|, max |F|]"

        return Task(f"hl_maximal[{j}]", run, check)

    def ladder_task(eps: float) -> Task:
        def run():
            return lf.truncation_batch(lf.hilbert_kernel(), functions, eps, jobs)

        def check(out):
            residual, smooth_a, smooth_b = out
            kernel = lf.hilbert_kernel()
            violations = 0
            for j in range(len(functions)):
                budget = 4.0 * kernel.size_constant * maximal[j] + BUDGET_SLACK
                for field in (np.abs(residual[:, j]), np.abs(smooth_a[:, j] - smooth_b[:, j])):
                    violations += int(np.sum(~(field <= budget)))
            if violations:
                return f"{violations} budget violations"
            for (mode, cutoff), action in zip(jobs, out):
                for j, F in enumerate(functions):
                    for row in SPOT_ROWS:
                        exact, scale = direct_truncation(kernel, F, row, eps, mode, cutoff)
                        if not abs(action[row, j] - exact) <= SPOT_TOL * scale:
                            return f"{mode} action of function {j} off at row {row}"
            return None

        return Task(f"ladder[eps={eps:g}]", run, check)

    def sparse_task(p: int) -> Task:
        F, G = pairs[p]

        def run():
            kernel = lf.hilbert_kernel()
            family = lf.build_sparse_greedy(F, G, lam=SPARSE_LAM, max_depth=SPARSE_DEPTH)
            eta = lf.verify_sparsity(family)
            ratios = []
            for eps in eps_values:
                TF = lf.hard_truncation(kernel, F, eps)
                lhs = float(np.sum(TF.values * G.values) * F.spacing)
                ratios.append(lf.domination_ratio(lhs, family, F, G))
            return family, eta, ratios

        def check(out):
            family, eta, ratios = out
            if eta != family.eta:
                return f"verified eta {eta} != built eta {family.eta}"
            if eta < Fraction(1, 2):
                return f"eta {eta} < 1/2"
            if not all(math.isfinite(r) for r in ratios):
                return "non-finite domination ratio"
            return None

        return Task(f"sparse[{p}]", run, check)

    return ([hl_task(j) for j in range(len(functions))]
            + [ladder_task(eps) for eps in eps_values]
            + [sparse_task(p) for p in range(SPARSE_PAIRS)])


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------

MC_SAMPLES = 1_000_000
MC_BINS = 120
HOLDER_SAMPLES = 400_000
HOLDER_BINS = 64
HOLDER_R = (1.5, 2.0, 3.0)


def monte_carlo(seed: int, tally, workdir: str) -> list[Task]:
    """Cold 1e6-point histograms of the check-2 phases, then check-8 streams."""
    B2, B3 = lf.ball(2), lf.ball(3)
    # check 2's cases and level windows, ball(2) and ball(3) in its order
    cases = [(lf.linear_phase(B2), (-0.9, 0.9)),
             (lf.radial_quadratic_phase(B2), (0.1, 0.95)),
             (lf.radial_quadratic_phase(B3), (0.1, 0.95)),
             (lf.saddle_phase(B2), (0.1, 0.9)),
             (lf.radial_power_phase(B2, 4.0), (0.1, 0.95))]
    osc = lf.oscillatory_phase(B2, 0.5, 10.0)
    lo, hi = lf.image_interval(osc)
    osc_grid = lf.LevelGrid(lo, hi, HOLDER_BINS)

    def histogram_task(i: int) -> Task:
        phase, (t_lo, t_hi) = cases[i]
        grid = lf.LevelGrid(t_lo, t_hi, MC_BINS)

        def run():
            est = lf.density_on_grid(phase, grid, lf.MONTE_CARLO,
                                     sample_count=MC_SAMPLES, seed=stream_seed(seed, i))
            return est.values, est.stderr

        def check(out):
            values, stderr = out
            # the bin-averaged closed form is the histogram's target
            ref = lf.density_on_grid(phase, grid, lf.CLOSED_FORM, subdivide=33).values
            z = np.abs(values - ref) / np.maximum(stderr, 1e-300)
            worst = float(np.max(z))
            if worst > Z_MAX:
                return f"bin z-score {worst:.2f} > {Z_MAX}"
            # the window's total mass is binomial too, and far tighter than a bin
            vol = phase.domain.volume()
            share = float(np.sum(values)) * grid.width / vol
            mass_se = vol * math.sqrt(share * (1.0 - share) / MC_SAMPLES)
            mass_z = abs(float(np.sum(values - ref))) * grid.width / max(mass_se, 1e-300)
            return None if mass_z <= Z_MAX else f"window mass z-score {mass_z:.2f} > {Z_MAX}"

        return Task(f"histogram[{phase.label}]", run, check)

    def holder_task(k: int) -> Task:
        index = len(cases) + k
        r = HOLDER_R[k]
        f = lf.random_smooth_function(B2, stream_seed(seed, index), tag=k)
        weights = (counted(abs_power(f, r), tally), counted(f, tally), None)

        def run():
            # three weights on one seeded stream
            return [lf.weighted_density(osc, h, None, lf.MONTE_CARLO, grid=osc_grid,
                                        sample_count=HOLDER_SAMPLES,
                                        seed=stream_seed(seed, index)).values
                    for h in weights]

        def check(out):
            w_r, w_f, w_1 = out
            mask = w_1 > 0
            bound = w_1[mask] ** (1.0 - 1.0 / r) * w_r[mask] ** (1.0 / r)
            ratio = float(np.max(np.abs(w_f[mask]) / bound))
            return None if ratio <= 1.0 + HOLDER_SLACK else f"Hoelder ratio {ratio!r}"

        return Task(f"holder[r={r:g}]", run, check)

    return ([histogram_task(i) for i in range(len(cases))]
            + [holder_task(k) for k in range(len(HOLDER_R))])


# ---------------------------------------------------------------------------
# fiber-quadrature
# ---------------------------------------------------------------------------

FIBER_FUNCTIONS = 2
FIBER_R = (1.5, 2.0, 3.0)
FIBER_NODES = 512
UNIFORM_PAIRS = 4


def fiber_quadrature(seed: int, tally, workdir: str) -> list[Task]:
    """Weighted coarea level norms on the check-8 phases, plus uniform pairs."""
    B2 = lf.ball(2)
    profile = lf.GammaProfile(lambda t: t, 0.5, 10.0)
    table = lf.design_reparametrization(profile, lambda s: 1.0, 1.0, (0.0, 1.0), step=1e-3)
    cases = [(lf.linear_phase(B2), 160, 5),
             (lf.radial_quadratic_phase(B2), 160, 5),
             (lf.radial_power_phase(B2, 4.0), 320, 9),
             (lf.saddle_phase(B2), 160, 5),
             (lf.boundary_reparam_phase(B2, table), 160, 5)]
    functions = [lf.random_smooth_function(B2, stream_seed(seed, j), tag=j)
                 for j in range(FIBER_FUNCTIONS)]
    powers = {(j, r): counted(abs_power(functions[j], r), tally)
              for j in range(FIBER_FUNCTIONS) for r in FIBER_R}
    norms: dict[tuple[int, float], float] = {}

    def norm_task(j: int, r: float) -> Task:
        def run():
            norms[j, r] = lf.function_norm(B2, functions[j], r,
                                           seed=stream_seed(seed, FIBER_FUNCTIONS + j))
            return norms[j, r]

        def check(value):
            return None if math.isfinite(value) and value > 0 else f"norm {value!r}"

        return Task(f"function_norm[f{j}, r={r:g}]", run, check)

    def level_norm_task(phase, bins: int, subdivide: int, j: int, r: float) -> Task:
        lo, hi = lf.image_interval(phase)
        grid = lf.LevelGrid(lo, hi, bins)

        def run():
            est = lf.density_on_grid(phase, grid, lf.COAREA, h=powers[j, r],
                                     fiber_nodes=FIBER_NODES, subdivide=subdivide)
            return est.values

        def check(values):
            level_norm = (float(np.sum(values)) * grid.width) ** (1.0 / r)
            direct = norms[j, r]
            err = abs(level_norm - direct) / direct
            return None if err <= ISOMETRY_TOL else f"level norm off by {err:.2e}"

        return Task(f"level_norm[{phase.label}, f{j}, r={r:g}]", run, check)

    def uniform_task(p: int) -> Task:
        index = 2 * FIBER_FUNCTIONS + p
        phase_in = lf.linear_phase(B2)
        phase_out = lf.radial_quadratic_phase(B2)
        f = counted(lf.random_smooth_function(B2, stream_seed(seed, index), tag=0), tally)
        g = counted(lf.random_smooth_function(B2, stream_seed(seed, index), tag=1), tally)

        def run():
            return lf.uniform_bound_check(phase_in, phase_out, lf.hilbert_kernel(), f, g, 2.0,
                                          lf.eps_ladder(2, 6), bins=256, fiber_nodes=FIBER_NODES,
                                          subdivide=3, norm_seed=stream_seed(seed, index))

        def check(report):
            values = (*report.ratios, report.max_ratio, report.budget_base)
            return None if all(math.isfinite(v) for v in values) else "non-finite uniform ratio"

        return Task(f"uniform[{p}]", run, check)

    tasks = [norm_task(j, r) for j in range(FIBER_FUNCTIONS) for r in FIBER_R]
    tasks += [level_norm_task(phase, bins, sub, j, r) for phase, bins, sub in cases
              for j in range(FIBER_FUNCTIONS) for r in FIBER_R]
    tasks += [uniform_task(p) for p in range(UNIFORM_PAIRS)]
    return tasks


# ---------------------------------------------------------------------------
# cli-suite
# ---------------------------------------------------------------------------

PRESETS = ("linear", "radial2", "radial-power4", "radial-power8", "saddle")
CONFIG_TEXT = """\
# radial power phase on the unit 3-ball
domain.shape = ball
domain.n = 3
phase.kind = radial-power
phase.gamma = 3
"""


def experiment_commands(seed: int, config_path: str) -> list[list[str]]:
    """The scripts/run_experiments.py command list, plus one --config run."""
    commands = [["density", "--preset", p, "--bins", "256", "--subdivide", "5",
                 "--csv", f"density_{p}.csv", "--json", f"density_{p}.json"]
                for p in PRESETS]
    # same bins and in-bin averaging as the experiment script
    for preset, eps, bins, sub in (("linear", "0.25", "256", "5"),
                                   ("linear", "0.125", "256", "5"),
                                   ("radial2", "0.25", "256", "5"),
                                   ("radial-power4", "0.25", "1024", "21")):
        tag = f"{preset}_{eps.replace('.', 'p')}"
        commands.append(["reduce", "--preset", preset, "--eps", eps,
                         "--samples", "400000", "--bins", bins, "--subdivide", sub,
                         "--json", f"reduce_{tag}.json"])
    commands.append(["sparse", "--cells", "1024", "--depth", "8",
                     "--csv", "sparse_domination.csv", "--json", "sparse_family.json"])
    commands += [["regime", "--preset", p, "--json", f"regime_{p}.json"] for p in PRESETS]
    commands.append(["density", "--config", config_path, "--bins", "256", "--subdivide", "5",
                     "--csv", "density_config.csv", "--json", "density_config.json"])
    for index, argv in enumerate(commands):
        argv += ["--seed", str(stream_seed(seed, index))]
    return commands


def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def cli_suite(seed: int, tally, workdir: str) -> list[Task]:
    """Every experiment-script command, in-process through cli.main."""
    out_dir = os.path.join(workdir, f"cli-{os.getpid()}")
    os.makedirs(out_dir)
    config_path = os.path.join(out_dir, "phase.cfg")
    with open(config_path, "w") as fh:
        fh.write(CONFIG_TEXT)

    def command_task(argv: list[str]) -> Task:
        json_name = _option(argv, "--json")
        csv_name = _option(argv, "--csv")

        def run():
            printed = io.StringIO()
            os.environ["LEVELFORM_OUT"] = out_dir
            with contextlib.redirect_stdout(printed):
                code = cli.main(list(argv))
            with open(os.path.join(out_dir, json_name)) as fh:
                report = json.load(fh)
            table = None
            if csv_name is not None:
                with open(os.path.join(out_dir, csv_name)) as fh:
                    table = fh.read()
            # metadata carries a timestamp and paths, so only the payload is output
            return (code, report["payload"], report["metadata"]["payload_sha256"],
                    table, printed.getvalue())

        def check(out):
            code, payload, stored, _, _ = out
            if code != 0:
                return f"exit code {code}"
            digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
            return None if digest == stored else "payload sha256 mismatch"

        return Task(f"{argv[0]} {json_name}", run, check)

    return [command_task(argv) for argv in experiment_commands(seed, config_path)]


WORKLOADS = {
    "truncation-ladder": truncation_ladder,
    "monte-carlo": monte_carlo,
    "fiber-quadrature": fiber_quadrature,
    "cli-suite": cli_suite,
}


# ---------------------------------------------------------------------------
# output fingerprints
# ---------------------------------------------------------------------------

def fingerprint(output: Any) -> str:
    """sha256 over the exact bits of a task output."""
    h = hashlib.sha256()
    _feed(h, output)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _feed(h, obj.item())
    elif isinstance(obj, float):
        h.update(b"f" + struct.pack("<d", obj))
    elif obj is None or isinstance(obj, (bool, int, str, Fraction)):
        h.update(f"{type(obj).__name__}:{obj!r}".encode())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif dataclasses.is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")
