"""End-to-end acceptance gate.

Nine numbered checks, one per headline guarantee of the package: the
reduction identity at desk scale, density oracles against closed forms and
Monte Carlo, log and power regime detection, the critical integrability
window, truncation stability on a fine grid, constructive sparse domination
with its frozen regression constant, fiber operator norms, and the uniform
budget benchmark.  Each check prints a single ACCEPTANCE line so a plain
pytest run doubles as a scoreboard.

Tolerances are pinned here, not computed: loosening one is a contract
change, not a tuning knob.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

import levelform as lf
from levelform import benchmarks

B2 = lf.ball(2)
B3 = lf.ball(3)


def _line(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {number} {name}: {verdict} ({detail})")


def _abs_power(f, r: float):
    def h(points):
        return np.abs(np.asarray(f(points), dtype=float)) ** r

    return h


def _pick_levels(phase, count: int, margin: float = 0.05) -> np.ndarray:
    """Evenly spread levels inside the image, away from critical values."""
    lo, hi = lf.image_interval(phase)
    candidates = np.linspace(lo + margin, hi - margin, 40 * count)
    criticals = lf.critical_values(phase)
    if criticals:
        dist = np.min(np.abs(candidates[:, None] - np.asarray(criticals)), axis=1)
        candidates = candidates[dist >= margin]
    idx = np.linspace(0, candidates.size - 1, count).round().astype(int)
    return candidates[idx]


def test_01_reduction_identity(capsys):
    """Sampled form agrees with the reduced level integral, fast."""
    f = lf.LevelFunction(lambda t: (np.asarray(t) > 0).astype(float))
    g = lf.LevelFunction(lambda t: np.ones_like(np.asarray(t)))
    details = []
    ok = True
    for eps in (0.25, 0.125):
        form = lf.SynchronizedForm(
            phase_in=lf.linear_phase(B2),
            phase_out=lf.linear_phase(B2),
            kernel=lf.hilbert_kernel(),
            f=f,
            g=g,
            eps=eps,
        )
        start = time.perf_counter()
        report = lf.verify_reduction_identity(
            form, sample_count=1_000_000, bins=512, seed=0
        )
        elapsed = time.perf_counter() - start
        ok = ok and report.passed and elapsed < 60.0
        details.append(
            f"eps={eps}: |lhs-rhs|={report.discrepancy:.2e}"
            f" tol={report.tolerance:.2e} {elapsed:.1f}s"
        )
    _line(capsys, 1, "reduction-identity", ok, "; ".join(details))
    assert ok, details


def test_02_density_oracles(capsys):
    """Coarea quadrature and Monte Carlo both reproduce the closed forms."""
    cases = [
        ("linear2", lf.linear_phase(B2), (-0.9, 0.9)),
        ("radial-quadratic2", lf.radial_quadratic_phase(B2), (0.1, 0.95)),
        ("radial-quadratic3", lf.radial_quadratic_phase(B3), (0.1, 0.95)),
        ("saddle", lf.saddle_phase(B2), (0.1, 0.9)),
        ("radial-power4", lf.radial_power_phase(B2, 4.0), (0.1, 0.95)),
    ]

    worst_rel = 0.0
    for _, phase, _ in cases:
        for t in _pick_levels(phase, 20):
            exact = lf.weighted_density_closed_form(phase, None, float(t))
            approx = lf.weighted_density_coarea(phase, None, float(t), fiber_nodes=4096)
            worst_rel = max(worst_rel, abs(approx - exact) / abs(exact))
    coarea_ok = worst_rel <= 1e-3

    # bin-averaged closed form is the right target for a histogram estimate
    worst_z = 0.0
    violations = 0
    for _, phase, window in cases:
        grid = lf.LevelGrid(window[0], window[1], 120)
        mc = lf.density_on_grid(
            phase, grid, lf.MONTE_CARLO, sample_count=1_000_000, seed=0
        )
        ref = lf.density_on_grid(phase, grid, lf.CLOSED_FORM, subdivide=33)
        z = np.abs(mc.values - ref.values) / np.maximum(mc.stderr, 1e-300)
        worst_z = max(worst_z, float(z.max()))
        violations += int(np.sum(z > 3.0))
    mc_ok = violations == 0

    ok = coarea_ok and mc_ok
    _line(
        capsys,
        2,
        "density-oracles",
        ok,
        f"coarea rel {worst_rel:.2e} <= 1e-3;"
        f" mc worst z {worst_z:.2f}, {violations} bins beyond 3 sigma",
    )
    assert ok


def test_03_saddle_log_asymptotics(capsys):
    """Saddle density matches ln(1/t) to 10% through the last decades."""
    phase = lf.saddle_phase(B2)
    levels = np.geomspace(1e-8, 1e-6, 20)
    ratios = np.asarray(
        [lf.weighted_density_closed_form(phase, None, float(t)) / np.log(1.0 / t) for t in levels]
    )
    ok = bool(np.all((ratios >= 0.9) & (ratios <= 1.1)))
    _line(
        capsys,
        3,
        "saddle-log-asymptotics",
        ok,
        f"w(t)/ln(1/t) in [{ratios.min():.4f}, {ratios.max():.4f}]",
    )
    assert ok


def test_04_beta_recovery(capsys):
    """Power regime exponent recovered from sampled histograms alone."""
    results = []
    ok = True
    for gamma, lo, hi in ((4.0, 0.45, 0.55), (8.0, 0.70, 0.80)):
        profile = lf.estimate_beta(
            lf.radial_power_phase(B2, gamma),
            t_lo=1e-3,
            t_hi=1e-1,
            bins=400,
            method=lf.MONTE_CARLO,
            sample_count=1_000_000,
            seed=0,
        )
        ok = ok and profile.kind == lf.POWER_REGIME and lo <= profile.beta <= hi
        results.append(f"gamma={gamma:g}: beta={profile.beta:.4f} in [{lo}, {hi}]")
    _line(capsys, 4, "beta-recovery", ok, "; ".join(results))
    assert ok, results


def test_05_critical_window(capsys):
    """Window endpoints are exact and scan verdicts flip where they should."""
    gamma = 4.0
    beta = lf.critical_exponent(lf.radial_power_phase(B2, gamma))
    window = lf.critical_window(beta, beta)
    window_ok = beta == 0.5 and window == (1.5, 3.0)

    wanted = ["divergent", "convergent", "convergent", "divergent"]
    got = [lf.window_verdict(beta, beta, r).verdict for r in (1.2, 1.6, 2.5, 3.5)]
    verdict_ok = got == wanted

    ok = window_ok and verdict_ok
    _line(
        capsys,
        5,
        "critical-window",
        ok,
        f"window={window}; verdicts {got}",
    )
    assert ok, (window, got)


def test_06_truncation_stability(capsys):
    """Residuals and cutoff swaps stay under the maximal-function budget."""
    kernel = lf.hilbert_kernel()
    cells = 4096
    functions = [lf.bump_mixture(-2.0, 2.0, cells, seed) for seed in range(10)]
    for tag in range(10):
        values = lf.derived_rng(100, tag).standard_normal(cells)
        functions.append(lf.GridFunction1D(-2.0, 2.0, values))
    budgets = [
        4.0 * kernel.size_constant * lf.hl_maximal(F).values + 1e-12
        for F in functions
    ]

    smoothstep = lf.smoothstep_cutoff()
    ramp = lf.linear_ramp_cutoff()
    jobs = [(lf.RESIDUAL, smoothstep), (lf.SMOOTH, smoothstep), (lf.SMOOTH, ramp)]

    violations = 0
    worst_frac = 0.0
    for eps in lf.eps_ladder(2, 8):
        residual, smooth_a, smooth_b = lf.truncation_batch(
            kernel, functions, eps, jobs
        )
        for j, budget in enumerate(budgets):
            for field in (np.abs(residual[:, j]), np.abs(smooth_a[:, j] - smooth_b[:, j])):
                frac = float(np.max(field / budget))
                worst_frac = max(worst_frac, frac)
                violations += int(np.sum(field > budget))
    ok = violations == 0
    _line(
        capsys,
        6,
        "truncation-stability",
        ok,
        f"{len(functions)} functions x 7 radii, {violations} violations,"
        f" worst fraction of budget {worst_frac:.3f}",
    )
    assert ok


def test_07_sparse_domination(capsys):
    """Greedy families certify, dominate, and reproduce the frozen constant."""
    bench = benchmarks.domination_benchmark()
    eta_ok = bench.worst_eta >= Fraction(1, 2)

    matrix = np.asarray(bench.ratios, dtype=float)
    finite_ok = bool(np.all(np.isfinite(matrix)))

    # stability of the bound, not of individual pairs: cancellation makes a
    # single pair's ratio swing freely, the per-radius worst case may not
    envelope = matrix.max(axis=0)
    spread = float(envelope.max() / envelope.min())
    spread_ok = spread <= 2.0

    frozen = lf.baseline("sparse_domination_max_ratio")
    frozen_ok = repr(bench.max_ratio) == repr(frozen)

    ok = eta_ok and finite_ok and spread_ok and frozen_ok
    _line(
        capsys,
        7,
        "sparse-domination",
        ok,
        f"worst eta {bench.worst_eta}, envelope spread x{spread:.3f},"
        f" max ratio {bench.max_ratio!r} {'==' if frozen_ok else '!='} frozen",
    )
    assert ok


def test_08_fiber_operators(capsys):
    """Level norms are isometric and fiber averages obey the Holder bound."""
    prof = lf.GammaProfile(lambda t: t, 0.5, 10.0)
    table = lf.design_reparametrization(prof, lambda s: 1.0, 1.0, (0.0, 1.0), step=1e-3)
    coarea_cases = [
        (lf.linear_phase(B2), (-0.9, 0.9), 160, 5),
        (lf.radial_quadratic_phase(B2), (0.1, 0.9), 160, 5),
        (lf.radial_power_phase(B2, 4.0), (0.05, 0.95), 320, 9),
        (lf.saddle_phase(B2), (0.15, 0.75), 160, 5),
        (lf.boundary_reparam_phase(B2, table), (1.05, 2.65), 160, 5),
    ]
    functions = [lf.random_smooth_function(B2, seed=8, tag=tag) for tag in range(5)]
    r_values = (1.5, 2.0, 3.0)

    worst_iso = 0.0
    worst_holder = 0.0
    for phase, window, bins, subdivide in coarea_cases:
        lo, hi = lf.image_interval(phase)
        grid = lf.LevelGrid(lo, hi, bins)
        levels = np.linspace(window[0], window[1], 8)
        for f in functions:
            for r in r_values:
                est = lf.density_on_grid(
                    phase,
                    grid,
                    lf.COAREA,
                    h=_abs_power(f, r),
                    fiber_nodes=512,
                    subdivide=subdivide,
                )
                level_norm = est.mass() ** (1.0 / r)
                direct = lf.function_norm(B2, f, r)
                worst_iso = max(worst_iso, abs(level_norm - direct) / direct)

                conj = 1.0 - 1.0 / r
                for t in levels:
                    avg = lf.weighted_density(phase, f, float(t), lf.COAREA,
                                              fiber_nodes=512)
                    m_val = lf.fiber_norm(phase, f, r, float(t), lf.COAREA,
                                          fiber_nodes=512)
                    w_val = lf.weighted_density_coarea(phase, None, float(t),
                                                       fiber_nodes=512)
                    bound = w_val ** conj * m_val
                    if bound > 0:
                        worst_holder = max(worst_holder, abs(avg) / bound)

    # sampled route for the modulated phase, which has no closed-form weight
    osc = lf.oscillatory_phase(B2, 0.5, 10.0)
    lo, hi = lf.image_interval(osc)
    grid = lf.LevelGrid(lo, hi, 64)
    for f in functions:
        for r in r_values:
            est_r = lf.weighted_density(osc, _abs_power(f, r), None, lf.MONTE_CARLO,
                                        grid=grid, sample_count=400_000, seed=3)
            est_a = lf.weighted_density(osc, f, None, lf.MONTE_CARLO,
                                        grid=grid, sample_count=400_000, seed=3)
            est_w = lf.weighted_density(osc, None, None, lf.MONTE_CARLO,
                                        grid=grid, sample_count=400_000, seed=3)
            level_norm = est_r.mass() ** (1.0 / r)
            direct = lf.function_norm(B2, f, r)
            worst_iso = max(worst_iso, abs(level_norm - direct) / direct)

            conj = 1.0 - 1.0 / r
            mask = est_w.values > 0
            bound = est_w.values[mask] ** conj * est_r.values[mask] ** (1.0 / r)
            worst_holder = max(
                worst_holder, float(np.max(np.abs(est_a.values[mask]) / bound))
            )

    iso_ok = worst_iso <= 0.01
    holder_ok = worst_holder <= 1.0 + 1e-9
    ok = iso_ok and holder_ok
    _line(
        capsys,
        8,
        "fiber-operators",
        ok,
        f"norm mismatch {worst_iso:.2e} <= 1e-2;"
        f" Holder ratio {worst_holder:.12f} <= 1+1e-9",
    )
    assert ok


def test_09_uniform_budget(capsys):
    """Normalized pairings stay inside the frozen uniform budget, radius-free."""
    bench = benchmarks.uniform_benchmark()
    frozen = lf.baseline("uniform_budget_constant")
    frozen_ok = repr(bench.max_ratio) == repr(frozen)

    matrix = np.asarray([report.ratios for report in bench.reports], dtype=float)
    budget_ok = bool(np.all(matrix <= frozen)) and bool(np.all(np.isfinite(matrix)))

    envelope = matrix.max(axis=0)
    spread = float(envelope.max() / envelope.min())
    spread_ok = spread <= 2.0

    ok = frozen_ok and budget_ok and spread_ok
    _line(
        capsys,
        9,
        "uniform-budget",
        ok,
        f"max ratio {bench.max_ratio!r} {'==' if frozen_ok else '!='} frozen,"
        f" envelope spread x{spread:.3f}",
    )
    assert ok


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
