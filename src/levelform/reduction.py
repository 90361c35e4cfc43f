"""Reduction of synchronized bilinear forms to level space, and regime checks.

The central identity: a pairing of a truncated singular integral against two
functions, each composed with a phase, equals a one-dimensional truncated
pairing of their pushforward densities. Both sides are computable here, the
left by quasi Monte Carlo over the product domain and the right by grid
quadrature on level space, so the identity can be verified numerically.

The regime toolkit classifies densities near critical levels (power versus
logarithmic growth), turns fitted exponents into an exponent window, scans
endpoint integrability, and checks the uniform-regime budget.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import geometry
from ._overlap import _split_rows, lookahead
from .errors import (ConfigError, InsufficientDecadesError, NoClosedFormError,
                     PhaseNotUniformError, UnsupportedPhaseError, require_callable,
                     require_instance, require_real, require_reals, require_whole, typed)
from .geometry import Domain, Phase
from .kernels import GridFunction1D, Kernel1D, hard_truncation
from .pushforward import (CLOSED_FORM, COAREA, MONTE_CARLO, DensityEstimate, LevelGrid,
                          _abs_power, density_on_grid, route_parameters,
                          weighted_density_closed_form)
from .sampling import derived_rng, sample_domain, sample_pair_blocks

POWER_REGIME = "critical-power"
LOG_REGIME = "critical-log"
UNIFORM_REGIME = "uniform"
ATOMIC_REGIME = "atomic"
# a beta under this reads uniform; a log term must move w by this fraction
_REGIME_CUT = 0.05


@dataclass(frozen=True)
class Estimate:
    """A number with an attached error scale (statistical or refinement)."""

    value: float
    error: float
    sample_count: int | None = None


@dataclass(frozen=True)
class SynchronizedForm:
    """Pairing data: inner phase carries f, outer phase carries g.

    The form integrates k(outer level, inner level) over pairs of points
    whose levels differ by more than eps, weighted by f and g.
    """

    phase_in: Phase
    phase_out: Phase
    kernel: Kernel1D
    f: Callable
    g: Callable
    eps: float = 0.25

    def __post_init__(self):
        require_instance(self.phase_in, Phase, "inner phase")
        require_instance(self.phase_out, Phase, "outer phase")
        require_instance(self.kernel, Kernel1D, "kernel")
        require_callable(self.f, "f")
        require_callable(self.g, "g")
        require_real(self.eps, "truncation radius", above=0)


@typed
def lhs_direct(form: SynchronizedForm, sample_count: int = 100_000,
               seed: int = 0) -> Estimate:
    """Direct quasi Monte Carlo evaluation over the product of the domains,
    block by block in stream order. The pairs whose levels differ by more
    than eps are found once a block, as an index, and gathered by it (`take`);
    f and g are called once per block on fresh (k, n) arrays of those pairs'
    points, so they must be pointwise. The kernel, f and g must each give
    finite reals, one value per kept pair; anything else raises ConfigError
    before a product is formed. So does a product of the two domain volumes
    past the float range, before any block is drawn.

    The pair stream is read one block ahead (`_overlap.lookahead`): while the
    caller evaluates the phases, the kernel, f and g on one block, the worker
    thread draws the next (the Sobol XOR, the scale, both domains' `contains`
    and the gather). Everything else runs on the caller's thread, and where
    fewer than two CPUs are usable the whole call does."""
    require_whole(sample_count, "sample_count")
    # two finite volumes can still multiply past the float range
    scale = require_real(form.phase_in.domain.volume() * form.phase_out.domain.volume(),
                         "product of the domain volumes")
    # refuses an impossible count before the values below are allocated
    pairs = sample_pair_blocks(form.phase_in.domain, form.phase_out.domain, sample_count, seed)
    # one array of per-pair values: its mean and std are pairwise sums over all of it
    vals = np.zeros(sample_count)
    got = 0
    # closed on the way out, an error's too, so that no draw outlives the call
    with closing(lookahead(pairs)) as blocks:
        for xs, ys in blocks:
            # sampled points lie in their domains; `_eval_values` checks the phase values
            t = geometry._eval_values(form.phase_in, xs)
            s = geometry._eval_values(form.phase_out, ys)
            keep = np.flatnonzero(np.abs(s - t) > form.eps)
            if len(keep):
                k = len(keep)
                kv = require_reals(form.kernel.evaluate(s.take(keep), t.take(keep)),
                                   "kernel values", k)
                fv = require_reals(form.f(xs.take(keep, axis=0)), "f values", k)
                gv = require_reals(form.g(ys.take(keep, axis=0)), "g values", k)
                vals[got + keep] = kv * fv * gv
            got += len(xs)
    value = float(np.mean(vals)) * scale
    stderr = float(np.std(vals)) / math.sqrt(sample_count) * scale
    return Estimate(value=value, error=stderr, sample_count=sample_count)


def _level_pairings(phase_in: Phase, phase_out: Phase, kernel: Kernel1D, f, g,
                    eps_values: Sequence[float], bins: int, method: str, *,
                    seed: int | None = None, **route) -> list[float]:
    """Hard-truncated pairing, per eps, of the f- and g-weighted densities on
    `bins` bins over each image, the action taken at the outer grid's centres."""
    grid_t = LevelGrid(*geometry.image_interval(phase_in), bins)
    grid_s = LevelGrid(*geometry.image_interval(phase_out), bins)
    W_f = density_on_grid(phase_in, grid_t, method, h=f, seed=seed, **route)
    W_g = density_on_grid(phase_out, grid_s, method, h=g,
                          seed=None if seed is None else seed + 1, **route)
    F = GridFunction1D(grid_t.t_min, grid_t.t_max, W_f.values)
    return [float(np.sum(hard_truncation(kernel, F, eps, eval_points=grid_s.centers)
                         * W_g.values) * grid_s.width)
            for eps in eps_values]


@dataclass(frozen=True)
class ReductionReport:
    lhs: Estimate
    rhs: Estimate
    discrepancy: float
    tolerance: float
    relative_discrepancy: float
    passed: bool


@typed
def verify_reduction_identity(form: SynchronizedForm, *,
                              sample_count: int = 1_000_000, bins: int = 512,
                              seed: int = 0, method: str = CLOSED_FORM,
                              fiber_nodes=None, subdivide=None) -> ReductionReport:
    """Compare the direct evaluation with the level-space one, whose error is
    its change when the bins double (5 midpoints per bin by default on the
    deterministic routes); the tolerance is the larger of the sampling error
    bound and 1% of the scale. A radius at least the widest level gap is
    refused: both sides vanish there."""
    route = ({"sample_count": sample_count, "seed": seed} if method == MONTE_CARLO
             else {"subdivide": 5})
    route.update(route_parameters(method, fiber_nodes=fiber_nodes, subdivide=subdivide))
    lo_in, hi_in = geometry.image_interval(form.phase_in)
    lo_out, hi_out = geometry.image_interval(form.phase_out)
    widest = max(hi_out - lo_in, hi_in - lo_out)
    if form.eps >= widest:
        raise ConfigError(f"truncation radius {form.eps!r} is at least the widest "
                          f"level gap {widest!r}, so both sides vanish")
    lhs = lhs_direct(form, sample_count=sample_count, seed=seed)
    coarse, fine = (_level_pairings(form.phase_in, form.phase_out, form.kernel, form.f,
                                    form.g, [form.eps], level_bins, method, **route)[0]
                    for level_bins in (bins, 2 * bins))
    rhs = Estimate(value=fine, error=abs(fine - coarse))
    disc = abs(lhs.value - rhs.value)
    scale = max(abs(lhs.value), abs(rhs.value), 1e-12)
    tol = max(3.0 * lhs.error + rhs.error, 0.01 * scale)
    return ReductionReport(lhs=lhs, rhs=rhs, discrepancy=disc, tolerance=tol,
                           relative_discrepancy=disc / scale,
                           passed=disc <= tol)


# ---------------------------------------------------------------------------
# critical exponent extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalProfile:
    """Fitted small-level behavior of a density."""

    beta: float
    regime: str
    rel_rms_power: float
    rel_rms_log: float
    slope: float
    intercept: float
    log_coefficients: tuple[float, float]


@typed
def estimate_beta(estimate: DensityEstimate) -> CriticalProfile:
    """Fit w(t) ~ c t^(-beta) against w(t) ~ a log(1/t) + b over the levels
    of a density estimate, whose grid must start above 0 and span a decade.

    The regime is decided here, in this order: atomic if the estimate flagged
    an atom (only a Monte Carlo histogram on more than 1000 bins can); log if
    the log model has the smaller relative RMS error and a log term that is
    material, a ln(t_max/t_min) >= 5% of the mean fitted w; uniform if the
    power-law beta, clamped to [0, 1), is under 0.05; power otherwise. A log
    or uniform verdict reports beta = 0 exactly.
    """
    grid = estimate.grid
    if not grid.t_min > 0:
        raise ConfigError("an exponent fit needs levels above 0")
    if grid.t_max / grid.t_min < 10.0:
        raise InsufficientDecadesError("need at least one decade of levels")
    t = grid.centers
    w = estimate.values
    keep = np.isfinite(w) & (w > 0)
    if np.count_nonzero(keep) < 8:
        raise ConfigError("too few usable levels for an exponent fit")
    t, w = t[keep], w[keep]

    slope, intercept = np.polyfit(np.log(t), np.log(w), 1)
    pred_power = np.exp(intercept) * t ** slope
    rel_power = float(np.sqrt(np.mean(((pred_power - w) / w) ** 2)))

    design = np.column_stack([np.log(1.0 / t), np.ones_like(t)])
    (a_log, b_log), *_ = np.linalg.lstsq(design, w, rcond=None)
    pred_log = design @ np.array([a_log, b_log])
    rel_log = float(np.sqrt(np.mean(((pred_log - w) / w) ** 2)))

    log_wins = (rel_log < rel_power and a_log * math.log(grid.t_max / grid.t_min)
                >= _REGIME_CUT * np.mean(w))
    beta = 0.0 if log_wins or -slope < _REGIME_CUT else min(-float(slope), 1.0 - 1e-9)
    if estimate.atom_suspected:
        regime = ATOMIC_REGIME
    elif log_wins:
        regime = LOG_REGIME
    elif beta == 0.0:
        regime = UNIFORM_REGIME
    else:
        regime = POWER_REGIME
    return CriticalProfile(beta=beta, regime=regime, rel_rms_power=rel_power,
                           rel_rms_log=rel_log, slope=float(slope),
                           intercept=float(intercept),
                           log_coefficients=(float(a_log), float(b_log)))


def critical_window(beta_in: float, beta_out: float) -> tuple[float, float]:
    """Open exponent window (1 + beta_out, 1 + 1/beta_in); upper end inf at 0."""
    for beta in (beta_in, beta_out):
        if require_real(beta, "window exponent beta", minimum=0) >= 1.0:
            raise ConfigError(f"window exponent beta must be < 1, got {beta!r}")
    upper = math.inf if beta_in == 0.0 else 1.0 + 1.0 / beta_in
    return (1.0 + beta_out, upper)


@dataclass(frozen=True)
class IntegrabilityScan:
    """Dyadic-shell increments of the inverse-density integral near level 0."""

    exponent_product: float
    increments: tuple[float, ...]
    ratios: tuple[float, ...]
    converged: bool


def integrability_scan(beta: float, a: float) -> IntegrabilityScan:
    """Exact shell increments of the integral of t^(-a beta) dt near 0.

    Shell k is [2^-(k+1), 2^-k] for k = 3..24; the increments follow the ratio
    2^(a beta - 1), and the scan declares convergence when the last three
    measured ratios sit below 0.97. An increment past the float range reads
    inf (from a beta above about 43 on) and one under it may read 0; a ratio
    from such an increment reads as the next increment, inf or 0.
    """
    require_real(beta, "integrability scan beta")
    require_real(a, "integrability scan exponent a", minimum=0)
    require_real(a * beta, "integrability scan exponent product a beta")
    p = -a * beta
    increments = []
    for k in range(3, 25):
        lo, hi = 2.0 ** (-(k + 1)), 2.0 ** (-k)
        if p == -1.0:
            increments.append(math.log(2.0))
            continue
        try:
            increments.append((hi ** (p + 1) - lo ** (p + 1)) / (p + 1))
        except OverflowError:
            increments.append(math.inf)
    ratios = tuple(after / before if 0.0 < before < math.inf else after
                   for before, after in zip(increments, increments[1:]))
    converged = all(r < 0.97 for r in ratios[-3:])
    return IntegrabilityScan(exponent_product=a * beta,
                             increments=tuple(increments), ratios=ratios,
                             converged=converged)


@dataclass(frozen=True)
class WindowVerdict:
    r: float
    window: tuple[float, float]
    scan_in: IntegrabilityScan
    scan_out: IntegrabilityScan
    verdict: str


def window_verdict(beta_in: float, beta_out: float, r: float) -> WindowVerdict:
    """Two-sided endpoint scan at exponent r.

    The inner side scans with a = r - 1 against beta_in, the outer side with
    the dual increment a = 1/(r - 1) against beta_out; the pairing converges
    only when both scans do.
    """
    require_real(r, "scan exponent r", above=1)
    scan_in = integrability_scan(beta_in, r - 1.0)
    scan_out = integrability_scan(beta_out, 1.0 / (r - 1.0))
    verdict = "convergent" if (scan_in.converged and scan_out.converged) \
        else "divergent"
    return WindowVerdict(r=r, window=critical_window(beta_in, beta_out),
                         scan_in=scan_in, scan_out=scan_out, verdict=verdict)


# ---------------------------------------------------------------------------
# pullback norms near critical levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PullbackReport:
    value: float
    deltas: tuple[float, ...]
    masses: tuple[float, ...]
    growth: tuple[float, ...]
    divergent: bool


@typed
def pullback_norm(phase: Phase, f, r: float, delta: float = 0.01) -> PullbackReport:
    """Level-space norm of f at exponent r away from critical levels.

    Integrates the closed-form |f|^r-weighted density, so f must be constant
    on fibers, over the part of the image at distance at least delta from
    every critical level, then halves delta twice. Mass growth above 25
    percent at every halving flags divergence.
    """
    from scipy.integrate import quad

    require_real(r, "pullback exponent r", minimum=1)
    require_real(delta, "core margin delta", above=0)
    habs = _abs_power(f, r)

    def integrand(t: float) -> float:
        return weighted_density_closed_form(phase, habs, t)

    lo, hi = geometry.image_interval(phase)
    crits = geometry.critical_values(phase)
    deltas = tuple(delta / 2 ** i for i in range(3))
    masses = []
    for d in deltas:
        total = 0.0
        for seg_lo, seg_hi in _core_segments(lo, hi, crits, d):
            part, _ = quad(integrand, seg_lo, seg_hi, limit=200)
            total += part
        masses.append(total)
    growth = tuple(math.inf if masses[i] == 0.0 and masses[i + 1] > 0.0
                   else masses[i + 1] / masses[i] - 1.0 if masses[i] > 0.0
                   else 0.0
                   for i in range(len(masses) - 1))
    divergent = len(crits) > 0 and all(g > 0.25 for g in growth)
    return PullbackReport(value=masses[-1] ** (1.0 / r), deltas=deltas,
                          masses=tuple(masses), growth=growth,
                          divergent=divergent)


def _core_segments(lo: float, hi: float, crits: Sequence[float],
                   delta: float) -> list[tuple[float, float]]:
    segments = [(lo, hi)]
    for c in sorted(crits):
        trimmed = []
        for a, b in segments:
            left = (a, min(b, c - delta))
            right = (max(a, c + delta), b)
            for seg in (left, right):
                if seg[1] > seg[0]:
                    trimmed.append(seg)
        segments = trimmed
    return segments


# ---------------------------------------------------------------------------
# uniform regime
# ---------------------------------------------------------------------------

def _require_uniform(phase: Phase) -> None:
    """Bounded density: a closed form that is finite at every critical value."""
    try:
        at_crit = weighted_density_closed_form(
            phase, None, np.array(geometry.critical_values(phase)))
    except (NoClosedFormError, UnsupportedPhaseError) as exc:
        raise PhaseNotUniformError(f"{phase.label} has no bounded closed-form density") from exc
    if not np.all(np.isfinite(at_crit)):
        raise PhaseNotUniformError(f"{phase.label} density blows up at a critical level")


@typed
def density_supremum(phase: Phase) -> float:
    """Supremum of the closed-form density over 2048 interior image points."""
    lo, hi = geometry.image_interval(phase)
    t = np.linspace(lo, hi, 2050)[1:-1]
    vals = weighted_density_closed_form(phase, None, t)
    return float(np.max(vals[np.isfinite(vals)]))


@typed
def function_norm(domain: Domain, f, r: float, sample_count: int = 1 << 16,
                  seed: int = 0) -> float:
    """Quasi Monte Carlo L^r norm of f over the domain."""
    require_callable(f, "f")
    require_real(r, "function norm exponent r", above=0)
    require_whole(sample_count, "sample_count")
    pts = sample_domain(domain, sample_count, seed, tag=7)
    vals = np.abs(require_reals(f(pts), "integrand values", len(pts))) ** r
    return float(np.mean(vals) * domain.volume()) ** (1.0 / r)


@dataclass(frozen=True)
class UniformReport:
    r: float
    eps_values: tuple[float, ...]
    pairings: tuple[float, ...]
    budget_base: float
    ratios: tuple[float, ...]
    max_ratio: float
    sup_in: float
    sup_out: float
    norm_f: float
    norm_g: float


@typed
def uniform_bound_check(phase_in: Phase, phase_out: Phase, kernel: Kernel1D,
                        f, g, r: float, eps_values: Sequence[float], *,
                        bins: int = 256, fiber_nodes: int = 512, subdivide: int = 3,
                        norm_seed: int = 0) -> UniformReport:
    """Truncation-uniform pairing bound in the bounded-density regime.

    The budget base is sup(w_in)^(1/r') sup(w_out)^(1/r) |f|_r |g|_{r'}; the
    reported ratios divide each truncated pairing by it, so a fitted constant
    times the base dominates the pairing uniformly in the truncation radius.
    """
    _require_uniform(phase_in)
    _require_uniform(phase_out)
    require_real(r, "uniform budget exponent r", above=1)
    if len(eps_values) == 0:
        raise ConfigError("need at least one truncation radius")
    r_dual = r / (r - 1.0)

    pairings = _level_pairings(phase_in, phase_out, kernel, f, g, eps_values, bins,
                               COAREA, fiber_nodes=fiber_nodes, subdivide=subdivide)
    sup_in = density_supremum(phase_in)
    sup_out = density_supremum(phase_out)
    norm_f = function_norm(phase_in.domain, f, r, seed=norm_seed)
    norm_g = function_norm(phase_out.domain, g, r_dual, seed=norm_seed + 1)
    base = (sup_in ** (1.0 / r_dual) * sup_out ** (1.0 / r)
            * norm_f * norm_g)
    ratios = tuple(abs(p) / base for p in pairings)
    return UniformReport(r=r, eps_values=tuple(float(e) for e in eps_values),
                         pairings=tuple(pairings), budget_base=base,
                         ratios=ratios, max_ratio=max(ratios), sup_in=sup_in,
                         sup_out=sup_out, norm_f=norm_f, norm_g=norm_g)


@typed
def random_smooth_function(domain: Domain, seed: int, *, tag: int = 0) -> Callable:
    """Random low-frequency trigonometric polynomial of three waves on the domain.

    A call of at least `_overlap._SPLIT_ROWS` points is evaluated on two
    threads where two CPUs are usable, with the bits of one serial evaluation.
    """
    rng = derived_rng(seed, 1000 + tag)
    amps = rng.standard_normal(3)
    freqs = rng.integers(-2, 3, size=(3, domain.n)).astype(float)
    shifts = rng.uniform(0.0, 2.0 * math.pi, 3)

    def waves(rows: np.ndarray, acc: np.ndarray) -> None:
        # acc += a * cos(rows @ k + c), wave by wave, in one scratch array
        w = np.empty(len(rows))
        for a, k, c in zip(amps, freqs, shifts):
            np.matmul(rows, k, out=w)
            w += c
            np.cos(w, out=w)
            w *= a
            acc += w

    def fn(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        acc = np.zeros(len(pts))
        _split_rows(waves, pts, acc)
        return acc

    return fn
