"""Pushforward densities of phases and weighted fiber functionals.

Three routes to the level density w_theta(t) = H^{n-1}-integral of 1/|grad|
over the level set: catalog closed forms, fiber quadrature on the catalog
parametrization, and seeded quasi-Monte Carlo histograms. Each route has one
estimator, of the density w_{theta,h} weighted by an integrand h along the
fiber (`h=None` is the plain density); the fiber r-norm is derived from them.
The Monte Carlo route reads its Sobol stream one block ahead, the next block
drawn on the package's one worker thread while the caller bins this one; the
weight is called on the caller's thread only.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geometry
from ._overlap import lookahead
from .errors import (
    ConfigError,
    CriticalValueError,
    NoClosedFormError,
    NoParametrizationError,
    require_callable,
    require_interval,
    require_real,
    require_reals,
    require_whole,
    typed,
)
from .geometry import Phase, ball_volume, sphere_area
from .sampling import sample_blocks

# coarea evaluation refuses levels closer than this to a critical value
CRITICAL_LEVEL_TOL = 1e-9
# a single bin with > half the mass on a grid this fine flags an atom
ATOM_MASS_FRACTION = 0.5
ATOM_RELATIVE_WIDTH = 1e-3

CLOSED_FORM = "closed_form"
COAREA = "coarea"
MONTE_CARLO = "monte_carlo"
METHODS = (CLOSED_FORM, COAREA, MONTE_CARLO)
# the routes that read each route parameter; every other route refuses it
ROUTE_PARAMETERS = {"fiber_nodes": (COAREA,), "subdivide": (CLOSED_FORM, COAREA),
                    "sample_count": (MONTE_CARLO,), "seed": (MONTE_CARLO,), "grid": (MONTE_CARLO,)}


# ---------------------------------------------------------------------------
# level grids and density estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelGrid:
    """Uniform bins on [t_min, t_max]."""

    t_min: float
    t_max: float
    bin_count: int

    def __post_init__(self):
        require_interval(self.t_min, self.t_max, "level grid")
        require_whole(self.bin_count, "level grid bin count")

    @property
    def width(self) -> float:
        return (self.t_max - self.t_min) / self.bin_count

    @property
    def edges(self) -> np.ndarray:
        return self.t_min + self.width * np.arange(self.bin_count + 1)

    @property
    def centers(self) -> np.ndarray:
        return self.t_min + self.width * (np.arange(self.bin_count) + 0.5)


@dataclass
class DensityEstimate:
    """Level-density values on a grid, with provenance."""

    grid: LevelGrid
    values: np.ndarray
    method: str
    stderr: np.ndarray | None = None
    sample_count: int | None = None
    seed: int | None = None
    atom_suspected: bool = False
    phase_label: str = ""

    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.width)

    def to_json_dict(self) -> dict:
        out = {
            "schema": 1,
            "kind": "density",
            "phase": self.phase_label,
            "method": self.method,
            "grid": {"t_min": self.grid.t_min, "t_max": self.grid.t_max,
                     "bin_count": self.grid.bin_count},
            "values": [float(v) for v in self.values],
            "atom_suspected": bool(self.atom_suspected),
        }
        if self.stderr is not None:
            out["stderr"] = [float(v) for v in self.stderr]
        if self.sample_count is not None:
            out["sample_count"] = int(self.sample_count)
        if self.seed is not None:
            out["seed"] = int(self.seed)
        return out


# ---------------------------------------------------------------------------
# structured weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialFunction:
    """Weight depending only on |x|; lets radial fibers factor exactly."""

    profile: Callable

    def __post_init__(self):
        require_callable(self.profile, "weight profile")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.profile(geometry._norms(pts))


@dataclass(frozen=True)
class LevelFunction:
    """Weight depending only on one coordinate; constant on linear fibers."""

    profile: Callable
    axis: int = 0

    def __post_init__(self):
        require_callable(self.profile, "weight profile")
        require_whole(self.axis, "level function axis", minimum=0)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[1]
        if self.axis >= n:
            raise ConfigError(f"level function axis {self.axis!r} outside a {n}-d point")
        return self.profile(pts[:, self.axis])


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _closed_form_values(phase: Phase, tt: np.ndarray) -> np.ndarray:
    k = phase.kind
    dom = phase.domain
    n = dom.n
    R = dom.radius
    if k == geometry.LINEAR and dom.shape == "ball":
        inside = np.abs(tt) <= R
        out = np.zeros_like(tt)
        out[inside] = ball_volume(n - 1) * (R * R - tt[inside] ** 2) ** ((n - 1) / 2)
        return out
    if k in geometry._RADIAL_POWER_KINDS:  # `Phase` puts these kinds on a ball
        g = phase.gamma
        out = np.zeros_like(tt)
        inside = (tt > 0) & (tt <= R ** g)
        out[inside] = sphere_area(n) / g * tt[inside] ** ((n - g) / g)
        out[tt == 0.0] = _radial_origin_value(n, g)
        return out
    if k == geometry.SADDLE:
        out = np.zeros_like(tt)
        a = np.abs(tt)
        inside = (a > 0) & (a < R * R)
        out[inside] = 2.0 * np.arcsinh(np.sqrt((R * R - a[inside]) / (2 * a[inside])))
        out[tt == 0.0] = math.inf
        return out
    raise NoClosedFormError(f"no closed-form density for {phase.label}")


def _radial_origin_value(n: int, g: float) -> float:
    if n > g:
        return 0.0
    if n == g:
        return sphere_area(n) / g
    return math.inf


# ---------------------------------------------------------------------------
# fiber quadrature (coarea route)
# ---------------------------------------------------------------------------

@typed
def critical_exponent(phase: Phase) -> float:
    """Exact power-law blow-up exponent beta with w(t) ~ t^(-beta) near 0.

    Zero for kinds whose density stays bounded (or vanishes) at small levels;
    the saddle's logarithmic divergence also reports zero.
    """
    k = phase.kind
    if k in (geometry.LINEAR, geometry.OSCILLATORY, geometry.SADDLE):
        return 0.0
    if k in geometry._RADIAL_POWER_KINDS:
        return max((phase.gamma - phase.domain.n) / phase.gamma, 0.0)
    raise NoClosedFormError(f"no catalog exponent for {phase.label}")


@typed
def weighted_density_coarea(phase: Phase, h, t, fiber_nodes: int = 2048) -> float | np.ndarray:
    """Fiber quadrature of h/|grad| over the level set at each level of t.

    Composite midpoint in the catalog parametrization; a scalar t gives a
    float, an array t an array shaped like it. `h=None` means the constant 1;
    any other weight must be pointwise, because it is called on blocks of
    fiber points that span many levels, and give finite reals, one value per
    point. Every input is checked before h is first called, and levels
    outside the image read 0 without reaching h. Raises if a level is not a
    finite real or sits on a critical value, or if no parametrization
    supports this phase/weight combination.
    """
    require_whole(fiber_nodes, "fiber_nodes")
    if h is not None:
        require_callable(h, "a weight")
    tt = require_reals(t, "density levels")
    scalar = tt.ndim == 0
    tt = np.atleast_1d(tt)
    for v in geometry.critical_values(phase):
        near = np.abs(tt - v) < CRITICAL_LEVEL_TOL
        if np.any(near):
            raise CriticalValueError(f"level {float(tt[near][0])!r} within "
                                     f"{CRITICAL_LEVEL_TOL} of critical value {v!r}")
    lo, hi = geometry.image_interval(phase)
    live = (tt >= lo) & (tt <= hi)
    out = np.zeros(tt.shape)
    if np.any(live):
        k = phase.kind
        if k == geometry.LINEAR:
            out[live] = _linear_levels(phase, h, tt[live], fiber_nodes)
        elif k == geometry.SADDLE:
            out[live] = _saddle_levels(phase, h, tt[live], fiber_nodes)
        elif k in geometry._RADIAL_KINDS:
            out[live] = _radial_levels(phase, h, tt[live], fiber_nodes)
        else:
            raise NoParametrizationError(f"no fiber parametrization for {phase.label}")
    return float(out[0]) if scalar else out


def _profile_values(h, x: np.ndarray) -> np.ndarray:
    """The profile of a fiber-constant weight at the radii or levels `x`,
    called on them flattened; it must give one finite value each."""
    flat = x.reshape(-1)
    return require_reals(h.profile(flat), "weight profile values", len(flat)).reshape(x.shape)


# most fiber points handed to a weight in one call; keeps a block's memory flat.
# At 1 << 16 a block's arrays can sit above glibc's mmap threshold, and then
# every block is mapped and faulted in afresh. A sweep of fiber-quadrature
# solves (2-core VM) read 0.55 s and 16k minor faults at 1 << 15, 0.59 s at
# 1 << 14, 0.71 s at 1 << 13, and 0.72 s with 210k faults at 1 << 16.
_BLOCK_POINTS = 1 << 15


def _fiber_sums(h, count: int, nodes: int, block) -> np.ndarray:
    """One number a level, over runs of whole levels of at most _BLOCK_POINTS
    fiber points (at least one level). `block(sl)` gives a run's points (..., n)
    and a fold of values shaped like them into one number a level; h is called
    once a run, on the points flattened, and h=None reads 1 (1.0 x = x)."""
    step = max(1, _BLOCK_POINTS // nodes)
    out = np.empty(count)
    for start in range(0, count, step):
        sl = slice(start, start + step)
        pts, fold = block(sl)
        shape = pts.shape[:-1]
        if h is None:
            hv = np.ones(shape)
        else:
            pts = pts.reshape(-1, pts.shape[-1])
            hv = require_reals(h(pts), "weight values", len(pts)).reshape(shape)
        del pts  # not read past h; dropped before the fold
        out[sl] = fold(hv)
        del hv, fold  # nor held while the next run's points are built
    return out


# Per-level scalars (radii, slopes, section sizes) are computed elementwise,
# so a level's value does not depend on the batch it is evaluated in. Square
# roots run in numpy, correctly rounded as in libm; powers run through Python's
# pow (libm), since numpy's vectorised power differs from it in the last bit
# on 5-6% of inputs (numpy 2.4, uniform draws in (0, 1)).

def _radial_fibers(phase: Phase, tt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fibers of a radial phase at the levels tt: the mask of the levels
    whose fiber is not empty, and their fiber radii and |grad| on the fiber,
    in level order."""
    R = phase.domain.radius
    if phase.kind in geometry._RADIAL_POWER_KINDS:
        g = phase.gamma
        on = (tt > 0) & (tt <= R ** g)
        if phase.kind == geometry.RADIAL_QUADRATIC:  # pow(t, 0.5) has other last bits
            r = np.sqrt(tt[on])
            return on, r, 2.0 * r
        r = [t ** (1.0 / g) for t in tt[on].tolist()]
        return on, np.array(r), np.array([g * x ** (g - 1) for x in r])
    # boundary reparametrization: t = H(R - r)
    prof = phase.profile
    lo, hi = prof.value_range
    d = prof.inverse(tt)
    r = R - d
    on = (tt >= lo) & (tt <= hi) & (r > 0)
    slope = np.abs(prof.derivative(d[on]))
    flat = slope <= geometry.SINGULAR_RADIUS
    if np.any(flat):
        raise CriticalValueError(f"profile slope vanishes at level {float(tt[on][flat][0])!r}")
    return on, r[on], slope


def _radial_levels(phase: Phase, h, tt: np.ndarray, fiber_nodes: int) -> np.ndarray:
    n = phase.domain.n
    on, r, slope = _radial_fibers(phase, tt)
    out = np.zeros(len(tt))
    if not np.any(on):
        return out
    if n == 2:
        # circle parametrized by angle supports arbitrary weights
        step = 2 * math.pi / fiber_nodes
        angles = (np.arange(fiber_nodes) + 0.5) * step
        unit = np.stack([np.cos(angles), np.sin(angles)], axis=-1)

        def block(sl):
            rr = r[sl, None]

            def fold(hv):  # (hv r) step; hv (r step) has other bits
                hv = np.multiply(hv, rr)
                hv *= step
                return np.sum(hv, axis=1)
            # r cos and r sin, one product each, written in one pass
            return rr[:, :, None] * unit, fold

        out[on] = _fiber_sums(h, len(r), fiber_nodes, block) / slope
        return out
    area = np.array([sphere_area(n) * x ** (n - 1) for x in r.tolist()])
    if h is None:
        out[on] = area / slope
    elif isinstance(h, RadialFunction):
        out[on] = area * _profile_values(h, r) / slope
    else:
        raise NoParametrizationError("radial fibers in n >= 3 support only radial weights")
    return out


def _linear_levels(phase: Phase, h, tt: np.ndarray, fiber_nodes: int) -> np.ndarray:
    dom = phase.domain
    n = dom.n
    axis = phase.axis
    if dom.shape == "box":
        widths = [hi - lo for lo, hi in dom.bounds]
        section = np.full(len(tt), float(np.prod([w for j, w in enumerate(widths) if j != axis])))
    else:
        R = dom.radius
        rho = np.sqrt(np.maximum(R * R - tt * tt, 0.0))
        disk = ball_volume(n - 1)
        section = np.array([disk * x ** (n - 1) for x in rho.tolist()])
    if h is None:
        return section
    if isinstance(h, LevelFunction) and h.axis == axis:
        return section * _profile_values(h, tt)
    mid = np.arange(fiber_nodes) + 0.5
    if n == 2:
        other = 1 - axis
        if dom.shape == "box":
            o_lo, o_hi = dom.bounds[other]
            chord = o_lo + mid * (o_hi - o_lo) / fiber_nodes

        def block(sl):
            pts = np.empty((len(tt[sl]), fiber_nodes, 2))
            pts[..., axis] = tt[sl, None]
            if dom.shape == "box":
                pts[..., other] = chord
                return pts, lambda hv: np.sum(hv, axis=1) * (o_hi - o_lo) / fiber_nodes
            # mid (2 rho / nodes) - rho, rounded as -rho + mid (...) is
            half = rho[sl, None]
            col = pts[..., other]
            np.multiply(mid, 2 * half / fiber_nodes, out=col)
            col -= half
            return pts, lambda hv: np.sum(hv, axis=1) * (2 * rho[sl] / fiber_nodes)

        return _fiber_sums(h, len(tt), fiber_nodes, block)
    if n == 3 and dom.shape == "ball":
        # polar quadrature over the disk section
        m = max(int(math.sqrt(fiber_nodes)), 4)
        mid = np.arange(m) + 0.5
        angles = mid * (2 * math.pi / m)
        cos, sin = np.cos(angles), np.sin(angles)
        cols = [j for j in range(3) if j != axis]

        def block(sl):
            cell = rho[sl, None] / m
            rr = mid * cell
            pts = np.empty((len(rr), m, m, 3))
            pts[..., axis] = tt[sl, None, None]
            pts[..., cols[0]] = rr[:, :, None] * cos
            pts[..., cols[1]] = rr[:, :, None] * sin
            weights = rr * cell * (2 * math.pi / m)
            return pts, lambda hv: np.sum((hv * weights[:, :, None]).reshape(len(rr), -1), axis=1)

        return _fiber_sums(h, len(tt), m * m, block)
    if dom.shape == "box":
        raise NoParametrizationError("weighted box sections need n = 2 or an axis profile")
    raise NoParametrizationError("weighted linear fibers need n <= 3 or an axis profile")


def _saddle_levels(phase: Phase, h, tt: np.ndarray, fiber_nodes: int) -> np.ndarray:
    R = phase.domain.radius
    mid = np.arange(fiber_nodes) + 0.5
    out = np.zeros(len(tt))
    # Two runs, the levels t >= 0 (-0.0 among them, as t >= 0 holds for it)
    # and t < 0, so that every block has one orientation: on a level t >= 0
    # the branches are x = +-major over y in column c = 0, on t < 0 they are
    # y = +-major over x in column c = 1. A level's points and sums do not
    # depend on the block it lands in, so the runs scatter back by index.
    for c, run in enumerate((tt >= 0, tt < 0)):
        idx = np.flatnonzero(run & (np.abs(tt) < R * R))
        if len(idx) == 0:
            continue
        a = np.abs(tt[idx])
        # a per-level scalar, but sqrt is correctly rounded in numpy as in libm
        ymax = np.sqrt((R * R - a) / 2.0)

        # called only within this pass of the loop
        def block(sl):
            ym = ymax[sl, None]
            dy = 2 * ym / fiber_nodes
            # mid dy - ym, rounded as -ym + mid dy is
            ys = mid * dy
            ys -= ym
            major = ys * ys
            major += a[sl, None]
            np.sqrt(major, out=major)
            # integrand h / (2 sqrt(|t| + y^2)) dy per branch, branches at +-major
            base = 2.0 * major
            np.divide(1.0, base, out=base)
            pts = np.empty((len(ys), 2, fiber_nodes, 2))
            pts[:, 0, :, c] = major
            np.negative(major, out=pts[:, 1, :, c])
            pts[:, :, :, 1 - c] = ys[:, None, :]

            def fold(hv):
                branches = np.sum(hv * base[:, None, :], axis=2) * dy
                return 0.0 + branches[:, 0] + branches[:, 1]
            return pts, fold

        out[idx] = _fiber_sums(h, len(idx), 2 * fiber_nodes, block)
    return out


# ---------------------------------------------------------------------------
# Monte Carlo route
# ---------------------------------------------------------------------------

@typed
def weighted_density_monte_carlo(phase: Phase, h, grid: LevelGrid, sample_count: int,
                                 seed: int) -> DensityEstimate:
    """Histogram estimate of the h-weighted level density (h may be signed)
    from one seeded stream. `h=None` gives the plain density with binomial
    stderr and the atom flag; a weight gives the sample stderr of its bins.

    The stream is binned block by block, in stream order, and read one block
    ahead: the worker thread draws the next block while the caller bins and
    weighs this one (`_overlap.lookahead`). A weight must be pointwise,
    because it is called once per block of sampled points, always on the
    caller's thread, and give finite reals, one value per point; so must
    the phase.
    """
    require_whole(sample_count, "sample_count")
    if h is not None:
        require_callable(h, "a weight")
    bins = grid.bin_count
    # one past the bin index; 0 and bins + 1 collect the levels below and above the grid
    counts = np.zeros(bins + 2, dtype=np.intp)
    sums, sumsq = np.zeros(bins + 2), np.zeros(bins + 2)
    # closed on the way out, an error's too, so that no draw outlives the call
    with closing(lookahead(sample_blocks(phase.domain, sample_count, seed))) as blocks:
        for pts in blocks:
            levels = geometry._eval_values(phase, pts)
            idx = levels - grid.t_min
            idx /= grid.width
            np.floor(idx, out=idx)
            np.clip(idx, -1, bins, out=idx)
            idx += 1
            # right edge belongs to the last bin
            idx[levels == grid.t_max] = bins
            idx = idx.astype(np.intp)
            if h is None:
                counts += np.bincount(idx, minlength=bins + 2)
            else:
                # added point by point in stream order, as one whole-stream bincount
                # would; summing per-block bincounts would reassociate the sums
                # np.add.at would broadcast any other shape
                w = require_reals(h(pts), "weight values", len(pts))
                np.add.at(sums, idx, w)
                np.add.at(sumsq, idx, w ** 2)
    n = sample_count
    if h is None:
        mean = counts[1:-1] / n
        var = mean * (1 - mean)
    else:
        mean = sums[1:-1] / n
        var = np.maximum(sumsq[1:-1] / n - mean ** 2, 0.0)
    fine = grid.width < ATOM_RELATIVE_WIDTH * (grid.t_max - grid.t_min)
    atom = bool(h is None and np.any(mean > ATOM_MASS_FRACTION) and fine)
    vol = phase.domain.volume()
    values = vol * mean / grid.width
    stderr = vol * np.sqrt(var / n) / grid.width
    return DensityEstimate(grid=grid, values=values, method=MONTE_CARLO,
                           stderr=stderr, sample_count=sample_count, seed=seed,
                           atom_suspected=atom, phase_label=phase.label)


# ---------------------------------------------------------------------------
# dispatchers and grid evaluation
# ---------------------------------------------------------------------------

@typed
def weighted_density_closed_form(phase: Phase, h, t) -> float | np.ndarray:
    """Catalog closed-form density times a fiber-constant weight (`h=None`
    means 1); 0 outside the image, inf at a blow-up. The weight's profile is
    called only at the levels inside the image (or their radii); the levels
    outside read 0 without reaching it."""
    tt = require_reals(t, "density levels")
    scalar = tt.ndim == 0
    tt = np.atleast_1d(tt)
    vals = _closed_form_values(phase, tt)
    if h is not None:
        lo, hi = geometry.image_interval(phase)
        live = (tt >= lo) & (tt <= hi)
        if isinstance(h, LevelFunction) and phase.kind == geometry.LINEAR and h.axis == phase.axis:
            x = tt[live]
        elif isinstance(h, RadialFunction) and phase.kind in geometry._RADIAL_POWER_KINDS:
            x = np.maximum(tt[live], 0.0) ** (1.0 / phase.gamma)
        else:
            raise NoClosedFormError(
                "closed-form weighted densities need a fiber-constant weight")
        if len(x):  # outside the image the density is 0 already
            vals[live] *= _profile_values(h, x)
    return float(vals[0]) if scalar else vals


def route_parameters(method: str, **given) -> dict:
    """The given route parameters (None means not given) that `method` reads;
    one that it does not read raises ConfigError."""
    if method not in METHODS:
        raise ConfigError(f"unknown density method {method!r}")
    for name, value in given.items():
        if value is not None and method not in ROUTE_PARAMETERS[name]:
            raise ConfigError(f"{name} has no effect on the {method} route")
    return {name: value for name, value in given.items() if value is not None}


@typed
def weighted_density(phase: Phase, h, t, method: str = COAREA, *, fiber_nodes=None,
                     grid: LevelGrid | None = None, sample_count=None, seed=None):
    """The one dispatcher over the three density routes: levels t for the
    closed form and coarea, a level grid and t=None for Monte Carlo."""
    route = route_parameters(method, fiber_nodes=fiber_nodes, grid=grid,
                             sample_count=sample_count, seed=seed)
    if method == CLOSED_FORM:
        return weighted_density_closed_form(phase, h, t)
    if method == COAREA:
        return weighted_density_coarea(phase, h, t, **route)
    if grid is None or t is not None:
        raise ConfigError("monte_carlo weighted density takes a level grid and t=None")
    return weighted_density_monte_carlo(phase, h, grid, route.get("sample_count", 100_000),
                                        route.get("seed", 0))


@typed
def density_on_grid(phase: Phase, grid: LevelGrid, method: str = COAREA, *, fiber_nodes=None,
                    subdivide=None, sample_count=None, seed=None, h=None) -> DensityEstimate:
    """Density estimate on a grid by any route.

    For deterministic routes, `subdivide=K` (default 1) averages K midpoint
    evaluations per bin, which keeps integrable blow-ups honest in bin units.
    """
    route = route_parameters(method, fiber_nodes=fiber_nodes, subdivide=subdivide,
                             sample_count=sample_count, seed=seed)
    if method == MONTE_CARLO:
        return weighted_density(phase, h, None, method, grid=grid, **route)
    subdivide = route.pop("subdivide", 1)
    require_whole(subdivide, "subdivide")
    offsets = (np.arange(subdivide) + 0.5) / subdivide
    levels = grid.edges[:-1, None] + offsets * grid.width
    vals = weighted_density(phase, h, levels.ravel(), method, **route)
    values = vals.reshape(grid.bin_count, subdivide).mean(axis=1)
    return DensityEstimate(grid=grid, values=values, method=method,
                           phase_label=phase.label)


# ---------------------------------------------------------------------------
# fiber functionals
# ---------------------------------------------------------------------------

def _abs_power(h, r: float):
    def power(fn):  # fn's values are checked before np.abs would drop an imaginary part
        return lambda x: np.abs(require_reals(fn(x), "f values", len(x))) ** r
    if h is None:
        return None
    if isinstance(h, RadialFunction):
        return RadialFunction(power(h.profile))
    if isinstance(h, LevelFunction):
        return LevelFunction(power(h.profile), axis=h.axis)
    return power(require_callable(h, "f"))


@typed
def fiber_norm(phase: Phase, f, r: float, t: float, method: str = COAREA, *,
               fiber_nodes=None) -> float:
    """(integral of |f|^r / |grad| over the fiber)^(1/r) at level t."""
    require_real(r, "fiber norm exponent r", minimum=1)
    weighted = weighted_density(phase, _abs_power(f, r), t, method,
                                fiber_nodes=fiber_nodes)
    return float(weighted) ** (1.0 / r)
