"""Phase catalog and level-set geometry.

A phase is an explicit scalar function on a ball or box domain. The catalog
carries analytic gradients, exact critical values, and closed-form image
intervals, so downstream density computations never have to detect geometry
numerically. Also here: gradient lower-bound profiles and their check, a
fixed-step integrator that designs reparametrized boundary-distance phases,
and the transversality of level sets at the domain boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyIntersectionError,
    GradientUndefinedError,
    LevelOutsideImageError,
    OdeBlowUpError,
    PointOutsideDomainError,
    UnsupportedPhaseError,
    require_callable,
    require_finite,
    require_instance,
    require_interval,
    require_real,
    require_reals,
    require_whole,
    typed,
)
from .sampling import sample_domain

# gradient direction (or magnitude) treated as undefined inside this radius
SINGULAR_RADIUS = 1e-12
# containment tolerance for points meant to lie on the closed domain
_CONTAIN_TOL = 1e-12

LINEAR = "linear"
RADIAL_QUADRATIC = "radial-quadratic"
RADIAL_POWER = "radial-power"
SADDLE = "saddle"
OSCILLATORY = "oscillatory"
BOUNDARY_REPARAM = "boundary-reparam"
CUSTOM = "custom"

# |x|^gamma on a ball; radial-quadratic is the case gamma = 2
_RADIAL_POWER_KINDS = (RADIAL_QUADRATIC, RADIAL_POWER)
_RADIAL_KINDS = _RADIAL_POWER_KINDS + (BOUNDARY_REPARAM,)

# the fields each phase kind and domain shape reads besides its kind (shape)
# and domain (dimension); every other field must keep its default
_KIND_FIELDS = {LINEAR: ("axis",), RADIAL_QUADRATIC: (), RADIAL_POWER: ("gamma",), SADDLE: (),
                OSCILLATORY: ("amplitude", "frequency"), BOUNDARY_REPARAM: ("profile",),
                CUSTOM: ("fn",)}
_SHAPE_FIELDS = {"ball": ("radius",), "box": ("bounds",)}


def ball_volume(dim: int) -> float:
    """Volume of the unit ball in R^dim (dim = 0 gives 1)."""
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere S^{dim-1} in R^dim."""
    return 2 * math.pi ** (dim / 2) / math.gamma(dim / 2)


def _column_sq_norms(pts: np.ndarray) -> np.ndarray:
    """x*x + y*y of an (N, 2) array, column by column at memory speed."""
    x, y = pts[:, 0], pts[:, 1]
    sq = x * x
    sq += y * y
    return sq


def _sq_norms(pts: np.ndarray) -> np.ndarray:
    """Squared row norms of an (N, d) array, with the bits and the (absent)
    floating-point errors of `np.einsum("ij,ij->i", pts, pts)`."""
    if pts.shape[1] != 2:
        # for d >= 3 einsum's summation order is a SIMD detail
        return np.einsum("ij,ij->i", pts, pts)
    with np.errstate(over="ignore", under="ignore"):
        return _column_sq_norms(pts)


def _norms(pts: np.ndarray) -> np.ndarray:
    """Row norms of an (N, d) array, with the bits and the floating-point
    errors of `np.linalg.norm(pts, axis=1)`."""
    if pts.shape[1] != 2:
        return np.linalg.norm(pts, axis=1)
    return np.sqrt(_column_sq_norms(pts))


def _refuse_unread(obj, reads: tuple[str, ...], what: str) -> None:
    """Refuse each field of a catalog dataclass, past its first two, that
    `reads` does not name and that does not hold its default (of its type)."""
    for f in fields(obj)[2:]:
        value = getattr(obj, f.name)
        kept = value is f.default or type(value) is type(f.default) and value == f.default
        if f.name not in reads and not kept:
            raise ConfigError(f"{f.name} has no effect on a {what}")


def _require_float_range(compute: Callable, name: str) -> None:
    """Refuse `compute()`'s values unless each is a finite float (no overflow)."""
    try:
        with np.errstate(over="ignore"):
            values = compute()
    except OverflowError:
        values = (math.inf,)
    for value in values:
        require_real(value, name)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """Closed ball or axis-aligned box in R^n; the radius and box sides are
    stored as floats. A ball reads no bounds and a box no radius."""

    n: int
    shape: str
    radius: float = 1.0
    bounds: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.shape not in _SHAPE_FIELDS:
            raise ConfigError(f"unknown domain shape {self.shape!r}")
        require_whole(self.n, "domain dimension")
        _refuse_unread(self, _SHAPE_FIELDS[self.shape], f"{self.shape} domain")
        object.__setattr__(self, "radius", require_real(self.radius, "domain radius", above=0))
        if self.shape == "box":
            bounds = require_finite(self.bounds, "box bounds")
            if bounds.shape != (self.n, 2):
                raise ConfigError("box bounds must list one (lo, hi) per axis")
            object.__setattr__(self, "bounds", tuple(require_interval(lo, hi, "box side")
                                                     for lo, hi in bounds.tolist()))
        _require_float_range(lambda: (self.volume(),), "domain volume")

    def volume(self) -> float:
        if self.shape == "ball":
            return ball_volume(self.n) * self.radius ** self.n
        return float(np.prod([hi - lo for lo, hi in self.bounds]))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.shape == "ball":
            r = self.radius
            return -r * np.ones(self.n), r * np.ones(self.n)
        arr = np.asarray(self.bounds, dtype=float)
        return arr[:, 0].copy(), arr[:, 1].copy()

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Which rows of `points` lie in the domain, up to a tolerance. Points
        that are not rows of n coordinates (a ragged list, a 3-d array, a row
        of another width), or of a dtype other than integer or float (complex,
        bool, object), raise ConfigError; only the shape and dtype are read,
        so no pass is made over the values, and a NaN point reads as outside."""
        try:
            pts = np.atleast_2d(np.asarray(points))
        except ValueError:  # numpy's refusal of a ragged list
            pts = None
        if pts is None or pts.ndim != 2 or pts.shape[1] != self.n:
            got = "a ragged list" if pts is None else f"shape {pts.shape}"
            raise ConfigError(f"domain points must be rows of {self.n} coordinates, got {got}")
        if pts.dtype.kind not in "iuf":
            raise ConfigError(f"domain points must be real numbers, got {pts.dtype} values")
        pts = pts.astype(float, copy=False)
        if self.shape == "ball":
            return _sq_norms(pts) <= self.radius ** 2 + _CONTAIN_TOL
        lo, hi = self.bounding_box()
        return np.all((pts >= lo - _CONTAIN_TOL) & (pts <= hi + _CONTAIN_TOL), axis=1)


def ball(n: int, radius: float = 1.0) -> Domain:
    return Domain(n=n, shape="ball", radius=radius)


def box(bounds: Sequence[tuple[float, float]]) -> Domain:
    bounds = require_finite(bounds, "box bounds")
    return Domain(n=len(np.atleast_1d(bounds)), shape="box", bounds=bounds)


# ---------------------------------------------------------------------------
# reparametrization profiles (tabulated, strictly increasing)
# ---------------------------------------------------------------------------

class _PiecewisePolynomial:
    """Power-basis polynomials between increasing knots, highest degree first.

    Evaluated as scipy's PPoly evaluates: the interval is the last knot at or
    below the point, clipped to the end intervals (that clip extrapolates,
    and NaN stays NaN), and the local power sum runs from the constant row
    up, `res = res + c*z; z = z*s` from res = 0.0, z = 1.0. One numpy path
    serves arrays and single values: a float gives an np.float64, a float
    with the bits of the same sum in Python floats.
    """

    def __init__(self, knots: np.ndarray, coef: np.ndarray):
        self.knots = knots
        self.coef = coef
        self._rows = coef[::-1]  # the constant row first, as the sum runs

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.knots, x, side="right") - 1, 0, len(self.knots) - 2)
        rows = self._rows.take(i, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            s = x - self.knots[i]
            res, z = 0.0 + rows[0], s  # the first term is c*1.0
            for c in rows[1:]:
                res += c * z
                z = z * s
        return res

    def derivative(self) -> _PiecewisePolynomial:
        """The derivative of a cubic: its top three rows times 3, 2 and 1."""
        return _PiecewisePolynomial(self.knots, self.coef[:-1] * np.array([[3.0], [2.0], [1.0]]))


def _end_slope(h0, h1, m0, m1):
    """Moler's one-sided three-point end slope, zero where its sign is not the
    end secant's. (His cap at 3 m0 acts only where the secants change sign,
    which they never do in an increasing table.)"""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return d if np.sign(d) == np.sign(m0) else 0.0


def _pchip(x: np.ndarray, y: np.ndarray) -> _PiecewisePolynomial:
    """The monotone cubic Hermite interpolant of (x, y), x increasing."""
    h = np.diff(x)
    m = np.diff(y) / h
    if len(x) == 2:
        d = np.array([m[0], m[0]])
    else:
        d = np.empty_like(y)
        sign = np.sign(m)
        flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return _PiecewisePolynomial(x, np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]]))


class ReparamTable:
    """Tabulated strictly increasing profile H(s) with a C^1 interpolant.

    The interpolant, its derivative and the inverse (the same build on
    (values, s)) are scipy's PchipInterpolator bit for bit (Fritsch & Carlson
    1980), in scipy's expressions:
    - inner slopes: `_find_derivatives`' weighted harmonic mean
      `(w1/m[:-1] + w2/m[1:]) / (w1 + w2)`, inverted, with
      w1 = 2 h[1:] + h[:-1] and w2 = h[1:] + 2 h[:-1]; zero where the secant
      slope m vanishes or changes sign;
    - end slopes: `_edge_case`, Moler's three-point shape-preserving rule
      (Numerical Computing with MATLAB, sec. 3.6); two knots give the secant;
    - coefficients: `CubicHermiteSpline`'s t = (d[:-1] + d[1:] - 2 m)/h and
      rows t/h, (m - d[:-1])/h - t, d[:-1], y[:-1];
    - derivative: `PPoly.derivative`'s rows times 3, 2, 1;
    - evaluation: `PPoly.__call__`, as `_PiecewisePolynomial` does it.
    A float argument gives a float, anything else an array shaped like it.
    """

    def __init__(self, s: np.ndarray, values: np.ndarray):
        s = require_reals(s, "profile table arguments")
        values = require_reals(values, "profile table values")
        if s.ndim != 1 or s.shape != values.shape or len(s) < 2:
            raise ConfigError("profile table needs matching 1d arrays, length >= 2")
        if not np.all(np.diff(s) > 0):
            raise ConfigError("profile arguments must be strictly increasing")
        if not np.all(np.diff(values) > 0):
            raise ConfigError("profile values must be strictly increasing")
        self.s = s
        self.values = values
        self._interp = _pchip(s, values)
        self._deriv = self._interp.derivative()
        self._inverse = _pchip(values, s)

    def __call__(self, s):
        return self._interp(s)

    def derivative(self, s):
        return self._deriv(s)

    def inverse(self, value):
        return self._inverse(value)

    @property
    def s_range(self) -> tuple[float, float]:
        return float(self.s[0]), float(self.s[-1])

    @property
    def value_range(self) -> tuple[float, float]:
        return float(self.values[0]), float(self.values[-1])


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Phase:
    """One member of the phase catalog, bound to its domain. It checks every
    catalog rule itself, however it is built: a kind reads only the fields
    `_KIND_FIELDS` names, and every other field must keep its default."""

    kind: str
    domain: Domain
    axis: int = 0
    gamma: float = 2.0
    amplitude: float = 0.0
    frequency: float = 1.0
    profile: ReparamTable | None = None
    fn: Callable | None = None

    def __post_init__(self):
        k, dom = self.kind, require_instance(self.domain, Domain, "phase domain")
        if k not in _KIND_FIELDS:
            raise ConfigError(f"unknown phase kind {k!r}")
        _refuse_unread(self, _KIND_FIELDS[k], f"{k} phase")
        if k in _RADIAL_KINDS + (SADDLE,) and dom.shape != "ball":
            raise ConfigError(f"{k} phase requires a ball domain")
        if k == LINEAR:
            require_whole(self.axis, "linear phase axis", minimum=0)
            if self.axis >= dom.n:
                raise ConfigError("linear phase axis out of range")
        elif k == RADIAL_POWER:
            gamma = require_real(self.gamma, "radial power exponent gamma", minimum=1)
            object.__setattr__(self, "gamma", gamma)
        elif k == SADDLE and dom.n != 2:
            raise ConfigError("saddle phase requires n = 2")
        elif k == OSCILLATORY:
            if dom.n < 2:
                raise ConfigError("oscillatory phase requires n >= 2")
            for name in ("amplitude", "frequency"):
                value = require_real(getattr(self, name), f"oscillatory {name}")
                object.__setattr__(self, name, value)
        elif k == BOUNDARY_REPARAM:
            if not isinstance(self.profile, ReparamTable):
                raise ConfigError("a boundary-reparam phase needs a ReparamTable profile")
            lo, hi = self.profile.s_range
            if lo > 0 or hi < dom.radius:
                raise ConfigError("profile table must cover distances [0, R]")
        elif k == CUSTOM:
            require_callable(self.fn, "custom phase fn")
        if k != CUSTOM:  # a black box has no catalog image
            _require_float_range(lambda: image_interval(self), f"{self.label} image end")

    @property
    def label(self) -> str:
        if self.kind == RADIAL_POWER:
            return f"{self.kind}(gamma={self.gamma:g}, n={self.domain.n})"
        if self.kind == OSCILLATORY:
            return f"{self.kind}(a={self.amplitude:g}, N={self.frequency:g})"
        return f"{self.kind}(n={self.domain.n})"


@typed
def linear_phase(domain: Domain, axis: int = 0) -> Phase:
    return Phase(kind=LINEAR, domain=domain, axis=axis)


@typed
def radial_quadratic_phase(domain: Domain) -> Phase:
    return Phase(kind=RADIAL_QUADRATIC, domain=domain)


@typed
def radial_power_phase(domain: Domain, gamma: float) -> Phase:
    return Phase(kind=RADIAL_POWER, domain=domain, gamma=gamma)


@typed
def saddle_phase(domain: Domain) -> Phase:
    return Phase(kind=SADDLE, domain=domain)


@typed
def oscillatory_phase(domain: Domain, amplitude: float, frequency: float) -> Phase:
    return Phase(kind=OSCILLATORY, domain=domain, amplitude=amplitude, frequency=frequency)


@typed
def boundary_reparam_phase(domain: Domain, profile: ReparamTable) -> Phase:
    """theta(x) = H(dist(x, boundary)); ball domains only."""
    return Phase(kind=BOUNDARY_REPARAM, domain=domain, profile=profile)


@typed
def custom_phase(domain: Domain, fn: Callable) -> Phase:
    """Black-box phase; only sampling-based operations accept it."""
    return Phase(kind=CUSTOM, domain=domain, fn=fn)


# ---------------------------------------------------------------------------
# evaluation and gradients
# ---------------------------------------------------------------------------

def _domain_points(phase: Phase, x) -> tuple[np.ndarray, bool]:
    """`x` as real rows inside the phase's domain, and whether it was one
    point; `Domain.contains` refuses rows of another width."""
    arr = require_reals(x, "phase points")
    pts = np.atleast_2d(arr)
    inside = phase.domain.contains(pts)
    if not np.all(inside):
        raise PointOutsideDomainError(f"point {pts[~inside][0].tolist()} outside domain")
    return pts, arr.ndim < 2


@typed
def eval_phase(phase: Phase, x):
    """Phase values at one point (scalar out) or a stack of points."""
    pts, single = _domain_points(phase, x)
    vals = _eval_values(phase, pts)
    return float(vals[0]) if single else vals


def _eval_values(phase: Phase, pts: np.ndarray) -> np.ndarray:
    """Phase values at an (m, n) stack of points: m finite reals, or ConfigError."""
    k = phase.kind
    if k == LINEAR:
        vals = pts[:, phase.axis].copy()
    elif k == RADIAL_QUADRATIC:
        vals = _sq_norms(pts)
    elif k == RADIAL_POWER:
        vals = _norms(pts) ** phase.gamma
    elif k == SADDLE:
        vals = pts[:, 0] ** 2 - pts[:, 1] ** 2
    elif k == OSCILLATORY:
        vals = pts[:, 0] + phase.amplitude * np.sin(phase.frequency * pts[:, 1])
    elif k == BOUNDARY_REPARAM:
        vals = phase.profile(phase.domain.radius - _norms(pts))
    else:  # CUSTOM, the one kind left that `Phase` admits
        vals = phase.fn(pts)
    return require_reals(vals, "phase values", len(pts))


@typed
def grad_phase(phase: Phase, x):
    """Analytic gradient at one point or a stack of points; raises where it is
    undefined."""
    pts, single = _domain_points(phase, x)
    grads = _grad_values(phase, pts)
    undefined = np.isnan(grads).all(axis=1)
    if np.any(undefined):
        raise GradientUndefinedError(f"gradient undefined at {pts[undefined][0].tolist()}")
    return grads[0] if single else grads


def _grad_values(phase: Phase, pts: np.ndarray) -> np.ndarray:
    """Analytic gradients at an (m, n) stack of points, a NaN row wherever the
    gradient is undefined: at r <= SINGULAR_RADIUS for |x|^gamma with
    gamma < 2 and for a boundary-distance phase."""
    k = phase.kind
    m, n = pts.shape
    if k == LINEAR:
        g = np.zeros((m, n))
        g[:, phase.axis] = 1.0
        return g
    if k == RADIAL_QUADRATIC:
        return 2.0 * pts
    if k in (RADIAL_POWER, BOUNDARY_REPARAM):
        r = _norms(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            if k == RADIAL_POWER:
                scale = phase.gamma * r ** (phase.gamma - 2)
            else:
                scale = -phase.profile.derivative(phase.domain.radius - r) / r
        # only |x|^gamma with gamma >= 2 has a gradient at the origin: zero
        at_origin = 0.0 if k == RADIAL_POWER and phase.gamma >= 2 else np.nan
        return np.where(r <= SINGULAR_RADIUS, at_origin, scale)[:, None] * pts
    if k == SADDLE:
        g = np.empty((m, 2))
        g[:, 0] = 2.0 * pts[:, 0]
        g[:, 1] = -2.0 * pts[:, 1]
        return g
    if k == OSCILLATORY:
        g = np.zeros((m, n))
        g[:, 0] = 1.0
        g[:, 1] = phase.amplitude * phase.frequency * np.cos(phase.frequency * pts[:, 1])
        return g
    raise UnsupportedPhaseError(f"no analytic gradient for phase kind {k!r}")


@typed
def critical_values(phase: Phase) -> tuple[float, ...]:
    """Exact critical values from the catalog (never detected numerically)."""
    k = phase.kind
    if k in (LINEAR, OSCILLATORY, BOUNDARY_REPARAM):  # a reparam table strictly increases
        return ()
    if k == SADDLE:
        return (0.0,)
    if k in _RADIAL_POWER_KINDS:
        return (0.0,) if phase.gamma > 1 else ()
    raise UnsupportedPhaseError(f"critical values unknown for kind {k!r}")


@typed
def image_interval(phase: Phase) -> tuple[float, float]:
    """Closed interval covering the image of the phase on its domain."""
    k = phase.kind
    dom = phase.domain
    if k == LINEAR:
        if dom.shape == "ball":
            return -dom.radius, dom.radius
        lo, hi = dom.bounds[phase.axis]
        return lo, hi
    if k in _RADIAL_POWER_KINDS:
        return 0.0, dom.radius ** phase.gamma
    if k == SADDLE:
        return -dom.radius ** 2, dom.radius ** 2
    if k == OSCILLATORY:
        if dom.shape == "ball":
            lo, hi = -dom.radius, dom.radius
        else:
            lo, hi = dom.bounds[0]
        a = abs(phase.amplitude)
        return lo - a, hi + a
    if k == BOUNDARY_REPARAM:
        lo, hi = phase.profile(np.array([0.0, dom.radius])).tolist()
        return min(lo, hi), max(lo, hi)
    raise UnsupportedPhaseError(f"image interval unknown for kind {k!r}")


# ---------------------------------------------------------------------------
# gradient lower-bound profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaProfile:
    """Candidate lower bound Gamma(t) <= |grad theta| on a validity interval;
    its values there are reals in [0, inf], where inf is a bound no gradient
    meets."""

    fn: Callable
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        require_callable(self.fn, "gamma profile fn")
        for end in (self.lo, self.hi):
            if end not in (-math.inf, math.inf):  # an end may be open
                require_real(end, "profile interval end")
        if not self.hi > self.lo:
            raise ConfigError("profile validity interval is empty")
        a, b = max(self.lo, -1e6), min(self.hi, 1e6)
        if a > b:  # the interval lies beyond +-1e6: probe 2e6 of it from its end nearer 0
            a, b = (a, min(self.hi, a + 2e6)) if a > 0 else (max(self.lo, b - 2e6), b)
        probe = np.linspace(a, b, 257)
        if not np.all(require_reals(self.fn(probe), "gamma profile values", infinite=True) >= 0):
            raise ConfigError("gamma profile must be nonnegative on its interval")

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))

    def covers(self, t: np.ndarray) -> np.ndarray:
        return (t >= self.lo) & (t <= self.hi)


@dataclass(frozen=True)
class GammaCheckReport:
    min_slack: float
    worst_point: tuple[float, ...]
    evaluated: int
    skipped: int


@typed
def check_gamma_profile(phase: Phase, profile: GammaProfile, sample_count: int = 4096,
                        seed: int = 0) -> GammaCheckReport:
    """Sampled minimum of |grad theta(x)| - Gamma(theta(x)) over the domain.

    Points with undefined gradient, or with level outside the profile's
    validity interval, are skipped and counted.
    """
    require_whole(sample_count, "sample_count")
    pts = sample_domain(phase.domain, sample_count, seed)
    norms = _norms(_grad_values(phase, pts))
    levels = _eval_values(phase, pts)
    usable = np.isfinite(norms) & profile.covers(levels)
    if not np.any(usable):
        raise ConfigError("no usable sample points for the profile check")
    bound = require_reals(profile(levels[usable]), "gamma profile values", int(usable.sum()),
                          infinite=True)
    slack = norms[usable] - bound
    idx = int(np.argmin(slack))
    worst = pts[usable][idx]
    return GammaCheckReport(
        min_slack=float(slack[idx]),
        worst_point=tuple(float(v) for v in worst),
        evaluated=int(usable.sum()),
        skipped=int(len(pts) - usable.sum()),
    )


@typed
def design_reparametrization(profile: GammaProfile, m: Callable, h0: float,
                             s_range: tuple[float, float], step: float = 1e-3) -> ReparamTable:
    """Integrate H'(s) m(s) = Gamma(H(s)) with RK4 at fixed step.

    Returns the tabulated, strictly increasing H on `s_range`. If any RK4
    stage value leaves the profile's validity interval the integration stops
    with an error carrying the exit location.
    """
    require_callable(m, "m")
    s0, s1 = require_interval(s_range[0], s_range[1], "s_range")
    require_real(step, "step", above=0)
    h0 = require_real(h0, "initial value h0")

    def rhs(s: float, h: float) -> float:
        if not (profile.lo <= h <= profile.hi):
            raise OdeBlowUpError(s, h)
        ms = require_real(m(s), "m(s)", above=0)
        return require_real(profile.fn(h), "gamma profile value on the solution", above=0) / ms

    n_steps = int(math.ceil((s1 - s0) / step - 1e-12))
    ss = [s0]
    hs = [h0]
    s, h = s0, h0
    for i in range(n_steps):
        ds = min(step, s1 - s)
        k1 = rhs(s, h)
        k2 = rhs(s + ds / 2, h + ds * k1 / 2)
        k3 = rhs(s + ds / 2, h + ds * k2 / 2)
        k4 = rhs(s + ds, h + ds * k3)
        h = h + ds * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        s = s + ds
        ss.append(s)
        hs.append(h)
    return ReparamTable(np.asarray(ss), np.asarray(hs))


# ---------------------------------------------------------------------------
# boundary transversality
# ---------------------------------------------------------------------------

@typed
def boundary_transversality(phase: Phase, t: float, samples: int = 4096) -> float:
    """Minimum tangential gradient norm over the level set on the boundary.

    Ball domains only. For the linear phase the value is the closed form
    sqrt(1 - (t/R)^2); radial kinds give 0 at their boundary level; saddle
    and oscillatory phases in n = 2 locate the level on the boundary circle
    from `samples` angles and measure the gradient there.
    """
    require_whole(samples, "samples")
    require_real(t, "transversality level")
    dom = phase.domain
    if dom.shape != "ball":
        raise UnsupportedPhaseError("boundary transversality implemented for balls")
    R = dom.radius
    k = phase.kind
    lo, hi = image_interval(phase)
    if not (lo - 1e-12 <= t <= hi + 1e-12):
        raise LevelOutsideImageError(f"level {t!r} outside image [{lo}, {hi}]")

    if k == LINEAR:
        if abs(t) > R:
            raise LevelOutsideImageError(f"level {t!r} outside image")
        return math.sqrt(max(1.0 - (t / R) ** 2, 0.0))

    if k in _RADIAL_KINDS:
        boundary_level = _eval_values(phase, np.array([[R] + [0.0] * (dom.n - 1)]))[0]
        if abs(t - boundary_level) <= 1e-12:
            return 0.0  # gradient is radial: no tangential component
        raise EmptyIntersectionError(
            f"level {t!r} does not meet the boundary (boundary level {boundary_level!r})")

    if k in (SADDLE, OSCILLATORY) and dom.n == 2:
        roots = _circle_roots(phase, t, R, samples)
        if len(roots) == 0:
            raise EmptyIntersectionError(f"level {t!r} does not meet the boundary circle")
        return _min_tangential(phase, _circle_points(roots, R), R)

    raise UnsupportedPhaseError(f"transversality not implemented for kind {k!r} in n={dom.n}")


def _min_tangential(phase: Phase, pts: np.ndarray, R: float) -> float:
    grads = _grad_values(phase, pts)
    normals = pts / R
    proj = np.einsum("ij,ij->i", grads, normals)
    tang = grads - proj[:, None] * normals
    norms = _norms(tang)
    norms = norms[np.isfinite(norms)]
    if len(norms) == 0:
        raise EmptyIntersectionError("no usable boundary points for transversality")
    return float(np.min(norms))


def _circle_points(angles: np.ndarray, R: float) -> np.ndarray:
    return np.stack([R * np.cos(angles), R * np.sin(angles)], axis=1)


def _circle_roots(phase: Phase, t: float, R: float, samples: int) -> np.ndarray:
    """Angles, increasing, where the phase takes level t on the circle of
    radius R: each sampled angle where it equals t, and one root of each
    sampled interval whose ends have opposite signs, all bisected together
    in 60 steps."""
    angles = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    vals = _eval_values(phase, _circle_points(angles, R)) - t
    exact = vals == 0.0
    bracket = vals * np.roll(vals, -1) < 0
    lo_a = angles[bracket]
    hi_a = lo_a + (2 * math.pi / samples)
    f_lo = vals[bracket]
    for _ in range(60):
        mid = 0.5 * (lo_a + hi_a)
        fm = _eval_values(phase, _circle_points(mid, R)) - t
        left = f_lo * fm <= 0
        hi_a = np.where(left, mid, hi_a)
        lo_a = np.where(left, lo_a, mid)
        f_lo = np.where(left, f_lo, fm)
    roots = angles.copy()
    roots[bracket] = 0.5 * (lo_a + hi_a)
    return roots[exact | bracket]
