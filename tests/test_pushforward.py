import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelform as lf
from levelform import geometry
from levelform.geometry import ball_volume, sphere_area
from levelform.pushforward import (ATOM_MASS_FRACTION, CRITICAL_LEVEL_TOL, _BLOCK_POINTS,
                                   _radial_level)


BALL2 = lf.ball(2)
BALL3 = lf.ball(3)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_linear_ball_closed_form():
    phase = lf.linear_phase(BALL2)
    t = np.array([-0.5, 0.0, 0.7])
    want = 2.0 * np.sqrt(1.0 - t * t)
    assert np.allclose(lf.weighted_density_closed_form(phase, None, t), want, rtol=1e-12)


def test_linear_ball3_closed_form():
    phase = lf.linear_phase(BALL3)
    assert lf.weighted_density_closed_form(phase, None, 0.5) == pytest.approx(
        math.pi * (1.0 - 0.25), rel=1e-12)


def test_radial_quadratic_closed_forms():
    # n = 2: constant pi; n = 3: 2 pi sqrt(t)
    assert lf.weighted_density_closed_form(lf.radial_quadratic_phase(BALL2), None, 0.3) == \
        pytest.approx(math.pi, rel=1e-12)
    assert lf.weighted_density_closed_form(lf.radial_quadratic_phase(BALL3), None, 0.25) == \
        pytest.approx(2.0 * math.pi * 0.5, rel=1e-12)


def test_radial_power_closed_form():
    phase = lf.radial_power_phase(BALL2, 4.0)
    t = 0.0625
    want = (2.0 * math.pi / 4.0) * t ** ((2.0 - 4.0) / 4.0)
    assert lf.weighted_density_closed_form(phase, None, t) == pytest.approx(want, rel=1e-12)
    assert lf.weighted_density_closed_form(phase, None, 2.0) == 0.0
    assert math.isinf(lf.weighted_density_closed_form(phase, None, 0.0))


def test_saddle_closed_form_small_level_log():
    phase = lf.saddle_phase(BALL2)
    t = 1e-7
    want = 2.0 * math.asinh(math.sqrt((1.0 - t) / (2.0 * t)))
    got = lf.weighted_density_closed_form(phase, None, t)
    assert got == pytest.approx(want, rel=1e-12)
    assert got / math.log(1.0 / t) == pytest.approx(1.0, abs=0.1)
    # symmetry in the level
    assert lf.weighted_density_closed_form(phase, None, -t) == pytest.approx(got, rel=1e-12)


def test_density_zero_outside_image():
    phase = lf.linear_phase(BALL2)
    assert lf.weighted_density_closed_form(phase, None, 1.5) == 0.0
    assert lf.weighted_density_closed_form(phase, None, -1.5) == 0.0


def test_catalog_masses_equal_domain_volume():
    cases = [
        (lf.linear_phase(BALL2), (-1.0, 1.0), math.pi),
        (lf.radial_quadratic_phase(BALL2), (0.0, 1.0), math.pi),
        (lf.radial_quadratic_phase(BALL3), (0.0, 1.0), 4.0 * math.pi / 3.0),
        (lf.saddle_phase(BALL2), (-1.0, 1.0), math.pi),
    ]
    for phase, (lo, hi), vol in cases:
        grid = lf.LevelGrid(lo, hi, 512)
        est = lf.density_on_grid(phase, grid, lf.CLOSED_FORM, subdivide=9)
        assert est.mass() == pytest.approx(vol, rel=2e-3), phase.label


def test_critical_exponent_catalog():
    assert lf.critical_exponent(lf.linear_phase(BALL2)) == 0.0
    assert lf.critical_exponent(lf.radial_quadratic_phase(BALL2)) == 0.0
    assert lf.critical_exponent(lf.radial_quadratic_phase(BALL3)) == 0.0
    assert lf.critical_exponent(lf.radial_power_phase(BALL2, 4.0)) == 0.5
    assert lf.critical_exponent(lf.radial_power_phase(BALL2, 8.0)) == 0.75
    assert lf.critical_exponent(lf.saddle_phase(BALL2)) == 0.0


# ---------------------------------------------------------------------------
# coarea route against closed forms
# ---------------------------------------------------------------------------

COAREA_CASES = [
    (lf.linear_phase(BALL2), np.linspace(-0.9, 0.9, 13)),
    (lf.linear_phase(BALL3), np.linspace(-0.9, 0.9, 13)),
    (lf.radial_quadratic_phase(BALL2), np.linspace(0.06, 0.95, 12)),
    (lf.radial_quadratic_phase(BALL3), np.linspace(0.06, 0.95, 12)),
    (lf.radial_power_phase(BALL2, 4.0), np.linspace(0.06, 0.95, 12)),
    (lf.saddle_phase(BALL2), np.linspace(0.06, 0.9, 12)),
]


@pytest.mark.parametrize("phase,levels", COAREA_CASES,
                         ids=lambda c: c.label if hasattr(c, "label") else "")
def test_coarea_matches_closed_form(phase, levels):
    for t in levels:
        cf = lf.weighted_density_closed_form(phase, None, float(t))
        co = lf.weighted_density_coarea(phase, None, float(t), fiber_nodes=4096)
        assert co == pytest.approx(cf, rel=2e-4), (phase.label, t)


def test_coarea_rejects_near_critical_levels():
    phase = lf.radial_quadratic_phase(BALL2)
    with pytest.raises(lf.CriticalValueError):
        lf.weighted_density_coarea(phase, None, 1e-12)


def test_weighted_coarea_linear_segment():
    # f(x, y) = y^2 over the vertical fiber x = t: integral 2 rho^3 / 3
    phase = lf.linear_phase(BALL2)
    t = 0.3
    rho = math.sqrt(1.0 - t * t)
    got = lf.weighted_density_coarea(phase, lambda p: p[:, 1] ** 2, t,
                                     fiber_nodes=4096)
    assert got == pytest.approx(2.0 * rho ** 3 / 3.0, rel=1e-4)


def test_weighted_coarea_radial_circle():
    # h(x) = x0^2 on circle of radius r: integral r^3 pi / |grad|
    phase = lf.radial_quadratic_phase(BALL2)
    t = 0.49
    r = 0.7
    want = math.pi * r ** 3 / (2.0 * r)
    got = lf.weighted_density_coarea(phase, lambda p: p[:, 0] ** 2, t,
                                     fiber_nodes=4096)
    assert got == pytest.approx(want, rel=1e-6)


def test_weighted_coarea_radial_function_n3():
    # radial weight factors exactly through the sphere formula
    phase = lf.radial_quadratic_phase(BALL3)
    h = lf.RadialFunction(lambda rr: rr ** 2)
    t = 0.36
    want = lf.weighted_density_closed_form(phase, None, t) * 0.36
    got = lf.weighted_density_coarea(phase, h, t)
    assert got == pytest.approx(want, rel=1e-9)


def test_weighted_closed_form_routes():
    phase = lf.linear_phase(BALL2)
    h = lf.LevelFunction(lambda t: np.asarray(t) ** 2)
    t = np.array([0.2, 0.5])
    want = 2.0 * np.sqrt(1.0 - t * t) * t ** 2
    got = lf.weighted_density_closed_form(phase, h, t)
    assert np.allclose(got, want, rtol=1e-12)
    with pytest.raises(lf.NoClosedFormError):
        lf.weighted_density_closed_form(phase, lambda p: p[:, 0], 0.3)


def test_weighted_closed_form_radial_power():
    phase = lf.radial_power_phase(BALL2, 4.0)
    h = lf.RadialFunction(lambda rr: rr)
    t = 0.4
    want = lf.weighted_density_closed_form(phase, None, t) * t ** 0.25
    assert lf.weighted_density_closed_form(phase, h, t) == pytest.approx(
        want, rel=1e-12)


def test_saddle_weighted_negative_level_swaps_axes():
    phase = lf.saddle_phase(BALL2)
    # h even in both axes: density symmetric under t -> -t
    h = lambda p: p[:, 0] ** 2 + 2.0 * p[:, 1] ** 2
    a = lf.weighted_density_coarea(phase, lambda p: p[:, 0] ** 2, 0.2)
    b = lf.weighted_density_coarea(phase, lambda p: p[:, 1] ** 2, -0.2)
    assert a == pytest.approx(b, rel=1e-9)
    del h


# ---------------------------------------------------------------------------
# Monte Carlo route
# ---------------------------------------------------------------------------

def test_monte_carlo_density_matches_bin_averages():
    phase = lf.linear_phase(BALL2)
    grid = lf.LevelGrid(-1.0, 1.0, 64)
    est = lf.density_on_grid(phase, grid, lf.MONTE_CARLO, sample_count=200_000,
                             seed=2)
    ref = lf.density_on_grid(phase, grid, lf.CLOSED_FORM, subdivide=33)
    bad = np.abs(est.values - ref.values) > 3.0 * est.stderr + 1e-9
    assert not np.any(bad)
    assert est.mass() == pytest.approx(math.pi, rel=1e-12)


def test_monte_carlo_mass_conservation_weighted():
    phase = lf.radial_quadratic_phase(BALL2)
    grid = lf.LevelGrid(0.0, 1.0, 50)
    h = lf.RadialFunction(lambda rr: 1.0 + rr)
    est = lf.weighted_density_monte_carlo(phase, h, grid, 100_000, seed=3)
    pts = lf.sample_domain(BALL2, 100_000, seed=3)
    want = float(np.mean(h(pts))) * BALL2.volume()
    assert est.mass() == pytest.approx(want, rel=1e-12)


def test_monte_carlo_deterministic_given_seed():
    phase = lf.linear_phase(BALL2)
    grid = lf.LevelGrid(-1.0, 1.0, 32)
    a = lf.density_on_grid(phase, grid, lf.MONTE_CARLO, sample_count=50_000, seed=9)
    b = lf.density_on_grid(phase, grid, lf.MONTE_CARLO, sample_count=50_000, seed=9)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("count", [0, -5])
def test_monte_carlo_rejects_empty_sample(count):
    phase = lf.linear_phase(BALL2)
    grid = lf.LevelGrid(-1.0, 1.0, 8)
    with pytest.raises(lf.ConfigError):
        lf.weighted_density_monte_carlo(phase, None, grid, count, seed=0)
    with pytest.raises(lf.ConfigError):
        lf.weighted_density_monte_carlo(phase, lambda p: p[:, 0], grid, count, seed=0)


def test_coarea_rejects_empty_fiber():
    phase = lf.linear_phase(BALL2)
    with pytest.raises(lf.ConfigError):
        lf.weighted_density_coarea(phase, None, 0.1, fiber_nodes=0)
    with pytest.raises(lf.ConfigError):
        lf.weighted_density_coarea(phase, lambda p: p[:, 1], 0.1, fiber_nodes=-3)


@pytest.mark.parametrize("method", [lf.CLOSED_FORM, lf.COAREA, lf.MONTE_CARLO])
def test_density_on_grid_rejects_zero_subdivide(method):
    grid = lf.LevelGrid(-1.0, 1.0, 8)
    with pytest.raises(lf.ConfigError):
        lf.density_on_grid(lf.linear_phase(BALL2), grid, method, subdivide=0)


# the routes that read each route parameter, and a value to set it to
ROUTE_READERS = {"fiber_nodes": {lf.COAREA}, "subdivide": {lf.CLOSED_FORM, lf.COAREA},
                 "sample_count": {lf.MONTE_CARLO}, "seed": {lf.MONTE_CARLO},
                 "grid": {lf.MONTE_CARLO}}
ROUTE_GRID = lf.LevelGrid(-0.9, 0.9, 8)
ROUTE_VALUES = {"fiber_nodes": 64, "subdivide": 2, "sample_count": 2000, "seed": 3,
                "grid": ROUTE_GRID}
ROUTE_FORM = lf.SynchronizedForm(
    lf.linear_phase(BALL2), lf.linear_phase(BALL2), lf.hilbert_kernel(),
    lf.LevelFunction(np.cos), lf.LevelFunction(np.cos), eps=0.25)


def weighted_on_route(method, **route):
    """A grid and no levels on Monte Carlo, one level elsewhere."""
    if method == lf.MONTE_CARLO:
        return lf.weighted_density(lf.linear_phase(BALL2), None, None, method,
                                   **{"grid": ROUTE_GRID, **route})
    return lf.weighted_density(lf.linear_phase(BALL2), None, 0.3, method, **route)


# each dispatcher and the route parameters it takes
ROUTE_DISPATCHERS = {
    "density_on_grid": (lambda method, **route: lf.density_on_grid(
        lf.linear_phase(BALL2), ROUTE_GRID, method, **route),
        ("fiber_nodes", "subdivide", "sample_count", "seed")),
    "weighted_density": (weighted_on_route, ("fiber_nodes", "sample_count", "seed", "grid")),
    "fiber_norm": (lambda method, **route: lf.fiber_norm(
        lf.linear_phase(BALL2), None, 2.0, 0.3, method, **route), ("fiber_nodes",)),
    # the left side reads sample_count and seed on every route
    "verify_reduction_identity": (lambda method, **route: lf.verify_reduction_identity(
        ROUTE_FORM, sample_count=2000, bins=16, method=method, **route),
        ("fiber_nodes", "subdivide")),
}
ROUTE_CASES = [(function, method, name) for function, (_, names) in ROUTE_DISPATCHERS.items()
               for method in lf.pushforward.METHODS for name in names]


@pytest.mark.parametrize("function,method,name", ROUTE_CASES)
def test_route_parameters_are_read_or_refused(function, method, name):
    call, _ = ROUTE_DISPATCHERS[function]
    if method in ROUTE_READERS[name]:
        call(method, **{name: ROUTE_VALUES[name]})
    else:
        with pytest.raises(lf.ConfigError, match=f"{name} has no effect on the {method} route"):
            call(method, **{name: ROUTE_VALUES[name]})


@pytest.mark.parametrize("call", [
    lambda phase, grid: lf.density_on_grid(phase, grid, "bogus"),
    lambda phase, grid: lf.weighted_density(phase, None, 0.1, "bogus"),
])
def test_unknown_density_method_rejected(call):
    with pytest.raises(lf.ConfigError, match="unknown density method"):
        call(lf.linear_phase(BALL2), lf.LevelGrid(-1.0, 1.0, 4))


def test_atom_detection_on_flat_phase():
    # detector only trusts fine grids: one overloaded bin among thousands
    flat = lf.custom_phase(BALL2, lambda p: np.zeros(len(p)))
    grid = lf.LevelGrid(-1.0, 1.0, 4000)
    est = lf.density_on_grid(flat, grid, lf.MONTE_CARLO, sample_count=20_000, seed=1)
    assert est.atom_suspected
    assert ATOM_MASS_FRACTION <= 1.0


def test_no_atom_on_spread_phase():
    phase = lf.linear_phase(BALL2)
    grid = lf.LevelGrid(-1.0, 1.0, 4000)
    est = lf.density_on_grid(phase, grid, lf.MONTE_CARLO, sample_count=20_000, seed=1)
    assert not est.atom_suspected


# ---------------------------------------------------------------------------
# grids, serialization
# ---------------------------------------------------------------------------

def test_level_grid_basics():
    grid = lf.LevelGrid(-1.0, 1.0, 4)
    assert grid.width == pytest.approx(0.5)
    assert np.allclose(grid.edges, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.allclose(grid.centers, [-0.75, -0.25, 0.25, 0.75])
    with pytest.raises(lf.ConfigError):
        lf.LevelGrid(1.0, -1.0, 4)
    with pytest.raises(lf.ConfigError):
        lf.LevelGrid(-1.0, 1.0, 0)


def test_density_estimate_json_schema():
    phase = lf.linear_phase(BALL2)
    grid = lf.LevelGrid(-1.0, 1.0, 8)
    est = lf.density_on_grid(phase, grid, lf.CLOSED_FORM)
    d = est.to_json_dict()
    assert d["schema"] == 1
    assert d["method"] == lf.CLOSED_FORM
    assert len(d["values"]) == 8
    json.dumps(d)  # must be serializable as-is


# ---------------------------------------------------------------------------
# fiber functionals
# ---------------------------------------------------------------------------

def test_fiber_norm_constant_weight():
    phase = lf.linear_phase(BALL2)
    t = 0.25
    base = lf.weighted_density_closed_form(phase, None, t)
    got = lf.fiber_norm(phase, lf.LevelFunction(lambda s: np.ones_like(s)), 2.0,
                        t, lf.CLOSED_FORM)
    assert got == pytest.approx(base ** 0.5, rel=1e-12)


def test_normalized_average_is_mean_on_fiber():
    phase = lf.linear_phase(BALL2)
    # average of y^2 over the segment |y| <= rho is rho^2 / 3
    t = 0.6
    rho2 = 1.0 - t * t
    num = lf.weighted_density(phase, lambda p: p[:, 1] ** 2, t, lf.COAREA,
                              fiber_nodes=4096)
    base = lf.weighted_density(phase, None, t, lf.COAREA, fiber_nodes=4096)
    assert num / base == pytest.approx(rho2 / 3.0, rel=1e-4)


def test_fiber_norm_exponent_floor():
    phase = lf.linear_phase(BALL2)
    with pytest.raises(lf.ConfigError):
        lf.fiber_norm(phase, None, 0.5, 0.1)


# ---------------------------------------------------------------------------
# hypothesis invariants
# ---------------------------------------------------------------------------

@given(t=st.floats(0.05, 0.95))
@settings(max_examples=30, deadline=None)
def test_radial_quadratic_coarea_invariant(t):
    phase = lf.radial_quadratic_phase(BALL2)
    got = lf.weighted_density_coarea(phase, None, t, fiber_nodes=512)
    assert got == pytest.approx(math.pi, rel=1e-9)


@given(t=st.floats(-0.9, 0.9), c=st.floats(0.1, 5.0))
@settings(max_examples=30, deadline=None)
def test_weighted_density_scales_linearly(t, c):
    phase = lf.linear_phase(BALL2)
    base = lf.weighted_density_closed_form(phase, None, t)
    h = lf.LevelFunction(lambda s: np.full_like(s, c))
    assert lf.weighted_density_closed_form(phase, h, t) == pytest.approx(
        c * base, rel=1e-12)


# ---------------------------------------------------------------------------
# scalar per-level oracle for the level-batched coarea core
# ---------------------------------------------------------------------------

def scalar_coarea(phase, h, t, fiber_nodes):
    """Fiber quadrature of h/|grad| at one level, one weight call per fiber."""
    t = float(t)
    for v in geometry.critical_values(phase):
        if abs(t - v) < CRITICAL_LEVEL_TOL:
            raise lf.CriticalValueError(f"level {t!r} near critical value {v!r}")
    k = phase.kind
    n = phase.domain.n
    lo, hi = geometry.image_interval(phase)
    if t < lo or t > hi:
        return 0.0
    if k == geometry.LINEAR:
        return _scalar_linear(phase, h, t, fiber_nodes)
    if k == geometry.SADDLE:
        return _scalar_saddle(phase, h, t, fiber_nodes)
    if k in (geometry.RADIAL_QUADRATIC, geometry.RADIAL_POWER, geometry.BOUNDARY_REPARAM):
        r_t, slope = _radial_level(phase, t)
        if r_t is None:
            return 0.0
        if n == 2:
            angles = (np.arange(fiber_nodes) + 0.5) * (2 * math.pi / fiber_nodes)
            pts = np.stack([r_t * np.cos(angles), r_t * np.sin(angles)], axis=1)
            hv = np.ones(fiber_nodes) if h is None else np.asarray(h(pts), dtype=float)
            return float(np.sum(hv * r_t * (2 * math.pi / fiber_nodes)) / slope)
        if h is None:
            return sphere_area(n) * r_t ** (n - 1) / slope
        if isinstance(h, lf.RadialFunction):
            prof = float(np.asarray(h.profile(np.asarray([r_t])))[0])
            return sphere_area(n) * r_t ** (n - 1) * prof / slope
        raise lf.NoParametrizationError("radial fibers in n >= 3 support only radial weights")
    raise lf.NoParametrizationError(f"no fiber parametrization for {phase.label}")


def _scalar_linear(phase, h, t, fiber_nodes):
    dom = phase.domain
    n = dom.n
    axis = phase.axis
    if dom.shape == "box":
        widths = [hi - lo for lo, hi in dom.bounds]
        area = float(np.prod([w for j, w in enumerate(widths) if j != axis]))
        if h is None:
            return area
        if isinstance(h, lf.LevelFunction) and h.axis == axis:
            return area * float(np.asarray(h.profile(np.asarray([t])))[0])
        if n == 2:
            other = 1 - axis
            o_lo, o_hi = dom.bounds[other]
            ys = o_lo + (np.arange(fiber_nodes) + 0.5) * (o_hi - o_lo) / fiber_nodes
            pts = np.zeros((fiber_nodes, 2))
            pts[:, axis] = t
            pts[:, other] = ys
            hv = np.asarray(h(pts), dtype=float)
            return float(np.sum(hv) * (o_hi - o_lo) / fiber_nodes)
        raise lf.NoParametrizationError("weighted box sections need n = 2 or an axis profile")
    R = dom.radius
    rho = math.sqrt(max(R * R - t * t, 0.0))
    if h is None:
        return ball_volume(n - 1) * rho ** (n - 1)
    if isinstance(h, lf.LevelFunction) and h.axis == axis:
        return ball_volume(n - 1) * rho ** (n - 1) * float(np.asarray(h.profile(np.asarray([t])))[0])
    if n == 2:
        other = 1 - axis
        ys = -rho + (np.arange(fiber_nodes) + 0.5) * (2 * rho / fiber_nodes)
        pts = np.zeros((fiber_nodes, 2))
        pts[:, axis] = t
        pts[:, other] = ys
        hv = np.asarray(h(pts), dtype=float)
        return float(np.sum(hv) * (2 * rho / fiber_nodes))
    if n == 3:
        m_r = max(int(math.sqrt(fiber_nodes)), 4)
        m_a = m_r
        rr = (np.arange(m_r) + 0.5) * (rho / m_r)
        aa = (np.arange(m_a) + 0.5) * (2 * math.pi / m_a)
        Rm, Am = np.meshgrid(rr, aa, indexing="ij")
        pts = np.zeros((m_r * m_a, 3))
        cols = [j for j in range(3) if j != axis]
        pts[:, axis] = t
        pts[:, cols[0]] = (Rm * np.cos(Am)).ravel()
        pts[:, cols[1]] = (Rm * np.sin(Am)).ravel()
        hv = np.asarray(h(pts), dtype=float)
        weights = (Rm * (rho / m_r) * (2 * math.pi / m_a)).ravel()
        return float(np.sum(hv * weights))
    raise lf.NoParametrizationError("weighted linear fibers need n <= 3 or an axis profile")


def _scalar_saddle(phase, h, t, fiber_nodes):
    R = phase.domain.radius
    a = abs(t)
    if a >= R * R:
        return 0.0
    ymax = math.sqrt((R * R - a) / 2.0)
    ys = -ymax + (np.arange(fiber_nodes) + 0.5) * (2 * ymax / fiber_nodes)
    major = np.sqrt(a + ys * ys)
    base = 1.0 / (2.0 * np.sqrt(a + ys * ys))
    total = 0.0
    for sign in (1.0, -1.0):
        pts = np.empty((fiber_nodes, 2))
        if t >= 0:
            pts[:, 0] = sign * major
            pts[:, 1] = ys
        else:
            pts[:, 0] = ys
            pts[:, 1] = sign * major
        hv = 1.0 if h is None else np.asarray(h(pts), dtype=float)
        total += float(np.sum(hv * base) * (2 * ymax / fiber_nodes))
    return total


def scalar_grid_values(phase, grid, method, h, fiber_nodes, subdivide):
    """Bin averages of `subdivide` midpoint levels, one bin at a time."""
    values = np.zeros(grid.bin_count)
    offsets = (np.arange(subdivide) + 0.5) / subdivide
    edges = grid.edges
    for i in range(grid.bin_count):
        pts = edges[i] + offsets * grid.width
        if method == lf.CLOSED_FORM:
            vals = np.asarray(lf.weighted_density_closed_form(phase, h, pts), dtype=float)
        else:
            vals = np.array([scalar_coarea(phase, h, p, fiber_nodes) for p in pts])
        values[i] = float(np.mean(vals))
    return values


def _reparam_table():
    profile = lf.GammaProfile(lambda t: t, 0.5, 10.0)
    return lf.design_reparametrization(profile, lambda s: 1.0, 1.0, (0.0, 1.0), step=1e-2)


ORACLE_PHASES = [
    lf.linear_phase(BALL2),
    lf.linear_phase(BALL2, axis=1),
    lf.linear_phase(BALL3, axis=2),
    lf.linear_phase(lf.box([(-1.0, 2.0), (0.5, 1.5)])),
    lf.linear_phase(lf.box([(-1.0, 2.0), (0.5, 1.5)]), axis=1),
    lf.radial_quadratic_phase(BALL2),
    lf.radial_quadratic_phase(BALL3),
    lf.radial_power_phase(BALL2, 4.0),
    lf.radial_power_phase(BALL3, 3.0),
    lf.boundary_reparam_phase(BALL2, _reparam_table()),
    lf.saddle_phase(BALL2),
]


def oracle_weight(kind, n):
    if kind == "none":
        return None
    if kind == "level":
        return lf.LevelFunction(lambda t: np.cos(3.0 * t) + np.abs(t) ** 1.5)
    if kind == "radial":
        return lf.RadialFunction(lambda r: np.exp(-r) + r ** 0.25)
    return lf.random_smooth_function(lf.ball(n), seed=5)


WEIGHT_KINDS = ("none", "level", "radial", "callable")


def outcome(fn):
    """The value of fn(), or the type of the LevelformError it raises."""
    try:
        return fn()
    except lf.LevelformError as exc:
        return type(exc)


def assert_same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        assert not isinstance(got, type), got
        assert np.array_equal(got, want)


def _levels(phase, fractions):
    # spread over the image and 30% beyond each end, clear of critical values
    lo, hi = geometry.image_interval(phase)
    levels = [lo + f * (hi - lo) for f in fractions]
    return [t for t in levels
            if all(abs(t - v) > 1e-6 for v in geometry.critical_values(phase))]


@given(case=st.integers(0, len(ORACLE_PHASES) - 1), weight=st.sampled_from(WEIGHT_KINDS),
       fractions=st.lists(st.floats(-0.3, 1.3), min_size=1, max_size=150),
       fiber_nodes=st.sampled_from([1, 3, 64, 700, 2048]))
@settings(max_examples=120, deadline=None)
def test_coarea_levels_match_scalar_oracle(case, weight, fractions, fiber_nodes):
    phase = ORACLE_PHASES[case]
    h = oracle_weight(weight, phase.domain.n)
    tt = np.array(_levels(phase, fractions))
    want = outcome(lambda: np.array([scalar_coarea(phase, h, t, fiber_nodes) for t in tt]))
    assert_same_outcome(outcome(lambda: lf.weighted_density_coarea(phase, h, tt, fiber_nodes)), want)
    assert_same_outcome(outcome(lambda: lf.weighted_density(phase, h, tt, lf.COAREA,
                                                            fiber_nodes=fiber_nodes)), want)
    if len(tt) and not isinstance(want, type):
        assert lf.weighted_density_coarea(phase, h, tt[0], fiber_nodes) == want[0]


@given(case=st.integers(0, len(ORACLE_PHASES) - 1), weight=st.sampled_from(WEIGHT_KINDS),
       fractions=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=3),
       fiber_nodes=st.sampled_from([_BLOCK_POINTS // 2, _BLOCK_POINTS - 1, _BLOCK_POINTS,
                                    _BLOCK_POINTS + 1]))
@settings(max_examples=30, deadline=None)
def test_coarea_levels_match_scalar_oracle_at_block_edge(case, weight, fractions, fiber_nodes):
    # one or two levels per block, and fibers larger than a block
    phase = ORACLE_PHASES[case]
    h = oracle_weight(weight, phase.domain.n)
    tt = np.array(_levels(phase, fractions))
    want = outcome(lambda: np.array([scalar_coarea(phase, h, t, fiber_nodes) for t in tt]))
    assert_same_outcome(outcome(lambda: lf.weighted_density_coarea(phase, h, tt, fiber_nodes)), want)


@given(case=st.integers(0, len(ORACLE_PHASES) - 1), weight=st.sampled_from(WEIGHT_KINDS),
       method=st.sampled_from([lf.CLOSED_FORM, lf.COAREA]), bins=st.integers(1, 12),
       ends=st.tuples(st.floats(-0.3, 0.6), st.floats(0.1, 1.0)),
       subdivide=st.integers(1, 9))
@settings(max_examples=120, deadline=None)
def test_density_on_grid_matches_per_bin_oracle(case, weight, method, bins, ends, subdivide):
    phase = ORACLE_PHASES[case]
    h = oracle_weight(weight, phase.domain.n)
    lo, hi = geometry.image_interval(phase)
    grid = lf.LevelGrid(lo + ends[0] * (hi - lo), lo + (ends[0] + ends[1]) * (hi - lo), bins)
    want = outcome(lambda: scalar_grid_values(phase, grid, method, h, 96, subdivide))
    # only the coarea route reads fiber_nodes; the closed form refuses it
    nodes = {"fiber_nodes": 96} if method == lf.COAREA else {}
    got = outcome(lambda: lf.density_on_grid(phase, grid, method, h=h, subdivide=subdivide,
                                             **nodes).values)
    assert_same_outcome(got, want)


def counting(fn):
    calls = []

    def weight(pts):
        calls.append(len(pts))
        return fn(pts)

    return weight, calls


def test_coarea_levels_call_weight_once_per_block():
    phase = lf.linear_phase(BALL2)
    h, calls = counting(lf.random_smooth_function(BALL2, seed=1))
    grid = lf.LevelGrid(-1.0, 1.0, 100)
    lf.density_on_grid(phase, grid, lf.COAREA, h=h, fiber_nodes=512, subdivide=5)
    # 500 levels of 512 fiber points, in blocks of whole levels
    full, rest = divmod(500 * 512, _BLOCK_POINTS)
    assert calls == [_BLOCK_POINTS] * full + [rest]


@pytest.mark.parametrize("phase", [lf.radial_quadratic_phase(BALL2), lf.saddle_phase(BALL2)],
                         ids=lambda p: p.label)
def test_coarea_levels_reject_critical_level_before_any_weight_call(phase):
    h, calls = counting(lf.random_smooth_function(BALL2, seed=1))
    with pytest.raises(lf.CriticalValueError):
        lf.weighted_density(phase, h, np.array([0.5, 0.25, 1e-12]), lf.COAREA)
    with pytest.raises(lf.CriticalValueError):
        lf.density_on_grid(phase, lf.LevelGrid(-1.0, 1.0, 3), lf.COAREA, h=h, subdivide=1)
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coarea_rejects_non_finite_levels(bad):
    phase = lf.linear_phase(BALL2)
    with pytest.raises(lf.ConfigError):
        lf.weighted_density_coarea(phase, None, bad)
    h, calls = counting(lambda pts: pts[:, 1] ** 2)
    with pytest.raises(lf.ConfigError):
        lf.weighted_density(phase, h, np.array([0.1, bad]), lf.COAREA)
    assert calls == []


@pytest.mark.parametrize("ends", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)])
def test_level_grid_rejects_non_finite_ends(ends):
    with pytest.raises(lf.ConfigError):
        lf.LevelGrid(ends[0], ends[1], 4)


def test_weight_equality_sees_the_profile():
    assert lf.RadialFunction(lambda r: r) != lf.RadialFunction(lambda r: -r)
    assert lf.LevelFunction(lambda t: t) != lf.LevelFunction(lambda t: -t)
    profile = lambda t: t  # noqa: E731
    assert lf.LevelFunction(profile) == lf.LevelFunction(profile)
    assert lf.LevelFunction(profile) != lf.LevelFunction(profile, axis=1)
