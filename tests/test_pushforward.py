import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelform as lf
from levelform.pushforward import ATOM_MASS_FRACTION


BALL2 = lf.ball(2)
BALL3 = lf.ball(3)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_linear_ball_closed_form():
    phase = lf.linear_phase(BALL2)
    t = np.array([-0.5, 0.0, 0.7])
    want = 2.0 * np.sqrt(1.0 - t * t)
    assert np.allclose(lf.density_closed_form(phase, t), want, rtol=1e-12)


def test_linear_ball3_closed_form():
    phase = lf.linear_phase(BALL3)
    assert lf.density_closed_form(phase, 0.5) == pytest.approx(
        math.pi * (1.0 - 0.25), rel=1e-12)


def test_radial_quadratic_closed_forms():
    # n = 2: constant pi; n = 3: 2 pi sqrt(t)
    assert lf.density_closed_form(lf.radial_quadratic_phase(BALL2), 0.3) == \
        pytest.approx(math.pi, rel=1e-12)
    assert lf.density_closed_form(lf.radial_quadratic_phase(BALL3), 0.25) == \
        pytest.approx(2.0 * math.pi * 0.5, rel=1e-12)


def test_radial_power_closed_form():
    phase = lf.radial_power_phase(BALL2, 4.0)
    t = 0.0625
    want = (2.0 * math.pi / 4.0) * t ** ((2.0 - 4.0) / 4.0)
    assert lf.density_closed_form(phase, t) == pytest.approx(want, rel=1e-12)
    assert lf.density_closed_form(phase, 2.0) == 0.0
    assert math.isinf(lf.density_closed_form(phase, 0.0))


def test_saddle_closed_form_small_level_log():
    phase = lf.saddle_phase(BALL2)
    t = 1e-7
    want = 2.0 * math.asinh(math.sqrt((1.0 - t) / (2.0 * t)))
    got = lf.density_closed_form(phase, t)
    assert got == pytest.approx(want, rel=1e-12)
    assert got / math.log(1.0 / t) == pytest.approx(1.0, abs=0.1)
    # symmetry in the level
    assert lf.density_closed_form(phase, -t) == pytest.approx(got, rel=1e-12)


def test_density_zero_outside_image():
    phase = lf.linear_phase(BALL2)
    assert lf.density_closed_form(phase, 1.5) == 0.0
    assert lf.density_closed_form(phase, -1.5) == 0.0


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
        cf = lf.density_closed_form(phase, float(t))
        co = lf.density_coarea(phase, float(t), fiber_nodes=4096)
        assert co == pytest.approx(cf, rel=2e-4), (phase.label, t)


def test_coarea_rejects_near_critical_levels():
    phase = lf.radial_quadratic_phase(BALL2)
    with pytest.raises(lf.CriticalValueError):
        lf.density_coarea(phase, 1e-12)


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
    want = lf.density_closed_form(phase, t) * 0.36
    got = lf.weighted_density_coarea(phase, h, t)
    assert got == pytest.approx(want, rel=1e-9)


def test_weighted_closed_form_routes():
    phase = lf.linear_phase(BALL2)
    h = lf.LevelFunction(lambda t: np.asarray(t) ** 2)
    t = np.array([0.2, 0.5])
    want = 2.0 * np.sqrt(1.0 - t * t) * t ** 2
    got = lf.weighted_density_closed_form(phase, h, t)
    assert np.allclose(got, want, rtol=1e-12)
    # scalar weights scale the base density
    assert lf.weighted_density_closed_form(phase, 2.5, 0.3) == pytest.approx(
        2.5 * lf.density_closed_form(phase, 0.3))
    with pytest.raises(lf.NoClosedFormError):
        lf.weighted_density_closed_form(phase, lambda p: p[:, 0], 0.3)


def test_weighted_closed_form_radial_power():
    phase = lf.radial_power_phase(BALL2, 4.0)
    h = lf.RadialFunction(lambda rr: rr)
    t = 0.4
    want = lf.density_closed_form(phase, t) * t ** 0.25
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
        lf.density_monte_carlo(phase, grid, count, seed=0)
    with pytest.raises(lf.ConfigError):
        lf.weighted_density_monte_carlo(phase, None, grid, count, seed=0)


def test_coarea_rejects_empty_fiber():
    phase = lf.linear_phase(BALL2)
    with pytest.raises(lf.ConfigError):
        lf.weighted_density_coarea(phase, None, 0.1, fiber_nodes=0)
    with pytest.raises(lf.ConfigError):
        lf.density_coarea(phase, 0.1, fiber_nodes=-3)


@pytest.mark.parametrize("method", [lf.CLOSED_FORM, lf.COAREA, lf.MONTE_CARLO])
def test_density_on_grid_rejects_zero_subdivide(method):
    grid = lf.LevelGrid(-1.0, 1.0, 8)
    with pytest.raises(lf.ConfigError):
        lf.density_on_grid(lf.linear_phase(BALL2), grid, method, subdivide=0)


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


def test_density_estimate_csv_roundtrip(tmp_path):
    phase = lf.linear_phase(BALL2)
    grid = lf.LevelGrid(-1.0, 1.0, 16)
    est = lf.density_on_grid(phase, grid, lf.CLOSED_FORM, subdivide=3)
    path = tmp_path / "density.csv"
    est.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t_lo,t_hi,value,stderr,method"
    assert len(rows) == 17
    cells = rows[1].split(",")
    assert float(cells[0]) == -1.0
    assert float(cells[2]) == pytest.approx(est.values[0], rel=1e-15)


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
    base = lf.density_closed_form(phase, t)
    got = lf.fiber_norm(phase, lf.LevelFunction(lambda s: np.ones_like(s)), 2.0,
                        t, lf.CLOSED_FORM)
    assert got == pytest.approx(base ** 0.5, rel=1e-12)


def test_normalized_average_is_mean_on_fiber():
    phase = lf.linear_phase(BALL2)
    # average of y^2 over the segment |y| <= rho is rho^2 / 3
    t = 0.6
    rho2 = 1.0 - t * t
    got = lf.normalized_average(phase, lambda p: p[:, 1] ** 2, t,
                                lf.COAREA, fiber_nodes=4096)
    assert got == pytest.approx(rho2 / 3.0, rel=1e-4)


def test_normalized_average_zero_outside_image():
    phase = lf.linear_phase(BALL2)
    assert lf.normalized_average(phase, lambda p: p[:, 1], 1.5, lf.CLOSED_FORM) == 0.0


def test_normalized_average_zero_at_blow_up():
    phase = lf.radial_power_phase(BALL2, 4.0)
    assert lf.normalized_average(phase, lf.RadialFunction(lambda r: r), 0.0,
                                 lf.CLOSED_FORM) == 0.0


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
    got = lf.density_coarea(phase, t, fiber_nodes=512)
    assert got == pytest.approx(math.pi, rel=1e-9)


@given(t=st.floats(-0.9, 0.9), c=st.floats(0.1, 5.0))
@settings(max_examples=30, deadline=None)
def test_weighted_density_scales_linearly(t, c):
    phase = lf.linear_phase(BALL2)
    base = lf.weighted_density_closed_form(phase, 1.0, t)
    assert lf.weighted_density_closed_form(phase, c, t) == pytest.approx(
        c * base, rel=1e-12)
