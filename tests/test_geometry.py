import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import levelform as lf
from levelform import geometry
from levelform.geometry import SINGULAR_RADIUS


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

def test_ball_volume_constants():
    assert lf.ball_volume(1) == pytest.approx(2.0)
    assert lf.ball_volume(2) == pytest.approx(math.pi)
    assert lf.ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_sphere_area_constants():
    # measure of S^{dim-1} inside R^dim: two points, circle, sphere
    assert lf.sphere_area(1) == pytest.approx(2.0)
    assert lf.sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert lf.sphere_area(3) == pytest.approx(4.0 * math.pi)


def test_domain_volume_and_containment():
    b = lf.ball(2, radius=2.0)
    assert b.volume() == pytest.approx(4.0 * math.pi)
    assert b.contains([[1.9, 0.0]])[0]
    assert not b.contains([[1.9, 1.9]])[0]
    assert not b.contains([[math.nan, 0.0]])[0]  # read as outside, not refused
    bx = lf.box([(-1.0, 1.0), (0.0, 3.0)])
    assert bx.volume() == pytest.approx(6.0)
    assert bx.contains([[0.5, 2.9]])[0]
    assert not bx.contains([[0.5, 3.1]])[0]


def row_blocks(dim, rows, seed, exponent):
    """Rows of `dim` values at scale 10^exponent: contiguous, and the two
    column halves of a (rows, 2 dim) pair block, as the pair sampler yields."""
    rng = np.random.default_rng(seed)
    pair = rng.uniform(-1.0, 1.0, (rows, 2 * dim)) * 10.0 ** exponent
    return {"contiguous": np.ascontiguousarray(pair[:, :dim]),
            "left half": pair[:, :dim], "right half": pair[:, dim:]}


def outcome(norms, pts):
    """The int64 view of `norms(pts)` with floating-point errors ignored, and
    the error `norms(pts)` raises, if any, when every one raises."""
    with np.errstate(all="ignore"):
        bits = norms(pts).view(np.int64).tolist()
    with np.errstate(all="raise"):
        try:
            norms(pts)
            error = None
        except FloatingPointError:
            error = "FloatingPointError"
    return bits, error


def assert_helpers_match(pts, label):
    sq_norms = outcome(lambda p: np.einsum("ij,ij->i", p, p), pts)
    assert outcome(geometry._sq_norms, pts) == sq_norms, label
    assert outcome(geometry._norms, pts) == outcome(lambda p: np.linalg.norm(p, axis=1), pts), label


# the exponents reach squares that underflow to subnormals and zero, or overflow
@given(dim=st.integers(1, 32), rows=st.integers(0, 300), seed=st.integers(0, 2**16),
       exponent=st.sampled_from([0, -80, -160, -170, 150, 160, 170]))
@settings(max_examples=150, deadline=None)
def test_norm_helpers_keep_the_bits_of_einsum_and_linalg_norm(dim, rows, seed, exponent):
    # the column form for two columns follows numpy's kernels, so a numpy
    # upgrade that breaks the equality fails here
    for layout, pts in row_blocks(dim, rows, seed, exponent).items():
        assert_helpers_match(pts, layout)


def test_norm_helpers_keep_the_bits_of_a_full_sobol_block():
    # one 2^15-row block, the size the samplers hand on, in every dimension
    for dim in range(1, 33):
        for layout, pts in row_blocks(dim, 2**15, dim, 0).items():
            assert_helpers_match(pts, (dim, layout))


def test_bad_domains_rejected():
    with pytest.raises(lf.ConfigError):
        lf.ball(0)
    with pytest.raises(lf.ConfigError):
        lf.ball(2, radius=-1.0)
    with pytest.raises(lf.ConfigError):
        lf.box([(1.0, 1.0)])


# ---------------------------------------------------------------------------
# phase evaluation and gradients
# ---------------------------------------------------------------------------

CATALOG = [
    lf.linear_phase(lf.ball(2)),
    lf.linear_phase(lf.ball(3), axis=1),
    lf.linear_phase(lf.box([(-1.0, 1.0), (0.0, 2.0)])),
    lf.radial_quadratic_phase(lf.ball(2)),
    lf.radial_quadratic_phase(lf.ball(3)),
    lf.radial_power_phase(lf.ball(2), 4.0),
    lf.radial_power_phase(lf.ball(2), 8.0),
    lf.saddle_phase(lf.ball(2)),
    lf.oscillatory_phase(lf.ball(2), 0.3, 5.0),
]


@pytest.mark.parametrize("phase", CATALOG, ids=lambda p: p.label)
def test_gradient_matches_finite_differences(phase):
    rng = np.random.default_rng(3)
    pts = lf.sample_domain(phase.domain, 64, seed=1) * 0.9
    grads = geometry._grad_values(phase, pts)
    eh = 1e-6
    for i in range(phase.domain.n):
        shift = np.zeros(phase.domain.n)
        shift[i] = eh
        num = (lf.eval_phase(phase, pts + shift) -
               lf.eval_phase(phase, pts - shift)) / (2 * eh)
        ok = np.isfinite(grads[:, i])
        assert np.allclose(grads[ok, i], num[ok], atol=1e-5)
    del rng


def test_eval_rejects_outside_points():
    phase = lf.linear_phase(lf.ball(2))
    with pytest.raises(lf.PointOutsideDomainError):
        lf.eval_phase(phase, [[2.0, 0.0]])


@pytest.mark.parametrize("read", [lf.eval_phase, lf.grad_phase])
def test_phase_points_are_read_once(read):
    # eval_phase and grad_phase share one reader: both name the outside
    # point, and the width refusal is Domain.contains's
    phase = lf.linear_phase(lf.ball(2))
    with pytest.raises(lf.PointOutsideDomainError, match=r"point \[0\.5, 2\.0\] outside"):
        read(phase, [[0.0, 0.0], [0.5, 2.0]])
    for points in ([0.1, 0.2, 0.3], [[0.1]], np.zeros((2, 1, 2))):
        with pytest.raises(lf.ConfigError, match="domain points must be rows of 2 coordinates"):
            read(phase, points)


def test_gradient_undefined_at_origin_for_fractional_radial():
    phase = lf.radial_power_phase(lf.ball(2), 1.5)
    with pytest.raises(lf.GradientUndefinedError):
        lf.grad_phase(phase, [[0.0, 0.0]])
    assert np.isnan(geometry._grad_values(phase, np.zeros((1, 2)))).all()


def test_critical_values_catalog():
    assert lf.critical_values(lf.linear_phase(lf.ball(2))) == ()
    assert lf.critical_values(lf.radial_quadratic_phase(lf.ball(2))) == (0.0,)
    assert lf.critical_values(lf.radial_power_phase(lf.ball(2), 4.0)) == (0.0,)
    assert lf.critical_values(lf.radial_power_phase(lf.ball(2), 1.0)) == ()
    assert lf.critical_values(lf.saddle_phase(lf.ball(2))) == (0.0,)
    assert lf.critical_values(lf.oscillatory_phase(lf.ball(2), 0.3, 5.0)) == ()


def test_image_intervals():
    assert lf.image_interval(lf.linear_phase(lf.ball(2))) == (-1.0, 1.0)
    assert lf.image_interval(lf.radial_quadratic_phase(lf.ball(2, 2.0))) == (0.0, 4.0)
    assert lf.image_interval(lf.radial_power_phase(lf.ball(2), 4.0)) == (0.0, 1.0)
    lo, hi = lf.image_interval(lf.saddle_phase(lf.ball(2)))
    assert (lo, hi) == (-1.0, 1.0)
    lo, hi = lf.image_interval(lf.oscillatory_phase(lf.ball(2), 0.3, 5.0))
    assert lo <= -1.0 and hi >= 1.0


def test_saddle_requires_dimension_two():
    with pytest.raises(lf.ConfigError):
        lf.saddle_phase(lf.ball(3))


def test_radial_power_gamma_floor():
    with pytest.raises(lf.ConfigError):
        lf.radial_power_phase(lf.ball(2), 0.5)


def sampled_linear_transversality(phase, t, samples=4096):
    """Oracle: the linear level set on the boundary sphere, parametrized
    explicitly, and the least tangential part of the gradient over it."""
    n, R = phase.domain.n, phase.domain.radius
    if abs(abs(t) - R) < 1e-15:
        return 0.0
    rho = math.sqrt(R * R - t * t)
    if n == 2:
        others = np.array([[rho], [-rho]])
    else:
        dirs = np.random.default_rng(0).standard_normal((samples, n - 1))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        others = rho * dirs
    pts = np.zeros((len(others), n))
    pts[:, phase.axis] = t
    pts[:, [j for j in range(n) if j != phase.axis]] = others
    grads = lf.grad_phase(phase, pts)
    normals = pts / R
    tang = grads - np.einsum("ij,ij->i", grads, normals)[:, None] * normals
    return float(np.min(np.linalg.norm(tang, axis=1)))


@given(t=st.floats(-0.99, 0.99))
@settings(max_examples=40, deadline=None)
def test_linear_transversality_closed_form(t):
    phase = lf.linear_phase(lf.ball(2))
    closed = lf.boundary_transversality(phase, t)
    sampled = sampled_linear_transversality(phase, t)
    assert closed == pytest.approx(math.sqrt(1.0 - t * t), abs=1e-12)
    assert sampled == pytest.approx(closed, abs=1e-9)


def test_linear_transversality_sampled_n3():
    phase = lf.linear_phase(lf.ball(3))
    closed = lf.boundary_transversality(phase, 0.4)
    sampled = sampled_linear_transversality(phase, 0.4)
    assert sampled == pytest.approx(closed, abs=1e-9)


def test_radial_transversality_degenerate():
    phase = lf.radial_quadratic_phase(lf.ball(2))
    assert lf.boundary_transversality(phase, 1.0) == 0.0
    with pytest.raises(lf.EmptyIntersectionError):
        lf.boundary_transversality(phase, 0.5)


def test_saddle_transversality_positive_inside():
    phase = lf.saddle_phase(lf.ball(2))
    # on the unit circle, level t: points cos(2a) = t, tangential part 2|sin(2a)|
    t = 0.3
    val = lf.boundary_transversality(phase, t, samples=8192)
    assert val == pytest.approx(2.0 * math.sqrt(1.0 - t * t), rel=1e-3)
    with pytest.raises(lf.LevelOutsideImageError):
        lf.boundary_transversality(phase, 1.5)


def test_oscillatory_transversality_can_miss_boundary():
    phase = lf.oscillatory_phase(lf.ball(2), 0.3, 5.0)
    lo, hi = lf.image_interval(phase)
    # the covering image overshoots the boundary range near its top
    with pytest.raises(lf.EmptyIntersectionError):
        lf.boundary_transversality(phase, hi - 1e-6)
    val = lf.boundary_transversality(phase, 0.2, samples=8192)
    assert val > 0.0


def test_level_outside_image_rejected():
    phase = lf.linear_phase(lf.ball(2))
    with pytest.raises(lf.LevelOutsideImageError):
        lf.boundary_transversality(phase, 1.5)


# ---------------------------------------------------------------------------
# gradient lower-bound profiles and reparametrization design
# ---------------------------------------------------------------------------

def test_gamma_profile_rejects_negative():
    with pytest.raises(lf.ConfigError):
        lf.GammaProfile(lambda t: t, lo=-1.0, hi=1.0)


# intervals that reach past +-1e6 on one side or lie wholly beyond it
@pytest.mark.parametrize("lo,hi", [(2e6, 3e6), (-3e6, -2e6), (2e6, math.inf),
                                   (-math.inf, -2e6), (5.0, math.inf), (-math.inf, math.inf)])
def test_gamma_profile_probes_only_its_interval(lo, hi):
    probes = []

    def fn(t):
        probes.append(np.copy(t))
        return np.sqrt(np.clip(t - lo, 0.0, None) if lo > 0 else np.clip(hi - t, 0.0, None))

    lf.GammaProfile(fn, lo, hi)
    probe = np.concatenate(probes)
    assert np.all((probe >= lo) & (probe <= hi)) and len(np.unique(probe)) > 1


def test_check_gamma_profile_radial_quadratic():
    # |grad| = 2|x| = 2 sqrt(t); Gamma(t) = sqrt(t) leaves slack sqrt(t)
    phase = lf.radial_quadratic_phase(lf.ball(2))
    profile = lf.GammaProfile(lambda t: np.sqrt(np.maximum(t, 0.0)), lo=0.0, hi=1.0)
    report = lf.check_gamma_profile(phase, profile, sample_count=2048, seed=4)
    assert report.min_slack >= 0.0
    assert report.evaluated > 1500


def test_check_gamma_profile_detects_violation():
    phase = lf.radial_quadratic_phase(lf.ball(2))
    profile = lf.GammaProfile(lambda t: np.full_like(np.asarray(t, float), 3.0),
                              lo=0.0, hi=1.0)
    report = lf.check_gamma_profile(phase, profile, sample_count=2048, seed=4)
    assert report.min_slack < 0.0


def test_design_reparametrization_exponential_case():
    # H' = H with H(0) = 1 gives H(s) = exp(s)
    profile = lf.GammaProfile(lambda t: t, lo=0.5, hi=10.0)
    table = lf.design_reparametrization(profile, lambda s: 1.0, 1.0, (0.0, 1.0),
                                        step=1e-3)
    ss = np.linspace(0.0, 1.0, 11)
    assert np.allclose(table(ss), np.exp(ss), rtol=1e-9)
    assert table.s_range == (0.0, 1.0)


def test_design_reparametrization_blow_up_reported():
    # H' = H^2, H(0) = 1 blows up at s = 1; validity window forces an exit
    profile = lf.GammaProfile(lambda t: t * t, lo=0.0, hi=50.0)
    with pytest.raises(lf.OdeBlowUpError) as info:
        lf.design_reparametrization(profile, lambda s: 1.0, 1.0, (0.0, 1.2),
                                    step=1e-3)
    assert info.value.s_exit < 1.2
    assert info.value.s_exit > 0.9


def test_design_reparametrization_requires_positive_clock():
    profile = lf.GammaProfile(lambda t: t, lo=0.5, hi=10.0)
    with pytest.raises(lf.ConfigError):
        lf.design_reparametrization(profile, lambda s: 0.0, 1.0, (0.0, 1.0))


def test_reparam_table_inverse_roundtrip():
    s = np.linspace(0.0, 1.0, 33)
    table = lf.ReparamTable(s, np.exp(s))
    # exact at the knots, interpolation-accurate between them
    assert np.allclose(table.inverse(np.exp(s)), s, atol=1e-12)
    vals = np.linspace(1.0, math.e, 17)
    assert np.allclose(table(table.inverse(vals)), vals, rtol=1e-4)


# the PCHIP oracle: scipy's PchipInterpolator, which ReparamTable reproduces

def assert_same_bits(got, want):
    """Equal float64 bits, where any NaN matches any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def assert_pchip_matches_scipy(s, values, probes):
    """Value, derivative and inverse of a ReparamTable against scipy, on the
    knots, the probes and points outside the range, on both evaluation paths."""
    table = lf.ReparamTable(s, values)
    oracle = PchipInterpolator(s, values)
    routes = [(table, oracle, s), (table.derivative, oracle.derivative(), s),
              (table.inverse, PchipInterpolator(values, s), values)]
    for ours, theirs, knots in routes:
        lo, hi = knots[0], knots[-1]
        width = hi - lo
        points = np.concatenate([knots, lo + width * np.asarray(probes),
                                 [lo - width, hi + width, -1e300, 1e300, math.nan]])
        assert_same_bits(ours(points), theirs(points))
        for x in points.tolist():
            got = ours(x)
            assert isinstance(got, float)
            assert_same_bits(got, theirs(x))


# one increment per segment: flat, moderate and steep runs
increments = st.sampled_from([1e-6, 1e-2, 1.0, 1e3]).flatmap(lambda k: st.floats(k, 2 * k))


@given(ds=st.lists(increments, min_size=1, max_size=40),
       dv=st.lists(increments, min_size=40, max_size=40),
       start=st.floats(-10.0, 10.0),
       probes=st.lists(st.floats(-0.5, 1.5), max_size=8))
@settings(max_examples=80, deadline=None)
@example(ds=[0.25], dv=[3.0] * 40, start=0.0, probes=[0.1, 0.5, 0.9])  # two knots
@example(ds=[0.25, 0.75], dv=[1e-6, 1e3] * 20, start=0.0, probes=[0.1, 0.5, 0.9])
def test_reparam_table_matches_scipy_pchip(ds, dv, start, probes):
    s = start + np.cumsum([0.0, *ds])
    values = np.cumsum([-1.0, *dv[:len(ds)]])
    assert_pchip_matches_scipy(s, values, probes)


def test_designed_reparam_table_matches_scipy_pchip():
    profile = lf.GammaProfile(lambda t: t, lo=0.5, hi=10.0)
    table = lf.design_reparametrization(profile, lambda s: 1.0, 1.0, (0.0, 1.0), step=1e-3)
    probes = np.random.default_rng(0).uniform(-0.1, 1.1, 64)
    assert_pchip_matches_scipy(table.s, table.values, probes)


def test_boundary_reparam_phase_requires_coverage():
    s = np.linspace(0.0, 0.5, 9)  # covers distances only up to 0.5
    table = lf.ReparamTable(s, 1.0 + s)
    with pytest.raises(lf.ConfigError):
        lf.boundary_reparam_phase(lf.ball(2), table)


def test_boundary_reparam_phase_eval_and_grad():
    s = np.linspace(0.0, 1.0, 65)
    table = lf.ReparamTable(s, np.exp(s))
    phase = lf.boundary_reparam_phase(lf.ball(2), table)
    pts = np.array([[0.5, 0.0], [0.0, 0.25]])
    vals = lf.eval_phase(phase, pts)
    assert vals == pytest.approx(np.exp(1.0 - np.array([0.5, 0.25])), rel=1e-6)
    grads = lf.grad_phase(phase, pts)
    # d/dr of H(R - r) = -H'(R - r), pointing inward with magnitude H'
    assert grads[0, 0] == pytest.approx(-math.exp(0.5), rel=1e-4)
    with pytest.raises(lf.GradientUndefinedError):
        lf.grad_phase(phase, [[0.0, SINGULAR_RADIUS / 2]])


def test_phase_equality_sees_function_and_profile():
    f1 = lambda p: p[:, 0]  # noqa: E731
    f2 = lambda p: p[:, 1]  # noqa: E731
    assert lf.custom_phase(lf.ball(2), f1) == lf.custom_phase(lf.ball(2), f1)
    assert lf.custom_phase(lf.ball(2), f1) != lf.custom_phase(lf.ball(2), f2)
    s = np.linspace(0.0, 1.0, 9)
    exp_table = lf.ReparamTable(s, np.exp(s))
    lin_table = lf.ReparamTable(s, 1.0 + s)
    p_exp = lf.boundary_reparam_phase(lf.ball(2), exp_table)
    assert p_exp == lf.boundary_reparam_phase(lf.ball(2), exp_table)
    assert p_exp != lf.boundary_reparam_phase(lf.ball(2), lin_table)
    assert len({p_exp, lf.boundary_reparam_phase(lf.ball(2), lin_table)}) == 2


def test_gamma_profile_equality_sees_the_function():
    f = lambda t: t  # noqa: E731
    assert lf.GammaProfile(f, 0.5, 10.0) == lf.GammaProfile(f, 0.5, 10.0)
    assert lf.GammaProfile(lambda t: t, 0.5, 10.0) != lf.GammaProfile(lambda t: 2 * t, 0.5, 10.0)


# ---------------------------------------------------------------------------
# hypothesis invariants
# ---------------------------------------------------------------------------

@given(x=st.floats(-0.7, 0.7), y=st.floats(-0.7, 0.7))
@settings(max_examples=60, deadline=None)
def test_saddle_eval_identity(x, y):
    phase = lf.saddle_phase(lf.ball(2))
    assert lf.eval_phase(phase, [[x, y]])[0] == pytest.approx(x * x - y * y)


@given(g=st.floats(1.0, 8.0), r=st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_radial_power_eval_identity(g, r):
    phase = lf.radial_power_phase(lf.ball(2), g)
    val = lf.eval_phase(phase, [[r, 0.0]])[0]
    assert val == pytest.approx(r ** g, rel=1e-12)
