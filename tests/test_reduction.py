import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import levelform as lf
from levelform.kernels import _apply_batch


BALL2 = lf.ball(2)
BOX2 = lf.box([(0.0, 1.0), (0.0, 1.0)])


# ---------------------------------------------------------------------------
# reduction identity at desk scale
# ---------------------------------------------------------------------------

def test_reduction_identity_linear():
    form = lf.SynchronizedForm(
        phase_in=lf.linear_phase(BALL2), phase_out=lf.linear_phase(BALL2),
        kernel=lf.hilbert_kernel(),
        f=lf.LevelFunction(lambda t: (np.asarray(t) > 0).astype(float)),
        g=lf.LevelFunction(lambda t: np.ones_like(np.asarray(t))), eps=0.25)
    rep = lf.verify_reduction_identity(form, sample_count=200_000, bins=256,
                                       seed=0)
    assert rep.passed, (rep.discrepancy, rep.tolerance)
    assert rep.lhs.sample_count == 200_000
    assert rep.discrepancy <= rep.tolerance


def test_reduction_identity_coarea_route():
    # a weight that genuinely varies along fibers forces the quadrature route
    form = lf.SynchronizedForm(
        phase_in=lf.linear_phase(BALL2), phase_out=lf.linear_phase(BALL2),
        kernel=lf.hilbert_kernel(),
        f=lambda p: 1.0 + 0.5 * p[:, 1],
        g=lambda p: (p[:, 1] > 0).astype(float), eps=0.25)
    rep = lf.verify_reduction_identity(form, sample_count=200_000, bins=256,
                                       seed=2, method=lf.COAREA,
                                       fiber_nodes=512)
    assert rep.passed, (rep.discrepancy, rep.tolerance)


def test_reduction_identity_radial_pair():
    hump = lf.RadialFunction(lambda rho: 1.0 - rho)
    form = lf.SynchronizedForm(
        phase_in=lf.radial_quadratic_phase(BALL2),
        phase_out=lf.radial_quadratic_phase(BALL2),
        kernel=lf.hilbert_kernel(),
        f=hump, g=lf.RadialFunction(lambda rho: np.ones_like(rho)), eps=0.25)
    rep = lf.verify_reduction_identity(form, sample_count=200_000, bins=256,
                                       seed=1)
    assert rep.passed, (rep.discrepancy, rep.tolerance)


def test_lhs_respects_gap_mask():
    # kernel constant 1: lhs counts pairs with level gap > eps
    const_kernel = lf.Kernel1D(
        evaluate=lambda s, t: np.ones_like(s), size_constant=1.0,
        dini_modulus=lambda u: np.zeros_like(u))
    phase = lf.linear_phase(BALL2)
    form = lf.SynchronizedForm(phase_in=phase, phase_out=phase,
                               kernel=const_kernel,
                               f=lambda p: np.ones(len(p)),
                               g=lambda p: np.ones(len(p)), eps=1.9)
    est = lf.lhs_direct(form, sample_count=50_000, seed=0)
    # gap > 1.9 on [-1,1]^2 levels is nearly impossible: tiny corner mass
    assert abs(est.value) < 0.05
    wide = lf.SynchronizedForm(phase_in=phase, phase_out=phase,
                               kernel=const_kernel,
                               f=lambda p: np.ones(len(p)),
                               g=lambda p: np.ones(len(p)), eps=1e-6)
    est2 = lf.lhs_direct(wide, sample_count=50_000, seed=0)
    # with no gap the pairing is volume^2 = pi^2
    assert est2.value == pytest.approx(math.pi ** 2, rel=5e-3)


def test_form_equality_sees_the_weights():
    phase = lf.linear_phase(BALL2)
    one = lambda p: np.ones(len(p))  # noqa: E731
    common = dict(phase_in=phase, phase_out=phase, kernel=lf.hilbert_kernel())
    assert lf.SynchronizedForm(**common, f=one, g=one) == lf.SynchronizedForm(**common, f=one, g=one)
    assert lf.SynchronizedForm(**common, f=one, g=one) != lf.SynchronizedForm(
        **common, f=lambda p: -np.ones(len(p)), g=one)
    assert lf.SynchronizedForm(**common, f=one, g=one) != lf.SynchronizedForm(
        **common, f=one, g=lambda p: -np.ones(len(p)))


def test_lhs_rejects_empty_sample():
    form = lf.SynchronizedForm(phase_in=lf.linear_phase(BALL2),
                               phase_out=lf.linear_phase(BALL2),
                               kernel=lf.hilbert_kernel(),
                               f=lambda p: p[:, 0], g=lambda p: p[:, 0])
    with pytest.raises(lf.ConfigError):
        lf.lhs_direct(form, sample_count=0)


@pytest.mark.parametrize("side", ["phase_in", "phase_out"])
def test_lhs_refuses_nan_phase_values(side):
    # NaN levels fail the gap mask and would drop out as zero terms
    form = lf.SynchronizedForm(phase_in=lf.linear_phase(BALL2),
                               phase_out=lf.linear_phase(BALL2),
                               kernel=lf.hilbert_kernel(), f=first_axis, g=first_axis)
    form = replace(form, **{side: lf.custom_phase(BALL2, nan_everywhere)})
    with pytest.raises(lf.ConfigError, match="phase values must be finite"):
        lf.lhs_direct(form, sample_count=64)


@pytest.mark.parametrize("count", [0, -1])
def test_function_norm_rejects_empty_sample(count):
    with pytest.raises(lf.ConfigError):
        lf.function_norm(BALL2, lambda p: p[:, 0], 2.0, sample_count=count)


def first_axis(p):
    return p[:, 0]


def nan_everywhere(x):
    return np.full(len(x), math.nan)


def nan_written(seed=0):
    """A grid function with a NaN written into its values after construction.

    The values are read-only, so the write itself raises ValueError; a copy
    that takes the NaN is refused (ConfigError) when a grid function is built
    from it, so no reader sees a NaN."""
    F = lf.bump_mixture(0.0, 1.0, 64, seed)
    with pytest.raises(ValueError, match="read-only"):
        F.values[3] = math.nan
    values = F.values.copy()
    values[3] = math.nan
    return lf.GridFunction1D(F.a, F.b, values)


def sparse_family_64():
    return lf.build_sparse_greedy(lf.bump_mixture(0.0, 1.0, 64, 0),
                                  lf.bump_mixture(0.0, 1.0, 64, 1), max_depth=3)


def tampered_family(**fields):
    """The JSON form of a small sparse family with `fields` replaced."""
    return {**lf.family_to_json_dict(lf.build_sparse_greedy(
        lf.bump_mixture(0.0, 1.0, 8, 0), lf.bump_mixture(0.0, 1.0, 8, 1), max_depth=3)),
        **fields}


def on_custom_phase(route, fn):
    """Read the custom phase of `fn` on the unit disc through `route`:
    eval_phase at three points, a Monte Carlo histogram or lhs_direct."""
    phase = lf.custom_phase(BALL2, fn)
    if route == "eval_phase":
        return lf.eval_phase(phase, np.full((3, 2), 0.1))
    if route == "monte_carlo":
        return lf.density_on_grid(phase, lf.LevelGrid(-1.0, 1.0, 4), lf.MONTE_CARLO,
                                  sample_count=100)
    return lf.lhs_direct(lf.SynchronizedForm(phase, lf.linear_phase(BALL2), lf.hilbert_kernel(),
                                             first_axis, first_axis), sample_count=64)


def plus_i(p):
    return p[:, 0] + 1j


# three levels inside the image of every phase the misuse rows use
THREE_LEVELS = np.array([0.2, 0.4, 0.6])
# a cutoff must give one value per distance; one number would broadcast
ONE_VALUE_CUTOFF = lf.Cutoff(fn=lambda r: 0.5)
NO_MODULUS = lf.Kernel1D(evaluate=lf.hilbert_kernel().evaluate)
MISUSE = {
    "function_norm r=0": lambda: lf.function_norm(BALL2, first_axis, 0.0),
    "function_norm r=nan": lambda: lf.function_norm(BALL2, first_axis, math.nan),
    "fiber_norm r=inf": lambda: lf.fiber_norm(lf.linear_phase(BALL2), None, math.inf, 0.1),
    "uniform_bound_check r=inf": lambda: lf.uniform_bound_check(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2), lf.hilbert_kernel(),
        first_axis, first_axis, math.inf, [0.1]),
    "integrability_scan beta=nan": lambda: lf.integrability_scan(math.nan, 1.0),
    "integrability_scan a beta=inf": lambda: lf.integrability_scan(10.0, 1e308),
    "LevelGrid bins=2.5": lambda: lf.LevelGrid(0.0, 1.0, 2.5),
    "closed form t=nan": lambda: lf.weighted_density_closed_form(
        lf.linear_phase(BALL2), None, math.nan),
    "oscillatory_phase a=nan": lambda: lf.oscillatory_phase(BALL2, math.nan, 1.0),
    "ball radius=inf": lambda: lf.ball(2, math.inf),
    "box bound=inf": lambda: lf.box([(0.0, math.inf), (0.0, 1.0)]),
    "pullback_norm r=inf": lambda: lf.pullback_norm(
        lf.radial_quadratic_phase(BALL2), None, math.inf),
    "pullback_norm delta=inf": lambda: lf.pullback_norm(
        lf.radial_quadratic_phase(BALL2), None, 2.0, delta=math.inf),
    "radial_power_phase gamma=inf": lambda: lf.radial_power_phase(BALL2, math.inf),
    "density_on_grid sample_count=2.5": lambda: lf.density_on_grid(
        lf.linear_phase(BALL2), lf.LevelGrid(-1.0, 1.0, 4), lf.MONTE_CARLO, sample_count=2.5),
    "lhs_direct sample_count=2.5": lambda: lf.lhs_direct(lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2), lf.hilbert_kernel(),
        first_axis, first_axis), sample_count=2.5),
    "coarea fiber_nodes=2.5": lambda: lf.weighted_density_coarea(
        lf.linear_phase(BALL2), None, 0.1, fiber_nodes=2.5),
    "density_on_grid subdivide=2.5": lambda: lf.density_on_grid(
        lf.linear_phase(BALL2), lf.LevelGrid(-1.0, 1.0, 4), lf.CLOSED_FORM, subdivide=2.5),
    "coarea LevelFunction axis=5": lambda: lf.weighted_density_coarea(
        lf.linear_phase(BALL2), lf.LevelFunction(np.cos, axis=5), 0.1),
    "monte_carlo LevelFunction axis=5": lambda: lf.density_on_grid(
        lf.linear_phase(BALL2), lf.LevelGrid(-1.0, 1.0, 4), lf.MONTE_CARLO,
        sample_count=100, h=lf.LevelFunction(np.cos, axis=5)),
    "weighted_density monte_carlo with levels": lambda: lf.weighted_density(
        lf.linear_phase(BALL2), None, 0.1, lf.MONTE_CARLO, grid=lf.LevelGrid(-1.0, 1.0, 4),
        sample_count=100),
    "weighted_density closed_form with a grid": lambda: lf.weighted_density(
        lf.linear_phase(BALL2), None, 0.1, lf.CLOSED_FORM, grid=lf.LevelGrid(-1.0, 1.0, 4)),
    "weighted_density coarea with a grid": lambda: lf.weighted_density(
        lf.linear_phase(BALL2), None, 0.1, lf.COAREA, grid=lf.LevelGrid(-1.0, 1.0, 4)),
    "verify_reduction_identity eps=2": lambda: lf.verify_reduction_identity(
        lf.SynchronizedForm(lf.linear_phase(BALL2), lf.linear_phase(BALL2),
                            lf.hilbert_kernel(), first_axis, first_axis, eps=2.0)),
    "hl_maximal inf entry": lambda: lf.hl_maximal(
        lf.GridFunction1D(0.0, 1.0, [1.0, math.inf, 2.0])),
    "hl_maximal nan entry": lambda: lf.hl_maximal(
        lf.GridFunction1D(0.0, 1.0, [1.0, math.nan, 2.0])),
    "hl_maximal overflowing sum": lambda: lf.hl_maximal(
        lf.GridFunction1D(0.0, 1.0, [1e308, 1e308, 1e308])),
    "ball n=2.5": lambda: lf.ball(2.5),
    "linear_phase axis=1.5": lambda: lf.linear_phase(BALL2, axis=1.5),
    "LevelFunction axis=0.5": lambda: lf.LevelFunction(np.cos, axis=0.5)(np.zeros((1, 2))),
    "bump_mixture m=2.5": lambda: lf.bump_mixture(0.0, 1.0, 2.5, 0),
    "build_sparse_greedy max_depth=2.5": lambda: lf.build_sparse_greedy(
        lf.bump_mixture(0.0, 1.0, 8, 0), lf.bump_mixture(0.0, 1.0, 8, 1), max_depth=2.5),
    "sample_domain count=2.5": lambda: lf.sample_domain(BALL2, 2.5, 0),
    "derived_rng seed=1.5": lambda: lf.derived_rng(1.5, 0),
    "DyadicInterval generation=1.5": lambda: lf.DyadicInterval(1.5, 0),
    "check_gamma_profile sample_count=2.5": lambda: lf.check_gamma_profile(
        lf.radial_quadratic_phase(BALL2), lf.GammaProfile(lambda t: t, 0.0, 1.0),
        sample_count=2.5),
    "boundary_transversality samples=2.5": lambda: lf.boundary_transversality(
        lf.saddle_phase(BALL2), 0.0, samples=2.5),
    "LevelFunction axis=-2": lambda: lf.LevelFunction(np.cos, axis=-2),
    "eps_ladder k_min=2.5": lambda: lf.eps_ladder(2.5, 4),
    "design_reparametrization s_range to inf": lambda: lf.design_reparametrization(
        lf.GammaProfile(lambda t: t, 0.5, 10.0), lambda s: 1.0, 1.0, (0.0, math.inf)),
    "bump_mixture a=nan": lambda: lf.bump_mixture(math.nan, 1.0, 8, 0),
    "GridFunction1D a=-inf": lambda: lf.GridFunction1D(-math.inf, 1.0, np.ones(4)),
    "hard_truncation nan eval point": lambda: lf.hard_truncation(
        lf.hilbert_kernel(), lf.GridFunction1D(0.0, 1.0, np.ones(64)), 0.1,
        eval_points=[math.nan]),
    "truncation_batch unknown mode": lambda: lf.truncation_batch(
        lf.hilbert_kernel(), [lf.GridFunction1D(0.0, 1.0, np.ones(64))], 0.1,
        jobs=[("bogus", None)]),
    "family_from_json_dict lam=nan": lambda: lf.family_from_json_dict(
        tampered_family(lam="nan")),
    "family_from_json_dict cells=64.9": lambda: lf.family_from_json_dict(
        tampered_family(cells=64.9)),
    "family_from_json_dict cells='64'": lambda: lf.family_from_json_dict(
        tampered_family(cells="64")),
    "family_from_json_dict max_depth=3.7": lambda: lf.family_from_json_dict(
        tampered_family(max_depth=3.7)),
    "family_from_json_dict depth_exhausted='no'": lambda: lf.family_from_json_dict(
        tampered_family(depth_exhausted="no")),
    "family_from_json_dict lam='4'": lambda: lf.family_from_json_dict(
        tampered_family(lam="4")),
    "family_from_json_dict root=['0', 1]": lambda: lf.family_from_json_dict(
        tampered_family(root=["0", 1])),
    "ball radius=None": lambda: lf.ball(2, None),
    "ball radius='1'": lambda: lf.ball(2, "1"),
    "box bound=None": lambda: lf.box([(0.0, None), (0.0, 1.0)]),
    "design_reparametrization h0=None": lambda: lf.design_reparametrization(
        lf.GammaProfile(lambda t: t, 0.5, 10.0), lambda s: 1.0, None, (0.0, 1.0)),
    "design_reparametrization s_range from None": lambda: lf.design_reparametrization(
        lf.GammaProfile(lambda t: t, 0.5, 10.0), lambda s: 1.0, 1.0, (None, 1.0)),
    "GammaProfile lo=None": lambda: lf.GammaProfile(lambda t: t, None, 1.0),
    "boundary_transversality t=None": lambda: lf.boundary_transversality(
        lf.saddle_phase(BALL2), None),
    "coarea level='a'": lambda: lf.weighted_density_coarea(lf.linear_phase(BALL2), None, "a"),
    "GridFunction1D.norm r=0": lambda: lf.GridFunction1D(0.0, 1.0, np.ones(4)).norm(0),
    "GridFunction1D.norm r=nan": lambda: lf.GridFunction1D(0.0, 1.0, np.ones(4)).norm(math.nan),
    "GridFunction1D.norm r=None": lambda: lf.GridFunction1D(0.0, 1.0, np.ones(4)).norm(None),
    "smoothed_dini_constant eps=0": lambda: lf.smoothed_dini_constant(
        lf.hilbert_kernel(), lf.smoothstep_cutoff(), [0.0]),
    "smoothed_dini_constant eps=-1": lambda: lf.smoothed_dini_constant(
        lf.hilbert_kernel(), lf.smoothstep_cutoff(), [-1.0]),
    "smoothed_dini_constant eps=nan": lambda: lf.smoothed_dini_constant(
        lf.hilbert_kernel(), lf.smoothstep_cutoff(), [math.nan]),
    "smoothed_dini_constant no radius": lambda: lf.smoothed_dini_constant(
        lf.hilbert_kernel(), lf.smoothstep_cutoff(), []),
    "uniform_bound_check no radius": lambda: lf.uniform_bound_check(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2), lf.hilbert_kernel(),
        first_axis, first_axis, 2.0, []),
    "ReparamTable infinite knot": lambda: lf.ReparamTable([0.0, 1.0, math.inf], [0.0, 1.0, 2.0]),
    "family_from_json_dict root=[nan, 1]": lambda: lf.family_from_json_dict(
        tampered_family(root=["nan", 1])),
    "family_from_json_dict root=[1, 0]": lambda: lf.family_from_json_dict(
        tampered_family(root=[1, 0])),
    "GammaProfile NaN profile": lambda: lf.GammaProfile(lambda t: np.full_like(t, math.nan),
                                                        0.0, 1.0),
    "build_sparse_greedy nan value": lambda: lf.build_sparse_greedy(
        lf.GridFunction1D(0.0, 1.0, [1.0, math.nan]), lf.GridFunction1D(0.0, 1.0, [1.0, 1.0]),
        max_depth=1),
    "domination_ratio lhs=nan": lambda: lf.domination_ratio(
        math.nan, lf.build_sparse_greedy(lf.bump_mixture(0.0, 1.0, 8, 0),
                                         lf.bump_mixture(0.0, 1.0, 8, 1), max_depth=3),
        lf.bump_mixture(0.0, 1.0, 8, 0), lf.bump_mixture(0.0, 1.0, 8, 1)),
    "domination_ratio lhs=None": lambda: lf.domination_ratio(
        None, lf.build_sparse_greedy(lf.bump_mixture(0.0, 1.0, 8, 0),
                                     lf.bump_mixture(0.0, 1.0, 8, 1), max_depth=3),
        lf.bump_mixture(0.0, 1.0, 8, 0), lf.bump_mixture(0.0, 1.0, 8, 1)),
    "function_norm NaN integrand": lambda: lf.function_norm(
        BALL2, nan_everywhere, 2.0, sample_count=64),
    "lhs_direct NaN f": lambda: lf.lhs_direct(lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2), lf.hilbert_kernel(),
        nan_everywhere, first_axis), sample_count=64),
    "lhs_direct f of one value": lambda: lf.lhs_direct(lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2), lf.hilbert_kernel(),
        lambda p: 1.0, first_axis), sample_count=64),
    "lhs_direct f of shape (k, 1)": lambda: lf.lhs_direct(lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2), lf.hilbert_kernel(),
        lambda p: p[:, :1], first_axis), sample_count=64),
    "lhs_direct f one value short": lambda: lf.lhs_direct(lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2), lf.hilbert_kernel(),
        lambda p: p[1:, 0], first_axis), sample_count=64),
    "lhs_direct g of one value": lambda: lf.lhs_direct(lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2), lf.hilbert_kernel(),
        first_axis, lambda p: 1.0), sample_count=64),
    "lhs_direct g of shape (k, 1)": lambda: lf.lhs_direct(lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2), lf.hilbert_kernel(),
        first_axis, lambda p: p[:, 1:]), sample_count=64),
    "lhs_direct kernel of one value": lambda: lf.lhs_direct(lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2),
        lf.Kernel1D(evaluate=lambda s, t: 1.0), first_axis, first_axis), sample_count=64),
    "lhs_direct kernel of shape (k, 1)": lambda: lf.lhs_direct(lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2),
        lf.Kernel1D(evaluate=lambda s, t: (s - t)[:, None]), first_axis, first_axis),
        sample_count=64),
    "coarea weight of one value": lambda: lf.weighted_density_coarea(
        lf.linear_phase(BALL2), lambda p: 1.0, 0.1),
    "coarea weight of shape (k, 1)": lambda: lf.weighted_density_coarea(
        lf.linear_phase(BALL2), lambda p: p[:, :1], 0.1),
    "coarea weight one value short": lambda: lf.weighted_density_coarea(
        lf.linear_phase(BALL2), lambda p: p[1:, 0], 0.1),
    "coarea weight of shape (k, 1) on circles": lambda: lf.weighted_density_coarea(
        lf.radial_quadratic_phase(BALL2), lambda p: p[:, :1], 0.5),
    "monte_carlo NaN weight": lambda: lf.density_on_grid(
        lf.linear_phase(BALL2), lf.LevelGrid(-1.0, 1.0, 4), lf.MONTE_CARLO,
        sample_count=100, h=nan_everywhere),
    "monte_carlo weight of one value": lambda: lf.density_on_grid(
        lf.linear_phase(BALL2), lf.LevelGrid(-1.0, 1.0, 4), lf.MONTE_CARLO,
        sample_count=100, h=lambda p: 1.0),
    "monte_carlo weight of one value per coordinate": lambda: lf.density_on_grid(
        lf.linear_phase(BALL2), lf.LevelGrid(-1.0, 1.0, 4), lf.MONTE_CARLO,
        sample_count=100, h=lambda p: p),
    "monte_carlo NaN phase": lambda: lf.density_on_grid(
        lf.custom_phase(BALL2, nan_everywhere), lf.LevelGrid(-1.0, 1.0, 4), lf.MONTE_CARLO,
        sample_count=100),
    "coarea NaN LevelFunction profile": lambda: lf.weighted_density_coarea(
        lf.linear_phase(BALL2), lf.LevelFunction(nan_everywhere), 0.1),
    "coarea NaN weight": lambda: lf.weighted_density_coarea(
        lf.linear_phase(BALL2), nan_everywhere, 0.1),
    "closed form NaN RadialFunction profile": lambda: lf.weighted_density_closed_form(
        lf.radial_quadratic_phase(BALL2), lf.RadialFunction(nan_everywhere), 0.5),
    "closed form RadialFunction profile of shape (k, 1)": lambda: lf.weighted_density_closed_form(
        lf.radial_quadratic_phase(BALL2), lf.RadialFunction(lambda r: r[:, None]), THREE_LEVELS),
    "closed form LevelFunction profile of shape (k, 1)": lambda: lf.weighted_density_closed_form(
        lf.linear_phase(BALL2), lf.LevelFunction(lambda t: t[:, None]), THREE_LEVELS),
    "coarea LevelFunction profile of one value": lambda: lf.weighted_density_coarea(
        lf.linear_phase(BALL2), lf.LevelFunction(lambda t: 1.0), THREE_LEVELS),
    "coarea RadialFunction profile of shape (k, 1) on spheres": lambda: lf.weighted_density_coarea(
        lf.radial_quadratic_phase(lf.ball(3)), lf.RadialFunction(lambda r: r[:, None]),
        THREE_LEVELS),
    "GridFunction1D.norm nan written after construction": lambda: nan_written().norm(),
    "sparse_form nan written into F": lambda: lf.sparse_form(
        sparse_family_64(), nan_written(0), lf.bump_mixture(0.0, 1.0, 64, 1)),
    "sparse_form nan written into G": lambda: lf.sparse_form(
        sparse_family_64(), lf.bump_mixture(0.0, 1.0, 64, 0), nan_written(1)),
    "function_norm f one value short": lambda: lf.function_norm(
        BALL2, lambda p: p[1:, 0], 2.0, sample_count=64),
    "function_norm f of one value": lambda: lf.function_norm(
        BALL2, lambda p: 1.0, 2.0, sample_count=64),
    "function_norm f of shape (k, 1)": lambda: lf.function_norm(
        BALL2, lambda p: p[:, :1], 2.0, sample_count=64),
    "lhs_direct NaN kernel": lambda: lf.lhs_direct(lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2),
        lf.Kernel1D(evaluate=lambda s, t: np.full_like(s, math.nan)), first_axis, first_axis),
        sample_count=64),
    "lhs_direct complex kernel": lambda: lf.lhs_direct(lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2),
        lf.Kernel1D(evaluate=lambda s, t: (1 + 1j) / (s - t)), first_axis, first_axis),
        sample_count=64),
    "lhs_direct complex f": lambda: lf.lhs_direct(lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2), lf.hilbert_kernel(),
        plus_i, first_axis), sample_count=64),
    "eval_phase custom phase of one value": lambda: on_custom_phase("eval_phase", lambda x: 0.5),
    "eval_phase custom phase one value short": lambda: on_custom_phase(
        "eval_phase", lambda x: x[1:, 0]),
    "eval_phase complex custom phase": lambda: on_custom_phase("eval_phase", plus_i),
    "eval_phase NaN custom phase": lambda: on_custom_phase("eval_phase", nan_everywhere),
    "monte_carlo custom phase of one value": lambda: on_custom_phase(
        "monte_carlo", lambda x: 0.5),
    "monte_carlo custom phase one value short": lambda: on_custom_phase(
        "monte_carlo", lambda x: x[1:, 0]),
    "monte_carlo complex custom phase": lambda: on_custom_phase("monte_carlo", plus_i),
    "lhs_direct custom phase of one value": lambda: on_custom_phase("lhs_direct", lambda x: 0.5),
    "lhs_direct custom phase one value short": lambda: on_custom_phase(
        "lhs_direct", lambda x: x[1:, 0]),
    "lhs_direct complex custom phase": lambda: on_custom_phase("lhs_direct", plus_i),
    "monte_carlo complex weight": lambda: lf.density_on_grid(
        lf.linear_phase(BALL2), lf.LevelGrid(-1.0, 1.0, 4), lf.MONTE_CARLO,
        sample_count=100, h=plus_i),
    "coarea complex weight": lambda: lf.weighted_density_coarea(
        lf.linear_phase(BALL2), plus_i, 0.1),
    "monte_carlo string-valued weight": lambda: lf.density_on_grid(
        lf.linear_phase(BALL2), lf.LevelGrid(-1.0, 1.0, 4), lf.MONTE_CARLO,
        sample_count=100, h=lambda p: np.full(len(p), "0.5")),
    "fiber_norm complex f": lambda: lf.fiber_norm(
        lf.linear_phase(BALL2), lambda p: 1j * p[:, 0], 2.0, 0.1),
    "eval_phase complex point": lambda: lf.eval_phase(lf.linear_phase(BALL2), [0.1 + 1j, 0.2]),
    "hard_truncation complex eval point": lambda: lf.hard_truncation(
        lf.hilbert_kernel(), lf.GridFunction1D(0.0, 1.0, np.ones(64)), 0.1,
        eval_points=[0.5 + 1j]),
    "ReparamTable complex entry": lambda: lf.ReparamTable([0.0, 1.0, 2.0], [0.0, 1.0, 2.0 + 1j]),
    "ball n=345, whose volume overflows": lambda: lf.ball(345),
    "ball radius=1e200, whose volume overflows": lambda: lf.ball(2, 1e200),
    "box of sides 2e300, whose volume overflows": lambda: lf.box([(-1e300, 1e300)] * 2),
    "radial_power_phase gamma=2000 on radius 2": lambda: lf.radial_power_phase(
        lf.ball(2, 2.0), 2000),
    "saddle_phase on radius 1e200": lambda: lf.saddle_phase(lf.ball(2, 1e200)),
    "oscillatory_phase image past the float range": lambda: lf.oscillatory_phase(
        lf.box([(0.0, 1e308), (0.0, 1.0)]), 1e308, 1.0),
    "lhs_direct on two domains whose volumes multiply past the float range": lambda: lf.lhs_direct(
        lf.SynchronizedForm(lf.linear_phase(lf.ball(2, 1e100)), lf.linear_phase(lf.ball(2, 1e100)),
                            lf.hilbert_kernel(), first_axis, first_axis), sample_count=64),
    "smooth_truncation cutoff of one value": lambda: lf.smooth_truncation(
        lf.hilbert_kernel(), ONE_VALUE_CUTOFF, lf.GridFunction1D(0.0, 1.0, np.ones(64)), 0.1),
    "residual_truncation cutoff of one value": lambda: lf.residual_truncation(
        lf.hilbert_kernel(), ONE_VALUE_CUTOFF, lf.GridFunction1D(0.0, 1.0, np.ones(64)), 0.1),
    "off-grid truncation batch cutoff of one value": lambda: _apply_batch(
        lf.hilbert_kernel(), lf.GridFunction1D(0.0, 1.0, np.ones(64)), np.ones((64, 1)), 0.1,
        [(lf.SMOOTH, ONE_VALUE_CUTOFF)], eval_points=[0.25, 0.5]),
    "contains complex point list": lambda: BALL2.contains([[0.1 + 5j, 0.0]]),
    "contains complex point array": lambda: BALL2.contains(np.array([[0.1 + 5j, 0.0]])),
    "contains boolean point array": lambda: BALL2.contains(np.array([[True, False]])),
    "contains object point array": lambda: BALL2.contains(np.array([[0.1, None]], dtype=object)),
    "contains string points": lambda: lf.box([(0.0, 1.0)] * 2).contains([["0.5", "0.5"]]),
    "contains one coordinate on a 2-ball": lambda: BALL2.contains([0.1]),
    "contains a row of one on a 2-box": lambda: lf.box([(0.0, 1.0)] * 2).contains([[0.1]]),
    "contains a row of three on a 2-ball": lambda: BALL2.contains([[0.1, 0.2, 5.0]]),
    "contains a ragged list": lambda: BALL2.contains([[0.1, 0.2], [0.3]]),
    "contains a 3-d array": lambda: BALL2.contains(np.zeros((2, 1, 2))),
    "radial-quadratic Phase with gamma 3": lambda: lf.Phase(
        kind="radial-quadratic", domain=BALL2, gamma=3.0),
    "radial-quadratic phase replaced to gamma 1.5": lambda: replace(
        lf.radial_quadratic_phase(BALL2), gamma=1.5),
    # a Phase or Domain built directly keeps the catalog's rules
    "radial-power Phase with gamma -1": lambda: lf.Phase("radial-power", BALL2, gamma=-1.0),
    "radial-power Phase with gamma 0.5": lambda: lf.Phase("radial-power", BALL2, gamma=0.5),
    "radial-power Phase on a box": lambda: lf.Phase("radial-power", BOX2, gamma=4.0),
    "radial-quadratic Phase on a box": lambda: lf.Phase("radial-quadratic", BOX2),
    "saddle Phase on ball(3)": lambda: lf.Phase("saddle", lf.ball(3)),
    "saddle Phase on a box": lambda: lf.Phase("saddle", BOX2),
    "linear Phase with axis 5": lambda: lf.Phase("linear", BALL2, axis=5),
    "oscillatory Phase on ball(1)": lambda: lf.Phase("oscillatory", lf.ball(1), amplitude=0.5),
    "custom Phase with no fn": lambda: lf.Phase("custom", BALL2),
    "boundary-reparam Phase with no profile": lambda: lf.Phase("boundary-reparam", BALL2),
    "ball Domain with bounds": lambda: lf.Domain(2, "ball", bounds=((0.0, 1.0), (0.0, 1.0))),
    "box Domain with radius 2": lambda: lf.Domain(2, "box", radius=2.0,
                                                  bounds=((0.0, 1.0), (0.0, 1.0))),
    # each slot that takes a function refuses what cannot be called
    "Kernel1D evaluate=5": lambda: lf.Kernel1D(evaluate=5),
    "Kernel1D dini_modulus=5": lambda: lf.Kernel1D(evaluate=first_axis, dini_modulus=5),
    "Cutoff fn=5": lambda: lf.Cutoff(fn=5),
    "RadialFunction profile=5": lambda: lf.RadialFunction(5),
    "LevelFunction profile=5": lambda: lf.LevelFunction(5),
    "GammaProfile fn=5": lambda: lf.GammaProfile(5, 0.0, 1.0),
    "SynchronizedForm f=5": lambda: lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2), lf.hilbert_kernel(), 5, first_axis),
    "SynchronizedForm g=5": lambda: lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2), lf.hilbert_kernel(), first_axis, 5),
    "weighted_density weight=5": lambda: lf.weighted_density(lf.linear_phase(BALL2), 5, 0.1),
    "density_on_grid h=5": lambda: lf.density_on_grid(
        lf.linear_phase(BALL2), lf.LevelGrid(-1.0, 1.0, 4), h=5),
    "density_on_grid monte_carlo h=5": lambda: lf.density_on_grid(
        lf.linear_phase(BALL2), lf.LevelGrid(-1.0, 1.0, 4), lf.MONTE_CARLO,
        sample_count=100, h=5),
    "fiber_norm f=5": lambda: lf.fiber_norm(lf.linear_phase(BALL2), 5, 2.0, 0.1),
    "pullback_norm f=5": lambda: lf.pullback_norm(lf.radial_quadratic_phase(BALL2), 5, 2.0),
    "function_norm f=5": lambda: lf.function_norm(BALL2, 5, 2.0, sample_count=64),
    "custom_phase fn=5": lambda: lf.custom_phase(BALL2, 5),
    "design_reparametrization m=5": lambda: lf.design_reparametrization(
        lf.GammaProfile(lambda t: t, 0.5, 10.0), 5, 1.0, (0.0, 1.0)),
    # the Dini checks divide by the kernel's modulus
    "verify_hk_package kernel with no dini_modulus": lambda: lf.verify_hk_package(
        NO_MODULUS, lf.smoothstep_cutoff()),
    "smoothed_dini_constant kernel with no dini_modulus": lambda: lf.smoothed_dini_constant(
        NO_MODULUS, lf.smoothstep_cutoff(), [0.1]),
    # an object of the wrong type, refused where it is first read
    "check_gamma_profile profile=5": lambda: lf.check_gamma_profile(lf.linear_phase(BALL2), 5),
    "smooth_truncation cutoff=5": lambda: lf.smooth_truncation(
        lf.hilbert_kernel(), 5, lf.GridFunction1D(0.0, 1.0, np.ones(64)), 0.1),
    "hard_truncation kernel=5": lambda: lf.hard_truncation(
        5, lf.GridFunction1D(0.0, 1.0, np.ones(64)), 0.1),
    "lhs_direct form=5": lambda: lf.lhs_direct(5),
    "check_gamma_profile phase=5": lambda: lf.check_gamma_profile(
        5, lf.GammaProfile(lambda t: t, 0.0, 1.0)),
    "design_reparametrization profile=5": lambda: lf.design_reparametrization(
        5, lambda s: 1.0, 1.0, (0.0, 1.0)),
    "boundary_transversality phase=5": lambda: lf.boundary_transversality(5, 0.1),
    "smoothed_dini_constant cutoff=5": lambda: lf.smoothed_dini_constant(
        lf.hilbert_kernel(), 5, [0.1]),
    "hard_truncation F=5": lambda: lf.hard_truncation(lf.hilbert_kernel(), 5, 0.1),
    "smooth_truncation F=5": lambda: lf.smooth_truncation(
        lf.hilbert_kernel(), lf.smoothstep_cutoff(), 5, 0.1),
    "residual_truncation F=5": lambda: lf.residual_truncation(
        lf.hilbert_kernel(), lf.smoothstep_cutoff(), 5, 0.1),
    "truncation_batch functions=[F, 5]": lambda: lf.truncation_batch(
        lf.hilbert_kernel(), [lf.GridFunction1D(0.0, 1.0, np.ones(64)), 5], 0.1,
        [(lf.HARD, None)]),
    "hl_maximal F=5": lambda: lf.hl_maximal(5),
    "weighted_density phase=5": lambda: lf.weighted_density(5, None, 0.1),
    # a field of the wrong type, refused when the object is built
    "linear_phase domain=5": lambda: lf.linear_phase(5),
    "custom_phase domain=5": lambda: lf.custom_phase(5, first_axis),
    "SynchronizedForm phase_in=5": lambda: lf.SynchronizedForm(
        5, lf.linear_phase(BALL2), lf.hilbert_kernel(), first_axis, first_axis),
    "SynchronizedForm phase_out=5": lambda: lf.SynchronizedForm(
        lf.linear_phase(BALL2), 5, lf.hilbert_kernel(), first_axis, first_axis),
    "SynchronizedForm kernel=5": lambda: lf.SynchronizedForm(
        lf.linear_phase(BALL2), lf.linear_phase(BALL2), 5, first_axis, first_axis),
    # each value a checker reads from a caller's function passes the one guard
    "GammaProfile complex values": lambda: lf.GammaProfile(lambda t: t + 1j, 0.0, 1.0),
    "check_gamma_profile complex values off the probe": lambda: lf.check_gamma_profile(
        lf.radial_quadratic_phase(BALL2),
        lf.GammaProfile(lambda t: t if len(t) == 257 else t + 1j, 0.0, 1.0), sample_count=64),
    "check_gamma_profile Gamma of a column": lambda: lf.check_gamma_profile(
        lf.radial_quadratic_phase(BALL2),
        lf.GammaProfile(lambda t: 0.5 * np.asarray(t)[:, None], 0.0, 1.0), sample_count=64),
    "design_reparametrization complex m": lambda: lf.design_reparametrization(
        lf.GammaProfile(lambda t: t, 0.5, 10.0), lambda s: 1.0 + 1j, 1.0, (0.0, 1.0)),
    "design_reparametrization m of two values": lambda: lf.design_reparametrization(
        lf.GammaProfile(lambda t: t, 0.5, 10.0), lambda s: np.ones(2), 1.0, (0.0, 1.0)),
    "design_reparametrization complex profile on the solution": lambda: (
        lf.design_reparametrization(
            lf.GammaProfile(lambda t: t if np.ndim(t) else complex(t), 0.5, 10.0),
            lambda s: 1.0, 1.0, (0.0, 1.0))),
    # complex on sampled pairs; real where the truncation calls it, at t = 0.0
    "verify_hk_package complex kernel": lambda: lf.verify_hk_package(
        lf.Kernel1D(evaluate=lambda s, t: 1.0 / (s - t) + (1j if np.ndim(t) else 0),
                    dini_modulus=lf.hilbert_kernel().dini_modulus), lf.smoothstep_cutoff()),
    "verify_hk_package kernel one value short": lambda: lf.verify_hk_package(
        lf.Kernel1D(evaluate=lambda s, t: 1.0 / (s - t)[1:],
                    dini_modulus=lf.hilbert_kernel().dini_modulus), lf.smoothstep_cutoff()),
    "verify_hk_package NaN dini_modulus": lambda: lf.verify_hk_package(
        lf.Kernel1D(evaluate=lf.hilbert_kernel().evaluate, dini_modulus=nan_everywhere),
        lf.smoothstep_cutoff()),
    "smoothed_dini_constant complex kernel": lambda: lf.smoothed_dini_constant(
        lf.Kernel1D(evaluate=lambda s, t: (1 + 1j) / (s - t),
                    dini_modulus=lf.hilbert_kernel().dini_modulus),
        lf.smoothstep_cutoff(), [0.1]),
    "smoothed_dini_constant cutoff of one value": lambda: lf.smoothed_dini_constant(
        lf.hilbert_kernel(), ONE_VALUE_CUTOFF, [0.1]),
    # finite ends whose difference overflows to inf
    "LevelGrid of length inf": lambda: lf.LevelGrid(-1e308, 1e308, 4),
    "GridFunction1D of length inf": lambda: lf.GridFunction1D(-1e308, 1e308, np.ones(8)),
    "bump_mixture of length inf": lambda: lf.bump_mixture(-1e308, 1e308, 8, 0),
    "design_reparametrization s_range of length inf": lambda: lf.design_reparametrization(
        lf.GammaProfile(lambda t: t, 0.5, 10.0), lambda s: 1.0, 1.0, (-1e308, 1e308)),
}


@pytest.mark.parametrize("call", MISUSE.values(), ids=MISUSE.keys())
def test_misuse_fails_loudly(call):
    with pytest.raises(lf.ConfigError):
        call()


def test_form_rejects_nonpositive_eps():
    with pytest.raises(lf.ConfigError):
        lf.SynchronizedForm(phase_in=lf.linear_phase(BALL2),
                            phase_out=lf.linear_phase(BALL2),
                            kernel=lf.hilbert_kernel(),
                            f=lambda p: p[:, 0], g=lambda p: p[:, 0],
                            eps=0.0)


# ---------------------------------------------------------------------------
# critical exponent extraction
# ---------------------------------------------------------------------------

def fit(phase, t_lo=1e-3, t_hi=1e-1, bins=64, method=lf.CLOSED_FORM, **kwargs):
    return lf.estimate_beta(lf.density_on_grid(phase, lf.LevelGrid(t_lo, t_hi, bins), method,
                                               **kwargs))


def test_estimate_beta_radial_power_4():
    prof = fit(lf.radial_power_phase(BALL2, 4.0))
    assert prof.regime == lf.POWER_REGIME
    assert prof.beta == pytest.approx(0.5, abs=1e-9)
    assert prof.rel_rms_power < 1e-9


def test_estimate_beta_radial_power_8():
    prof = fit(lf.radial_power_phase(BALL2, 8.0))
    assert prof.beta == pytest.approx(0.75, abs=1e-9)


def test_estimate_beta_saddle_is_log():
    prof = fit(lf.saddle_phase(BALL2), t_lo=1e-6, t_hi=1e-3)
    assert prof.regime == lf.LOG_REGIME
    assert prof.beta == 0.0
    assert prof.log_coefficients[0] > 0
    assert prof.rel_rms_log < prof.rel_rms_power


def test_estimate_beta_bounded_density_flat():
    prof = fit(lf.radial_quadratic_phase(BALL2))
    assert prof.regime == lf.UNIFORM_REGIME
    assert abs(prof.beta) < 0.02


def test_estimate_beta_needs_a_decade():
    with pytest.raises(lf.InsufficientDecadesError):
        fit(lf.radial_power_phase(BALL2, 4.0), t_lo=0.02, t_hi=0.1)


def test_estimate_beta_needs_positive_levels():
    with pytest.raises(lf.ConfigError):
        fit(lf.radial_power_phase(BALL2, 4.0), t_lo=-0.1, t_hi=0.1)


def test_classify_regime():
    # estimate_beta decides the regime once: atomic, then log, then uniform
    # for beta under 0.05, else power
    cases = [(lf.radial_power_phase(BALL2, 4.0), 1e-3, 1e-1, lf.POWER_REGIME),
             (lf.radial_quadratic_phase(BALL2), 1e-3, 1e-1, lf.UNIFORM_REGIME),
             (lf.saddle_phase(BALL2), 1e-6, 1e-3, lf.LOG_REGIME)]
    for phase, lo, hi, regime in cases:
        est = lf.density_on_grid(phase, lf.LevelGrid(lo, hi, 64), lf.CLOSED_FORM)
        prof = lf.estimate_beta(est)
        assert prof.regime == regime
        # an atom flag on the estimate overrides every other verdict
        flagged = lf.estimate_beta(replace(est, atom_suspected=True))
        assert flagged.regime == lf.ATOMIC_REGIME
        assert replace(flagged, regime=prof.regime) == prof


def test_estimate_beta_flags_an_atom_inside_its_window():
    # max(x0, 0.05) sends about half the disk to the level 0.05
    phase = lf.custom_phase(BALL2, lambda p: np.maximum(p[:, 0], 0.05))
    prof = fit(phase, bins=2000, method=lf.MONTE_CARLO, sample_count=50_000)
    assert prof.regime == lf.ATOMIC_REGIME


# ---------------------------------------------------------------------------
# windows and endpoint scans
# ---------------------------------------------------------------------------

def test_critical_window_values():
    assert lf.critical_window(0.5, 0.5) == (1.5, 3.0)
    lo, hi = lf.critical_window(0.0, 0.0)
    assert lo == 1.0 and math.isinf(hi)
    assert lf.critical_window(0.75, 0.25) == (1.25, 1.0 + 1.0 / 0.75)
    with pytest.raises(lf.ConfigError):
        lf.critical_window(1.0, 0.5)
    with pytest.raises(lf.ConfigError):
        lf.critical_window(0.5, -0.1)


def test_integrability_scan_exact_ratios():
    scan = lf.integrability_scan(0.5, 1.0)
    want = 2.0 ** (0.5 - 1.0)
    assert all(r == pytest.approx(want, rel=1e-12) for r in scan.ratios)
    assert scan.converged


def test_integrability_scan_divergent():
    scan = lf.integrability_scan(0.5, 4.0)  # a beta = 2 > 1
    assert not scan.converged
    assert all(r == pytest.approx(2.0, rel=1e-12) for r in scan.ratios)


def test_integrability_scan_marginal_case():
    # a beta = 1: every shell contributes log 2, ratio 1, divergent
    scan = lf.integrability_scan(1.0, 1.0)
    assert all(inc == pytest.approx(math.log(2.0)) for inc in scan.increments)
    assert all(r == pytest.approx(1.0) for r in scan.ratios)
    assert not scan.converged


def test_integrability_scan_past_the_float_range_diverges():
    # a beta = 50 and 9e5: the shell powers 2^(k (a beta - 1)) pass 2^1024
    verdict = lf.window_verdict(0.5, 0.5, 1.01)
    assert verdict.verdict == "divergent"
    for scan in (verdict.scan_out, lf.integrability_scan(0.9, 1e6)):
        assert not scan.converged
        assert scan.increments[-1] == math.inf and scan.ratios[-1] == math.inf
        assert not any(math.isnan(r) for r in scan.ratios)


def test_integrability_scan_under_the_float_range_converges():
    # t^50 on the last shells is under the smallest float: increments of 0
    scan = lf.integrability_scan(-50.0, 1.0)
    assert scan.increments[-1] == 0.0 and scan.ratios[-1] == 0.0
    assert scan.converged


@given(beta=st.floats(0.05, 0.95), a=st.floats(0.1, 4.0))
@settings(max_examples=80, deadline=None)
def test_integrability_scan_matches_theory(beta, a):
    # detector resolution: stay off the hairline just below the endpoint
    assume(not 0.95 < a * beta < 1.05)
    scan = lf.integrability_scan(beta, a)
    assert scan.converged == (a * beta < 1.0)


def test_window_verdict_four_regimes():
    beta = 0.5
    inside = [1.6, 2.5]
    outside = [1.2, 3.5]
    for r in inside:
        v = lf.window_verdict(beta, beta, r)
        assert v.verdict == "convergent", r
        assert v.window == (1.5, 3.0)
    for r in outside:
        v = lf.window_verdict(beta, beta, r)
        assert v.verdict == "divergent", r
    with pytest.raises(lf.ConfigError):
        lf.window_verdict(beta, beta, 1.0)


@given(r=st.floats(1.05, 5.0), beta=st.floats(0.05, 0.95))
@settings(max_examples=80, deadline=None)
def test_window_verdict_agrees_with_window(r, beta):
    lo, hi = lf.critical_window(beta, beta)
    # keep clear of both endpoints and of the detector hairline
    assume(abs(r - lo) > 0.05 and abs(r - hi) > 0.05)
    assume(not 0.95 < (r - 1.0) * beta < 1.05)
    assume(not 0.95 < beta / (r - 1.0) < 1.05)
    v = lf.window_verdict(beta, beta, r)
    assert (v.verdict == "convergent") == (lo < r < hi)


# ---------------------------------------------------------------------------
# pullback norms near the critical level
# ---------------------------------------------------------------------------

def inverse_radius():
    return lf.RadialFunction(lambda rho: 1.0 / np.maximum(rho, 1e-300))


def test_pullback_norm_convergent_closed_form():
    # |x|^{-1} against the quartic radial phase: integrand (pi/2) t^(-1/2 - r/4)
    phase = lf.radial_power_phase(BALL2, 4.0)
    r = 1.4
    rep = lf.pullback_norm(phase, inverse_radius(), r, delta=0.01)
    expo = -0.5 - r / 4.0

    def mass(delta):
        return (math.pi / 2.0) * (1.0 - delta ** (expo + 1.0)) / (expo + 1.0)

    assert not rep.divergent
    assert rep.deltas == (0.01, 0.005, 0.0025)
    for got, d in zip(rep.masses, rep.deltas):
        assert got == pytest.approx(mass(d), rel=1e-6)
    # the reported norm uses the tightest core
    assert rep.value == pytest.approx(mass(0.0025) ** (1.0 / r), rel=1e-6)
    assert all(g < 0.25 for g in rep.growth)


def test_pullback_norm_divergent():
    phase = lf.radial_power_phase(BALL2, 4.0)
    rep = lf.pullback_norm(phase, inverse_radius(), 3.5, delta=0.01)
    assert rep.divergent
    assert all(g > 0.25 for g in rep.growth)
    assert rep.masses[-1] > rep.masses[0]


def test_pullback_norm_smooth_phase_has_no_critical_levels():
    rep = lf.pullback_norm(lf.linear_phase(BALL2),
                           lf.LevelFunction(lambda t: np.ones_like(t)), 2.0)
    assert not rep.divergent
    # norm of 1 in level space: (integral of w)^(1/2) = sqrt(pi)
    assert rep.value == pytest.approx(math.sqrt(math.pi), rel=1e-6)


# ---------------------------------------------------------------------------
# uniform regime
# ---------------------------------------------------------------------------

def test_uniform_guard_rejects_critical_phases():
    with pytest.raises(lf.PhaseNotUniformError):
        lf.uniform_bound_check(lf.saddle_phase(BALL2), lf.linear_phase(BALL2),
                               lf.hilbert_kernel(), lambda p: np.ones(len(p)),
                               lambda p: np.ones(len(p)), 2.0, [0.25])
    with pytest.raises(lf.PhaseNotUniformError):
        lf.uniform_bound_check(lf.radial_power_phase(BALL2, 4.0),
                               lf.linear_phase(BALL2),
                               lf.hilbert_kernel(), lambda p: np.ones(len(p)),
                               lambda p: np.ones(len(p)), 2.0, [0.25])


ONES = lambda p: np.ones(len(p))  # noqa: E731


@pytest.mark.parametrize("phase", [
    lf.oscillatory_phase(BALL2, 0.3, 5.0),    # no closed form
    lf.radial_power_phase(BALL2, 3.0),        # gamma > n
    lf.linear_phase(lf.box([(0.0, 1.0), (0.0, 2.0)])),  # no closed form on a box
    lf.custom_phase(BALL2, lambda p: p[:, 0]),
], ids=lambda p: f"{p.label}-{p.domain.shape}")
def test_uniform_guard_follows_the_closed_form(phase):
    for pair in ((phase, lf.linear_phase(BALL2)), (lf.linear_phase(BALL2), phase)):
        with pytest.raises(lf.PhaseNotUniformError):
            lf.uniform_bound_check(*pair, lf.hilbert_kernel(), ONES, ONES, 2.0, [0.25])


def test_uniform_guard_rejects_infinite_density_at_level_zero():
    ball1 = lf.ball(1)
    with pytest.raises(lf.PhaseNotUniformError):
        lf.uniform_bound_check(lf.linear_phase(ball1), lf.radial_quadratic_phase(ball1),
                               lf.hilbert_kernel(), lf.LevelFunction(np.ones_like),
                               lf.RadialFunction(np.ones_like), 2.0, [0.25, 0.125],
                               bins=64)


@pytest.mark.parametrize("phase", [
    lf.radial_power_phase(BALL2, 2.0),        # gamma = n: finite nonzero at 0
    lf.radial_power_phase(lf.ball(3), 2.0),   # gamma < n: vanishes at 0
    lf.radial_power_phase(lf.ball(1), 1.0),   # gamma = 1: no critical value
    lf.radial_quadratic_phase(BALL2),
], ids=lambda p: p.label)
def test_uniform_guard_accepts_bounded_closed_forms(phase):
    rep = lf.uniform_bound_check(phase, phase, lf.hilbert_kernel(),
                                 lf.RadialFunction(np.ones_like),
                                 lf.RadialFunction(np.ones_like), 2.0, [0.25],
                                 bins=32, fiber_nodes=64, subdivide=1)
    assert np.isfinite(rep.sup_in) and np.isfinite(rep.max_ratio)


def test_uniform_bound_check_reports_finite_ratios():
    rep = lf.uniform_bound_check(
        lf.linear_phase(BALL2), lf.radial_quadratic_phase(BALL2),
        lf.hilbert_kernel(),
        lf.random_smooth_function(BALL2, seed=0, tag=0),
        lf.random_smooth_function(BALL2, seed=0, tag=1),
        2.0, lf.eps_ladder(2, 5), bins=128, fiber_nodes=256)
    assert rep.budget_base > 0
    assert all(np.isfinite(rep.ratios))
    assert rep.max_ratio == max(rep.ratios)
    assert len(rep.pairings) == len(rep.eps_values) == 4


def test_uniform_bound_check_refuses_a_kernel_that_gives_nan():
    # the pairings and the maximal ratio read NaN
    def nan_past_0_3(s, t):
        u = np.asarray(s, dtype=float) - t
        return np.where(np.abs(u) > 0.3, np.nan, lf.hilbert_kernel().evaluate(s, t))

    with pytest.raises(lf.ConfigError, match="kernel values must be finite, got nan"):
        lf.uniform_bound_check(lf.linear_phase(BALL2), lf.linear_phase(BALL2),
                               lf.Kernel1D(evaluate=nan_past_0_3), ONES, ONES, 2.0, [0.25],
                               bins=32, fiber_nodes=64, subdivide=1)


def test_uniform_r_guard():
    with pytest.raises(lf.ConfigError):
        lf.uniform_bound_check(lf.linear_phase(BALL2), lf.linear_phase(BALL2),
                               lf.hilbert_kernel(), lambda p: np.ones(len(p)),
                               lambda p: np.ones(len(p)), 1.0, [0.25])


def test_function_norm_constant():
    f = lambda p: np.ones(len(p))
    for r in (1.5, 2.0, 3.0):
        got = lf.function_norm(BALL2, f, r)
        assert got == pytest.approx(math.pi ** (1.0 / r), rel=1e-9)


def test_density_supremum_linear():
    assert lf.density_supremum(lf.linear_phase(BALL2)) == pytest.approx(
        2.0, rel=1e-5)


def test_random_smooth_function_deterministic():
    f = lf.random_smooth_function(BALL2, seed=4, tag=2)
    g = lf.random_smooth_function(BALL2, seed=4, tag=2)
    h = lf.random_smooth_function(BALL2, seed=4, tag=3)
    pts = lf.sample_domain(BALL2, 64, seed=0)
    assert np.array_equal(f(pts), g(pts))
    assert not np.array_equal(f(pts), h(pts))


# ---------------------------------------------------------------------------
# frozen baselines
# ---------------------------------------------------------------------------

def test_baselines_are_not_shared_state():
    # every call reads a fresh table, so no caller can change another's baselines
    frozen = lf.baseline("uniform_budget_constant")
    lf.load_baselines()["uniform_budget_constant"] = 0.0
    assert lf.baseline("uniform_budget_constant") == frozen != 0.0
