"""Boundary roots by one array bisection, against the per-root loop.

The oracle below is the loop `geometry._circle_roots` replaced: it walks the
sampled angles one by one, keeps an angle where the phase equals the level,
and bisects each bracketing interval alone, 60 single-point evaluations a
root, with `math.cos` and `math.sin`. `boundary_transversality` then took
the gradient at those angles' points. The array form bisects every bracket
at once with the same expressions, so each root, and the transversality,
must keep its bits. Undefined gradients are NaN rows of
`geometry._grad_values`; `oracle_grad_values` is its earlier form, a
(gradients, undefined mask) pair, for the two radial kinds whose gradient
has an undefined point.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import levelform as lf
from levelform import geometry
from levelform.geometry import SINGULAR_RADIUS


def oracle_circle_roots(phase, t, R, samples):
    """The per-root `_circle_roots`."""
    angles = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    pts = np.stack([R * np.cos(angles), R * np.sin(angles)], axis=1)
    vals = geometry._eval_values(phase, pts) - t
    roots = []
    for i in range(samples):
        j = (i + 1) % samples
        a, b = vals[i], vals[j]
        if a == 0.0:
            roots.append(angles[i])
            continue
        if a * b < 0:
            lo_a, hi_a = angles[i], angles[i] + (2 * math.pi / samples)
            f_lo = a
            for _ in range(60):
                mid = 0.5 * (lo_a + hi_a)
                fm = geometry._eval_values(
                    phase, np.array([[R * math.cos(mid), R * math.sin(mid)]]))[0] - t
                if f_lo * fm <= 0:
                    hi_a = mid
                else:
                    lo_a, f_lo = mid, fm
            roots.append(0.5 * (lo_a + hi_a))
    return roots


def oracle_transversality(phase, t, samples):
    """`boundary_transversality` of a saddle or oscillatory phase through the
    per-root loop, or None where the level misses the circle."""
    R = phase.domain.radius
    roots = oracle_circle_roots(phase, t, R, samples)
    if not roots:
        return None
    pts = np.array([[R * math.cos(a), R * math.sin(a)] for a in roots])
    return geometry._min_tangential(phase, pts, R)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def assert_matches_oracle(phase, t, samples):
    R = phase.domain.radius
    roots = geometry._circle_roots(phase, t, R, samples)
    assert bits(roots) == bits(oracle_circle_roots(phase, t, R, samples))
    want = oracle_transversality(phase, t, samples)
    if want is None:
        with pytest.raises(lf.EmptyIntersectionError):
            lf.boundary_transversality(phase, t, samples)
    else:
        assert bits([lf.boundary_transversality(phase, t, samples)]) == bits([want])


RADII = [1.0, 1.7, 0.5, 3.0]
SAMPLES = [1, 2, 3, 8, 64, 360, 4096]


@given(R=st.sampled_from(RADII), samples=st.sampled_from(SAMPLES),
       u=st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None)
@example(R=1.0, samples=64, u=0.0)  # t = 0 at the sampled diagonal angles
@example(R=1.7, samples=4096, u=1.0)  # t = R^2 at angle 0
@example(R=1.7, samples=4096, u=-1.0)  # t = -R^2 at angle pi/2
@example(R=1.0, samples=8, u=-1.0)
def test_saddle_roots_match_the_per_root_loop(R, samples, u):
    phase = lf.saddle_phase(lf.ball(2, R))
    assert_matches_oracle(phase, u * R * R, samples)


@given(R=st.sampled_from(RADII), samples=st.sampled_from(SAMPLES),
       amplitude=st.sampled_from([0.0, 0.3, -0.8, 2.0]),
       frequency=st.sampled_from([1.0, 5.0, 17.0]), u=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
@example(R=1.0, samples=4096, amplitude=0.3, frequency=5.0, u=0.5)
@example(R=1.7, samples=64, amplitude=2.0, frequency=17.0, u=0.99)
def test_oscillatory_roots_match_the_per_root_loop(R, samples, amplitude, frequency, u):
    # levels across the whole image, whose ends lie off the circle
    phase = lf.oscillatory_phase(lf.ball(2, R), amplitude, frequency)
    lo, hi = lf.image_interval(phase)
    assert_matches_oracle(phase, lo + u * (hi - lo), samples)


def test_sampled_angle_hits_are_kept():
    # x^2 - y^2 on the unit circle equals 1 at angles 0 and pi, -1 at pi/2 and 3 pi/2
    phase = lf.saddle_phase(lf.ball(2))
    assert geometry._circle_roots(phase, 1.0, 1.0, 8).tolist() == [0.0, math.pi]
    assert geometry._circle_roots(phase, -1.0, 1.0, 8).tolist() == [math.pi / 2,
                                                                     3 * math.pi / 2]
    assert_matches_oracle(phase, 1.0, 8)
    assert_matches_oracle(phase, -1.0, 8)


def test_a_level_that_misses_the_circle_raises():
    # a + sin on the circle stays below the image end a + R
    phase = lf.oscillatory_phase(lf.ball(2), 0.3, 5.0)
    assert oracle_circle_roots(phase, 1.29, 1.0, 4096) == []
    assert_matches_oracle(phase, 1.29, 4096)


def oracle_grad_values(phase, pts):
    """The (gradients, undefined mask) pair of a radial-power or
    boundary-reparam phase, as `_grad_values` once returned it."""
    r = geometry._norms(pts)
    if phase.kind == geometry.RADIAL_POWER:
        small = r <= SINGULAR_RADIUS
        undefined = small if phase.gamma < 2 else np.zeros(len(pts), dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = phase.gamma * r ** (phase.gamma - 2)
        return np.where(small, 0.0, scale)[:, None] * pts, undefined
    undefined = r <= SINGULAR_RADIUS
    slope = phase.profile.derivative(phase.domain.radius - r)
    safe_r = np.where(undefined, 1.0, r)
    return (-slope / safe_r)[:, None] * pts, undefined


S = np.linspace(0.0, 1.0, 17)
RADIAL = [lf.radial_power_phase(lf.ball(2), 1.0), lf.radial_power_phase(lf.ball(2), 1.5),
          lf.radial_power_phase(lf.ball(3), 2.0), lf.radial_power_phase(lf.ball(2), 4.5),
          lf.boundary_reparam_phase(lf.ball(2), lf.ReparamTable(S, np.exp(S)))]


@pytest.mark.parametrize("phase", RADIAL, ids=lambda p: p.label)
def test_undefined_gradients_are_nan_rows(phase):
    pts = lf.sample_domain(phase.domain, 256, seed=2)
    pts[:5] = 0.0
    pts[3, 0] = SINGULAR_RADIUS
    pts[4, 0] = 2 * SINGULAR_RADIUS
    grads = geometry._grad_values(phase, pts)
    want, undefined = oracle_grad_values(phase, pts)
    assert np.isnan(grads).all(axis=1).tolist() == undefined.tolist()
    assert not np.isnan(grads[~undefined]).any()
    assert bits(grads[~undefined]) == bits(want[~undefined])
    assert bits(lf.grad_phase(phase, pts[~undefined])) == bits(want[~undefined])
    if undefined.any():
        with pytest.raises(lf.GradientUndefinedError, match=r"undefined at \[0\.0"):
            lf.grad_phase(phase, pts[0])
