"""`pushforward._radial_fibers`, one array call for all levels, against
`_radial_level`, the per-level form it replaced (`tests/radial_oracle.py`).

Both must give the same mask of non-empty fibers and the same radius and
slope bits at every level, compared as int64 views so that signed zeros
count, and the same `CriticalValueError` text, naming the first flat-slope
level in level order, on a table whose slope vanishes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelform as lf
from levelform import geometry
from levelform.pushforward import _radial_fibers
from radial_oracle import _radial_level


def _designed_table():
    profile = lf.GammaProfile(lambda t: t, 0.5, 10.0)
    return lf.design_reparametrization(profile, lambda s: 1.0, 1.0, (0.0, 1.0), step=1e-2)


PHASES = [lf.radial_quadratic_phase(lf.ball(2)), lf.radial_quadratic_phase(lf.ball(2, 1.7)),
          lf.radial_power_phase(lf.ball(2), 1.5), lf.radial_power_phase(lf.ball(2), 4.0),
          lf.radial_power_phase(lf.ball(2, 1.7), 8.0),
          lf.boundary_reparam_phase(lf.ball(2), _designed_table())]

# strictly increasing, but the first secant is under a third of the second, so
# Moler's end slope is zero: H'(0) = 0 at the level H(0) = 0, where r = R
FLAT = lf.boundary_reparam_phase(lf.ball(2), lf.ReparamTable([0.0, 0.5, 1.0], [0.0, 0.01, 1.0]))


def ends(phase):
    """The ends of the image and of a table's value range, the float on either
    side of each, and both zeros."""
    marks = [*geometry.image_interval(phase), 0.0, -0.0]
    if phase.profile is not None:
        marks += phase.profile.value_range
    return [x for m in marks for x in (math.nextafter(m, -math.inf), m,
                                       math.nextafter(m, math.inf))] + [-0.0]


def levels(phase):
    """Levels inside the image, outside both ends, at the ends and far off."""
    lo, hi = geometry.image_interval(phase)
    width = hi - lo
    return st.lists(st.one_of(st.floats(lo - width, hi + width),
                              st.sampled_from(ends(phase)),
                              st.floats(-1e300, 1e300)), max_size=60)


def oracle(phase, tt):
    fibers = [_radial_level(phase, t) for t in tt.tolist()]
    on = np.array([r is not None for r, _ in fibers], dtype=bool)
    r = np.array([r for r, _ in fibers if r is not None], dtype=float)
    slope = np.array([s for _, s in fibers if s is not None], dtype=float)
    return on, r, slope


def assert_same_fibers(phase, tt):
    got, want = _radial_fibers(phase, tt), oracle(phase, tt)
    assert np.array_equal(got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        assert g.dtype == w.dtype == np.float64
        assert np.array_equal(g.view(np.int64), w.view(np.int64)), (tt, g, w)


@pytest.mark.parametrize("phase", PHASES, ids=[p.label for p in PHASES])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_radial_fibers_match_the_per_level_oracle(phase, data):
    tt = np.array(data.draw(levels(phase)), dtype=float)
    assert_same_fibers(phase, tt)


@pytest.mark.parametrize("phase", PHASES, ids=[p.label for p in PHASES])
def test_radial_fibers_match_on_a_dense_sweep(phase):
    lo, hi = geometry.image_interval(phase)
    tt = np.concatenate([np.linspace(lo - 0.1, hi + 0.1, 20_000), ends(phase)])
    assert_same_fibers(phase, tt)


@given(tt=st.lists(st.one_of(st.floats(-0.5, 1.5), st.sampled_from(ends(FLAT))), max_size=20),
       at=st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_flat_slope_refusal_names_the_first_flat_level(tt, at):
    tt = np.array(tt[:at] + [0.0] + tt[at:])
    with pytest.raises(lf.CriticalValueError) as want:
        oracle(FLAT, tt)
    with pytest.raises(lf.CriticalValueError) as got:
        _radial_fibers(FLAT, tt)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("profile slope vanishes at level ")
