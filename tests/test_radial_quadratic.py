"""The radial-quadratic phase |x|^2 read through the radial-power code at
gamma = 2, and closed-form weights called only inside the image.

Where R * R == R ** 2 the merged code must give the bits of the retired
radial-quadratic closed form, level radius and exponent
(`tests/radial_oracle.py`), compared as int64 views so that signed zeros
count. Where the two differ, the image end R ** 2 decides: a level past it
reads 0 on both deterministic routes, and a level at it reads as radial-power
gamma = 2 does."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelform as lf
from levelform import geometry
from levelform.pushforward import _closed_form_values
from radial_oracle import (quadratic_closed_form, quadratic_critical_exponent,
                           quadratic_radius_of_level)

# radii whose square is the same float either way
RADII = [1.0, 1.7, 0.5]
# radii where R * R and R ** 2 differ in the last bit, the image end R ** 2
# one float above and one float below R * R
SPLIT_RADII = [7.30728627489739, 8.362475513051699]


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def levels(R):
    """Levels inside the image, outside both ends, at the ends and far off."""
    end = R * R
    marks = [0.0, -0.0, end, math.nextafter(end, math.inf), math.nextafter(end, -math.inf),
             math.nextafter(0.0, math.inf), math.nextafter(0.0, -math.inf)]
    return st.lists(st.one_of(st.floats(-end, 2 * end), st.sampled_from(marks),
                              st.floats(-1e300, 1e300)), max_size=40)


@pytest.mark.parametrize("R", RADII)
@given(n=st.integers(1, 5), data=st.data())
@settings(max_examples=40, deadline=None)
def test_radial_quadratic_keeps_the_bits_of_its_own_formulas(R, n, data):
    assert R * R == R ** 2
    phase = lf.radial_quadratic_phase(lf.ball(n, R))
    tt = np.array(data.draw(levels(R)), dtype=float)
    assert np.array_equal(bits(_closed_form_values(phase, tt)),
                          bits(quadratic_closed_form(n, R, tt)))
    assert lf.critical_exponent(phase) == quadratic_critical_exponent(n)
    assert geometry.image_interval(phase) == (0.0, R * R)
    seen = []

    def profile(r):
        seen.append(r.copy())
        return 1.0 - r

    got = lf.weighted_density_closed_form(phase, lf.RadialFunction(profile), tt)
    live = (tt >= 0.0) & (tt <= R * R)
    radii = quadratic_radius_of_level(tt)[live]
    assert np.array_equal(bits(np.concatenate(seen or [np.empty(0)])), bits(radii))
    want = np.zeros(len(tt))  # +0.0 outside the image, whatever the profile's sign
    want[live] = quadratic_closed_form(n, R, tt)[live] * (1.0 - radii)
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("R", SPLIT_RADII)
def test_image_end_decides_the_top_level(R):
    assert R * R != R ** 2
    quadratic = lf.radial_quadratic_phase(lf.ball(2, R))
    power = lf.radial_power_phase(lf.ball(2, R), 2.0)
    _, hi = geometry.image_interval(quadratic)
    assert hi == R ** 2
    for t in (R * R, R ** 2):
        for method in (lf.CLOSED_FORM, lf.COAREA):
            value = lf.weighted_density(quadratic, None, t, method)
            assert value == lf.weighted_density(power, None, t, method), (t, method)
            assert (value == 0.0) == (t > hi), (t, method, value)


def refusing(lo, hi):
    """A profile that fails the test if it sees a value outside [lo, hi]."""
    def profile(x):
        assert np.all((x >= lo) & (x <= hi)), x
        return np.sqrt(np.maximum(1.0 - x * x, 0.0))
    return profile


@pytest.mark.parametrize("phase,h,outside", [
    (lf.radial_quadratic_phase(lf.ball(2)), lf.RadialFunction(lambda r: np.sqrt(1 - r)), 2.0),
    (lf.linear_phase(lf.ball(2)), lf.LevelFunction(lambda t: np.sqrt(1 - t * t)), 2.0),
    (lf.radial_power_phase(lf.ball(3), 4.0), lf.RadialFunction(refusing(0.0, 1.0)), -0.5),
    (lf.linear_phase(lf.ball(2)), lf.LevelFunction(refusing(-1.0, 1.0)), -1.5),
], ids=["radial-quadratic", "linear", "radial-power", "linear-below"])
def test_closed_form_weights_are_not_called_outside_the_image(phase, h, outside):
    got = lf.weighted_density_closed_form(phase, h, [0.5, outside])
    want = lf.weighted_density_coarea(phase, h, [0.5, outside])
    assert got[0] == pytest.approx(want[0], rel=1e-4)
    assert bits(got[1]) == bits(0.0) == bits(want[1])
    assert bits(lf.weighted_density_closed_form(phase, h, outside)) == bits(0.0)


def test_closed_form_weight_outside_the_image_reads_plus_zero():
    # a negative weight times a zero density would be -0.0
    never = lf.LevelFunction(lambda t: pytest.fail(f"called at {t}"))
    phase = lf.linear_phase(lf.ball(2))
    assert bits(lf.weighted_density_closed_form(phase, never, [2.0, -3.0])).tolist() == [0, 0]
    negative = lf.LevelFunction(lambda t: -np.ones_like(t))
    got = lf.weighted_density_closed_form(phase, negative, [0.0, 2.0])
    assert got[0] == -lf.weighted_density_closed_form(phase, None, 0.0)
    assert bits(got[1]) == bits(0.0)
