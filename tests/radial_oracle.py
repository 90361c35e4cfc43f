"""Retired radial code, kept as oracles.

`_radial_level`, the per-level fiber of a radial phase that the coarea
route computed once per level, in Python floats, before
`pushforward._radial_fibers` took all levels as one array. The oracle of
`tests/test_radial_fibers.py`, and the fiber of the level-by-level oracles in
`tests/test_fiber_blocks.py` and `tests/test_pushforward.py`.

`quadratic_closed_form`, `quadratic_radius_of_level` and
`quadratic_critical_exponent`, the radial-quadratic copies of the radial-power
closed form, level radius and exponent, before the radial-power code took the
case gamma = 2. The oracles of `tests/test_radial_quadratic.py`."""

import math

import numpy as np

from levelform import geometry
from levelform.errors import CriticalValueError
from levelform.pushforward import _radial_origin_value


def quadratic_closed_form(n: int, R: float, tt: np.ndarray) -> np.ndarray:
    """The density of |x|^2 on the ball of radius R in R^n at the levels tt."""
    out = np.zeros_like(tt)
    inside = (tt > 0) & (tt <= R * R)
    out[inside] = geometry.sphere_area(n) / 2 * tt[inside] ** ((n - 2) / 2)
    out[tt == 0.0] = _radial_origin_value(n, 2.0)
    return out


def quadratic_radius_of_level(tt: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(tt, 0.0))


def quadratic_critical_exponent(n: int) -> float:
    return max((2.0 - n) / 2.0, 0.0)


def _radial_level(phase, t: float):
    """Fiber radius and |grad| on the fiber for radial phases; None if empty."""
    dom = phase.domain
    R = dom.radius
    if phase.kind == geometry.RADIAL_QUADRATIC:
        if t <= 0 or t > R * R:
            return None, None
        r = math.sqrt(t)
        return r, 2.0 * r
    if phase.kind == geometry.RADIAL_POWER:
        g = phase.gamma
        if t <= 0 or t > R ** g:
            return None, None
        r = t ** (1.0 / g)
        return r, g * r ** (g - 1)
    # boundary reparametrization: t = H(R - r)
    prof = phase.profile
    lo, hi = prof.value_range
    if t < lo or t > hi:
        return None, None
    d = float(prof.inverse(t))
    r = R - d
    if r <= 0:
        return None, None
    slope = abs(float(prof.derivative(d)))
    if slope <= geometry.SINGULAR_RADIUS:
        raise CriticalValueError(f"profile slope vanishes at level {t!r}")
    return r, slope
