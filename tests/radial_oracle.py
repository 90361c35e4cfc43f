"""`_radial_level`, the per-level fiber of a radial phase that the coarea
route computed once per level, in Python floats, before
`pushforward._radial_fibers` took all levels as one array. The oracle of
`tests/test_radial_fibers.py`, and the fiber of the level-by-level oracles in
`tests/test_fiber_blocks.py` and `tests/test_pushforward.py`."""

import math

from levelform import geometry
from levelform.errors import CriticalValueError


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
