"""The fiber blocks of the coarea route against the forms they replaced.

The oracles below are the earlier block builders of `_radial_levels`,
`_linear_levels` and `_saddle_levels` for n = 2. The radial one stacked the
points from two products, the linear one wrote the chord as -rho + mid (...),
and the saddle one built both orientations in every block with `np.where`,
with negative and non-negative levels in one run. The fast forms build the
points in place, and the saddle runs the two signs apart. The n = 3 disk
section of `_linear_levels` has its own oracle, the polar block that called
h itself. Each oracle runs its blocks through `_in_blocks` and `_weigh`, the
block loop and weight call that `_fiber_sums` replaced.

A spy weight records every array handed to h. Each test compares, level by
level, the fiber points of both forms and the values they return, as int64
views, so signed zeros and NaN payloads count. The radial, linear and disk
forms must also group the points into the same calls; the saddle may group
them differently, so its levels are compared as a multiset.

The `scalar_coarea` oracle in `tests/test_pushforward.py` checks the same
functions one level at a time, through the public route.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelform as lf
from levelform import geometry, pushforward
from levelform.geometry import ball_volume
from levelform.errors import require_reals
from levelform.pushforward import _BLOCK_POINTS
from radial_oracle import _radial_level

BALL2 = lf.ball(2)


def _in_blocks(count, nodes, block):
    """`block(sl)` over runs of whole levels, each at most _BLOCK_POINTS fiber
    points (at least one level), concatenated."""
    step = max(1, _BLOCK_POINTS // nodes)
    out = np.empty(count)
    for start in range(0, count, step):
        sl = slice(start, start + step)
        out[sl] = block(sl)
    return out


def _weigh(h, pts):
    """One call of h on a block of fiber points (..., n), one value a point,
    shaped like the block."""
    flat = pts.reshape(-1, pts.shape[-1])
    return require_reals(h(flat), "weight values", len(flat)).reshape(pts.shape[:-1])


def oracle_radial_levels(phase, h, tt, fiber_nodes):
    """`_radial_levels` for n = 2, with the points stacked from r cos and r sin."""
    fibers = [_radial_level(phase, t) for t in tt.tolist()]
    on = np.array([r is not None for r, _ in fibers])
    r = np.array([r for r, _ in fibers if r is not None])
    slope = np.array([s for _, s in fibers if s is not None])
    out = np.zeros(len(tt))
    if not np.any(on):
        return out
    step = 2 * math.pi / fiber_nodes
    angles = (np.arange(fiber_nodes) + 0.5) * step
    cos, sin = np.cos(angles), np.sin(angles)

    def block(sl):
        rr = r[sl, None]
        if h is None:
            hv = np.ones((len(rr), fiber_nodes))
        else:
            hv = _weigh(h, np.stack([rr * cos, rr * sin], axis=-1))
        return np.sum(hv * rr * step, axis=1)

    out[on] = _in_blocks(len(r), fiber_nodes, block) / slope
    return out


def oracle_linear_levels(phase, h, tt, fiber_nodes):
    """`_linear_levels` for n = 2, with the chord written as -rho + mid (...)."""
    dom = phase.domain
    n = dom.n
    axis = phase.axis
    if dom.shape == "box":
        widths = [hi - lo for lo, hi in dom.bounds]
        section = np.full(len(tt), float(np.prod([w for j, w in enumerate(widths) if j != axis])))
    else:
        R = dom.radius
        rho = np.array([math.sqrt(max(R * R - t * t, 0.0)) for t in tt.tolist()])
        section = np.array([ball_volume(n - 1) * x ** (n - 1) for x in rho.tolist()])
    if h is None:
        return section
    mid = np.arange(fiber_nodes) + 0.5
    other = 1 - axis
    if dom.shape == "box":
        o_lo, o_hi = dom.bounds[other]

    def block(sl):
        pts = np.empty((len(tt[sl]), fiber_nodes, 2))
        pts[..., axis] = tt[sl, None]
        if dom.shape == "box":
            pts[..., other] = o_lo + mid * (o_hi - o_lo) / fiber_nodes
        else:
            half = rho[sl, None]
            pts[..., other] = -half + mid * (2 * half / fiber_nodes)
        return np.sum(_weigh(h, pts), axis=1)

    sums = _in_blocks(len(tt), fiber_nodes, block)
    if dom.shape == "box":
        return sums * (o_hi - o_lo) / fiber_nodes
    return sums * (2 * rho / fiber_nodes)


def oracle_saddle_levels(phase, h, tt, fiber_nodes):
    """`_saddle_levels` with both signs in one run and `np.where` orientation."""
    R = phase.domain.radius
    on = np.abs(tt) < R * R
    t = tt[on]
    a = np.abs(t)
    ymax = np.array([math.sqrt((R * R - x) / 2.0) for x in a.tolist()])
    mid = np.arange(fiber_nodes) + 0.5

    def block(sl):
        ym = ymax[sl, None]
        ys = -ym + mid * (2 * ym / fiber_nodes)
        major = np.sqrt(a[sl, None] + ys * ys)
        base = 1.0 / (2.0 * major)
        if h is None:
            hv = np.ones((len(ys), 2, 1))
        else:
            pos = (t[sl] >= 0)[:, None]
            pts = np.empty((len(ys), 2, fiber_nodes, 2))
            for b, sign in enumerate((1.0, -1.0)):
                pts[:, b, :, 0] = np.where(pos, sign * major, ys)
                pts[:, b, :, 1] = np.where(pos, ys, sign * major)
            hv = _weigh(h, pts)
        branches = np.sum(hv * base[:, None, :], axis=2) * (2 * ymax[sl, None] / fiber_nodes)
        return 0.0 + branches[:, 0] + branches[:, 1]

    out = np.zeros(len(tt))
    out[on] = _in_blocks(len(t), 2 * fiber_nodes, block)
    return out


def spy(fn):
    """A weight that keeps a copy of every array handed to it."""
    calls = []

    def weight(pts):
        calls.append(np.array(pts))
        return fn(pts)

    return weight, calls


def bits(arr):
    return np.ascontiguousarray(arr, dtype=float).view(np.int64)


def per_level(calls, points_per_level):
    """The recorded points cut into one (points, 2) segment a level."""
    if not calls:
        return []
    flat = np.concatenate(calls)
    assert len(flat) % points_per_level == 0
    return list(bits(flat).reshape(-1, points_per_level, 2))


def weight_of(kind):
    if kind == "none":
        return None
    if kind == "smooth":
        return lf.random_smooth_function(BALL2, seed=5)
    # signs and zeros of the coordinates show in the values
    return lambda pts: np.copysign(1.0, pts[:, 0]) * np.arctan2(pts[:, 1], pts[:, 0]) + pts[:, 1]


WEIGHTS = ("none", "smooth", "signed")
# node counts of one level up to more than a block, with a saddle level
# (2 nodes) just under, on and just over a block edge
NODES = [1, 2, 3, 64, 700, 2048, _BLOCK_POINTS // 2 - 1, _BLOCK_POINTS // 2,
         _BLOCK_POINTS // 2 + 1, _BLOCK_POINTS - 1, _BLOCK_POINTS + 1]


def level_count(fiber_nodes):
    # many levels over several blocks for small fibers, a few for large ones
    return 150 if fiber_nodes <= 2048 else 4


def _reparam_table():
    profile = lf.GammaProfile(lambda t: t, 0.5, 10.0)
    return lf.design_reparametrization(profile, lambda s: 1.0, 1.0, (0.0, 1.0), step=1e-2)


RADIAL_PHASES = [lf.radial_quadratic_phase(BALL2), lf.radial_power_phase(BALL2, 1.5),
                 lf.radial_power_phase(BALL2, 4.0), lf.boundary_reparam_phase(BALL2, _reparam_table()),
                 lf.radial_quadratic_phase(lf.ball(2, 1.7))]
LINEAR_PHASES = [lf.linear_phase(BALL2), lf.linear_phase(BALL2, axis=1),
                 lf.linear_phase(lf.ball(2, 0.6)),
                 lf.linear_phase(lf.box([(-1.0, 2.0), (0.5, 1.5)])),
                 lf.linear_phase(lf.box([(-1.0, 2.0), (0.5, 1.5)]), axis=1)]
SADDLE_PHASES = [lf.saddle_phase(BALL2), lf.saddle_phase(lf.ball(2, 1.3))]


def compare(fast, oracle, phase, kind, tt, fiber_nodes, points_per_level, same_calls):
    h_fast, fast_calls = spy(weight_of(kind)) if kind != "none" else (None, [])
    h_oracle, oracle_calls = spy(weight_of(kind)) if kind != "none" else (None, [])
    # a level at +-0.0 on the saddle puts a fiber point on the origin for odd node counts
    with np.errstate(divide="ignore", invalid="ignore"):
        got = fast(phase, h_fast, tt, fiber_nodes)
        want = oracle(phase, h_oracle, tt, fiber_nodes)
    assert got.shape == want.shape == tt.shape
    assert np.array_equal(bits(got), bits(want)), (got, want)
    got_levels = per_level(fast_calls, points_per_level)
    want_levels = per_level(oracle_calls, points_per_level)
    if same_calls:
        assert [len(c) for c in fast_calls] == [len(c) for c in oracle_calls]
        assert len(got_levels) == len(want_levels)
        for g, w in zip(got_levels, want_levels):
            assert np.array_equal(g, w)
    else:
        assert (collections.Counter(g.tobytes() for g in got_levels)
                == collections.Counter(w.tobytes() for w in want_levels))


@given(case=st.integers(0, len(RADIAL_PHASES) - 1), kind=st.sampled_from(WEIGHTS),
       fiber_nodes=st.sampled_from(NODES), data=st.data())
@settings(max_examples=60, deadline=None)
def test_radial_blocks_match_the_stacked_oracle(case, kind, fiber_nodes, data):
    phase = RADIAL_PHASES[case]
    lo, hi = geometry.image_interval(phase)
    # unsorted levels over the image and beyond both ends, where the fiber is empty
    fractions = data.draw(st.lists(st.floats(-0.3, 1.3), min_size=1,
                                   max_size=level_count(fiber_nodes)))
    tt = np.array([lo + f * (hi - lo) for f in fractions])
    compare(pushforward._radial_levels, oracle_radial_levels, phase, kind, tt, fiber_nodes,
            fiber_nodes, same_calls=True)


@given(case=st.integers(0, len(LINEAR_PHASES) - 1), kind=st.sampled_from(WEIGHTS),
       fiber_nodes=st.sampled_from(NODES), data=st.data())
@settings(max_examples=60, deadline=None)
def test_linear_blocks_match_the_chord_oracle(case, kind, fiber_nodes, data):
    phase = LINEAR_PHASES[case]
    lo, hi = geometry.image_interval(phase)
    # unsorted levels over the image, its ends included; the route hands on no others
    fractions = data.draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0]),
                                   min_size=1, max_size=level_count(fiber_nodes)))
    tt = np.array([lo + f * (hi - lo) for f in fractions])
    compare(pushforward._linear_levels, oracle_linear_levels, phase, kind, tt, fiber_nodes,
            fiber_nodes, same_calls=True)


@given(case=st.integers(0, len(SADDLE_PHASES) - 1), kind=st.sampled_from(WEIGHTS),
       fiber_nodes=st.sampled_from(NODES), data=st.data())
@settings(max_examples=80, deadline=None)
def test_saddle_blocks_match_the_mixed_sign_oracle(case, kind, fiber_nodes, data):
    phase = SADDLE_PHASES[case]
    R2 = phase.domain.radius ** 2
    # unsorted levels of both signs, +-0.0, the image's ends and levels beyond them
    levels = data.draw(st.lists(st.floats(-1.4, 1.4) | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                                min_size=1, max_size=level_count(fiber_nodes)))
    tt = np.array([f * R2 for f in levels])
    compare(pushforward._saddle_levels, oracle_saddle_levels, phase, kind, tt, fiber_nodes,
            2 * fiber_nodes, same_calls=False)


def test_saddle_runs_hold_one_sign_each_with_negative_zero_among_t_ge_0():
    # -0.0 >= 0 holds, so its branches lie at x = +-major, as those of +0.0 do
    phase, tt = lf.saddle_phase(BALL2), np.array([-0.0, -0.25, 0.3, 0.0, -0.2])
    h, calls = spy(lambda pts: pts[:, 0] + 2.0 * pts[:, 1])
    got = pushforward._saddle_levels(phase, h, tt, 4)
    assert np.array_equal(bits(got), bits(oracle_saddle_levels(phase, h, tt, 4)))
    # the run t >= 0 first, then t < 0, one call each
    assert [len(c) for c in calls[:2]] == [3 * 2 * 4, 2 * 2 * 4]
    first, second = calls[0].reshape(3, 2, 4, 2), calls[1].reshape(2, 2, 4, 2)
    assert np.all(first[:, 0, :, 0] > 0) and np.all(first[:, 1, :, 0] < 0)
    assert np.all(second[:, 0, :, 1] > 0) and np.all(second[:, 1, :, 1] < 0)
    # -0.0 and +0.0 get the same points
    assert np.array_equal(bits(first[0]), bits(first[2]))


def oracle_disk_levels(phase, h, tt, fiber_nodes):
    """`_linear_levels` on the n = 3 ball: polar quadrature over the disk
    section, one block of whole levels per call of h."""
    dom, axis = phase.domain, phase.axis
    R = dom.radius
    rho = np.sqrt(np.maximum(R * R - tt * tt, 0.0))
    if h is None:
        return np.array([ball_volume(2) * x ** 2 for x in rho.tolist()])
    m = max(int(math.sqrt(fiber_nodes)), 4)
    mid = np.arange(m) + 0.5
    angles = mid * (2 * math.pi / m)
    cos, sin = np.cos(angles), np.sin(angles)
    cols = [j for j in range(3) if j != axis]

    def block(sl):
        cell = rho[sl, None] / m
        rr = mid * cell
        pts = np.empty((len(rr), m, m, 3))
        pts[..., axis] = tt[sl, None, None]
        pts[..., cols[0]] = rr[:, :, None] * cos
        pts[..., cols[1]] = rr[:, :, None] * sin
        weights = rr * cell * (2 * math.pi / m)
        return np.sum((_weigh(h, pts) * weights[:, :, None]).reshape(len(rr), -1), axis=1)

    return _in_blocks(len(tt), m * m, block)


BALL3 = lf.ball(3)
DISK_PHASES = [lf.linear_phase(BALL3), lf.linear_phase(BALL3, axis=2),
               lf.linear_phase(lf.ball(3, 0.7), axis=1)]
# m = 4 for up to 24 nodes; m * m = 16,384 fills a block with two levels,
# 181^2 = 32,761 sits just under a block and 182^2 = 33,124 just over it
DISK_NODES = [1, 24, 200, 128 * 128, 181 * 181, 181 * 181 + 5, 182 * 182]


def disk_weight_of(kind):
    if kind == "none":
        return None
    if kind == "smooth":
        return lf.random_smooth_function(BALL3, seed=5)
    # signs and zeros of the coordinates show in the values
    return lambda pts: np.copysign(1.0, pts[:, 0]) * np.arctan2(pts[:, 1], pts[:, 2]) + pts[:, 2]


@pytest.mark.parametrize("fiber_nodes", DISK_NODES)
@given(case=st.integers(0, len(DISK_PHASES) - 1), kind=st.sampled_from(WEIGHTS), data=st.data())
@settings(max_examples=10, deadline=None)
def test_disk_blocks_match_the_polar_oracle(fiber_nodes, case, kind, data):
    phase = DISK_PHASES[case]
    lo, hi = geometry.image_interval(phase)
    # unsorted levels over the image, its ends (a section of radius 0) included
    fractions = data.draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0]),
                                   min_size=1, max_size=30 if fiber_nodes <= 200 else 4))
    tt = np.array([lo + f * (hi - lo) for f in fractions])
    h_fast, fast_calls = spy(disk_weight_of(kind)) if kind != "none" else (None, [])
    h_oracle, oracle_calls = spy(disk_weight_of(kind)) if kind != "none" else (None, [])
    got = pushforward._linear_levels(phase, h_fast, tt, fiber_nodes)
    want = oracle_disk_levels(phase, h_oracle, tt, fiber_nodes)
    assert got.shape == want.shape == tt.shape
    assert np.array_equal(bits(got), bits(want)), (got, want)
    # the same points, grouped into the same calls
    assert [len(c) for c in fast_calls] == [len(c) for c in oracle_calls]
    for g, w in zip(fast_calls, oracle_calls):
        assert np.array_equal(bits(g), bits(w))
