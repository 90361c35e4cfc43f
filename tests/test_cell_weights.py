"""`kernels._cell_weights` against the form it replaced.

The oracle below is the earlier `_cell_weights`. It finds the cells that
straddle a truncation radius by testing every offset, and it builds the hard
weight from a float copy of the mask. The fast form tests only the cells that
`kernels._near_radius` keeps, and multiplies by the boolean mask itself. Both
must give the same bytes for every job, signed zeros included, so the weights
are compared as int64 views.

Why `_near_radius` never drops a straddling cell, rounding included, is
written in its docstring. The last tests check that the comparison here is
sharp enough to see a superset narrowed below that argument.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelform as lf
from levelform import kernels

KERNEL = lf.hilbert_kernel()
SMOOTHSTEP, RAMP = lf.smoothstep_cutoff(), lf.linear_ramp_cutoff()
JOBS = [(lf.HARD, None), (lf.SMOOTH, SMOOTHSTEP), (lf.RESIDUAL, SMOOTHSTEP),
        (lf.SMOOTH, RAMP), (lf.RESIDUAL, RAMP)]


def oracle_mode_weight(mode, dist, eps, cutoff):
    if mode == lf.HARD:
        return (dist > eps).astype(float)
    chi = np.asarray(cutoff.fn(dist / eps), dtype=float)
    if mode == lf.SMOOTH:
        return chi
    return (dist > eps).astype(float) - chi


def oracle_cell_weights(kernel, u, h, eps, jobs):
    """The straddle test over every offset, then boolean-mask indexing."""
    dist = np.abs(u)
    clear = dist > h / 2
    K = np.where(clear, kernel.evaluate(np.where(clear, u, 3.0 * eps), 0.0), 0.0)
    rad = np.copysign(np.where(dist < 1.5 * eps, eps, 2.0 * eps), u)
    straddle = (u - h / 2 < rad) & (rad < u + h / 2)

    us, cut = u[straddle], rad[straddle]
    lo, hi = us - h / 2, us + h / 2
    halves = []
    for seg_lo, seg_hi in ((lo, cut), (cut, hi)):
        mid = 0.5 * (seg_lo + seg_hi)
        halves.append((seg_hi - seg_lo, np.abs(mid),
                       np.asarray(kernel.evaluate(mid, 0.0), dtype=float)))

    weights = []
    for mode, cutoff in jobs:
        w = K * oracle_mode_weight(mode, dist, eps, cutoff) * h
        w[straddle] = sum(kv * oracle_mode_weight(mode, d_mid, eps, cutoff) * width
                          for width, d_mid, kv in halves)
        weights.append(w)
    return weights


def mismatched_jobs(u, h, eps):
    """The jobs whose fast weights differ from the oracle's in any bit."""
    got = kernels._cell_weights(KERNEL, u, h, eps, JOBS)
    want = oracle_cell_weights(KERNEL, u, h, eps, JOBS)
    assert len(got) == len(want) == len(JOBS)
    return [job for job, g, w in zip(JOBS, got, want)
            if g.shape != w.shape or g.dtype != w.dtype
            or not np.array_equal(g.view(np.int64), w.view(np.int64))]


@st.composite
def grids(draw):
    """(a, b, m, h, eps): eps at the 2h floor, on a node or cell-edge multiple
    of h, or anywhere up to 40 h."""
    a = draw(st.floats(-4.0, 2.0))
    b = a + draw(st.floats(0.05, 8.0))
    m = draw(st.integers(1, 160))
    h = (b - a) / m
    kind = draw(st.sampled_from(["floor", "node", "edge", "free"]))
    if kind == "floor":
        eps = 2.0 * h
    elif kind in ("node", "edge"):
        eps = (draw(st.integers(2, 40)) + (0.5 if kind == "edge" else 0.0)) * h
    else:
        eps = h * draw(st.floats(2.0, 40.0))
    return a, b, m, h, eps


# where a point sits relative to a radius from one node: on it, a cell edge
# from it, or just inside or outside an edge
NEAR = [0.0, 0.5, -0.5, 0.4999999, -0.4999999, 0.5000001, -0.5000001, 0.3, -0.3, 0.45, -0.45]


@given(grid=grids())
@settings(max_examples=150, deadline=None)
def test_on_grid_offsets_match_oracle(grid):
    _, _, m, h, eps = grid
    # the offsets of the on-grid stencil, as `_apply_batch` builds them
    assert mismatched_jobs(h * np.arange(1 - m, m), h, eps) == []


@given(grid=grids(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_off_grid_chunks_match_oracle(grid, data):
    a, b, m, h, eps = grid
    t = lf.GridFunction1D(a, b, np.zeros(m)).nodes
    inside = data.draw(st.lists(st.floats(a, b), max_size=6))
    outside = data.draw(st.lists(st.floats(a - 3.0 * eps - 1.0, b + 3.0 * eps + 1.0),
                                 max_size=6))
    # points a radius, give or take a fraction of a cell, from some node
    near = [t[data.draw(st.integers(0, m - 1))] + sign * r + frac * h
            for sign, r, frac in data.draw(st.lists(
                st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([eps, 2.0 * eps]),
                          st.sampled_from(NEAR) | st.floats(-1.0, 1.0)),
                max_size=10))]
    s = np.array(data.draw(st.permutations(inside + outside + near)) or [a], dtype=float)
    # a chunk of the off-grid path: evaluation points by nodes, unsorted
    assert mismatched_jobs(s[:, None] - t[None, :], h, eps) == []


def test_a_cell_straddling_each_radius_is_split():
    # eps = 2.4 h: the cells at 2 h and 5 h hold eps and 2 eps, 0.4 h from their centres
    h, eps = 1.0 / 64, 2.4 / 64
    u = h * np.arange(-63, 64)
    near = kernels._near_radius(np.abs(u), h, eps)
    assert {63 + 2, 63 - 2, 63 + 5, 63 - 5} <= set(near.tolist())
    assert len(near) < len(u) // 4
    assert mismatched_jobs(u, h, eps) == []


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_kernels_of_other_dtypes_keep_the_oracle_dtype_and_bytes(dtype):
    # a product with the boolean hard factor would keep an int or float32
    # kernel's dtype, where the oracle's float factor promoted it
    kernel = lf.Kernel1D(evaluate=lambda s, t: np.round(8.0 / (np.asarray(s) - t)).astype(dtype))
    h, eps = 1.0 / 32, 2.4 / 32
    u = h * np.arange(-31, 32)
    got = kernels._cell_weights(kernel, u, h, eps, JOBS)
    want = oracle_cell_weights(kernel, u, h, eps, JOBS)
    assert [w.dtype for w in got] == [w.dtype for w in want]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def narrowed(fraction):
    """`_near_radius` with its reach cut to `fraction` h."""
    def near_radius(dist, h, eps):
        gap = np.abs(np.abs(dist - 1.5 * eps) - 0.5 * eps)
        return np.flatnonzero(gap < fraction * h)
    return near_radius


@pytest.mark.parametrize("fraction", [0.25, 0.45])
def test_a_narrowed_superset_fails_the_oracle_test(monkeypatch, fraction):
    monkeypatch.setattr(kernels, "_near_radius", narrowed(fraction))
    # eps = 2.48 h: the straddling cell at 2 h, 0.48 h from eps, escapes the cut reach
    h = 1.0 / 64
    assert mismatched_jobs(h * np.arange(-63, 64), h, 2.48 * h)
    with pytest.raises(AssertionError):
        test_off_grid_chunks_match_oracle()
