"""`lhs_direct` gathers its kept pairs by index, against the boolean-mask form.

The oracle below is the loop `lhs_direct` replaced: it selects the pairs
whose levels differ by more than eps with a boolean mask, four times per
block, and stores their products through the same mask. The indexed form
finds the kept pairs once (`np.flatnonzero`) and gathers them with `take`.
Both must give the same bytes for the value and the error, and hand f and g
the same fresh rows in the same order.
"""

import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelform as lf
from levelform import geometry
from levelform.errors import require_finite
from levelform.sampling import sample_pair_blocks

# pairs a stream batch holds at most, before rejection
BLOCK = 2**15


def oracle_lhs_direct(form, sample_count=100_000, seed=0):
    """The boolean-mask `lhs_direct`."""
    blocks = sample_pair_blocks(form.phase_in.domain, form.phase_out.domain, sample_count, seed)
    vals = np.zeros(sample_count)
    got = 0
    for xs, ys in blocks:
        t = require_finite(geometry._eval_values(form.phase_in, xs), "phase values")
        s = require_finite(geometry._eval_values(form.phase_out, ys), "phase values")
        mask = np.abs(s - t) > form.eps
        if np.any(mask):
            kv = np.asarray(form.kernel.evaluate(s[mask], t[mask]), dtype=float)
            fv = require_finite(np.asarray(form.f(xs[mask]), dtype=float), "f values")
            gv = require_finite(np.asarray(form.g(ys[mask]), dtype=float), "g values")
            vals[got:got + len(xs)][mask] = kv * fv * gv
        got += len(xs)
    scale = form.phase_in.domain.volume() * form.phase_out.domain.volume()
    value = float(np.mean(vals)) * scale
    stderr = float(np.std(vals)) / math.sqrt(sample_count) * scale
    return lf.Estimate(value=value, error=stderr, sample_count=sample_count)


def cpus(usable):
    """`os.sched_getaffinity` patched to report `usable` CPUs."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(usable)),
                             create=True)


def f_weight(p):
    return 1.0 + 0.5 * p[:, 0]


def g_weight(p):
    return np.cos(p.sum(axis=1))


@st.composite
def phases(draw):
    """A linear, radial, radial-power or saddle phase on a ball or a box of
    dimension 1-4 (the saddle on the disc, the radial phases on balls)."""
    kind = draw(st.sampled_from(["linear", "radial", "radial-power", "saddle"]))
    if kind == "saddle":
        return lf.saddle_phase(lf.ball(2))
    n = draw(st.integers(1, 4))
    if kind == "linear" and draw(st.booleans()):
        lows = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0]), min_size=n, max_size=n))
        return lf.linear_phase(lf.box([(lo, lo + 1.5) for lo in lows]),
                               axis=draw(st.integers(0, n - 1)))
    domain = lf.ball(n, draw(st.sampled_from([1.0, 0.75])))
    if kind == "linear":
        return lf.linear_phase(domain, axis=draw(st.integers(0, n - 1)))
    if kind == "radial":
        return lf.radial_quadratic_phase(domain)
    return lf.radial_power_phase(domain, draw(st.sampled_from([1.5, 3.0])))


def widest_gap(phase_in, phase_out):
    lo_in, hi_in = geometry.image_interval(phase_in)
    lo_out, hi_out = geometry.image_interval(phase_out)
    return max(hi_out - lo_in, hi_in - lo_out)


def radius(keeps, phase_in, phase_out):
    """An eps that keeps no pair, some pairs, or (all but a measure-zero set) all."""
    widest = widest_gap(phase_in, phase_out)
    return {"none": 2.0 * widest, "some": 0.25 * widest, "all": 1e-12}[keeps]


def same_bytes(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@given(phase_in=phases(), phase_out=phases(),
       keeps=st.sampled_from(["none", "some", "all"]),
       count=st.sampled_from([1, 100, BLOCK - 1, BLOCK, BLOCK + 1, 50_000]),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_gather_by_index_keeps_the_bytes_of_the_mask(phase_in, phase_out, keeps, count, seed):
    form = lf.SynchronizedForm(phase_in, phase_out, lf.hilbert_kernel(), f_weight, g_weight,
                               eps=radius(keeps, phase_in, phase_out))
    want = oracle_lhs_direct(form, sample_count=count, seed=seed)
    # the pair stream read one block ahead on the worker, then all on the caller
    for usable in (2, 1):
        with cpus(usable):
            got = lf.lhs_direct(form, sample_count=count, seed=seed)
        assert same_bytes(got.value, want.value) and same_bytes(got.error, want.error)
        assert got.sample_count == count


class Spy:
    """A weight that records each argument it is given, as it was given."""

    def __init__(self, weight):
        self.weight = weight
        self.calls = []

    def __call__(self, pts):
        self.calls.append((pts.flags.c_contiguous, pts.flags.owndata, pts.base is None,
                           pts.dtype, pts.copy()))
        return self.weight(pts)


@pytest.mark.parametrize("nx, ny", [(1, 3), (2, 4), (4, 2)])
def test_gather_across_block_edges_with_unequal_dimensions(nx, ny):
    # 50,000 pairs take two batches of 2^15 rows or more, the last one cut short
    f = Spy(f_weight)
    form = lf.SynchronizedForm(lf.radial_quadratic_phase(lf.ball(nx)),
                               lf.linear_phase(lf.box([(-1.0, 0.5)] * ny), axis=ny - 1),
                               lf.hilbert_kernel(), f, g_weight, eps=0.25)
    got = lf.lhs_direct(form, sample_count=50_000, seed=11)
    want = oracle_lhs_direct(form, sample_count=50_000, seed=11)
    assert same_bytes(got.value, want.value) and same_bytes(got.error, want.error)
    assert len(f.calls) >= 2


@pytest.mark.parametrize("keeps", ["some", "all"])
def test_weights_get_fresh_contiguous_rows_in_stream_order(keeps):
    phase_in, phase_out = lf.linear_phase(lf.ball(3), axis=1), lf.saddle_phase(lf.ball(2))
    eps = radius(keeps, phase_in, phase_out)
    spies = {}
    for name, lhs in (("change", lf.lhs_direct), ("oracle", oracle_lhs_direct)):
        f, g = Spy(f_weight), Spy(g_weight)
        lhs(lf.SynchronizedForm(phase_in, phase_out, lf.hilbert_kernel(), f, g, eps=eps),
            sample_count=40_000, seed=5)
        spies[name] = (f, g)
    for (spy, oracle), n in zip(zip(spies["change"], spies["oracle"]), (3, 2)):
        assert len(spy.calls) == len(oracle.calls) > 1
        for (contiguous, owns, no_base, dtype, pts), (*_, want) in zip(spy.calls, oracle.calls):
            assert contiguous and owns and no_base and dtype == np.float64
            assert pts.ndim == 2 and pts.shape[1] == n
            assert pts.tobytes() == want.tobytes()
    kept = sum(len(call[-1]) for call in spies["change"][0].calls)
    assert (kept == 40_000) if keeps == "all" else (0 < kept < 40_000)


def test_no_kept_pair_calls_no_weight():
    phase = lf.linear_phase(lf.ball(2))
    f = Spy(f_weight)
    form = lf.SynchronizedForm(phase, phase, lf.hilbert_kernel(), f, f,
                               eps=radius("none", phase, phase))
    est = lf.lhs_direct(form, sample_count=5_000, seed=3)
    assert f.calls == [] and est.value == 0.0 and est.error == 0.0
