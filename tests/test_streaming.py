"""The streamed Monte Carlo estimators against the whole-stream code they replaced.

`weighted_density_monte_carlo` and `lhs_direct` consume the Sobol stream
block by block. The oracles below are their earlier whole-stream forms: the
stream drawn as one `sample_domain` array, or one array of pairs gathered
from `sample_pair_blocks`, and binned by one `bincount`. The two must agree
bit for bit, and the streamed forms must hold memory that does not grow with
the sample count.

The weights are pointwise. A weight that is not, such as
`random_smooth_function` in four or more dimensions, whose matrix product
takes another path on a one-row block, may differ in the last bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelform as lf
from levelform import geometry, sampling
from levelform.errors import require_finite, require_whole
from levelform.pushforward import ATOM_MASS_FRACTION, ATOM_RELATIVE_WIDTH

BATCH = sampling._MAX_BATCH
# no points, one point, and the three counts around one full Sobol block
COUNTS = [0, 1, BATCH - 1, BATCH, BATCH + 1]
BOX2 = lf.box([(-1.0, 2.0), (0.0, 0.5)])
BOX3 = lf.box([(0.0, 1.0), (-3.0, 3.0), (1.0, 1.5)])
PHASES = [lf.linear_phase(lf.ball(2)), lf.radial_quadratic_phase(lf.ball(3)),
          lf.saddle_phase(lf.ball(2)), lf.linear_phase(BOX2), lf.linear_phase(BOX3, axis=2),
          lf.radial_power_phase(lf.ball(3, 0.7), 4.0)]
WEIGHTS = [None,
           lambda p: np.sin(3.0 * p[:, 0]) * p[:, 1],
           lambda p: np.abs(p[:, -1]) ** 1.5 - 0.25]


def outcome(fn):
    """The result of fn(), or the type of the LevelformError it raised."""
    try:
        return fn()
    except lf.LevelformError as exc:
        return type(exc)


def gather_pairs(dx, dy, count, seed):
    """The (xs, ys) blocks of `sampling.sample_pair_blocks`, gathered into two arrays."""
    blocks = list(sampling.sample_pair_blocks(dx, dy, count, seed))
    return (np.concatenate([np.empty((0, dx.n)), *(x for x, _ in blocks)]),
            np.concatenate([np.empty((0, dy.n)), *(y for _, y in blocks)]))


def whole_stream_monte_carlo(phase, h, grid, sample_count, seed):
    """Values, stderr and atom flag of the histogram over the whole stream at once."""
    require_whole(sample_count, "sample_count")
    pts = lf.sample_domain(phase.domain, sample_count, seed)
    levels = require_finite(geometry._eval_values(phase, pts), "phase values")
    bins = grid.bin_count
    idx = levels - grid.t_min
    idx /= grid.width
    np.floor(idx, out=idx)
    np.clip(idx, -1, bins, out=idx)
    idx += 1
    idx[levels == grid.t_max] = bins
    idx = idx.astype(np.intp)
    n = sample_count
    if h is None:
        mean = np.bincount(idx, minlength=bins + 2)[1:-1] / n
        var = mean * (1 - mean)
    else:
        w = np.asarray(h(pts), dtype=float)
        mean = np.bincount(idx, weights=w, minlength=bins + 2)[1:-1] / n
        sumsq = np.bincount(idx, weights=w ** 2, minlength=bins + 2)[1:-1]
        var = np.maximum(sumsq / n - mean ** 2, 0.0)
    fine = grid.width < ATOM_RELATIVE_WIDTH * (grid.t_max - grid.t_min)
    atom = bool(h is None and np.any(mean > ATOM_MASS_FRACTION) and fine)
    vol = phase.domain.volume()
    return vol * mean / grid.width, vol * np.sqrt(var / n) / grid.width, atom


def whole_stream_lhs(form, sample_count, seed):
    """Value and stderr of the direct left side over the whole pair stream at once."""
    require_whole(sample_count, "sample_count")
    xs, ys = gather_pairs(form.phase_in.domain, form.phase_out.domain, sample_count, seed)
    t = geometry._eval_values(form.phase_in, xs)
    s = geometry._eval_values(form.phase_out, ys)
    mask = np.abs(s - t) > form.eps
    vals = np.zeros(sample_count)
    if np.any(mask):
        vals[mask] = (np.asarray(form.kernel.evaluate(s[mask], t[mask]), dtype=float)
                      * np.asarray(form.f(xs[mask]), dtype=float)
                      * np.asarray(form.g(ys[mask]), dtype=float))
    scale = form.phase_in.domain.volume() * form.phase_out.domain.volume()
    return (float(np.mean(vals)) * scale,
            float(np.std(vals)) / math.sqrt(sample_count) * scale)


@given(phase=st.sampled_from(PHASES), h=st.sampled_from(WEIGHTS),
       count=st.sampled_from(COUNTS), bins=st.integers(1, 200),
       window=st.tuples(st.floats(-0.2, 0.5), st.floats(0.1, 1.2)),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_streamed_histogram_matches_whole_stream_oracle(phase, h, count, bins, window, seed):
    lo, hi = geometry.image_interval(phase)
    # windows that cut the image, and ones that reach past it on either side
    grid = lf.LevelGrid(lo + window[0] * (hi - lo), lo + (window[0] + window[1]) * (hi - lo),
                        bins)
    want = outcome(lambda: whole_stream_monte_carlo(phase, h, grid, count, seed))
    got = outcome(lambda: lf.weighted_density_monte_carlo(phase, h, grid, count, seed))
    if isinstance(want, type):
        assert got is want
        return
    values, stderr, atom = want
    assert got.values.tobytes() == values.tobytes()
    assert got.stderr.tobytes() == stderr.tobytes()
    assert got.atom_suspected is atom


def form_of(phase_in, phase_out, f, g, eps):
    return lf.SynchronizedForm(phase_in=phase_in, phase_out=phase_out,
                               kernel=lf.hilbert_kernel(), f=f, g=g, eps=eps)


PAIRS = [(lf.linear_phase(lf.ball(2)), lf.radial_quadratic_phase(lf.ball(2))),
         (lf.radial_quadratic_phase(lf.ball(3)), lf.linear_phase(lf.ball(3))),
         (lf.saddle_phase(lf.ball(2)), lf.linear_phase(BOX3, axis=2)),
         (lf.linear_phase(BOX2), lf.radial_power_phase(lf.ball(3, 0.7), 4.0))]
FIBER_WEIGHTS = [lambda p: p[:, 0],
                 lf.RadialFunction(lambda r: 1.0 - r),
                 lf.LevelFunction(lambda t: np.cos(2.0 * t)),
                 lambda p: np.exp(-np.sum(p * p, axis=1))]


@given(pair=st.sampled_from(PAIRS), f=st.sampled_from(FIBER_WEIGHTS),
       g=st.sampled_from(FIBER_WEIGHTS), count=st.sampled_from(COUNTS),
       eps=st.floats(0.05, 0.5), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_streamed_lhs_matches_whole_stream_oracle(pair, f, g, count, eps, seed):
    form = form_of(*pair, f, g, eps)
    want = outcome(lambda: whole_stream_lhs(form, count, seed))
    got = outcome(lambda: lf.lhs_direct(form, count, seed))
    if isinstance(want, type):
        assert got is want
        return
    assert (got.value, got.error) == want
    assert got.sample_count == count


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("domain", [lf.ball(2), lf.ball(3, 0.7), BOX2, BOX3],
                         ids=["ball2", "ball3", "box2", "box3"])
def test_blocks_are_the_stream_in_order(domain, count):
    blocks = list(sampling.sample_blocks(domain, count, 9, 2))
    assert all(0 < len(b) <= BATCH for b in blocks)
    whole = lf.sample_domain(domain, count, 9, 2)
    assert np.concatenate([np.empty((0, domain.n)), *blocks]).tobytes() == whole.tobytes()
    # the pair values are pinned to scipy's engine in tests/test_sampling.py
    pairs = list(sampling.sample_pair_blocks(domain, lf.ball(2), count, 9, 2))
    assert all(0 < len(x) == len(y) <= BATCH for x, y in pairs)
    assert sum(len(x) for x, _ in pairs) == count


def test_monte_carlo_weight_is_called_once_per_block():
    calls = []

    def h(pts):
        calls.append(len(pts))
        return pts[:, 0]

    phase = lf.linear_phase(lf.ball(2))
    lf.weighted_density_monte_carlo(phase, h, lf.LevelGrid(-1.0, 1.0, 8), 100_000, 4)
    assert calls == [len(b) for b in sampling.sample_blocks(phase.domain, 100_000, 4)]
    assert len(calls) > 1


def test_sample_count_is_checked_before_any_block():
    with pytest.raises(lf.ConfigError):
        sampling.sample_blocks(lf.ball(2), -1, 0)
    with pytest.raises(lf.ConfigError):
        sampling.sample_pair_blocks(lf.ball(2), lf.ball(2), 2.5, 0)
    with pytest.raises(lf.ConfigError):
        sampling.sample_blocks(lf.ball(2), 10, -1)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_weighted_histogram_in_bounded_memory():
    # the whole stream of 10^6 points, its levels and its weights peaked at
    # 53 MiB; a block of 2^15 points holds well under 1 MiB of each
    phase = lf.linear_phase(lf.ball(2))
    h = WEIGHTS[1]
    peak = traced_peak(lambda: lf.weighted_density_monte_carlo(
        phase, h, lf.LevelGrid(-1.0, 1.0, 120), 1_000_000, 3))
    assert peak < 8 * 2 ** 20


def test_lhs_direct_in_bounded_memory():
    # 400,000 pairs in ball(2) x ball(2) peaked at 37 MiB as one stream; the
    # per-pair values, 3.1 MiB, are the one array that grows with the count
    form = form_of(lf.radial_quadratic_phase(lf.ball(2)), lf.radial_quadratic_phase(lf.ball(2)),
                   lf.RadialFunction(lambda r: 1.0 - r), lf.RadialFunction(np.ones_like), 0.125)
    peak = traced_peak(lambda: lf.lhs_direct(form, 400_000, 3))
    assert peak < 16 * 2 ** 20
