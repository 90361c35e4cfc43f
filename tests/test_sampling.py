import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

import levelform as lf
from levelform import geometry, sampling
from levelform.sampling import derived_rng

DOMAINS = [lf.ball(1), lf.ball(2), lf.ball(3, 0.7), lf.ball(5, 2.0),
           lf.box([(-1.0, 2.0), (0.0, 0.5)]),
           lf.box([(0.0, 1.0), (-3.0, 3.0), (1.0, 1.5)])]


def scipy_sobol(dim, seed, tag):
    return qmc.Sobol(d=dim, scramble=True, seed=derived_rng(seed, tag))


def oracle_stream(lo, hi, count, seed, tag, accept):
    """One power-of-two draw from scipy's Sobol engine, filtered by `accept` and cut to `count`."""
    k = 6
    while True:
        pts = lo + scipy_sobol(len(lo), seed, tag).random(2 ** k) * (hi - lo)
        kept = pts[accept(pts)]
        if len(kept) >= count:
            return kept[:count]
        k += 1


def oracle_domain(domain, count, seed, tag=0):
    lo, hi = domain.bounding_box()
    return oracle_stream(lo, hi, count, seed, tag, domain.contains)


def oracle_pairs(dx, dy, count, seed, tag=0):
    lo_x, hi_x = dx.bounding_box()
    lo_y, hi_y = dy.bounding_box()
    nx = dx.n

    def accept(pts):
        return dx.contains(pts[:, :nx]) & dy.contains(pts[:, nx:])

    pts = oracle_stream(np.concatenate([lo_x, lo_y]), np.concatenate([hi_x, hi_y]),
                        count, seed, tag, accept)
    return pts[:, :nx], pts[:, nx:]


domains = st.sampled_from(DOMAINS)
seeds = st.integers(0, 2 ** 32 - 1)
tags = st.integers(0, 9)


@given(domain=domains, count=st.integers(0, 3000), seed=seeds, tag=tags)
@settings(max_examples=60, deadline=None)
def test_sample_domain_matches_single_draw_oracle(domain, count, seed, tag):
    got = lf.sample_domain(domain, count, seed, tag)
    assert got.shape == (count, domain.n)
    assert np.array_equal(got, oracle_domain(domain, count, seed, tag))


@pytest.mark.parametrize("count", [65535, 65536, 65537, 300001])
def test_sample_domain_matches_oracle_across_batches(count):
    # counts past one batch of sampling._MAX_BATCH points take several blocks
    domain = lf.ball(2)
    assert np.array_equal(lf.sample_domain(domain, count, 4),
                          oracle_domain(domain, count, 4))


@given(dx=domains, dy=domains, count=st.integers(0, 2000), seed=seeds, tag=tags)
@settings(max_examples=40, deadline=None)
def test_sample_domain_pairs_match_single_draw_oracle(dx, dy, count, seed, tag):
    xs, ys = lf.sample_domain_pairs(dx, dy, count, seed, tag)
    want_x, want_y = oracle_pairs(dx, dy, count, seed, tag)
    assert np.array_equal(xs, want_x)
    assert np.array_equal(ys, want_y)
    assert np.all(dx.contains(xs)) and np.all(dy.contains(ys))


@given(domain=domains, data=st.data(), seed=seeds, tag=tags)
@settings(max_examples=40, deadline=None)
def test_streams_are_prefix_stable(domain, data, seed, tag):
    total = data.draw(st.integers(0, 5000))
    k = data.draw(st.integers(0, total))
    full = lf.sample_domain(domain, total, seed, tag)
    assert np.array_equal(full[:k], lf.sample_domain(domain, k, seed, tag))


@pytest.mark.parametrize("count", [-1, -100])
def test_negative_counts_rejected(count):
    with pytest.raises(lf.ConfigError):
        lf.sample_domain(lf.ball(2), count, 0)
    with pytest.raises(lf.ConfigError):
        lf.sample_domain(lf.box([(0.0, 1.0)]), count, 0)
    with pytest.raises(lf.ConfigError):
        lf.sample_domain_pairs(lf.ball(2), lf.ball(2), count, 0)


@pytest.mark.parametrize("seed,tag", [(-1, 0), (0, -1)])
def test_negative_seeds_rejected(seed, tag):
    with pytest.raises(lf.ConfigError):
        derived_rng(seed, tag)
    with pytest.raises(lf.ConfigError):
        lf.sample_domain(lf.ball(2), 8, seed, tag)


def add_at_estimate(phase, grid, h, sample_count, seed):
    """Values and stderr of the full stream binned with np.add.at, in stream order."""
    pts = oracle_domain(phase.domain, sample_count, seed)
    levels = geometry._eval_values(phase, pts)
    idx = np.floor((levels - grid.t_min) / grid.width).astype(np.int64)
    idx[levels == grid.t_max] = grid.bin_count - 1
    ok = (idx >= 0) & (idx < grid.bin_count)
    n = sample_count
    if h is None:
        counts = np.zeros(grid.bin_count, dtype=np.int64)
        np.add.at(counts, idx[ok], 1)
        mean = counts / n
        var = mean * (1 - mean)
    else:
        w = np.asarray(h(pts), dtype=float)
        s = np.zeros(grid.bin_count)
        q = np.zeros(grid.bin_count)
        np.add.at(s, idx[ok], w[ok])
        np.add.at(q, idx[ok], w[ok] ** 2)
        mean = s / n
        var = np.maximum(q / n - mean ** 2, 0.0)
    vol = phase.domain.volume()
    return vol * mean / grid.width, vol * np.sqrt(var / n) / grid.width


PHASES = [lf.linear_phase(lf.ball(2)), lf.radial_quadratic_phase(lf.ball(3)),
          lf.saddle_phase(lf.ball(2)), lf.linear_phase(lf.box([(-1.0, 1.0), (0.0, 2.0)]))]
WEIGHTS = [lambda p: np.sin(3.0 * p[:, 0]) * p[:, 1],
           lambda p: np.abs(p[:, 0]) ** 1.5]


# counts on both sides of 65536, the batch edge of the earlier binning loop
@given(phase=st.sampled_from(PHASES),
       count=st.sampled_from([1, 4097, 65535, 65536, 65537, 140001]),
       bins=st.integers(1, 300), seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_monte_carlo_binning_matches_add_at(phase, count, bins, seed):
    lo, hi = geometry.image_interval(phase)
    # a grid narrower than the image drops the points outside it
    grid = lf.LevelGrid(lo + 0.1 * (hi - lo), hi, bins)
    for h in [None, *WEIGHTS]:
        est = lf.weighted_density_monte_carlo(phase, h, grid, count, seed)
        values, stderr = add_at_estimate(phase, grid, h, count, seed)
        assert np.array_equal(est.values, values)
        assert np.array_equal(est.stderr, stderr)


def test_monte_carlo_estimates_share_no_state():
    # an estimate for one stream is the same before and after another stream
    phase = lf.linear_phase(lf.ball(2))
    other = lf.radial_quadratic_phase(lf.ball(2))
    grid = lf.LevelGrid(-1.0, 1.0, 16)
    first = lf.weighted_density_monte_carlo(phase, None, grid, 70_000, seed=3)
    lf.weighted_density_monte_carlo(other, None, lf.LevelGrid(0.0, 1.0, 16), 140_000, seed=4)
    again = lf.weighted_density_monte_carlo(phase, None, grid, 70_000, seed=3)
    assert np.array_equal(first.values, again.values)


# the numpy Sobol stream against scipy's engine; 33 dimensions take the
# engine branch itself
@pytest.mark.parametrize("dim", range(1, 34))
def test_sobol_blocks_match_scipy_engine(dim):
    for seed, tag in [(0, 0), (7919 * dim, dim % 10), (2 ** 32 - 1, 9)]:
        engine = scipy_sobol(dim, seed, tag)
        want = np.concatenate([engine.random(n) for n in (1024, 3072, 4096, 1000)])
        for batch in (16, 512, 8192):
            blocks = sampling._sobol_blocks(dim, derived_rng(seed, tag), batch)
            got = np.concatenate([next(blocks) for _ in range(-(-len(want) // batch))])
            got = got[:len(want)]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@given(dim=st.integers(1, 33), seed=seeds, tag=tags,
       count=st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_accepted_stream_matches_scipy_engine(dim, seed, tag, count):
    # every point kept: the stream itself, whatever batch size `count` picks
    lo, hi = np.zeros(dim), np.ones(dim)
    got = sampling._accepted_stream(lo, hi, count, seed, tag)
    want = scipy_sobol(dim, seed, tag).random(1 << max(count - 1, 0).bit_length())[:count]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2 ** 18 - 1, 2 ** 18, 2 ** 18 + 1])
def test_pair_streams_are_prefix_stable_across_a_batch_edge(k):
    # pairs in ball(2) x ball(2) fill 62% of their box, so k points and the
    # longer request each span many blocks of sampling._MAX_BATCH points
    disk = lf.ball(2)
    xs, ys = lf.sample_domain_pairs(disk, disk, 3 * 2 ** 17, 5, 1)
    head_x, head_y = lf.sample_domain_pairs(disk, disk, k, 5, 1)
    assert np.array_equal(xs[:k], head_x) and np.array_equal(ys[:k], head_y)


@pytest.mark.parametrize("count", [0, 1, 700, 5000])
def test_accepted_stream_rejects_on_the_scipy_engine(count):
    # 33 dimensions take the engine branch; half of the box is rejected, so
    # 5000 points take two 8192-point blocks
    lo, hi = np.full(33, -1.0), np.full(33, 2.0)

    def accept(pts):
        return pts[:, 0] < pts[:, 32]

    got = sampling._accepted_stream(lo, hi, count, 11, 3, accept)
    assert got.tobytes() == oracle_stream(lo, hi, count, 11, 3, accept).tobytes()


def test_block_that_fills_the_request_gives_only_the_rows_needed():
    # ball(5) fills 16% of its box: 1000 points take three 2048-point blocks,
    # and the third holds more accepted rows than the request still needs
    domain, count, seed, tag = lf.ball(5), 1000, 2, 0
    lo, hi = domain.bounding_box()
    stream = lo + scipy_sobol(5, seed, tag).random(4 * 2048)[:3 * 2048] * (hi - lo)
    per_block = np.count_nonzero(domain.contains(stream).reshape(3, 2048), axis=1)
    assert per_block[:2].sum() < count < per_block.sum()
    got = lf.sample_domain(domain, count, seed, tag)
    assert np.array_equal(got, oracle_domain(domain, count, seed, tag))
