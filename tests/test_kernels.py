import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft

import levelform as lf
from levelform import kernels


def noise_function(m=512, a=-1.0, b=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return lf.GridFunction1D(a, b, rng.standard_normal(m))


# ---------------------------------------------------------------------------
# kernel object
# ---------------------------------------------------------------------------

def test_hilbert_kernel_values():
    k = lf.hilbert_kernel()
    s = np.array([0.5, 0.5])
    t = np.array([0.25, 1.0])
    want = 1.0 / (math.pi * (s - t))
    assert np.allclose(k.evaluate(s, t), want, rtol=1e-15)
    assert k.size_constant == pytest.approx(1.0 / math.pi)


def test_hilbert_diagonal_overflows_silently():
    # the quadrature guards the diagonal; evaluate itself must not raise
    k = lf.hilbert_kernel()
    v = k.evaluate(np.array([0.3]), np.array([0.3]))
    assert v.shape == (1,)
    assert np.isinf(v[0])


def test_kernel_and_cutoff_equality_see_their_functions():
    k = lf.hilbert_kernel()
    assert k == lf.Kernel1D(evaluate=k.evaluate, size_constant=k.size_constant,
                            dini_modulus=k.dini_modulus)
    assert lf.Kernel1D(evaluate=lambda s, t: s - t) != lf.Kernel1D(evaluate=lambda s, t: t - s)
    assert lf.Kernel1D(evaluate=k.evaluate, dini_modulus=lambda u: u) != \
        lf.Kernel1D(evaluate=k.evaluate, dini_modulus=lambda u: 2 * u)
    assert lf.smoothstep_cutoff() == lf.smoothstep_cutoff()
    assert lf.linear_ramp_cutoff() == lf.linear_ramp_cutoff()
    assert lf.Cutoff(fn=lambda r: r) != lf.Cutoff(fn=lambda r: 2 * r)


def test_modulus_dominates_sampled_increments():
    k = lf.hilbert_kernel()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(2000):
        s, t = rng.uniform(-3, 3, size=2)
        d = abs(s - t)
        if d < 1e-9:
            continue
        u = rng.uniform(0, d / 2)
        num = abs(k.evaluate(np.array([s + u]), np.array([t]))[0]
                  - k.evaluate(np.array([s]), np.array([t]))[0])
        den = k.dini_modulus(np.array([u / d]))[0] / d
        if den > 0:
            worst = max(worst, num / den)
    assert worst <= 1.0 + 1e-12
    # the sup is attained in the limit u -> d/2: ratio 3/4
    assert worst == pytest.approx(0.75, abs=0.02)


def test_verify_hk_package_report():
    rep = lf.verify_hk_package(lf.hilbert_kernel(), lf.smoothstep_cutoff(), seed=0)
    assert rep.size_ok and rep.dini_ok
    assert rep.max_size_ratio <= 1.0 + 1e-9
    assert rep.max_dini_ratio <= 1.0 + 1e-9
    assert rep.l2_ratio <= 1.05
    assert rep.samples == 20000


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------

def test_smoothstep_cutoff_shape():
    chi = lf.smoothstep_cutoff()
    r = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    want = np.array([0.0, 0.0, 0.5, 1.0, 1.0])
    assert np.allclose(chi.fn(r), want)


def test_linear_ramp_cutoff_shape():
    chi = lf.linear_ramp_cutoff()
    r = np.array([0.5, 1.0, 1.25, 2.0, 4.0])
    want = np.array([0.0, 0.0, 0.25, 1.0, 1.0])
    assert np.allclose(chi.fn(r), want)


def test_eps_ladder():
    lad = lf.eps_ladder(2, 5)
    assert list(lad) == [0.25, 0.125, 0.0625, 0.03125]
    with pytest.raises(lf.ConfigError):
        lf.eps_ladder(5, 2)


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

def test_grid_function_nodes_and_spacing():
    F = lf.GridFunction1D(-1.0, 1.0, np.zeros(8))
    assert F.spacing == pytest.approx(0.25)
    assert F.nodes[0] == pytest.approx(-0.875)
    assert F.nodes[-1] == pytest.approx(0.875)


def test_grid_function_from_function_and_norm():
    nodes = lf.GridFunction1D(0.0, 1.0, np.zeros(1000)).nodes
    F = lf.GridFunction1D(0.0, 1.0, nodes)
    # midpoint rule for t on [0,1]: L2 norm ~ 1/sqrt(3)
    assert F.norm(2.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-5)
    assert F.norm(1.0) == pytest.approx(0.5, rel=1e-8)


def test_bump_mixture_deterministic():
    F = lf.bump_mixture(-2.0, 2.0, 256, seed=11)
    G = lf.bump_mixture(-2.0, 2.0, 256, seed=11)
    H = lf.bump_mixture(-2.0, 2.0, 256, seed=12)
    assert np.array_equal(F.values, G.values)
    assert not np.array_equal(F.values, H.values)
    assert F.a == -2.0 and F.b == 2.0


# ---------------------------------------------------------------------------
# truncation quadrature
# ---------------------------------------------------------------------------

def test_residual_identity_exact():
    F = noise_function(512, seed=1)
    k = lf.hilbert_kernel()
    chi = lf.smoothstep_cutoff()
    eps = 0.125
    hard = lf.hard_truncation(k, F, eps)
    smooth = lf.smooth_truncation(k, chi, F, eps)
    resid = lf.residual_truncation(k, chi, F, eps)
    assert np.allclose(hard.values - smooth.values, resid.values,
                       rtol=0, atol=1e-13)


def test_truncation_resolution_guard():
    F = noise_function(64)  # spacing 1/32
    with pytest.raises(lf.ResolutionError):
        lf.hard_truncation(lf.hilbert_kernel(), F, 0.01)


def test_hard_truncation_odd_symmetry():
    # odd kernel, even function, symmetric grid -> odd output
    nodes = lf.GridFunction1D(-1.0, 1.0, np.zeros(256)).nodes
    F = lf.GridFunction1D(-1.0, 1.0, np.cos(nodes))
    out = lf.hard_truncation(lf.hilbert_kernel(), F, 0.25)
    assert np.allclose(out.values, -out.values[::-1], atol=1e-12)


def test_hard_truncation_against_direct_sum():
    # brute-force midpoint sum with cells split at s +- eps and s +- 2 eps,
    # matching the splits the shared quadrature applies for every mode
    F = noise_function(128, seed=7)
    k = lf.hilbert_kernel()
    eps = 0.25
    out = lf.hard_truncation(k, F, eps)
    h = F.spacing
    edges = F.a + h * np.arange(129)
    for si in [5, 60, 100]:
        s = F.nodes[si]
        total = 0.0
        for j in range(128):
            lo, hi = edges[j], edges[j + 1]
            marks = [s - 2 * eps, s - eps, s + eps, s + 2 * eps]
            cuts = sorted({lo, hi} | {c for c in marks if lo < c < hi})
            for a, b in zip(cuts[:-1], cuts[1:]):
                mid = 0.5 * (a + b)
                if abs(mid - s) > eps:
                    total += k.evaluate(np.array([s]), np.array([mid]))[0] \
                        * F.values[j] * (b - a)
        assert out.values[si] == pytest.approx(total, rel=1e-10, abs=1e-12)


def test_truncation_batch_matches_single_calls():
    F = lf.bump_mixture(-2.0, 2.0, 512, seed=4)
    k = lf.hilbert_kernel()
    chi = lf.smoothstep_cutoff()
    ramp = lf.linear_ramp_cutoff()
    eps = 0.0625
    jobs = [(lf.HARD, None), (lf.SMOOTH, chi), (lf.RESIDUAL, chi),
            (lf.SMOOTH, ramp)]
    batch = lf.truncation_batch(k, [F], eps, jobs)
    singles = [lf.hard_truncation(k, F, eps),
               lf.smooth_truncation(k, chi, F, eps),
               lf.residual_truncation(k, chi, F, eps),
               lf.smooth_truncation(k, ramp, F, eps)]
    for got, want in zip(batch, singles):
        scale = np.max(np.abs(want.values)) + 1e-30
        assert np.allclose(got[:, 0], want.values, rtol=0, atol=1e-12 * scale)


def test_truncation_batch_multiple_functions():
    k = lf.hilbert_kernel()
    fs = [noise_function(256, seed=s) for s in range(3)]
    batch = lf.truncation_batch(k, fs, 0.125, [(lf.HARD, None)])
    for col, F in enumerate(fs):
        want = lf.hard_truncation(k, F, 0.125)
        scale = np.max(np.abs(want.values)) + 1e-30
        assert np.allclose(batch[0][:, col], want.values, rtol=0,
                           atol=1e-12 * scale)


def test_truncation_batch_rejects_mixed_grids():
    k = lf.hilbert_kernel()
    F = noise_function(256)
    G = lf.GridFunction1D(0.0, 1.0, np.zeros(256))
    with pytest.raises(lf.ConfigError):
        lf.truncation_batch(k, [F, G], 0.125, [(lf.HARD, None)])


def test_truncation_eval_points():
    F = noise_function(256, seed=2)
    k = lf.hilbert_kernel()
    pts = np.array([-0.4, 0.0, 0.3])
    out = lf.hard_truncation(k, F, 0.25, eval_points=pts)
    assert out.shape == (3,)
    full = lf.hard_truncation(k, F, 0.25)
    # node-aligned eval points agree with the grid output
    node_out = lf.hard_truncation(k, F, 0.25, eval_points=F.nodes[10:13])
    assert np.allclose(node_out, full.values[10:13], rtol=1e-12)


def test_truncation_batch_rejects_empty_jobs():
    with pytest.raises(lf.ConfigError):
        lf.truncation_batch(lf.hilbert_kernel(), [noise_function(64)], 0.125, [])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_truncation_rejects_non_finite_input(bad):
    # under a convolution one bad cell would poison every output cell; the
    # values are read-only, so the write itself raises, and a copy holding the
    # bad cell is refused when a grid function is built from it
    k = lf.hilbert_kernel()
    F = noise_function(64, seed=3)
    with pytest.raises(ValueError, match="read-only"):
        F.values[7] = bad
    values = F.values.copy()
    values[7] = bad
    with pytest.raises(lf.ConfigError):
        lf.truncation_batch(k, [noise_function(64), lf.GridFunction1D(F.a, F.b, values)],
                            0.125, [(lf.HARD, None)])
    assert np.all(np.isfinite(lf.hard_truncation(k, F, 0.125, eval_points=[0.0])))


def complex_hilbert(s, t):
    with np.errstate(divide="ignore"):
        return (1 + 1j) / (math.pi * (np.asarray(s, dtype=float) - t))


TRUNCATE_COMPLEX = {
    "on_grid": lambda k, F: lf.hard_truncation(k, F, 0.1),
    "off_grid": lambda k, F: lf.hard_truncation(k, F, 0.1, eval_points=[-0.3, 0.05, 0.9]),
    "batch": lambda k, F: lf.truncation_batch(k, [F, noise_function(64, seed=4)], 0.1,
                                              [(lf.HARD, None), (lf.SMOOTH, lf.smoothstep_cutoff())]),
}


@pytest.mark.parametrize("call", TRUNCATE_COMPLEX.values(), ids=TRUNCATE_COMPLEX.keys())
def test_truncation_refuses_a_complex_valued_kernel(call):
    # the straddling halves and the real FFT of the stencils would each drop
    # the imaginary part; eps = 3.2 h puts cells across both radii
    kernel = lf.Kernel1D(evaluate=complex_hilbert)
    with pytest.raises(lf.ConfigError, match="truncation kernel must be real-valued, got complex128"):
        call(kernel, noise_function(64, seed=3))


@pytest.mark.parametrize("call", TRUNCATE_COMPLEX.values(), ids=TRUNCATE_COMPLEX.keys())
def test_truncation_refuses_a_complex_dtype_with_no_imaginary_part(call):
    # the refusal reads the kernel's dtype, not its values
    kernel = lf.Kernel1D(evaluate=lambda s, t: lf.hilbert_kernel().evaluate(s, t).astype(complex))
    with pytest.raises(lf.ConfigError, match="real-valued"):
        call(kernel, noise_function(64, seed=3))


# ---------------------------------------------------------------------------
# dense oracle for the stencil core
# ---------------------------------------------------------------------------

def _dense_mode_weight(mode, dist, eps, cutoff):
    hard = (dist > eps).astype(float)
    if mode == lf.HARD:
        return hard
    chi = np.asarray(cutoff.fn(dist / eps), dtype=float)
    return chi if mode == lf.SMOOTH else hard - chi


def dense_apply_batch(kernel, F, V, eps, jobs, eval_points=None):
    """Reference truncated actions through the full (points x cells) matrix.

    Works in node coordinates with k(s, t) evaluated directly: a cell that
    holds s +- eps or s +- 2 eps strictly inside is split there and its two
    pieces are added back with np.add.at; every other cell off the diagonal
    is evaluated at its centre. O(points x cells) time and memory.

    Nodes are built on the interval shifted to centre 0, and points are
    shifted by the same amount. The kernel depends only on s - t, so the
    actions are unchanged; differences of absolute coordinates far from the
    origin would cost the oracle digits.
    """
    h = F.spacing
    m = len(F.values)
    t = h * (np.arange(m) + 0.5 - 0.5 * m)
    centre = 0.5 * (F.a + F.b)
    s = t if eval_points is None else np.atleast_1d(np.asarray(eval_points, dtype=float)) - centre
    radii = (eps, 2.0 * eps)
    dist = np.abs(t[None, :] - s[:, None])
    straddle = np.zeros(dist.shape, dtype=bool)
    for rad in radii:
        for sign in (1.0, -1.0):
            cand = s[:, None] + sign * rad
            straddle |= (cand > t[None, :] - h / 2) & (cand < t[None, :] + h / 2)
    clear = dist > h / 2
    t_safe = np.where(clear, t[None, :], s[:, None] + 3.0 * eps)
    K = np.asarray(kernel.evaluate(np.broadcast_to(s[:, None], dist.shape), t_safe),
                   dtype=float)
    K[~clear] = 0.0

    rows, cols = np.nonzero(straddle)
    sr, tc = s[rows], t[cols]
    lo, hi = tc - h / 2, tc + h / 2
    cut = np.full(len(rows), np.nan)
    for rad in radii:
        for sign in (1.0, -1.0):
            cand = sr + sign * rad
            inside = (cand > lo) & (cand < hi)
            cut[inside] = cand[inside]
    assert not np.any(np.isnan(cut))
    halves = []
    for seg_lo, seg_hi in ((lo, cut), (cut, hi)):
        mid = 0.5 * (seg_lo + seg_hi)
        halves.append((seg_hi - seg_lo, np.abs(mid - sr),
                       np.asarray(kernel.evaluate(sr, mid), dtype=float)))

    outs = []
    for mode, cutoff in jobs:
        w = _dense_mode_weight(mode, dist, eps, cutoff)
        w[straddle] = 0.0
        out = ((K * w) @ V) * h
        corr = sum(kv * _dense_mode_weight(mode, d_mid, eps, cutoff) * width
                   for width, d_mid, kv in halves)
        np.add.at(out, rows, corr[:, None] * V[cols, :])
        outs.append(out)
    return outs


ALL_JOBS = [(lf.HARD, None)] + [(mode, cutoff)
                                for cutoff in (lf.smoothstep_cutoff(), lf.linear_ramp_cutoff())
                                for mode in (lf.SMOOTH, lf.RESIDUAL)]


def assert_matches_oracle(got, kernel, F, V, eps, jobs, eval_points=None):
    """Match the dense oracle to 1e-12 of each column's largest absolute action.

    The absolute action is the oracle run with |k| on |V|. Every mode weight
    is >= 0, so it bounds the terms each output sums, and with them its
    rounding, however far those terms cancel.
    """
    want = dense_apply_batch(kernel, F, V, eps, jobs, eval_points)
    abs_kernel = lf.Kernel1D(evaluate=lambda s, t: np.abs(kernel.evaluate(s, t)))
    bound = dense_apply_batch(abs_kernel, F, np.abs(V), eps, jobs, eval_points)
    for g, w, b in zip(got, want, bound):
        assert g.shape == w.shape and g.dtype == w.dtype
        scale = np.max(b, axis=0)
        assert np.all(np.abs(g - w) <= 1e-12 * scale), np.max(np.abs(g - w) / scale)


@given(m=st.integers(8, 600), a=st.floats(-3.0, 1.0), width=st.floats(0.25, 5.0),
       eps_cells=st.floats(2.0, 400.0), columns=st.integers(1, 3),
       complex_values=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
# an interval ~6000 cells from the origin once cost the unshifted oracle 1.2e-12
@example(m=491, a=-3.0, width=0.25, eps_cells=2.0, columns=1, complex_values=False, seed=0)
# off-grid outputs of 2.3e-9 summing terms near 1e-3 once beat a basis of max |oracle|
@example(m=208, a=0.0, width=1.0, eps_cells=207.125, columns=2, complex_values=False,
         seed=4076551)
def test_stencil_core_matches_dense_oracle(m, a, width, eps_cells, columns,
                                           complex_values, seed):
    rng = np.random.default_rng(seed)
    functions = []
    for _ in range(columns):
        vals = rng.standard_normal(m)
        if complex_values:
            vals = vals + 1j * rng.standard_normal(m)
        functions.append(lf.GridFunction1D(a, a + width, vals))
    F = functions[0]
    eps = eps_cells * F.spacing
    V = np.column_stack([G.values for G in functions])
    k = lf.hilbert_kernel()

    got = lf.truncation_batch(k, functions, eps, ALL_JOBS)
    assert_matches_oracle(got, k, F, V, eps, ALL_JOBS)

    pts = np.concatenate([rng.uniform(a - width / 4, a + 1.25 * width, 7),
                          F.nodes[rng.integers(0, m, 5)]])
    got = kernels._apply_batch(k, F, V, eps, ALL_JOBS, eval_points=pts)
    assert_matches_oracle(got, k, F, V, eps, ALL_JOBS, pts)


def test_off_grid_row_chunks_match_dense_oracle():
    # the evaluation points fill three row chunks and part of a fourth
    F = noise_function(4096, seed=5)
    chunk = kernels._OFFGRID_CHUNK // len(F.values)
    pts = np.random.default_rng(6).uniform(-1.25, 1.25, 3 * chunk + chunk // 3)
    k = lf.hilbert_kernel()
    V = F.values[:, None]
    got = kernels._apply_batch(k, F, V, 0.1, ALL_JOBS, eval_points=pts)
    assert_matches_oracle(got, k, F, V, 0.1, ALL_JOBS, pts)


def test_off_grid_truncation_in_bounded_memory():
    # 2048 points against 1024 cells: one chunk of all rows would hold several
    # 2048 x 1024 temporaries of 16 MiB each
    F = noise_function(1024, seed=7)
    pts = np.linspace(-1.1, 1.1, 2048)
    tracemalloc.start()
    try:
        got = lf.hard_truncation(lf.hilbert_kernel(), F, 0.25, eval_points=pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (2048,) and np.all(np.isfinite(got))
    assert peak < 24 * 2 ** 20


def scipy_toeplitz_apply(stencils, V):
    """The stencil convolution on scipy.fft, complex columns as their two real parts."""
    if np.iscomplexobj(V):
        columns = V.shape[1]
        parts = scipy_toeplitz_apply(stencils, np.hstack([V.real, V.imag]))
        return parts[:, :, :columns] + 1j * parts[:, :, columns:]
    m = len(V)
    n = sp_fft.next_fast_len(3 * m - 2, real=True)
    spectra = sp_fft.rfft(stencils, n=n, axis=1)[:, :, None]
    full = sp_fft.irfft(spectra * sp_fft.rfft(V, n=n, axis=0)[None], n=n, axis=1)
    return full[:, m - 1:2 * m - 1]


def fast_length_cells(limit=16384):
    """Cell counts m whose padded length 3m - 2 sits just below, on or just past a fast length."""
    cells = set()
    length = 1
    while length <= 3 * limit - 2:
        m = -(-(length + 2) // 3)  # least m with 3m - 2 >= length
        cells.update(c for c in (m - 1, m, m + 1) if 1 <= c <= limit)
        length = sp_fft.next_fast_len(length + 1, real=True)
    return sorted(cells)


@given(m=st.one_of(st.sampled_from(fast_length_cells()), st.integers(1, 16384)),
       jobs=st.integers(1, 3), columns=st.integers(1, 3), complex_values=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
@example(m=4096, jobs=3, columns=6, complex_values=False, seed=0)
@example(m=512, jobs=1, columns=1, complex_values=True, seed=0)
def test_toeplitz_apply_matches_scipy_fft(m, jobs, columns, complex_values, seed):
    rng = np.random.default_rng(seed)
    stencils = rng.standard_normal((jobs, 2 * m - 1))
    V = rng.standard_normal((m, columns))
    if complex_values:
        V = V + 1j * rng.standard_normal((m, columns))
    got = kernels._toeplitz_apply(stencils, V)
    want = scipy_toeplitz_apply(stencils, V)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_next_fast_len_matches_scipy():
    lengths = range(1, 50_001)
    assert ([kernels._next_fast_len(n) for n in lengths]
            == [sp_fft.next_fast_len(n, real=True) for n in lengths])


def test_radius_on_cell_edge():
    # 2 eps = 128.5 cells: the radius sits on a cell edge, where a split
    # decided by distance alone disagreed with the cut search under rounding
    F = noise_function(257, a=-2.0, b=2.0, seed=4)
    k = lf.hilbert_kernel()
    got = lf.truncation_batch(k, [F], 1.0, ALL_JOBS)
    assert_matches_oracle(got, k, F, F.values[:, None], 1.0, ALL_JOBS)


# ---------------------------------------------------------------------------
# maximal operators
# ---------------------------------------------------------------------------

def test_hl_maximal_dominates_pointwise():
    F = noise_function(256, seed=6)
    M = lf.hl_maximal(F)
    assert np.all(M.values >= np.abs(F.values) - 1e-12)
    assert np.max(M.values) <= np.max(np.abs(F.values)) + 1e-12


def test_hl_maximal_constant_fixed_point():
    F = lf.GridFunction1D(0.0, 1.0, np.full(32, 2.5))
    M = lf.hl_maximal(F)
    assert np.allclose(M.values, 2.5)


def test_hl_maximal_brute_force_small():
    rng = np.random.default_rng(8)
    vals = rng.standard_normal(16)
    F = lf.GridFunction1D(0.0, 1.0, vals)
    M = lf.hl_maximal(F)
    a = np.abs(vals)
    for i in range(16):
        best = 0.0
        for j in range(16):
            for k2 in range(j, 16):
                if j <= i <= k2:
                    best = max(best, np.mean(a[j:k2 + 1]))
        assert M.values[i] == pytest.approx(best, rel=1e-12)


@given(st.lists(st.floats(-10, 10), min_size=4, max_size=64))
@settings(max_examples=40, deadline=None)
def test_hl_maximal_invariants(vals):
    F = lf.GridFunction1D(0.0, 1.0, np.array(vals))
    M = lf.hl_maximal(F)
    assert np.all(M.values >= np.abs(F.values) - 1e-12)
    assert np.all(M.values <= np.max(np.abs(F.values)) + 1e-12)
    # scaling equivariance
    M2 = lf.hl_maximal(lf.GridFunction1D(0.0, 1.0, 3.0 * np.array(vals)))
    assert np.allclose(M2.values, 3.0 * M.values, rtol=1e-12, atol=1e-12)


def hl_maximal_scan(values):
    """O(m^2) oracle: every window's average (P[b] - P[a]) / (b - a), each
    start's suffix maxima spread over the cells its windows cover."""
    absv = np.abs(np.asarray(values)).astype(float)
    m = len(absv)
    prefix = np.concatenate([[0.0], np.cumsum(absv)])
    out = np.zeros(m)
    for j in range(m):
        lengths = np.arange(1, m - j + 1, dtype=float)
        avg = (prefix[j + 1:] - prefix[j]) / lengths
        suffix = np.maximum.accumulate(avg[::-1])[::-1]
        np.maximum(out[j:], suffix, out=out[j:])
    return out


def assert_maximal_matches_scan(values):
    got = lf.hl_maximal(lf.GridFunction1D(0.0, 1.0, values)).values
    want = hl_maximal_scan(values)
    assert np.array_equal(got, want), np.flatnonzero(got != want)[:10]


@st.composite
def maximal_inputs(draw):
    """Signals of up to 300 cells built from noise, zero runs, plateaus and
    small-integer ties, at scales from subnormal to 1e300."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for kind, n in draw(st.lists(st.tuples(
            st.sampled_from(["noise", "zeros", "plateau", "ties"]), st.integers(1, 120)),
            min_size=1, max_size=8)):
        if kind == "noise":
            parts.append(rng.standard_normal(n))
        elif kind == "zeros":
            parts.append(np.zeros(n))
        elif kind == "plateau":
            parts.append(np.full(n, rng.uniform(-3.0, 3.0)))
        else:
            parts.append(rng.integers(-2, 3, n).astype(float))
    scale = draw(st.sampled_from([1e-320, 1e-300, 1e-8, 1.0, 1e6, 1e300]))
    return scale * np.concatenate(parts)[:300]


@given(maximal_inputs())
@settings(max_examples=150, deadline=None)
def test_hl_maximal_equals_scan(values):
    assert_maximal_matches_scan(values)


@pytest.mark.parametrize("kind", ["bump", "noise"])
@pytest.mark.parametrize("m", [1, 63, 64, 65, 127, 128, 129, 257, 4099])
def test_hl_maximal_equals_scan_across_block_edges(m, kind):
    if kind == "bump":
        values = lf.bump_mixture(-2.0, 2.0, m, seed=m).values
    else:
        values = noise_function(m, seed=m).values
    assert_maximal_matches_scan(values)


@st.composite
def long_maximal_inputs(draw):
    """Signals of 1,000 to 6,000 cells that repeat a few runs of plateaus,
    small-integer ties and noise. Their wide merges take the kept-set branch
    with more than _HL_CHUNK quotients, and long plateaus and ties the
    full-table branch, so both cross their chunk edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1000, 6000))
    runs = draw(st.lists(st.tuples(st.sampled_from(["noise", "plateau", "ties"]),
                                   st.integers(1, 3000)), min_size=1, max_size=6))
    parts, total = [], 0
    while total < m:
        for kind, n in runs:
            if kind == "noise":
                parts.append(rng.standard_normal(n))
            elif kind == "plateau":
                parts.append(np.full(n, rng.uniform(-3.0, 3.0)))
            else:
                parts.append(rng.integers(-2, 3, n).astype(float))
            total += n
    return np.concatenate(parts)[:m]


@given(long_maximal_inputs())
@settings(max_examples=12, deadline=None)
def test_hl_maximal_equals_scan_on_long_signals(values):
    assert_maximal_matches_scan(values)


@pytest.mark.parametrize("kind", ["bump", "noise"])
def test_hl_maximal_equals_scan_past_a_block_chunk(kind):
    # the in-block windows are swept 128 blocks (8192 cells) at a time; the
    # second chunk here holds one whole block and one of a single cell
    m = 8192 + 65
    if kind == "bump":
        values = lf.bump_mixture(-2.0, 2.0, m, seed=m).values
    else:
        values = noise_function(m, seed=m).values
    assert_maximal_matches_scan(values)


def test_hl_maximal_keeps_ends_a_zero_tolerance_would_pop():
    # plateaus of five cells: with no rounding tolerance the chain pops an
    # end whose float average over cells 1..294 beats every kept end's
    code = "230113101331232303213022113230111202220032001022121202111100"
    values = np.repeat(np.array([0.1, 0.2, 0.3, 0.7])[[int(c) for c in code]], 5)
    assert_maximal_matches_scan(values)


def test_hl_maximal_constant_keeps_every_point_in_bounded_memory():
    # every point of a constant signal is a near-tie, so no kept set shrinks;
    # the quotient table is still built in chunks (a whole top-level table
    # would be 2048 x 2048 doubles, 32 MiB)
    values = np.full(4096, 0.7)
    tracemalloc.start()
    try:
        got = lf.hl_maximal(lf.GridFunction1D(0.0, 1.0, values)).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, hl_maximal_scan(values))
    assert peak < 4 * 2 ** 20


def test_residual_bounded_by_maximal():
    # the discrete form of the pointwise residual bound, unit scale
    k = lf.hilbert_kernel()
    chi = lf.smoothstep_cutoff()
    for seed in range(5):
        F = lf.bump_mixture(-2.0, 2.0, 1024, seed=seed)
        M = lf.hl_maximal(F)
        for eps in lf.eps_ladder(2, 6):
            resid = lf.residual_truncation(k, chi, F, eps)
            bound = 4.0 * k.size_constant * M.values + 1e-12
            assert np.all(np.abs(resid.values) <= bound), (seed, eps)


def test_smoothed_dini_constant_finite():
    c = lf.smoothed_dini_constant(lf.hilbert_kernel(), lf.smoothstep_cutoff(),
                                  lf.eps_ladder(2, 5), seed=0)
    assert np.isfinite(c) and c > 0
