"""One-dimensional singular kernels, truncations, and maximal operators.

Kernels carry their size constant and smoothness modulus so hypotheses can be
spot-checked by sampling. Every kernel is a convolution kernel: k(s, t)
depends on s - t alone and is evaluated as kernel.evaluate(s - t, 0.0).

Truncated actions are composite midpoint quadratures on a uniform grid whose
cells are split exactly at the truncation radii |s - t| = eps and 2 eps, which
makes hard minus smooth agree with the annulus residual to rounding and keeps
the cutoff plateaus exact. The weight of a cell depends only on its offset
from the output point, so on the grid each action is a Toeplitz stencil over
the 2m - 1 node offsets, applied by FFT convolution in column groups through
reused buffers; off-grid output points use the same cell weights in a matrix
product.

The convolution runs on numpy.fft at the lengths scipy.fft.next_fast_len
picks for real input, and its output is bit for bit that of scipy.fft.
Complex columns go through the same real transform as their real and
imaginary parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigError, ResolutionError, require_callable, require_finite,
                     require_instance, require_interval, require_real, require_reals,
                     require_whole, typed)
from .sampling import derived_rng

HARD = "hard"
SMOOTH = "smooth"
RESIDUAL = "residual"


# ---------------------------------------------------------------------------
# kernels and cutoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel1D:
    """Off-diagonal convolution kernel k(s, t) = k(s - t) with size and smoothness data.

    The truncation quadrature evaluates it as evaluate(s - t, 0.0).
    """

    evaluate: Callable
    size_constant: float = 1.0
    dini_modulus: Callable | None = None

    def __post_init__(self):
        require_callable(self.evaluate, "kernel evaluate")
        require_real(self.size_constant, "kernel size constant", above=0)
        if self.dini_modulus is not None:
            require_callable(self.dini_modulus, "kernel dini_modulus")


def _hilbert_eval(s, t):
    with np.errstate(divide="ignore"):
        return 1.0 / (math.pi * (np.asarray(s, dtype=float) - np.asarray(t, dtype=float)))


def _hilbert_modulus(u):
    u = np.asarray(u, dtype=float)
    return (2.0 / math.pi) * u / (1.0 - u / 2.0)


def hilbert_kernel() -> Kernel1D:
    """Reference kernel 1/(pi (s - t)) with its verified modulus."""
    return Kernel1D(evaluate=_hilbert_eval, size_constant=1.0 / math.pi,
                    dini_modulus=_hilbert_modulus)


@dataclass(frozen=True)
class Cutoff:
    """Radial multiplier profile chi(r): 0 on [0,1], 1 on [2,inf)."""

    fn: Callable

    def __post_init__(self):
        require_callable(self.fn, "cutoff fn")


def _smoothstep_chi(r):
    u = np.clip(np.asarray(r, dtype=float) - 1.0, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _ramp_chi(r):
    return np.clip(np.asarray(r, dtype=float) - 1.0, 0.0, 1.0)


def smoothstep_cutoff() -> Cutoff:
    return Cutoff(fn=_smoothstep_chi)


def linear_ramp_cutoff() -> Cutoff:
    return Cutoff(fn=_ramp_chi)


def eps_ladder(k_min: int = 2, k_max: int = 8) -> list[float]:
    for k in (k_min, k_max):
        # 2.0 ** 1024 overflows and 2.0 ** -1075 is 0.0
        require_whole(k, "dyadic exponent", minimum=-1023)
        if k > 1074:
            raise ConfigError(f"dyadic exponent must be <= 1074, got {k!r}")
    if k_max < k_min:
        raise ConfigError("need k_max >= k_min")
    return [2.0 ** (-k) for k in range(k_min, k_max + 1)]


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridFunction1D:
    """Cell-averaged function on a uniform grid over [a, b].

    Values live at cell centers; the function is treated as zero outside
    [a, b] by every operator in this module. The values are a read-only copy
    of the array given, checked once here: a write into them raises
    ValueError, so no reader needs to check them again.
    """

    a: float
    b: float
    values: np.ndarray

    def __post_init__(self):
        values = np.array(require_finite(self.values, "grid function values"))
        if values.ndim != 1 or len(values) < 1:
            raise ConfigError("grid function needs a 1d value array")
        require_interval(self.a, self.b, "grid function interval")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def spacing(self) -> float:
        return (self.b - self.a) / len(self.values)

    @property
    def nodes(self) -> np.ndarray:
        return self.a + self.spacing * (np.arange(len(self.values)) + 0.5)

    def norm(self, r: float = 2.0) -> float:
        require_real(r, "grid norm exponent r", above=0)
        return float(np.sum(np.abs(self.values) ** r) * self.spacing) ** (1.0 / r)


def bump_mixture(a: float, b: float, m: int, seed: int) -> GridFunction1D:
    """Nonnegative test signal: six narrow Gaussian bumps over a 0.05 noise floor.

    Concentrated enough that stopping-time constructions actually fire.
    """
    require_whole(m, "bump mixture cell count")
    require_interval(a, b, "bump mixture interval")
    rng = derived_rng(seed, 41)
    t = np.linspace(a, b, m, endpoint=False) + (b - a) / (2 * m)
    v = 0.05 * np.abs(rng.standard_normal(m))
    span = b - a
    # keep bumps at least a cell wide so coarse grids stay usable
    w_lo = span / m
    w_hi = max(0.01 * span, 2.0 * w_lo)
    for _ in range(6):
        c = rng.uniform(a, b)
        amp = rng.uniform(1.0, 10.0)
        width = rng.uniform(w_lo, w_hi)
        v = v + amp * np.exp(-(((t - c) / width) ** 2))
    return GridFunction1D(a, b, v)


# ---------------------------------------------------------------------------
# truncated actions
# ---------------------------------------------------------------------------

def _mode_weight(mode: str, dist: np.ndarray, eps: float, cutoff: Cutoff | None):
    """The truncation factor of `mode` at distances `dist`; the hard factor is
    a boolean array, which a product with floats reads as 1.0 and 0.0."""
    if mode == HARD:
        return dist > eps
    # one value per distance: off-grid distances are 2-d, and a cutoff that
    # gave one number would broadcast over them
    flat = dist.reshape(-1) / eps
    chi = require_reals(cutoff.fn(flat), "cutoff values", flat.size).reshape(dist.shape)
    if mode == SMOOTH:
        return chi
    return (dist > eps) - chi


def _cell_weights(kernel: Kernel1D, u: np.ndarray, h: float, eps: float,
                  jobs: Sequence[tuple[str, Cutoff | None]]) -> list[np.ndarray]:
    """Quadrature weight of a width-h cell whose centre sits at offset u = s - t.

    Returns one array shaped like u per job. A cell that straddles |u| = eps
    or 2 eps is split at the radius and each piece is evaluated at its own
    midpoint; the cell holding u = 0 weighs nothing, as every mode already
    does there because eps >= 2h.

    The straddle test runs only on the few cells within about h of a radius,
    found by one pass of the distance to the nearest radius; see
    `_near_radius`.
    """
    dist = np.abs(u)
    clear = dist > h / 2
    # keep kernel evaluations off the diagonal where every weight vanishes
    K = np.where(clear, kernel.evaluate(np.where(clear, u, 3.0 * eps), 0.0), 0.0)
    # the split halves and the real FFT of the stencils would drop an imaginary part
    if K.dtype.kind == "c":
        raise ConfigError(f"truncation kernel must be real-valued, got {K.dtype} values")
    # a product with the boolean hard factor keeps K's dtype; one with a float
    # factor would make it at least float64
    K = K.astype(np.result_type(K, float), copy=False)
    near = _near_radius(dist, h, eps)
    un = u.reshape(-1).take(near)
    # a cell can only hold the radius nearest its centre: radii sit >= 2h apart
    rad = np.copysign(np.where(np.abs(un) < 1.5 * eps, eps, 2.0 * eps), un)
    straddle = (un - h / 2 < rad) & (rad < un + h / 2)

    cells, us, cut = near[straddle], un[straddle], rad[straddle]
    lo, hi = us - h / 2, us + h / 2
    halves = []
    for seg_lo, seg_hi in ((lo, cut), (cut, hi)):
        mid = 0.5 * (seg_lo + seg_hi)
        halves.append((seg_hi - seg_lo, np.abs(mid),
                       np.asarray(kernel.evaluate(mid, 0.0), dtype=float)))

    weights = []
    for mode, cutoff in jobs:
        w = K * _mode_weight(mode, dist, eps, cutoff)
        w *= h
        np.put(w, cells, sum(kv * _mode_weight(mode, d_mid, eps, cutoff) * width
                             for width, d_mid, kv in halves))
        weights.append(w)
    return weights


def _near_radius(dist: np.ndarray, h: float, eps: float) -> np.ndarray:
    """Flat indices of the offsets whose distance to the nearer radius,
    computed as |abs(dist - 1.5 eps) - 0.5 eps|, is under `reach`: a
    superset of the cells that straddle eps or 2 eps.

    Why rounding hides no straddling cell. The straddle test compares the
    radius r, a float, with the rounded u - h/2 and u + h/2; rounding is
    monotone, so a cell passes only if |u| lies within h/2 of r in exact
    arithmetic. With eps >= 2h that puts |u| within eps/4 of r, on r's side
    of 1.5 eps, where the exact expression equals ||u| - r| < h/2. Its three
    rounded operations err by at most 2^-53 times the size of their results,
    1.5 eps for the product and under 0.75 eps and 0.25 eps for the two
    differences, so the computed value exceeds the exact one by under
    3 eps 2^-53. `reach`, h plus 8 eps 2^-53, exceeds h/2 plus that bound
    even after its own rounding, whatever the ratio eps/h (barring underflow
    and overflow).
    """
    reach = h + 8.0 * eps * 2.0**-53
    gap = dist - 1.5 * eps
    np.abs(gap, out=gap)
    gap -= 0.5 * eps
    np.abs(gap, out=gap)
    return np.flatnonzero(gap < reach)


def _next_fast_len(n: int) -> int:
    """Smallest length >= n with no prime factor above 5.

    These are the lengths scipy.fft.next_fast_len returns for real input.
    """
    top = 1 << (n - 1).bit_length()
    odd = [1]
    for p in (3, 5):
        grown = []
        for q in odd:
            while q <= top:
                grown.append(q)
                q *= p
        odd = grown
    # pad each odd part with the least power of two that reaches n
    return min(q << (-(-n // q) - 1).bit_length() for q in odd)


def _toeplitz_apply(stencils: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Apply each row of `stencils` (offsets 1 - m .. m - 1) to every column of V.

    `stencils` is real, (jobs, 2m - 1); V is (m, columns), real or complex.
    Returns (jobs, m, columns). The stencil spectra are taken once; V is
    transformed in column groups of at most `_TOEPLITZ_GROUP` spectrum values,
    and each job's product and inverse of a group go through the same two
    buffers, so no full-length transform of every job and column is held at
    once. Each inverse is the same 1-D transform, along axis 0, of the same
    product as in one batched call, so the grouping moves no bit.
    """
    if np.iscomplexobj(V):
        columns = V.shape[1]
        parts = _toeplitz_apply(stencils, np.hstack([V.real, V.imag]))
        return parts[:, :, :columns] + 1j * parts[:, :, columns:]
    m, columns = V.shape
    n = _next_fast_len(3 * m - 2)
    spectra = np.fft.rfft(stencils, n=n, axis=1)[:, :, None]
    group = max(1, _TOEPLITZ_GROUP // (n // 2 + 1))
    out = np.empty((len(stencils), m, columns))
    for c0 in range(0, columns, group):
        block = np.fft.rfft(V[:, c0:c0 + group], n=n, axis=0)
        product = np.empty_like(block)
        full = np.empty((n, block.shape[1]))
        for job, spectrum in enumerate(spectra):
            np.multiply(spectrum, block, out=product)
            np.fft.irfft(product, n=n, axis=0, out=full)
            out[job, :, c0:c0 + group] = full[m - 1:2 * m - 1]
    return out


def _apply_batch(kernel: Kernel1D, F: GridFunction1D, V: np.ndarray, eps: float,
                 jobs: Sequence[tuple[str, Cutoff | None]],
                 eval_points=None) -> list[np.ndarray]:
    """Truncated actions of every job on every column of V (grid of F).

    On the grid the cell weights form one Toeplitz stencil per job over the
    2m - 1 node offsets, applied by FFT convolution in column groups through
    reused buffers.
    Off the grid the same weights are evaluated on the point-to-node offsets
    and applied by matrix products in bounded row chunks.
    """
    require_real(eps, "truncation radius", above=0)
    h = F.spacing
    if eps < 2.0 * h:
        raise ResolutionError(f"eps={eps!r} under resolution floor 2h={2 * h!r}")
    if not jobs:
        raise ConfigError("need at least one truncation job")
    for mode, cutoff in jobs:
        if mode not in (HARD, SMOOTH, RESIDUAL):
            raise ConfigError(f"unknown truncation mode {mode!r}")
        if mode != HARD:
            require_instance(cutoff, Cutoff, f"a {mode} action's cutoff")

    m = len(F.values)
    if eval_points is None:
        stencils = _cell_weights(kernel, h * np.arange(1 - m, m), h, eps, jobs)
        return list(_toeplitz_apply(np.stack(stencils), V))

    t = F.nodes
    s = np.atleast_1d(require_reals(eval_points, "truncation evaluation points"))
    if s.ndim != 1 or len(s) < 1:
        raise ConfigError("truncation evaluation points must be a nonempty 1d array")
    outs = [np.empty((len(s), V.shape[1]), np.result_type(V, float)) for _ in jobs]
    chunk = max(1, _OFFGRID_CHUNK // m)
    for c0 in range(0, len(s), chunk):
        u = s[c0:c0 + chunk, None] - t[None, :]
        for out, W in zip(outs, _cell_weights(kernel, u, h, eps, jobs)):
            out[c0:c0 + chunk] = W @ V
    return outs


def _single_action(kernel: Kernel1D, F: GridFunction1D, eps: float, mode: str,
                   cutoff: Cutoff | None, eval_points=None):
    out, = _apply_batch(kernel, F, F.values[:, None], eps, [(mode, cutoff)],
                        eval_points=eval_points)
    if eval_points is None:
        return GridFunction1D(F.a, F.b, out[:, 0])
    return out[:, 0]


@typed
def hard_truncation(kernel: Kernel1D, F: GridFunction1D, eps: float,
                    eval_points=None):
    """Quadrature of k(s, t) F(t) over {|s - t| > eps}."""
    return _single_action(kernel, F, eps, HARD, None, eval_points)


@typed
def smooth_truncation(kernel: Kernel1D, cutoff: Cutoff, F: GridFunction1D,
                      eps: float) -> GridFunction1D:
    """Quadrature of k(s, t) chi(|s - t| / eps) F(t)."""
    return _single_action(kernel, F, eps, SMOOTH, cutoff)


@typed
def residual_truncation(kernel: Kernel1D, cutoff: Cutoff, F: GridFunction1D,
                        eps: float) -> GridFunction1D:
    """Hard minus smooth action, supported on the annulus eps < |s - t| < 2 eps."""
    return _single_action(kernel, F, eps, RESIDUAL, cutoff)


@typed
def truncation_batch(kernel: Kernel1D, functions: Sequence[GridFunction1D],
                     eps: float, jobs: Sequence[tuple[str, Cutoff | None]]) -> list[np.ndarray]:
    """Apply several truncated actions to several functions on one grid.

    Returns one (cells x functions) array per job, sharing all kernel and
    cut-cell geometry, which is much faster than repeated single calls.
    """
    if not functions:
        raise ConfigError("need at least one grid function")
    first = functions[0]
    for F in functions:
        require_instance(F, GridFunction1D, "truncation input")
        if (F.a, F.b, len(F.values)) != (first.a, first.b, len(first.values)):
            raise ConfigError("batch needs a common grid")
    V = np.column_stack([F.values for F in functions])
    return _apply_batch(kernel, first, V, eps, jobs)


# hl_maximal takes windows inside blocks of this many cells by brute force,
_HL_BLOCK = 64
# and builds its quotient tables in chunks of this many elements
_HL_CHUNK = 1 << 13
# point-to-node offsets per row chunk of off-grid truncation; a chunk holds
# about five live temporaries of this size. At 1 << 18 they took 2 MiB each,
# above glibc's mmap threshold, and every chunk was mapped and faulted in afresh.
_OFFGRID_CHUNK = 1 << 15
# spectrum values per column group of the on-grid convolution, or one column's
# where a column holds more: one column at m = 4096, every column at small m
_TOEPLITZ_GROUP = 1 << 13


def _block_maxima(prefix: np.ndarray, m: int) -> np.ndarray:
    """Best average over the windows that fit inside one block, per cell."""
    B = _HL_BLOCK
    nb = -(-m // B)
    # the last block is filled with zero cells: a window reaching into them
    # rounds to no more than the window cut at m, which covers the same cells
    P = np.concatenate([prefix, np.full(nb * B - m, prefix[-1])])
    # starts[a, k], ends[c, k]: P at cell a of block k and past its cell c
    starts, ends = P[:-1].reshape(nb, B).T.copy(), P[1:].reshape(nb, B).T.copy()
    out = np.empty((B, nb))
    step = max(1, _HL_CHUNK // B)
    for k in range(0, nb, step):
        # best[a]: best window from a that ends at or past c, as c falls
        best = np.full(starts[:, k:k + step].shape, -np.inf)
        for c in range(B - 1, -1, -1):
            q = ends[c, k:k + step] - starts[:c + 1, k:k + step]
            q /= np.arange(c + 1.0, 0.0, -1.0)[:, None]  # lengths of [a, c + 1)
            np.maximum(best[:c + 1], q, out=best[:c + 1])
            best[:c + 1].max(axis=0, out=out[c, k:k + step])
    return out.T.ravel()[:m]


def _block_sets(prefix: np.ndarray, m: int, tol: float, sign: int) -> list[list[int]]:
    """The upper (sign 1) or lower (sign -1) kept set of every block.

    Block k covers cells 64k .. 64k + 63; its upper set is drawn from the
    window ends 64k + 1 .. 64k + 64 and its lower set from the window starts
    64k .. 64k + 63. A point goes when it lies more than tol below (above)
    the chord between its surviving neighbours in the block; the passes run
    until none goes.
    """
    first = (1 + sign) // 2
    idx = np.arange(first, m + first)
    while len(idx) > 2:
        x0, x1, x2 = idx[:-2], idx[1:-1], idx[2:]
        y0, y1, y2 = prefix[x0], prefix[x1], prefix[x2]
        gap = sign * (y0 + (y2 - y0) * ((x1 - x0) / (x2 - x0)) - y1)
        block = (idx - first) // _HL_BLOCK
        drop = (gap > tol) & (block[:-2] == block[2:])
        if not drop.any():
            break
        idx = idx[np.concatenate([[True], ~drop, [True]])]
    cuts = np.searchsorted(idx, np.arange(first + _HL_BLOCK, m + first, _HL_BLOCK))
    return [part.tolist() for part in np.split(idx, cuts)]


def _chain(P: list[float], stack: list[int], points: list[int], tol: float,
           sign: int) -> list[int]:
    """Push `points` onto the kept set `stack`, popping its top while that
    lies more than tol below (sign 1) or above (sign -1) the chord from the
    point under it to the new point, by the test of `_block_sets`."""
    for x2 in points:
        y2 = P[x2]
        while len(stack) > 1:
            x0, x1 = stack[-2], stack[-1]
            if not sign * (P[x0] + (y2 - P[x0]) * ((x1 - x0) / (x2 - x0)) - P[x1]) > tol:
                break
            stack.pop()
        stack.append(x2)
    return stack


def _row_maxima(prefix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Max of (P[c] - P[r]) / (c - r) over the few cols of each row, from
    cols-by-rows tables of _HL_CHUNK quotients or one row."""
    ends, at = prefix[cols, None], cols[:, None].astype(float)
    step = max(1, _HL_CHUNK // len(cols))
    chunks = [rows[r:r + step] for r in range(0, len(rows), step)]
    return np.concatenate([((ends - prefix[start]) / (at - start)).max(axis=0) for start in chunks])


def _window_maxima(prefix: np.ndarray, rows: np.ndarray,
                   cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max of (P[c] - P[r]) / (c - r) over the cols of each row and over the
    rows of each col, from rows-by-cols tables of _HL_CHUNK quotients or one row."""
    ends, at = prefix[cols], cols.astype(float)
    row_max = np.empty(len(rows))
    col_max = np.full(len(cols), -np.inf)
    step = max(1, _HL_CHUNK // len(cols))
    for r in range(0, len(rows), step):
        start = rows[r:r + step, None]
        q = ends - prefix[start]
        q /= at - start
        q.max(axis=1, out=row_max[r:r + step])
        np.maximum(col_max, q.max(axis=0), out=col_max)
    return row_max, col_max


@typed
def hl_maximal(F: GridFunction1D) -> GridFunction1D:
    """Exact discrete maximal average of |F| over grid-aligned windows.

    For each node, the supremum of the average of |F| over every contiguous
    block of whole cells whose span contains the node. Each window [a, b)
    averages (P[b] - P[a]) / (b - a) over the prefix sums P of |F|, and the
    result is bit for bit the maximum of that float expression over every
    window, as the O(m^2) scan over all windows computes it.

    The windows are split by divide and conquer over blocks of 64 cells.
    Inside the blocks, as the end cell c falls, each start keeps its best
    window ending at or past c, and c takes the best start up to it. Where
    two halves merge, each left start takes its best end among the right
    half's upper kept set, which a running max hands to the cells up to the
    midpoint; mirrored, each right end takes its best start among the left
    half's lower kept set, and a suffix max hands it back.

    A kept set is a monotone chain over the points (b, P[b]) that pops a point
    only when it lies more than tol = 64 u (P[m] + m max|F|), u = 2^-53,
    below (upper set) or above (lower set) a chord between two other points.
    A block's sets come from vectorised passes that pop by the same test.
    The tolerance is one number for the whole grid, so a parent's set is the
    chain over its two children's sets and no level rescans its points. Why
    the maximum over a kept set is the maximum over all ends, bit for bit:

    - No chord rises above the hull, so a set holds every hull vertex.
    - The chain's float test errs by under 6u P[m], so a popped end b lies
      more than g = tol - 6u P[m] below the hull. From any start a, its exact
      slope trails the better of the two hull vertices around it by more
      than g / (b - a).
    - Slopes are at most max|F| + u P[m] and windows at most m cells long,
      so g exceeds 2u times any slope times any length. The numerators
      P[b] - P[a], each rounded by a relative u at most, keep the order of
      the exact slopes, and the one correctly rounded division cannot
      reverse it. So the vertex's float quotient is at least the popped
      end's.

    Worst case: on a constant |F| no point is popped, and a merge reads both
    maxima from its full start-by-end table, about as many quotients as the
    O(m^2) scan. On typical signals a set keeps a few dozen points, and the
    cost is close to m log m quotients, all taken in chunks of 8192.

    Input holding inf or NaN, or whose sum overflows, raises ConfigError.
    """
    absv = np.abs(F.values).astype(float)
    m = len(absv)
    with np.errstate(over="ignore"):
        prefix = np.concatenate([[0.0], np.cumsum(absv)])
    require_real(prefix[-1], "sum of the maximal-function input")
    out = _block_maxima(prefix, m)
    tol = 64 * 2.0 ** -53 * (prefix[-1] + absv.max() * m)
    upper = _block_sets(prefix, m, tol, 1)
    lower = _block_sets(prefix, m, tol, -1)
    P = prefix.tolist()
    width = _HL_BLOCK
    while width < m:
        upper_next, lower_next = [], []
        for k, lo in enumerate(range(0, m, 2 * width)):
            mid, hi = lo + width, min(lo + 2 * width, m)
            if mid >= m:  # a half with no partner moves up unmerged
                upper_next.append(upper[2 * k])
                lower_next.append(lower[2 * k])
                continue
            starts, ends = np.arange(lo, mid), np.arange(mid + 1, hi + 1)
            right_upper, left_lower = upper[2 * k + 1], lower[2 * k]
            # when near-ties keep most points, the whole start-by-end table
            # is the cheaper scan, and it gives both maxima at once
            if len(starts) * len(right_upper) + len(ends) * len(left_lower) \
                    < len(starts) * len(ends):
                from_start = _row_maxima(prefix, starts, np.array(right_upper))
                to_end = _row_maxima(prefix, ends, np.array(left_lower))
            else:
                from_start, to_end = _window_maxima(prefix, starts, ends)
            # on 1-d, accumulate is 3-18x faster than log2(width) shifted np.maximum
            np.maximum(out[lo:mid], np.maximum.accumulate(from_start), out=out[lo:mid])
            np.maximum(out[mid:hi], np.maximum.accumulate(to_end[::-1])[::-1],
                       out=out[mid:hi])
            upper_next.append(_chain(P, upper[2 * k], right_upper, tol, 1))
            lower_next.append(_chain(P, left_lower, lower[2 * k + 1], tol, -1))
        upper, lower = upper_next, lower_next
        width *= 2
    return GridFunction1D(F.a, F.b, out)


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HkPackageReport:
    size_ok: bool
    dini_ok: bool
    l2_ratio: float
    max_size_ratio: float
    max_dini_ratio: float
    samples: int


def _dini_modulus(kernel: Kernel1D) -> Callable:
    """The kernel's smoothness modulus, which both checkers divide by."""
    modulus = kernel.dini_modulus
    if modulus is None:
        raise ConfigError("the Dini checks need a kernel dini_modulus; this kernel has none")
    return modulus


@typed
def verify_hk_package(kernel: Kernel1D, cutoff: Cutoff, seed: int = 0) -> HkPackageReport:
    """Sampled size/smoothness checks on 20000 pairs plus an empirical L2
    operator ratio over the smooth truncations at radii 1, 1/2, ..., 1/64 on
    a 512-cell grid."""
    modulus = _dini_modulus(kernel)
    rng = derived_rng(seed, 11)
    tol = 1.0 + 1e-9

    s = rng.uniform(-2.0, 2.0, 20000)
    t = rng.uniform(-2.0, 2.0, 20000)
    gap = np.abs(s - t) > 1e-9
    s, t = s[gap], t[gap]

    def k(a, b):
        return require_reals(kernel.evaluate(a, b), "kernel values", len(s))

    size_ratio = np.abs(k(s, t)) * np.abs(s - t) / kernel.size_constant
    max_size = float(np.max(size_ratio))

    u = rng.uniform(1e-4, 0.5, len(s))
    side = rng.choice([-1.0, 1.0], len(s))
    d = np.abs(s - t)
    s2 = s + side * u * d
    t2 = t + side * u * d
    base = k(s, t)
    mod = require_reals(modulus(u), "dini modulus values", len(u))
    ratio_s = np.abs(k(s2, t) - base) * d / mod
    ratio_t = np.abs(k(s, t2) - base) * d / mod
    max_dini = max(float(np.max(ratio_s)), float(np.max(ratio_t)))

    l2 = 0.0
    for trial in range(8):
        trial_rng = derived_rng(seed, 100 + trial)
        vals = trial_rng.standard_normal(512) + 1j * trial_rng.standard_normal(512)
        F = GridFunction1D(-1.0, 1.0, vals)
        denom = F.norm(2.0)
        for eps in eps_ladder(0, 6):
            TF = smooth_truncation(kernel, cutoff, F, eps)
            l2 = max(l2, TF.norm(2.0) / denom)

    return HkPackageReport(size_ok=max_size <= tol, dini_ok=max_dini <= tol,
                           l2_ratio=float(l2), max_size_ratio=max_size,
                           max_dini_ratio=max_dini, samples=len(s))


@typed
def smoothed_dini_constant(kernel: Kernel1D, cutoff: Cutoff,
                           eps_values: Sequence[float], seed: int = 0) -> float:
    """Fitted constant C with |K_eps(s,t) - K_eps(s',t)| <= C w(u)/|s-t|.

    K_eps is the smoothly truncated kernel and w(u) = modulus(u) + u; sampling
    is restricted to 2|s - s'| <= |s - t|, 20000 samples split over the radii.
    """
    if len(eps_values) == 0:
        raise ConfigError("need at least one truncation radius")
    for eps in eps_values:
        require_real(eps, "truncation radius", above=0)
    modulus = _dini_modulus(kernel)
    rng = derived_rng(seed, 23)
    worst = 0.0
    per = max(20000 // len(eps_values), 1)
    for eps in eps_values:
        s = rng.uniform(-2.0, 2.0, per)
        d = np.exp(rng.uniform(np.log(eps / 8), np.log(8 * eps), per))
        t = s - rng.choice([-1.0, 1.0], per) * d
        u = rng.uniform(1e-4, 0.5, per)
        s2 = s + rng.choice([-1.0, 1.0], per) * u * d

        def k_sm(a, b):
            return (require_reals(kernel.evaluate(a, b), "kernel values", per)
                    * require_reals(cutoff.fn(np.abs(a - b) / eps), "cutoff values", per))

        diff = np.abs(k_sm(s, t) - k_sm(s2, t))
        w = require_reals(modulus(u), "dini modulus values", per) + u
        worst = max(worst, float(np.max(diff * d / w)))
    return worst
