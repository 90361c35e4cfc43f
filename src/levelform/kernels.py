"""One-dimensional singular kernels, truncations, and maximal operators.

Kernels carry their size constant and smoothness modulus so hypotheses can be
spot-checked by sampling. Every kernel is a convolution kernel: k(s, t)
depends on s - t alone and is evaluated as kernel.evaluate(s - t, 0.0).

Truncated actions are composite midpoint quadratures on a uniform grid whose
cells are split exactly at the truncation radii |s - t| = eps and 2 eps, which
makes hard minus smooth agree with the annulus residual to rounding and keeps
the cutoff plateaus exact. The weight of a cell depends only on its offset
from the output point, so on the grid each action is a Toeplitz stencil over
the 2m - 1 node offsets, applied to every column at once by FFT convolution;
off-grid output points use the same cell weights in a matrix product.

The convolution runs on numpy.fft at the lengths scipy.fft.next_fast_len
picks, and its output is bit for bit that of scipy.fft. For complex input,
the stencil spectra are the rfft plus the conjugate-symmetric half, which is
how scipy.fft.fft transforms a real array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ResolutionError
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
    dini_integral: float = math.nan
    label: str = "kernel"


def _hilbert_eval(s, t):
    with np.errstate(divide="ignore"):
        return 1.0 / (math.pi * (np.asarray(s, dtype=float) - np.asarray(t, dtype=float)))


def _hilbert_modulus(u):
    u = np.asarray(u, dtype=float)
    return (2.0 / math.pi) * u / (1.0 - u / 2.0)


def hilbert_kernel() -> Kernel1D:
    """Reference kernel 1/(pi (s - t)) with its verified modulus.

    The Dini integral of the modulus over (0, 1) is (2/pi) times the
    integral of 1/(1 - u/2), that is 4 ln 2 / pi.
    """
    return Kernel1D(evaluate=_hilbert_eval, size_constant=1.0 / math.pi,
                    dini_modulus=_hilbert_modulus,
                    dini_integral=4.0 * math.log(2.0) / math.pi, label="hilbert")


@dataclass(frozen=True)
class Cutoff:
    """Radial multiplier profile chi(r): 0 on [0,1], 1 on [2,inf)."""

    fn: Callable
    derivative_bound: float = 1.0
    label: str = "cutoff"


def _smoothstep_chi(r):
    u = np.clip(np.asarray(r, dtype=float) - 1.0, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _ramp_chi(r):
    return np.clip(np.asarray(r, dtype=float) - 1.0, 0.0, 1.0)


def smoothstep_cutoff() -> Cutoff:
    return Cutoff(fn=_smoothstep_chi, derivative_bound=1.5, label="smoothstep")


def linear_ramp_cutoff() -> Cutoff:
    return Cutoff(fn=_ramp_chi, derivative_bound=1.0, label="ramp")


def eps_ladder(k_min: int = 2, k_max: int = 8) -> list[float]:
    if k_max < k_min:
        raise ConfigError("need k_max >= k_min")
    return [2.0 ** (-k) for k in range(k_min, k_max + 1)]


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

@dataclass
class GridFunction1D:
    """Cell-averaged function on a uniform grid over [a, b].

    Values live at cell centers; the function is treated as zero outside
    [a, b] by every operator in this module.
    """

    a: float
    b: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 1 or len(self.values) < 1:
            raise ConfigError("grid function needs a 1d value array")
        if not self.b > self.a:
            raise ConfigError("grid function needs b > a")

    @property
    def spacing(self) -> float:
        return (self.b - self.a) / len(self.values)

    @property
    def nodes(self) -> np.ndarray:
        return self.a + self.spacing * (np.arange(len(self.values)) + 0.5)

    def norm(self, r: float = 2.0) -> float:
        return float(np.sum(np.abs(self.values) ** r) * self.spacing) ** (1.0 / r)


def bump_mixture(a: float, b: float, m: int, seed: int) -> GridFunction1D:
    """Nonnegative test signal: six narrow Gaussian bumps over a 0.05 noise floor.

    Concentrated enough that stopping-time constructions actually fire.
    """
    if not m > 0:
        raise ConfigError(f"bump mixture needs a cell count > 0, got {m!r}")
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
    if mode == HARD:
        return (dist > eps).astype(float)
    chi = np.asarray(cutoff.fn(dist / eps), dtype=float)
    if mode == SMOOTH:
        return chi
    return (dist > eps).astype(float) - chi


def _cell_weights(kernel: Kernel1D, u: np.ndarray, h: float, eps: float,
                  jobs: Sequence[tuple[str, Cutoff | None]]) -> list[np.ndarray]:
    """Quadrature weight of a width-h cell whose centre sits at offset u = s - t.

    Returns one array shaped like u per job. A cell that straddles |u| = eps
    or 2 eps is split at the radius and each piece is evaluated at its own
    midpoint; the cell holding u = 0 weighs nothing, as every mode already
    does there because eps >= 2h.
    """
    dist = np.abs(u)
    clear = dist > h / 2
    # keep kernel evaluations off the diagonal where every weight vanishes
    K = np.where(clear, kernel.evaluate(np.where(clear, u, 3.0 * eps), 0.0), 0.0)
    # a cell can only hold the radius nearest its centre: radii sit >= 2h apart
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
        w = K * _mode_weight(mode, dist, eps, cutoff) * h
        w[straddle] = sum(kv * _mode_weight(mode, d_mid, eps, cutoff) * width
                          for width, d_mid, kv in halves)
        weights.append(w)
    return weights


def _next_fast_len(n: int, real: bool) -> int:
    """Smallest length >= n with no prime factor above 5 (real) or 11 (complex).

    These are the lengths scipy.fft.next_fast_len returns.
    """
    top = 1 << (n - 1).bit_length()
    odd = [1]
    for p in (3, 5) if real else (3, 5, 7, 11):
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
    Returns (jobs, m, columns).
    """
    m = len(V)
    complex_input = np.iscomplexobj(V)
    n = _next_fast_len(3 * m - 2, real=not complex_input)
    half = np.fft.rfft(stencils, n=n, axis=1)
    if complex_input:
        spectra = np.empty((len(stencils), n), dtype=complex)
        spectra[:, :half.shape[1]] = half
        spectra[:, half.shape[1]:] = np.conj(half[:, n - half.shape[1]:0:-1])
        full = np.fft.ifft(spectra[:, :, None] * np.fft.fft(V, n=n, axis=0)[None], n=n, axis=1)
    else:
        full = np.fft.irfft(half[:, :, None] * np.fft.rfft(V, n=n, axis=0)[None], n=n, axis=1)
    return full[:, m - 1:2 * m - 1].copy()


def _apply_batch(kernel: Kernel1D, F: GridFunction1D, V: np.ndarray, eps: float,
                 jobs: Sequence[tuple[str, Cutoff | None]],
                 eval_points=None) -> list[np.ndarray]:
    """Truncated actions of every job on every column of V (grid of F).

    On the grid the cell weights form one Toeplitz stencil per job over the
    2m - 1 node offsets, applied to all columns by a single FFT convolution.
    Off the grid the same weights are evaluated on the point-to-node offsets
    and applied by matrix products in bounded row chunks.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError(f"truncation radius must be finite and > 0, got {eps!r}")
    h = F.spacing
    if eps < 2.0 * h:
        raise ResolutionError(f"eps={eps!r} under resolution floor 2h={2 * h!r}")
    if not jobs:
        raise ConfigError("need at least one truncation job")
    for mode, cutoff in jobs:
        if mode in (SMOOTH, RESIDUAL) and cutoff is None:
            raise ConfigError("smooth/residual actions need a cutoff")
    if not np.all(np.isfinite(V)):
        raise ConfigError("truncation input holds non-finite values")

    m = len(F.values)
    if eval_points is None:
        stencils = _cell_weights(kernel, h * np.arange(1 - m, m), h, eps, jobs)
        return list(_toeplitz_apply(np.stack(stencils), V))

    t = F.nodes
    s = np.atleast_1d(np.asarray(eval_points, dtype=float))
    outs = [np.empty((len(s), V.shape[1]), np.result_type(V, float)) for _ in jobs]
    chunk = max(1, (1 << 22) // m)
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


def hard_truncation(kernel: Kernel1D, F: GridFunction1D, eps: float,
                    eval_points=None):
    """Quadrature of k(s, t) F(t) over {|s - t| > eps}."""
    return _single_action(kernel, F, eps, HARD, None, eval_points)


def smooth_truncation(kernel: Kernel1D, cutoff: Cutoff, F: GridFunction1D,
                      eps: float) -> GridFunction1D:
    """Quadrature of k(s, t) chi(|s - t| / eps) F(t)."""
    return _single_action(kernel, F, eps, SMOOTH, cutoff)


def residual_truncation(kernel: Kernel1D, cutoff: Cutoff, F: GridFunction1D,
                        eps: float) -> GridFunction1D:
    """Hard minus smooth action, supported on the annulus eps < |s - t| < 2 eps."""
    return _single_action(kernel, F, eps, RESIDUAL, cutoff)


def truncation_batch(kernel: Kernel1D, functions: Sequence[GridFunction1D],
                     eps: float, jobs: Sequence[tuple[str, Cutoff | None]]) -> list[np.ndarray]:
    """Apply several truncated actions to several functions on one grid.

    Returns one (cells x functions) array per job, sharing all kernel and
    cut-cell geometry, which is much faster than repeated single calls.
    """
    if not functions:
        raise ConfigError("need at least one grid function")
    first = functions[0]
    for F in functions[1:]:
        if (F.a, F.b, len(F.values)) != (first.a, first.b, len(first.values)):
            raise ConfigError("batch needs a common grid")
    V = np.column_stack([F.values for F in functions])
    return _apply_batch(kernel, first, V, eps, jobs)


def hl_maximal(F: GridFunction1D) -> GridFunction1D:
    """Exact discrete maximal average of |F| over grid-aligned windows.

    For each node, the supremum of the average of |F| over every contiguous
    block of whole cells whose span contains the node.
    """
    absv = np.abs(F.values).astype(float)
    m = len(absv)
    prefix = np.concatenate([[0.0], np.cumsum(absv)])
    out = np.zeros(m)
    for j in range(m):
        lengths = np.arange(1, m - j + 1, dtype=float)
        avg = (prefix[j + 1:] - prefix[j]) / lengths
        suffix = np.maximum.accumulate(avg[::-1])[::-1]
        np.maximum(out[j:], suffix, out=out[j:])
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


def verify_hk_package(kernel: Kernel1D, cutoff: Cutoff, seed: int = 0) -> HkPackageReport:
    """Sampled size/smoothness checks on 20000 pairs plus an empirical L2
    operator ratio over the smooth truncations at radii 1, 1/2, ..., 1/64 on
    a 512-cell grid."""
    rng = derived_rng(seed, 11)
    tol = 1.0 + 1e-9

    s = rng.uniform(-2.0, 2.0, 20000)
    t = rng.uniform(-2.0, 2.0, 20000)
    gap = np.abs(s - t) > 1e-9
    s, t = s[gap], t[gap]
    size_ratio = np.abs(np.asarray(kernel.evaluate(s, t))) * np.abs(s - t) / kernel.size_constant
    max_size = float(np.max(size_ratio))

    u = rng.uniform(1e-4, 0.5, len(s))
    side = rng.choice([-1.0, 1.0], len(s))
    d = np.abs(s - t)
    s2 = s + side * u * d
    t2 = t + side * u * d
    base = np.asarray(kernel.evaluate(s, t))
    mod = np.asarray(kernel.dini_modulus(u))
    ratio_s = np.abs(np.asarray(kernel.evaluate(s2, t)) - base) * d / mod
    ratio_t = np.abs(np.asarray(kernel.evaluate(s, t2)) - base) * d / mod
    max_dini = float(max(np.max(ratio_s), np.max(ratio_t)))

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


def smoothed_dini_constant(kernel: Kernel1D, cutoff: Cutoff,
                           eps_values: Sequence[float], seed: int = 0) -> float:
    """Fitted constant C with |K_eps(s,t) - K_eps(s',t)| <= C w(u)/|s-t|.

    K_eps is the smoothly truncated kernel and w(u) = modulus(u) + u; sampling
    is restricted to 2|s - s'| <= |s - t|, 20000 samples split over the radii.
    """
    rng = derived_rng(seed, 23)
    worst = 0.0
    per = max(20000 // max(len(eps_values), 1), 1)
    for eps in eps_values:
        s = rng.uniform(-2.0, 2.0, per)
        d = np.exp(rng.uniform(np.log(eps / 8), np.log(8 * eps), per))
        t = s - rng.choice([-1.0, 1.0], per) * d
        u = rng.uniform(1e-4, 0.5, per)
        s2 = s + rng.choice([-1.0, 1.0], per) * u * d

        def k_sm(a, b):
            return np.asarray(kernel.evaluate(a, b)) * np.asarray(cutoff.fn(np.abs(a - b) / eps))

        diff = np.abs(k_sm(s, t) - k_sm(s2, t))
        w = np.asarray(kernel.dini_modulus(u)) + u
        worst = max(worst, float(np.max(diff * d / w)))
    return worst
