"""Pinned benchmark experiments whose outcomes are frozen in baselines.txt.

Each function fixes every seed and size so reruns are bit-reproducible; the
refresh script records the results and the test suite asserts they hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geometry
from .kernels import (GridFunction1D, bump_mixture, eps_ladder,
                      hard_truncation, hilbert_kernel)
from .reduction import UniformReport, random_smooth_function, uniform_bound_check
from .sparse import (SparseFamily, build_sparse_greedy, ratio_to_sparse,
                     sparse_form, verify_sparsity)


@dataclass(frozen=True)
class PairDomination:
    family: SparseFamily
    eta: Fraction
    sparse_value: float
    pairings: tuple[float, ...]
    ratios: tuple[float, ...]


def pair_domination(F: GridFunction1D, G: GridFunction1D, eps_values, lam: float,
                    depth: int) -> PairDomination:
    """Sparse family of one pair, its verified eta, and the hard-truncated
    pairings and domination ratios across the radius ladder."""
    kernel = hilbert_kernel()
    family = build_sparse_greedy(F, G, lam=lam, max_depth=depth)
    sparse_value = sparse_form(family, F, G)
    pairings = []
    for eps in eps_values:
        TF = hard_truncation(kernel, F, eps)
        pairings.append(float(np.sum(TF.values * G.values) * F.spacing))
    return PairDomination(family=family, eta=verify_sparsity(family),
                          sparse_value=sparse_value, pairings=tuple(pairings),
                          ratios=tuple(ratio_to_sparse(v, sparse_value) for v in pairings))


@dataclass(frozen=True)
class DominationBenchmark:
    pair_count: int
    eps_values: tuple[float, ...]
    ratios: tuple[tuple[float, ...], ...]
    etas: tuple[Fraction, ...]
    worst_eta: Fraction
    max_ratio: float
    max_eps_spread: float


def domination_benchmark(pairs: int = 20, cells: int = 1024, depth: int = 8,
                         lam: float = 4.0, k_min: int = 2,
                         k_max: int = 8) -> DominationBenchmark:
    """Sparse domination ratios for bump-mixture pairs across a radius ladder.

    The spread is the largest ratio-range factor any pair shows across the
    ladder, a truncation-stability measure for the sparse bound.
    """
    eps_values = tuple(eps_ladder(k_min, k_max))
    all_ratios: list[tuple[float, ...]] = []
    etas: list[Fraction] = []
    spread = 0.0
    for pair in range(pairs):
        F = bump_mixture(-1.0, 1.0, cells, 2 * pair)
        G = bump_mixture(-1.0, 1.0, cells, 2 * pair + 1)
        result = pair_domination(F, G, eps_values, lam, depth)
        etas.append(result.eta)
        all_ratios.append(result.ratios)
        spread = max(spread, max(result.ratios) / min(result.ratios))
    flat = [r for row in all_ratios for r in row]
    return DominationBenchmark(pair_count=pairs, eps_values=eps_values,
                               ratios=tuple(all_ratios), etas=tuple(etas),
                               worst_eta=min(etas), max_ratio=max(flat),
                               max_eps_spread=spread)


@dataclass(frozen=True)
class UniformBenchmark:
    pair_count: int
    r: float
    eps_values: tuple[float, ...]
    reports: tuple[UniformReport, ...]
    max_ratio: float


def uniform_benchmark(pairs: int = 20, r: float = 2.0, bins: int = 256,
                      fiber_nodes: int = 512, k_min: int = 2,
                      k_max: int = 6) -> UniformBenchmark:
    """Uniform-regime budget ratios for random smooth pairs on two phases."""
    phase_in = geometry.linear_phase(geometry.ball(2))
    phase_out = geometry.radial_quadratic_phase(geometry.ball(2))
    kernel = hilbert_kernel()
    eps_values = tuple(eps_ladder(k_min, k_max))
    reports = []
    for pair in range(pairs):
        f = random_smooth_function(phase_in.domain, pair, tag=0)
        g = random_smooth_function(phase_out.domain, pair, tag=1)
        reports.append(uniform_bound_check(
            phase_in, phase_out, kernel, f, g, r, eps_values, bins=bins,
            fiber_nodes=fiber_nodes, subdivide=3, norm_seed=pair))
    max_ratio = max(rep.max_ratio for rep in reports)
    return UniformBenchmark(pair_count=pairs, r=r, eps_values=eps_values,
                            reports=tuple(reports), max_ratio=max_ratio)
