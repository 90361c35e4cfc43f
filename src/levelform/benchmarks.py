"""Pinned benchmark experiments whose outcomes are frozen in baselines.txt.

Each function fixes every seed and size so reruns are bit-reproducible; the
refresh script records the results, `load_baselines` reads them back and the
test suite asserts they hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from . import geometry
from .config import parse_kv_text
from .errors import ConfigError
from .kernels import (GridFunction1D, bump_mixture, eps_ladder,
                      hard_truncation, hilbert_kernel)
from .reduction import UniformReport, random_smooth_function, uniform_bound_check
from .sparse import (SparseFamily, build_sparse_greedy, ratio_to_sparse,
                     sparse_form, verify_sparsity)


def load_baselines() -> dict[str, float]:
    """The frozen constants of baselines.txt, as a fresh dict on every call."""
    text = resources.files(__package__).joinpath("baselines.txt").read_text()
    return {name: float(value) for name, value in parse_kv_text(text).items()}


def baseline(name: str) -> float:
    table = load_baselines()
    if name not in table:
        raise ConfigError(f"unknown baseline {name!r}")
    return table[name]


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
    ratios: tuple[tuple[float, ...], ...]
    worst_eta: Fraction
    max_ratio: float


def domination_benchmark() -> DominationBenchmark:
    """Sparse domination ratios for 20 bump-mixture pairs on 1024 cells of
    [-1, 1], families of depth 8 with stopping factor 4, across the radius
    ladder 2^-2 .. 2^-8. The frozen baseline holds for these sizes only."""
    eps_values = eps_ladder(2, 8)
    all_ratios: list[tuple[float, ...]] = []
    etas: list[Fraction] = []
    for pair in range(20):
        F = bump_mixture(-1.0, 1.0, 1024, 2 * pair)
        G = bump_mixture(-1.0, 1.0, 1024, 2 * pair + 1)
        result = pair_domination(F, G, eps_values, 4.0, 8)
        etas.append(result.eta)
        all_ratios.append(result.ratios)
    flat = [r for row in all_ratios for r in row]
    return DominationBenchmark(ratios=tuple(all_ratios), worst_eta=min(etas),
                               max_ratio=max(flat))


@dataclass(frozen=True)
class UniformBenchmark:
    reports: tuple[UniformReport, ...]
    max_ratio: float


def uniform_benchmark() -> UniformBenchmark:
    """Uniform-regime budget ratios at r = 2 for 20 random smooth pairs on the
    linear and radial-quadratic phases of the unit disk, with 256 bins, 512
    fiber nodes and the radius ladder 2^-2 .. 2^-6. The frozen baseline holds
    for these sizes only."""
    phase_in = geometry.linear_phase(geometry.ball(2))
    phase_out = geometry.radial_quadratic_phase(geometry.ball(2))
    kernel = hilbert_kernel()
    eps_values = eps_ladder(2, 6)
    reports = []
    for pair in range(20):
        f = random_smooth_function(phase_in.domain, pair, tag=0)
        g = random_smooth_function(phase_out.domain, pair, tag=1)
        reports.append(uniform_bound_check(
            phase_in, phase_out, kernel, f, g, 2.0, eps_values, bins=256,
            fiber_nodes=512, subdivide=3, norm_seed=pair))
    return UniformBenchmark(reports=tuple(reports),
                            max_ratio=max(rep.max_ratio for rep in reports))
