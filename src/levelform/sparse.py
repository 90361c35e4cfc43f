"""Dyadic stopping-time construction of sparse collections on grid functions.

Intervals are addressed by (generation, index) so that membership, nesting,
and carrier measures are exact integer and rational arithmetic; only the
averages themselves are floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (ConfigError, ResolutionError, SparseDominationError, require_interval,
                     require_real, require_whole)
from .kernels import GridFunction1D


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """Dyadic subinterval of a root interval: generation g splits it 2^g ways."""

    generation: int
    index: int

    def __post_init__(self):
        require_whole(self.generation, "dyadic generation", minimum=0)
        require_whole(self.index, "dyadic index", minimum=0)
        if self.index >= 1 << self.generation:
            raise ConfigError("dyadic address out of range")

    @property
    def children(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        g, i = self.generation + 1, self.index << 1
        return (DyadicInterval(g, i), DyadicInterval(g, i + 1))

    def contains(self, other: "DyadicInterval") -> bool:
        shift = other.generation - self.generation
        return shift >= 0 and (other.index >> shift) == self.index

    @property
    def relative_measure(self) -> Fraction:
        return Fraction(1, 1 << self.generation)


@dataclass
class SparseFamily:
    """Stopping-time output: intervals, their carriers, and the grid frame."""

    a: float
    b: float
    cells: int
    lam: float
    members: list[DyadicInterval]
    carriers: dict[DyadicInterval, Fraction]
    eta: Fraction
    max_depth: int
    depth_exhausted: bool = False

    def member_average(self, F: GridFunction1D, I: DyadicInterval) -> float:
        if (F.a, F.b, len(F.values)) != (self.a, self.b, self.cells):
            raise ConfigError(f"grid function on [{F.a!r}, {F.b!r}] with {len(F.values)} cells "
                              f"is off the family frame [{self.a!r}, {self.b!r}] with "
                              f"{self.cells} cells")
        lo, hi = _cell_range(self.cells, I)
        block = np.abs(F.values[lo:hi])
        return float(np.mean(block))


def _cell_range(cells: int, I: DyadicInterval) -> tuple[int, int]:
    per = cells >> I.generation
    return (I.index * per, (I.index + 1) * per)


def _block_average(prefix: np.ndarray, cells: int, I: DyadicInterval) -> float:
    lo, hi = _cell_range(cells, I)
    return (prefix[hi] - prefix[lo]) / (hi - lo)


def build_sparse_greedy(F: GridFunction1D, G: GridFunction1D, lam: float = 4.0,
                        max_depth: int = 10) -> SparseFamily:
    """Greedy stopping-time family for the pair (|F|, |G|).

    A child becomes a new member when its average of |F| or |G| exceeds lam
    times the corresponding average over the most recent member above it.
    With lam >= 4 the carriers provably keep at least half of each member.
    """
    require_real(lam, "stopping factor", above=2)
    if F.a != G.a or F.b != G.b or len(F.values) != len(G.values):
        raise ConfigError("sparse construction needs matching grids")
    require_whole(max_depth, "max_depth", minimum=0)
    m = len(F.values)
    if m % (1 << max_depth) != 0:
        raise ResolutionError(f"{m} cells do not refine to depth {max_depth}")

    with np.errstate(over="ignore"):
        pf = np.concatenate([[0.0], np.cumsum(np.abs(F.values), dtype=float)])
        pg = np.concatenate([[0.0], np.cumsum(np.abs(G.values), dtype=float)])
    for prefix in (pf, pg):
        require_real(prefix[-1], "sum of the sparse input")

    root = DyadicInterval(0, 0)
    members: list[DyadicInterval] = [root]
    stop_children: dict[DyadicInterval, list[DyadicInterval]] = {root: []}
    depth_exhausted = False

    stack = [(root, root)]
    while stack:
        current, anchor = stack.pop()
        if current.generation == max_depth:
            continue
        af = _block_average(pf, m, anchor)
        ag = _block_average(pg, m, anchor)
        for child in current.children:
            stops = (_block_average(pf, m, child) > lam * af
                     or _block_average(pg, m, child) > lam * ag)
            if stops:
                members.append(child)
                stop_children[anchor].append(child)
                stop_children[child] = []
                stack.append((child, child))
                if child.generation == max_depth:
                    depth_exhausted = True
            else:
                stack.append((child, anchor))

    carriers = {I: I.relative_measure - sum((J.relative_measure for J in kids),
                                            Fraction(0))
                for I, kids in stop_children.items()}
    eta = min((carriers[I] / I.relative_measure for I in members), default=Fraction(1))
    members.sort()
    return SparseFamily(a=F.a, b=F.b, cells=m, lam=lam, members=members,
                        carriers=carriers, eta=eta, max_depth=max_depth,
                        depth_exhausted=depth_exhausted)


def _packing(members: Sequence[DyadicInterval]) -> tuple[dict[DyadicInterval, Fraction], Fraction]:
    """Exact carriers and worst carrier fraction of distinct members: each
    member subtracts its measure from its nearest member ancestor, found by
    shifting its address up one generation at a time."""
    present = set(members)
    carriers = {I: I.relative_measure for I in members}
    for J in members:
        g, i = J.generation, J.index
        while g > 0:
            g, i = g - 1, i >> 1
            ancestor = DyadicInterval(g, i)
            if ancestor in present:
                carriers[ancestor] -= J.relative_measure
                break
    eta = min((carriers[I] / I.relative_measure for I in members), default=Fraction(1))
    return carriers, eta


def verify_sparsity(family: SparseFamily) -> Fraction:
    """Recompute carriers from scratch and check exact disjoint packing.

    Returns the worst carrier fraction; raises if the family is empty, if any
    member's retained mass is inconsistent, or if members at one address repeat.
    """
    members = family.members
    if not members:
        raise SparseDominationError("sparse family has no members")
    if len(set(members)) != len(members):
        raise SparseDominationError("duplicate members in sparse family")
    carriers, eta = _packing(members)
    for I in members:
        if carriers[I] != family.carriers[I]:
            raise SparseDominationError(f"carrier mismatch at {I}")
        if carriers[I] < 0:
            raise SparseDominationError(f"negative carrier at {I}")
    return eta


def sparse_form(family: SparseFamily, F: GridFunction1D, G: GridFunction1D) -> float:
    """Sum over members of avg|F| avg|G| |I| in grid length units."""
    total = 0.0
    length = F.b - F.a
    for I in family.members:
        total += (family.member_average(F, I) * family.member_average(G, I)
                  * float(I.relative_measure) * length)
    return total


def domination_ratio(lhs_value: float, family: SparseFamily,
                     F: GridFunction1D, G: GridFunction1D) -> float:
    """|lhs| divided by the sparse form of `family` on F and G."""
    return ratio_to_sparse(lhs_value, sparse_form(family, F, G))


def ratio_to_sparse(lhs_value: float, sp: float) -> float:
    """|lhs| divided by a sparse form value; raises when the sparse side degenerates."""
    lhs = abs(require_real(lhs_value, "pairing value"))
    if sp == 0.0:
        if lhs > 0.0:
            raise SparseDominationError("sparse form vanished against nonzero pairing")
        return 0.0
    return lhs / sp


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def family_to_json_dict(family: SparseFamily) -> dict:
    return {
        "schema": 1,
        "root": [family.a, family.b],
        "cells": family.cells,
        "lam": family.lam,
        "eta": [family.eta.numerator, family.eta.denominator],
        "max_depth": family.max_depth,
        "depth_exhausted": family.depth_exhausted,
        "members": [[I.generation, I.index] for I in family.members],
    }


def family_from_json_dict(data: dict) -> SparseFamily:
    """Rebuild a family from its JSON form; every malformed or out-of-frame
    field raises ConfigError, and carriers and eta are recomputed."""
    if not isinstance(data, dict) or data.get("schema") != 1:
        raise ConfigError("unknown sparse family schema")
    try:
        a, b = data["root"]
        cells, max_depth, lam = data["cells"], data["max_depth"], data["lam"]
        stored = Fraction(*data["eta"])
        addresses = [tuple(x) for x in data["members"]]
        depth_exhausted = data["depth_exhausted"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed sparse family: {exc!r}") from exc
    # each field as its JSON type, never coerced; the guards below refuse a
    # true or false in a numeric field
    if not isinstance(depth_exhausted, bool):
        raise ConfigError("sparse family depth_exhausted has the wrong JSON type, "
                          f"got {depth_exhausted!r}")
    a, b = require_interval(a, b, "sparse family root")
    lam = require_real(lam, "stopping factor", above=2)
    require_whole(cells, "sparse family cells")
    require_whole(max_depth, "sparse family max_depth", minimum=0)
    members = []
    for address in addresses:
        if [type(x) for x in address] != [int, int]:
            raise ConfigError(f"dyadic address must be two integers, got {list(address)!r}")
        I = DyadicInterval(*address)
        if I.generation > max_depth or cells % (1 << I.generation):
            raise ConfigError(f"member {I} lies outside {cells} cells to depth {max_depth}")
        members.append(I)
    if not members or len(set(members)) != len(members):
        raise ConfigError("sparse family needs at least one member and no repeated address")
    carriers, eta = _packing(members)
    if stored != eta:
        raise ConfigError("stored sparsity constant disagrees with members")
    return SparseFamily(a=a, b=b, cells=cells, lam=lam, members=sorted(members),
                        carriers=carriers, eta=eta, max_depth=max_depth,
                        depth_exhausted=depth_exhausted)
