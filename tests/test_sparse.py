import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelform as lf
from levelform import sparse
from levelform.sparse import DyadicInterval


def grid(values, a=-1.0, b=1.0):
    return lf.GridFunction1D(a, b, np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# dyadic arithmetic
# ---------------------------------------------------------------------------

def test_children_partition_parent():
    I = DyadicInterval(3, 5)
    left, right = I.children
    assert left == DyadicInterval(4, 10)
    assert right == DyadicInterval(4, 11)
    assert left.relative_measure + right.relative_measure == I.relative_measure


def span(I, a, b):
    """The subinterval of [a, b] at dyadic address I."""
    width = (b - a) / (1 << I.generation)
    return (a + I.index * width, a + (I.index + 1) * width)


def test_contains_and_span():
    root = DyadicInterval(0, 0)
    I = DyadicInterval(2, 3)
    assert root.contains(I)
    assert I.contains(I)
    assert not I.contains(root)
    lo, hi = span(I, 0.0, 8.0)
    assert (lo, hi) == (6.0, 8.0)


def test_invalid_interval_rejected():
    with pytest.raises(lf.ConfigError):
        DyadicInterval(-1, 0)
    with pytest.raises(lf.ConfigError):
        DyadicInterval(2, 4)
    # the address is checked by a shift: no 2^generation is built
    with pytest.raises(lf.ConfigError):
        DyadicInterval(64, 2 ** 64)
    assert DyadicInterval(2 ** 64, 0).generation == 2 ** 64


def dyadic_upto(depth):
    return st.integers(0, depth).flatmap(
        lambda g: st.tuples(st.just(g), st.integers(0, (1 << g) - 1))).map(
        lambda gi: DyadicInterval(*gi))


dyadic = dyadic_upto(6)


@given(a=dyadic, b=dyadic, c=dyadic)
@settings(max_examples=200, deadline=None)
def test_containment_transitive_and_no_partial_overlap(a, b, c):
    if a.contains(b) and b.contains(c):
        assert a.contains(c)
    # dyadic pairs nest or are disjoint
    lo_a, hi_a = span(a, 0.0, 1.0)
    lo_b, hi_b = span(b, 0.0, 1.0)
    overlap = min(hi_a, hi_b) - max(lo_a, lo_b)
    if overlap > 1e-12:
        assert a.contains(b) or b.contains(a)


@given(I=dyadic)
@settings(max_examples=100, deadline=None)
def test_children_tile_span(I):
    left, right = I.children
    lo, hi = span(I, 0.0, 1.0)
    llo, lhi = span(left, 0.0, 1.0)
    rlo, rhi = span(right, 0.0, 1.0)
    assert llo == lo and rhi == hi
    assert lhi == rlo
    assert I.contains(left) and I.contains(right)


# ---------------------------------------------------------------------------
# carrier packing against the nested scan
# ---------------------------------------------------------------------------

def nested_scan_packing(members):
    """Oracle: each member keeps its measure minus that of the members it
    contains maximally, found by comparing every pair and triple."""
    carriers = {}
    for I in members:
        inside = [J for J in members if J != I and I.contains(J)]
        maximal = [J for J in inside
                   if not any(K.contains(J) for K in inside if K != J)]
        carriers[I] = I.relative_measure - sum((J.relative_measure for J in maximal),
                                               Fraction(0))
    eta = min((carriers[I] / I.relative_measure for I in members), default=Fraction(1))
    return carriers, eta


@st.composite
def member_sets(draw):
    """Random addresses plus nested chains below some of them and siblings."""
    members = set(draw(st.lists(dyadic_upto(10), min_size=1, max_size=12)))
    for I in sorted(members):
        for bit in draw(st.lists(st.integers(0, 1), max_size=10 - I.generation)):
            I = I.children[bit]
            members.add(I)
            if draw(st.booleans()):
                members.add(I.children[0] if I.generation < 10 else I)
                members.add(DyadicInterval(I.generation, I.index ^ 1))
    return draw(st.permutations(sorted(members)))


@given(members=member_sets())
@settings(max_examples=200, deadline=None)
def test_packing_matches_nested_scan(members):
    carriers, eta = sparse._packing(members)
    want_carriers, want_eta = nested_scan_packing(members)
    assert carriers == want_carriers
    assert all(type(c) is Fraction for c in carriers.values())
    assert eta == want_eta and type(eta) is Fraction


# ---------------------------------------------------------------------------
# greedy construction
# ---------------------------------------------------------------------------

def test_flat_signal_gives_trivial_family():
    F = grid(np.ones(64))
    fam = lf.build_sparse_greedy(F, F, lam=4.0, max_depth=6)
    assert fam.members == [DyadicInterval(0, 0)]
    assert fam.eta == Fraction(1)
    assert lf.verify_sparsity(fam) == Fraction(1)


def test_lambda_guard():
    F = grid(np.ones(8))
    with pytest.raises(lf.ConfigError):
        lf.build_sparse_greedy(F, F, lam=2.0)


def test_depth_guard():
    F = grid(np.ones(12))
    with pytest.raises(lf.ResolutionError):
        lf.build_sparse_greedy(F, F, max_depth=3)


def test_mismatched_grids_rejected():
    F = grid(np.ones(8))
    G = grid(np.ones(8), a=0.0, b=1.0)
    with pytest.raises(lf.ConfigError):
        lf.build_sparse_greedy(F, G)


def test_spike_stops_and_carriers_pack():
    vals = np.zeros(64)
    vals[0] = 100.0
    F = grid(vals + 0.01)
    fam = lf.build_sparse_greedy(F, F, lam=4.0, max_depth=6)
    assert len(fam.members) > 1
    assert fam.eta >= Fraction(1, 2)
    assert lf.verify_sparsity(fam) == fam.eta
    # carriers never exceed their member and sum to at most the root
    total = sum((fam.carriers[I] for I in fam.members), Fraction(0))
    assert total <= Fraction(1)
    for I in fam.members:
        assert Fraction(0) <= fam.carriers[I] <= I.relative_measure


def test_exhaustive_binary_packings():
    # every 0/1 pattern on 8 cells, three pairings: family verifies exactly
    for bits in itertools.product([0.0, 1.0], repeat=8):
        F = grid(np.array(bits) * 7.0 + 0.25)
        for gv in (np.ones(8), np.array(bits) + 0.5, 1.5 - np.array(bits)):
            G = grid(gv)
            fam = lf.build_sparse_greedy(F, G, lam=4.0, max_depth=3)
            assert fam.eta >= Fraction(1, 2), (bits, tuple(gv))
            assert lf.verify_sparsity(fam) == fam.eta


def test_random_families_verify():
    rng = np.random.default_rng(0)
    for trial in range(50):
        m = 128
        F = grid(rng.standard_normal(m))
        G = grid(rng.standard_normal(m))
        fam = lf.build_sparse_greedy(F, G, lam=4.0, max_depth=7)
        assert fam.eta >= Fraction(1, 2), trial
        assert lf.verify_sparsity(fam) == fam.eta


def test_bump_mixture_families_are_nontrivial():
    for seed in range(4):
        F = lf.bump_mixture(-1.0, 1.0, 256, seed=2 * seed)
        G = lf.bump_mixture(-1.0, 1.0, 256, seed=2 * seed + 1)
        fam = lf.build_sparse_greedy(F, G, lam=4.0, max_depth=8)
        assert len(fam.members) > 1
        assert fam.eta >= Fraction(1, 2)
        assert lf.verify_sparsity(fam) == fam.eta


def test_depth_exhausted_flag():
    # this spike stops exactly at generation 3, so capping the depth there
    # marks the family as truncated by resolution
    vals = np.zeros(16)
    vals[0] = 1e6
    F = grid(vals + 1e-3)
    fam = lf.build_sparse_greedy(F, F, lam=4.0, max_depth=3)
    assert fam.depth_exhausted
    deeper = lf.build_sparse_greedy(F, F, lam=4.0, max_depth=4)
    assert not deeper.depth_exhausted
    calm = lf.build_sparse_greedy(grid(np.ones(16)), grid(np.ones(16)),
                                  lam=4.0, max_depth=4)
    assert not calm.depth_exhausted


# ---------------------------------------------------------------------------
# form values and merging
# ---------------------------------------------------------------------------

def test_sparse_form_root_only():
    F = grid(np.full(32, 2.0))
    G = grid(np.full(32, 3.0))
    fam = lf.build_sparse_greedy(F, G, max_depth=5)
    # single member: avg|F| avg|G| |I| with |I| = b - a = 2
    assert lf.sparse_form(fam, F, G) == pytest.approx(12.0)


def test_sparse_form_dominates_truncated_pairing():
    k = lf.hilbert_kernel()
    for seed in range(3):
        F = lf.bump_mixture(-1.0, 1.0, 256, seed=10 + 2 * seed)
        G = lf.bump_mixture(-1.0, 1.0, 256, seed=11 + 2 * seed)
        fam = lf.build_sparse_greedy(F, G, lam=4.0, max_depth=7)
        s_val = lf.sparse_form(fam, F, G)
        for eps in lf.eps_ladder(2, 6):
            TF = lf.hard_truncation(k, F, eps)
            lhs = np.sum(TF.values * G.values) * F.spacing
            ratio = lf.domination_ratio(lhs, fam, F, G)
            assert abs(lhs) <= 2.0 * s_val
            assert ratio == pytest.approx(abs(lhs) / s_val)


@pytest.mark.parametrize("cells,a,b", [(128, -1.0, 1.0), (32, -1.0, 1.0), (64, 0.0, 1.0)])
def test_sparse_form_rejects_grids_off_the_family_frame(cells, a, b):
    F = lf.bump_mixture(-1.0, 1.0, 64, seed=10)
    G = lf.bump_mixture(-1.0, 1.0, 64, seed=11)
    fam = lf.build_sparse_greedy(F, G, lam=4.0, max_depth=6)
    off_f = lf.bump_mixture(a, b, cells, seed=10)
    off_g = lf.bump_mixture(a, b, cells, seed=11)
    for pair in [(off_f, off_g), (F, off_g), (off_f, G)]:
        with pytest.raises(lf.ConfigError):
            lf.sparse_form(fam, *pair)
        with pytest.raises(lf.ConfigError):
            lf.domination_ratio(1.0, fam, *pair)
    assert math.isfinite(lf.sparse_form(fam, F, G))


# ---------------------------------------------------------------------------
# serialization and tampering
# ---------------------------------------------------------------------------

def build_reference_family():
    vals = np.zeros(64)
    vals[5] = 40.0
    vals[38] = 25.0
    F = grid(vals + 0.05)
    G = lf.bump_mixture(-1.0, 1.0, 64, seed=1)
    return lf.build_sparse_greedy(F, G, lam=4.0, max_depth=6)


def reference_family_json():
    return json.dumps(lf.family_to_json_dict(build_reference_family()))


def test_json_roundtrip():
    fam = build_reference_family()
    d = json.loads(reference_family_json())
    back = lf.family_from_json_dict(d)
    assert back.members == fam.members
    assert back.carriers == fam.carriers
    assert back.eta == fam.eta
    assert back.cells == fam.cells
    assert back.lam == fam.lam
    assert d["schema"] == 1


@given(seed=st.integers(0, 1000), cells=st.sampled_from([64, 256]),
       depth=st.integers(0, 6), lam=st.floats(2.5, 8.0))
@settings(max_examples=40, deadline=None)
def test_family_round_trips_through_json(seed, cells, depth, lam):
    fam = lf.build_sparse_greedy(lf.bump_mixture(-1.0, 1.0, cells, 2 * seed),
                                 lf.bump_mixture(-1.0, 1.0, cells, 2 * seed + 1),
                                 lam=lam, max_depth=depth)
    d = lf.family_to_json_dict(fam)
    back = lf.family_from_json_dict(json.loads(json.dumps(d)))
    assert back == fam
    assert lf.family_to_json_dict(back) == d


def test_json_rejects_tampered_eta():
    d = json.loads(reference_family_json())
    d["eta"] = [1, 1]
    with pytest.raises((lf.SparseDominationError, lf.ConfigError)):
        lf.family_from_json_dict(json.loads(json.dumps(d)))


def test_json_rejects_duplicate_member():
    d = json.loads(reference_family_json())
    d["members"].append(d["members"][-1])
    with pytest.raises(lf.ConfigError):
        lf.family_from_json_dict(json.loads(json.dumps(d)))


def test_json_rejects_non_integer_address():
    d = json.loads(reference_family_json())
    d["members"][0] = [0.5, 0]
    with pytest.raises(lf.ConfigError):
        lf.family_from_json_dict(json.loads(json.dumps(d)))


def test_json_rejects_wrong_schema():
    d = json.loads(reference_family_json())
    d["schema"] = 99
    with pytest.raises(lf.ConfigError):
        lf.family_from_json_dict(json.loads(json.dumps(d)))


def family_dict(addresses, *, cells=64, max_depth=6, drop=None, **fields):
    """A JSON family whose stored eta matches its members, so that only the
    defect under test can make loading fail."""
    _, eta = nested_scan_packing([DyadicInterval(int(g), int(i)) for g, i in addresses])
    d = {"schema": 1, "root": [-1.0, 1.0], "cells": cells, "lam": 4.0,
         "eta": [eta.numerator, eta.denominator], "max_depth": max_depth,
         "depth_exhausted": False, "members": [list(m) for m in addresses]}
    d.update(fields)
    d.pop(drop, None)
    return d


def test_family_dict_loads():
    fam = lf.family_from_json_dict(family_dict([[0, 0], [2, 1], [6, 17]]))
    assert fam.eta == Fraction(3, 4)


@pytest.mark.parametrize("data", [
    family_dict([[0, 0], [7, 0]]),                     # deeper than max_depth
    family_dict([[0, 0], [5, 3]], cells=8),            # deeper than 8 cells resolve
    family_dict([[0, 0]], cells=0),
    family_dict([[0, 0]], eta=[1, 0]),
    family_dict([[0, 0]], eta="11"),
    family_dict([[0, 0]], drop="members"),
    family_dict([[0, 0]], drop="cells"),
    family_dict([[0, 0]], drop="eta"),
    family_dict([[0, 0], [True, 0]]),
    family_dict([[0, 0], [1, False]]),
    family_dict([[0, 0]], members=[[0, 0], [1]]),
    family_dict([[0, 0]], members=[], eta=[1, 1]),
    family_dict([[0, 0]], root=[0.0]),
    family_dict([[0, 0]], cells=True),
    family_dict([[0, 0]], max_depth=False),
    family_dict([[0, 0]], root=[False, True]),
    family_dict([[0, 0]], depth_exhausted=0),
    ["not", "a", "family"],
    family_dict([[0, 0]], members=[[0, 0], [2 ** 64, 0]]),
    family_dict([[0, 0]], members=[[0, 0], [2 ** 64, 0]], max_depth=2 ** 64),
], ids=["deeper-than-max-depth", "deeper-than-cells", "no-cells",
        "eta-zero-denominator", "eta-not-a-pair", "missing-members", "missing-cells",
        "missing-eta", "bool-generation", "bool-index", "short-address", "no-members",
        "short-root", "bool-cells", "bool-max-depth", "bool-root", "int-flag", "not-a-dict",
        "generation-2^64", "generation-and-max-depth-2^64"])
def test_json_load_rejects_malformed_family(data):
    with pytest.raises(lf.ConfigError):
        lf.family_from_json_dict(data)


@pytest.mark.parametrize("member, cells, max_depth, text", [
    (DyadicInterval(2 ** 64, 0), 8, 3, "lies outside 8 cells to depth 3"),
    (DyadicInterval(4, 0), 64, 3, "lies outside 64 cells to depth 3"),
    (DyadicInterval(4, 0), 8, 6, "lies outside 8 cells to depth 6"),
    ((1, 0), 8, 3, "sparse family member must be a DyadicInterval"),
], ids=["generation-2^64", "deeper-than-max-depth", "deeper-than-cells", "not-an-interval"])
def test_family_frame_is_checked_when_built(member, cells, max_depth, text):
    # the member at generation 2^64 was taken, and verify_sparsity then ran
    # out of memory building 2^(2^64)
    with pytest.raises(lf.ConfigError, match=text):
        lf.SparseFamily(a=-1.0, b=1.0, cells=cells, lam=4.0,
                        members=[DyadicInterval(0, 0), member], carriers={},
                        eta=Fraction(1), max_depth=max_depth)


def test_verify_rejects_empty_family():
    fam = build_reference_family()
    empty = lf.SparseFamily(a=fam.a, b=fam.b, cells=fam.cells, lam=fam.lam,
                            members=[], carriers={}, eta=Fraction(1),
                            max_depth=fam.max_depth)
    with pytest.raises(lf.SparseDominationError):
        lf.verify_sparsity(empty)


def test_verify_rejects_duplicate_members():
    fam = build_reference_family()
    bad = lf.SparseFamily(a=fam.a, b=fam.b, cells=fam.cells, lam=fam.lam,
                          members=fam.members + [fam.members[-1]],
                          carriers=fam.carriers, eta=fam.eta,
                          max_depth=fam.max_depth,
                          depth_exhausted=fam.depth_exhausted)
    with pytest.raises(lf.SparseDominationError):
        lf.verify_sparsity(bad)
