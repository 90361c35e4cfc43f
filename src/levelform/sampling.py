"""Seeded low-discrepancy sampling over domains.

All randomness in the package flows through scrambled Sobol streams with an
explicit seed. One rejection routine serves every sampler: it draws the
stream on a bounding box in power-of-two batches and keeps the points a
domain predicate accepts, in stream order. The stream does not depend on the
batch size, so streams are prefix-stable: the first k of N points are the k
points a request for k returns.

The stream of `(seed, tag)` is bit for bit the one
`scipy.stats.qmc.Sobol(d, scramble=True, seed=derived_rng(seed, tag))`
draws, built here in numpy for up to 32 dimensions; more are refused:

- direction numbers from the Joe & Kuo (2008) table;
- linear matrix scrambling plus a digital shift (Matousek 1998; Owen 1998)
  with 30 bits, drawn from a spawned child of the generator as qmc.Sobol
  draws them: the shift bits first, then the lower-triangular matrices;
- points in Gray-code order (Antonov & Saleev 1979). For a power-of-two
  batch size B, gray(jB + i) = gray(jB) ^ gray(i), so every batch is one
  precomputed block XOR one offset.

Each block is mapped onto the box in place, over rows regrouped 64 at a
time as the XOR is, and its accepted rows are gathered by index. A ball in
two dimensions takes its squared norms by columns (`geometry._sq_norms`),
so no step loops over d = 2 elements a row; for d >= 3 the norms do.
The blocks hold at most 2^15 points, and at most 2^14 from four dimensions
on, so a block stays in cache.
`sample_blocks` and `sample_pair_blocks` hand the accepted rows on block by
block, and the Monte Carlo estimators consume them so, in memory that does
not grow with the sample count; `sample_domain` gathers the blocks of
`sample_blocks` into one array. A block handed on is an array no later draw
writes to, so the Monte Carlo histogram and `lhs_direct` can draw the next
block of `sample_blocks` or `sample_pair_blocks` on a worker thread while
they work on this one (`_overlap.lookahead`); a draw calls no public
function of this module or of `geometry`, so it runs nothing an outside
tracer wraps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, require_whole

if TYPE_CHECKING:
    from .geometry import Domain

# largest Sobol block: within 15% of the fastest size on every case of a sweep
# of 2^13..2^18, where 2^18 took up to 2.3 times as long (BENCH_mcstream.json)
_MAX_BATCH = 2**15
# most coordinates a block holds before its rows are rounded up to a power of
# two: from four dimensions on a block has fewer rows, so that the pair stream
# of `lhs_direct`, drawn one block ahead, does not raise the peak (BENCH_reduce.json)
_MAX_BLOCK_VALUES = 2**16
_BITS = 30
# Joe & Kuo (2008), file new-joe-kuo-6.21201, dimensions 2..32: the primitive
# polynomial over GF(2) as bits, its leading and constant terms included, and
# the initial direction numbers m_1..m_s. Dimension 1 is the van der Corput
# sequence, all m_j = 1.
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)), (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)), (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)), (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)), (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)), (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)), (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)), (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)), (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)), (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)), (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)), (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)),
)


def derived_rng(seed: int, tag: int) -> np.random.Generator:
    """Generator for sub-stream `tag` of master seed `seed`."""
    require_whole(seed, "seed", minimum=0)
    require_whole(tag, "stream tag", minimum=0)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag,)))


def _direction_numbers(dim: int) -> np.ndarray:
    """(dim, 30) direction numbers m_j 2^(30 - j), by the Bratley-Fox recurrence."""
    v = np.ones((dim, _BITS), dtype=np.int64)
    for d, (poly, init) in enumerate(_JOE_KUO[:dim - 1], start=1):
        s = len(init)
        m = list(init)
        for j in range(s, _BITS):
            new = m[j - s]
            for k in range(1, s + 1):
                if (poly >> (s - k)) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        v[d] = m
    return v << np.arange(_BITS - 1, -1, -1)


def _scrambled_directions(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Direction numbers after linear matrix scrambling, and the digital shift.

    Each direction number, read as a bit column from its top bit down, is
    multiplied over GF(2) by a random lower-triangular matrix with unit
    diagonal, one matrix per dimension.
    """
    shift = rng.integers(2, size=(dim, _BITS), dtype=np.uint32) @ (
        np.uint32(1) << np.arange(_BITS, dtype=np.uint32))
    lower = np.tril(rng.integers(2, size=(dim, _BITS, _BITS), dtype=np.uint32))
    lower[:, np.arange(_BITS), np.arange(_BITS)] = 1
    top_down = np.arange(_BITS - 1, -1, -1)
    bits = (_direction_numbers(dim)[:, :, None] >> top_down) & 1
    scrambled = (np.einsum("dpi,dji->djp", lower, bits) & 1) << top_down
    return scrambled.sum(axis=2).astype(np.uint32), shift


def _gray_offset(directions: np.ndarray, index: int) -> np.ndarray:
    """XOR of the direction numbers over the set bits of gray(index)."""
    gray = index ^ (index >> 1)
    return np.bitwise_xor.reduce(directions[:, [b for b in range(_BITS) if (gray >> b) & 1]],
                                 axis=1)


def _xor_rows(rows: np.ndarray, vector: np.ndarray, out: np.ndarray) -> None:
    """out = rows ^ vector, row by row, for C-contiguous (2^k, dim) arrays.

    The rows are regrouped up to 64 at a time, so that numpy's inner loop
    runs over 64 * dim elements instead of dim.
    """
    width = min(len(rows), 64) * len(vector)
    np.bitwise_xor(rows.reshape(-1, width), np.tile(vector, width // len(vector)),
                   out=out.reshape(-1, width))


def _sobol_blocks(dim: int, rng: np.random.Generator, batch: int):
    """Successive `batch`-point blocks, in [0, 1)^dim, of the stream seeded by `rng`.

    `batch` is a power of two. Each block is a fresh array, which the caller
    may overwrite. The stream ends after 2^30 points, as qmc.Sobol's does,
    and asking for more raises ConfigError.
    """
    # qmc.Sobol scrambles with a spawned child of the generator it is given
    directions, shift = _scrambled_directions(dim, rng.spawn(1)[0])
    # row i holds the XOR over gray(i); gray(w + i) = gray(w) ^ gray(i) for i < w = 2^b
    block = np.zeros((batch, dim), dtype=np.uint32)
    w = 1
    while w < batch:
        _xor_rows(block[:w], _gray_offset(directions, w), out=block[w:2 * w])
        w *= 2
    points = np.empty_like(block)
    for start in range(0, 2**_BITS, batch):
        _xor_rows(block, shift ^ _gray_offset(directions, start), out=points)
        unit = points.astype(float)
        unit *= 2.0**-_BITS
        yield unit
    raise ConfigError(f"a Sobol stream holds 2^{_BITS} points; this request needs more")


def _accepted_blocks(lo: np.ndarray, hi: np.ndarray, count: int, seed: int, tag: int,
                     accept=None):
    """The first `count` points of the seeded stream on [lo, hi] that `accept`
    keeps, as successive (k, d) blocks of k >= 1 rows in stream order.

    `accept=None` keeps every point. The batch size depends on `count` and
    the dimension d: the power of two at or above min(1.2 count, 2^15,
    2^16 / d), and at least 64. That is 2^15 rows for a long stream in up to
    three dimensions and at most 2^14 from four on, so a block of the 4-d
    pair stream holds as many bytes as a 2-d one. It cannot move a point,
    since the stream is prefix-stable. The count, dimension, seed and tag are
    checked here, before the first block is drawn.
    """
    require_whole(count, "sample count", minimum=0)
    if len(lo) > len(_JOE_KUO) + 1:
        raise ConfigError(f"a Sobol stream has at most {len(_JOE_KUO) + 1} dimensions, "
                          f"got {len(lo)}")
    if count > 2**_BITS:
        raise ConfigError(f"a Sobol stream holds 2^{_BITS} points, got a sample count of {count}")
    rng = derived_rng(seed, tag)
    batch = 1 << int(np.ceil(np.log2(min(max(count * 1.2, 64), _MAX_BATCH,
                                         _MAX_BLOCK_VALUES / len(lo)))))
    return _accepted_rows(_sobol_blocks(len(lo), rng, batch), lo, hi, count, accept)


def _accepted_rows(blocks, lo: np.ndarray, hi: np.ndarray, count: int, accept):
    """The generator behind `_accepted_blocks`, over the unit-cube `blocks`."""
    dim = len(lo)
    # lo + u * (hi - lo), as the same two operations in place, over rows
    # regrouped 64 at a time as in _xor_rows
    scale, shift = np.tile(hi - lo, 64), np.tile(lo, 64)
    left = count
    while left:
        pts = next(blocks)
        grouped = pts.reshape(-1, 64 * dim)
        grouped *= scale
        grouped += shift
        if accept is None:
            take = min(len(pts), left)
            yield pts[:take]
        else:
            # the first `left` accepted rows at most, gathered by index
            rows = np.flatnonzero(accept(pts))[:left]
            take = len(rows)
            if take:
                yield np.take(pts, rows, axis=0)
        left -= take


def sample_blocks(domain: Domain, count: int, seed: int, tag: int = 0):
    """`count` quasi-random points in `domain`, in stream order, as successive
    (k, n) blocks of at most `_MAX_BATCH` rows."""
    lo, hi = domain.bounding_box()
    return _accepted_blocks(lo, hi, count, seed, tag,
                            None if domain.shape == "box" else domain.contains)


def sample_domain(domain: Domain, count: int, seed: int, tag: int = 0) -> np.ndarray:
    """The points of `sample_blocks(domain, count, seed, tag)` as one (count, n) array."""
    blocks = sample_blocks(domain, count, seed, tag)
    out = np.empty((count, domain.n))
    got = 0
    for pts in blocks:
        out[got:got + len(pts)] = pts
        got += len(pts)
    return out


def sample_pair_blocks(domain_x: Domain, domain_y: Domain, count: int, seed: int,
                       tag: int = 0):
    """`count` joint quasi-random pairs (x, y), rejected into both domains at
    once, as successive (xs, ys) blocks in stream order."""
    lo_x, hi_x = domain_x.bounding_box()
    lo_y, hi_y = domain_y.bounding_box()
    nx = domain_x.n

    def accept(pts):
        return domain_x.contains(pts[:, :nx]) & domain_y.contains(pts[:, nx:])

    blocks = _accepted_blocks(np.concatenate([lo_x, lo_y]), np.concatenate([hi_x, hi_y]),
                              count, seed, tag, accept)
    return ((pts[:, :nx], pts[:, nx:]) for pts in blocks)
