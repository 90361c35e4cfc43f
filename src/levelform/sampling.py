"""Seeded low-discrepancy sampling over domains.

All randomness in the package flows through scrambled Sobol streams with an
explicit seed. One rejection routine serves every sampler: it draws the
stream on a bounding box in power-of-two batches and keeps the points a
domain predicate accepts, in stream order. The stream does not depend on the
batch size, so streams are prefix-stable: the first k of N points are the k
points a request for k returns.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import qmc

from .errors import ConfigError
from .geometry import Domain

_MAX_BATCH = 2**18
# floor on the expected acceptance rate when sizing a batch
_MIN_RATE = 1e-4


def derived_rng(seed: int, tag: int) -> np.random.Generator:
    """Generator for sub-stream `tag` of master seed `seed`."""
    if seed < 0 or tag < 0:
        raise ConfigError(f"seeds and stream tags must be >= 0, got seed {seed!r}, tag {tag!r}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag,)))


def sobol_engine(dim: int, seed: int, tag: int = 0) -> qmc.Sobol:
    return qmc.Sobol(d=dim, scramble=True, seed=derived_rng(seed, tag))


def _accepted_stream(lo: np.ndarray, hi: np.ndarray, count: int, seed: int, tag: int,
                     accept=None, rate: float = 1.0) -> np.ndarray:
    """First `count` points of the seeded stream on [lo, hi] that `accept` keeps.

    `accept=None` keeps every point; `rate` is the expected acceptance rate and
    only sizes the batches.
    """
    if count < 0:
        raise ConfigError(f"sample count must be >= 0, got {count!r}")
    engine = sobol_engine(len(lo), seed, tag)
    out = np.empty((count, len(lo)), dtype=float)
    target = count / max(rate, _MIN_RATE) * 1.2
    batch = 1 << int(np.ceil(np.log2(min(max(target, 64), _MAX_BATCH))))
    got = 0
    while got < count:
        pts = lo + engine.random(batch) * (hi - lo)
        if accept is not None:
            pts = pts[accept(pts)]
        take = min(len(pts), count - got)
        out[got:got + take] = pts[:take]
        got += take
    return out


def sample_domain(domain: Domain, count: int, seed: int, tag: int = 0) -> np.ndarray:
    """`count` quasi-random points in `domain`, in stream order."""
    lo, hi = domain.bounding_box()
    if domain.shape == "box":
        return _accepted_stream(lo, hi, count, seed, tag)
    rate = domain.volume() / float(np.prod(hi - lo))
    return _accepted_stream(lo, hi, count, seed, tag, domain.contains, rate)


def sample_domain_pairs(domain_x: Domain, domain_y: Domain, count: int, seed: int,
                        tag: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Joint quasi-random pairs (x, y), rejected into both domains at once."""
    lo_x, hi_x = domain_x.bounding_box()
    lo_y, hi_y = domain_y.bounding_box()
    nx = domain_x.n

    def accept(pts):
        return domain_x.contains(pts[:, :nx]) & domain_y.contains(pts[:, nx:])

    rate = (domain_x.volume() * domain_y.volume()
            / float(np.prod(hi_x - lo_x) * np.prod(hi_y - lo_y)))
    pts = _accepted_stream(np.concatenate([lo_x, lo_y]), np.concatenate([hi_x, hi_y]),
                           count, seed, tag, accept, rate)
    return pts[:, :nx], pts[:, nx:]
