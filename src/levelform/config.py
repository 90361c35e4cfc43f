"""Plain-text key-value configuration for domains and phases.

Recognized keys, each filling one field of `geometry.Domain` or `Phase`:
    domain.shape = ball | box (default ball)      domain.n = <int> (default 2)
    domain.R = <float>                            (ball only; default 1.0)
    domain.bounds = lo:hi;lo:hi;...               (box only, one pair per axis)
    phase.kind = linear | radial-quadratic | radial-power | saddle | oscillatory
    phase.axis = <int>                            (linear only; default 0)
    phase.gamma = <float>                         (radial-power only; default 2.0)
    phase.a = <float>   phase.N = <float>         (oscillatory only; defaults 0.5, 1.0)

A key whose field its shape or kind does not read is refused unless it
holds the field's default ("gamma has no effect on a linear phase"), as is
an unknown key under the `domain.` or `phase.` prefixes, and a kind that
reads a field no key fills (custom, boundary-reparam). Every other rule
belongs to `Domain` and `Phase`, as for a caller in code.
"""

from __future__ import annotations

from .errors import ConfigError
from . import geometry


def _bounds(text: str) -> tuple[tuple[float, float], ...]:
    """`lo:hi;lo:hi;...` as (lo, hi) pairs."""
    pairs = []
    for chunk in text.split(";"):
        bits = chunk.split(":")
        if len(bits) != 2:
            raise ConfigError(f"bad bounds chunk {chunk!r}")
        pairs.append((float(bits[0]), float(bits[1])))
    return tuple(pairs)


# each key, the field it fills and how its text is read
_DOMAIN_KEYS = {"domain.shape": ("shape", str), "domain.n": ("n", int),
                "domain.R": ("radius", float), "domain.bounds": ("bounds", _bounds)}
_PHASE_KEYS = {"phase.kind": ("kind", str), "phase.axis": ("axis", int),
               "phase.gamma": ("gamma", float), "phase.a": ("amplitude", float),
               "phase.N": ("frequency", float)}
# the fields a config can fill; a kind that reads another cannot be described
_FILLED = {name for name, _ in _PHASE_KEYS.values()}


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; blank lines and #-comments are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _fields(cfg: dict[str, str], prefix: str, keys: dict) -> dict:
    """The fields that the keys under `prefix` fill; an unknown key raises."""
    out = {}
    for key, text in cfg.items():
        if not key.startswith(prefix):
            continue
        if key not in keys:
            raise ConfigError(f"unknown {prefix[:-1]} key {key!r}")
        name, read = keys[key]
        try:
            out[name] = read(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return out


def domain_from_config(cfg: dict[str, str]) -> geometry.Domain:
    return geometry.Domain(**{"shape": "ball", "n": 2, **_fields(cfg, "domain.", _DOMAIN_KEYS)})


def phase_from_config(cfg: dict[str, str]) -> geometry.Phase:
    fields = _fields(cfg, "phase.", _PHASE_KEYS)
    domain = domain_from_config(cfg)
    kind = fields.pop("kind", None)
    if kind is None:
        raise ConfigError("missing phase.kind")
    reads = geometry._KIND_FIELDS.get(kind, ())
    unfilled = ", ".join(sorted(set(reads) - _FILLED))
    if unfilled:
        raise ConfigError(f"a config file cannot describe a {kind} phase: no key sets its "
                          f"{unfilled}")
    if "amplitude" in reads:
        fields.setdefault("amplitude", 0.5)  # the one default a config sets itself
    return geometry.Phase(kind, domain, **fields)
