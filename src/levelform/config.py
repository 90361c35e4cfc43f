"""Plain-text key-value configuration for domains and phases.

Recognized keys:
    domain.shape = ball | box        domain.n = <int>      domain.R = <float>
    domain.bounds = lo:hi;lo:hi;...  (box only, one pair per axis)
    phase.kind = linear | radial-quadratic | radial-power | saddle | oscillatory
    phase.axis = <int>   phase.gamma = <float>   phase.a = <float>   phase.N = <float>

Unknown keys under the `domain.` or `phase.` prefixes are rejected.
"""

from __future__ import annotations

from .errors import ConfigError
from . import geometry

_DOMAIN_KEYS = {"domain.shape", "domain.n", "domain.R", "domain.bounds"}
_PHASE_KEYS = {"phase.kind", "phase.axis", "phase.gamma", "phase.a", "phase.N"}


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


def _check_known(cfg: dict[str, str]):
    for key in cfg:
        if key.startswith("domain.") and key not in _DOMAIN_KEYS:
            raise ConfigError(f"unknown domain key {key!r}")
        if key.startswith("phase.") and key not in _PHASE_KEYS:
            raise ConfigError(f"unknown phase key {key!r}")


def domain_from_config(cfg: dict[str, str]) -> geometry.Domain:
    _check_known(cfg)
    shape = cfg.get("domain.shape", "ball")
    try:
        n = int(cfg.get("domain.n", "2"))
    except ValueError as exc:
        raise ConfigError(f"domain.n: {exc}") from exc
    if shape == "ball":
        try:
            radius = float(cfg.get("domain.R", "1.0"))
        except ValueError as exc:
            raise ConfigError(f"domain.R: {exc}") from exc
        return geometry.ball(n, radius)
    if shape == "box":
        raw = cfg.get("domain.bounds")
        if raw is None:
            raise ConfigError("box domain needs domain.bounds")
        pairs = []
        for chunk in raw.split(";"):
            bits = chunk.split(":")
            if len(bits) != 2:
                raise ConfigError(f"bad bounds chunk {chunk!r}")
            try:
                pairs.append((float(bits[0]), float(bits[1])))
            except ValueError as exc:
                raise ConfigError(f"domain.bounds: {exc}") from exc
        if len(pairs) != n:
            raise ConfigError("domain.bounds must list one lo:hi pair per axis")
        return geometry.box(pairs)
    raise ConfigError(f"unknown domain.shape {shape!r}")


def phase_from_config(cfg: dict[str, str]) -> geometry.Phase:
    _check_known(cfg)
    domain = domain_from_config(cfg)
    kind = cfg.get("phase.kind")
    if kind is None:
        raise ConfigError("missing phase.kind")
    try:
        if kind == geometry.LINEAR:
            return geometry.linear_phase(domain, axis=int(cfg.get("phase.axis", "0")))
        if kind == geometry.RADIAL_QUADRATIC:
            return geometry.radial_quadratic_phase(domain)
        if kind == geometry.RADIAL_POWER:
            return geometry.radial_power_phase(domain, gamma=float(cfg.get("phase.gamma", "2.0")))
        if kind == geometry.SADDLE:
            return geometry.saddle_phase(domain)
        if kind == geometry.OSCILLATORY:
            return geometry.oscillatory_phase(
                domain,
                amplitude=float(cfg.get("phase.a", "0.5")),
                frequency=float(cfg.get("phase.N", "1.0")),
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown phase.kind {kind!r}")
