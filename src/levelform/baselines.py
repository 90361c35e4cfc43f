"""Frozen numerical baselines shipped with the package.

Values measured once by scripts/refresh_baselines.py and pinned here so the
test suite can assert they reproduce exactly on rerun.
"""

from __future__ import annotations

from importlib import resources

from .errors import ConfigError


def load_baselines() -> dict[str, float]:
    text = resources.files(__package__).joinpath("baselines.txt").read_text()
    out: dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"malformed baseline line: {line!r}")
        name, value = (part.strip() for part in line.split("=", 1))
        if name in out:
            raise ConfigError(f"duplicate baseline {name!r}")
        out[name] = float(value)
    return out


def baseline(name: str) -> float:
    table = load_baselines()
    if name not in table:
        raise ConfigError(f"unknown baseline {name!r}")
    return table[name]
