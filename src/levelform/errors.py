"""Exception types shared across the package, and the whole-number guard."""

import numbers


class LevelformError(Exception):
    """Base class for all package-specific failures."""


class PointOutsideDomainError(LevelformError, ValueError):
    """A phase was evaluated at a point outside its domain."""


class GradientUndefinedError(LevelformError, ValueError):
    """The analytic gradient does not exist at the requested point."""


class LevelOutsideImageError(LevelformError, ValueError):
    """A level was requested outside the image of the phase."""


class EmptyIntersectionError(LevelformError, ValueError):
    """The level set does not meet the requested surface."""


class OdeBlowUpError(LevelformError, RuntimeError):
    """The reparametrization ODE left the profile's validity interval."""

    def __init__(self, s_exit: float, value: float):
        self.s_exit = float(s_exit)
        self.value = float(value)
        super().__init__(
            f"profile left its validity interval at s={self.s_exit!r} "
            f"(value {self.value!r})"
        )


class NoClosedFormError(LevelformError, ValueError):
    """No closed-form density is available for this phase/weight."""


class NoParametrizationError(LevelformError, ValueError):
    """No fiber parametrization is available for this phase/weight."""


class CriticalValueError(LevelformError, ValueError):
    """The requested level is (numerically) a critical value."""


class ResolutionError(LevelformError, ValueError):
    """Grid spacing too coarse for the requested operation."""


class ConfigError(LevelformError, ValueError):
    """Invalid configuration input."""


class InsufficientDecadesError(LevelformError, ValueError):
    """Not enough usable decades of distance for a power-law fit."""


class SparseDominationError(LevelformError, RuntimeError):
    """Sparse form vanished while the truncated pairing did not."""


class PhaseNotUniformError(LevelformError, ValueError):
    """Operation requires phases with bounded density envelopes."""


class UnsupportedPhaseError(LevelformError, ValueError):
    """Operation not defined for this phase kind."""


def require_whole(value, name: str, minimum: int = 1) -> None:
    """Refuse anything but an integer (Python or numpy) of at least `minimum`."""
    # `int` first: the abstract Integral check costs ten times more
    if not (isinstance(value, (int, numbers.Integral)) and value >= minimum):
        raise ConfigError(f"{name} must be a whole number >= {minimum}, got {value!r}")
