"""Exception types shared across the package, and the whole-number,
real-number, finite-array and one-value-per-point guards."""

import math
import numbers
import reprlib

import numpy as np


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


# A refusal shows its input through `reprlib`, cut to a few items a level and
# six levels deep, so that a long or deeply nested input still gets its refusal
# and not a RecursionError from `repr`.

def require_whole(value, name: str, minimum: int = 1) -> None:
    """Refuse anything but an integer (Python or numpy) of at least `minimum`;
    `True` and `False` are no numbers here."""
    # `int` first: the abstract Integral check costs ten times more
    if not (isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool)
            and value >= minimum):
        raise ConfigError(f"{name} must be a whole number >= {minimum}, got {reprlib.repr(value)}")


def require_real(value, name: str, *, above: float | None = None,
                 minimum: float | None = None) -> float:
    """Refuse anything but a finite real (Python or numpy) that is > `above`
    or >= `minimum` when given; return it as a float. `True` and `False` are
    no numbers here."""
    # `float` and `int` first: the abstract Real check costs ten times more
    if not (isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)
            and math.isfinite(value)
            and (above is None or value > above) and (minimum is None or value >= minimum)):
        bound = "" if above is None else f" > {above}"
        bound += "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{name} must be a finite real number{bound}, got {reprlib.repr(value)}")
    return float(value)


def require_interval(lo, hi, name: str) -> tuple[float, float]:
    """Refuse anything but finite reals lo < hi; return them as floats."""
    lo = require_real(lo, f"{name} start")
    return lo, require_real(hi, f"{name} end", above=lo)


def _holds_bool(values) -> bool:
    """Whether a nested list or tuple holds a bool (Python or numpy) anywhere."""
    if isinstance(values, (list, tuple)):
        return any(_holds_bool(item) for item in values)
    return isinstance(values, bool) or getattr(values, "dtype", None) == bool


def require_finite(values, name: str) -> np.ndarray:
    """Refuse anything but a regular array of finite real or complex numbers;
    return it as a numpy array. Booleans are no numbers here, also inside a
    list that numpy would convert to floats."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        raise ConfigError(f"{name} must be a regular array, got {reprlib.repr(values)}") from None
    # an array's dtype says it all, however long it is; only a list is scanned
    if arr.dtype.kind == "b" or isinstance(values, (list, tuple)) and _holds_bool(values):
        raise ConfigError(f"{name} must be numbers, not booleans, got {reprlib.repr(values)}")
    if arr.dtype.kind not in "iufc":
        raise ConfigError(f"{name} must be numbers, got {reprlib.repr(values)}")
    # one pass over a good array; the mask is built only to name a bad value
    if not np.isfinite(arr).all():
        bad = ~np.isfinite(arr)
        raise ConfigError(f"{name} must be finite, got {arr[bad][0].item()!r}")
    return arr


def require_per_point(values, count: int, what: str = "a weight") -> np.ndarray:
    """Refuse anything but one value per point, for `count` points; return the
    values as floats. numpy would broadcast a scalar or a (count, 1) column
    silently, or into a (count, count) product."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (count,):
        raise ConfigError(f"{what} must give one value per point, got shape "
                          f"{arr.shape} for {count} points")
    return arr
