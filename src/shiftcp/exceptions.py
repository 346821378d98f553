"""Exception types mapped to CLI exit codes, and the input rules; it imports no sibling, so every module can use them."""

import math

import numpy as np


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration (exit code 2)."""


class DataError(ValueError):
    """Malformed input data or logit-table ingestion failure (exit code 3)."""


class InvariantError(RuntimeError):
    """An internal invariant that must hold by construction was violated (exit code 4)."""


class WorkerError(RuntimeError):
    """A worker process ended without a readable outcome, most often killed for memory (exit code 2)."""


def _validate_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _validate_nonnegative(*, finite: bool = True, **values: float) -> None:
    """Raise unless every named value is at least 0 (NaN fails the comparison) and, unless ``finite`` is false, finite."""
    for name, value in values.items():
        if not value >= 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    if finite:
        _validate_finite(**values)


def _validate_finite(**values: float) -> None:
    """Raise unless every named value is a finite real: NaN and +-inf raise."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _validate_count(name: str, value, minimum: int = 0, maximum: int | None = None) -> None:
    """Raise unless ``value`` is an ``int`` or numpy integer, never a bool, in ``minimum..maximum``."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integral and minimum <= value and (maximum is None or value <= maximum)):
        rule = f"of at least {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise ValueError(f"{name} must be an integer {rule}, got {value!r}")


def _finite_array(values, name: str, error: type[ValueError] = ValueError) -> np.ndarray:
    """``values`` as a float array of any shape, empty allowed; a NaN or +-inf entry raises ``error``."""
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise error(f"{name} must be finite, without NaN or +-inf")
    return v


def _finite_sample(values, name: str, ndim: int = 1) -> np.ndarray:
    """A nonempty, finite 1-D sample of values, or with ``ndim`` 2 an (n, d) sample of points."""
    v = np.asarray(values, dtype=float)
    if v.ndim != ndim or v.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty {'1-D sample' if ndim == 1 else '(n, d) array'}")
    return _finite_array(v, name)
