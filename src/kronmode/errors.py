"""Exception types shared across the package."""

import numbers

import numpy as np


class KronmodeError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(KronmodeError, ValueError):
    """Operand shapes or extents are inconsistent."""


class InvalidDirectionError(KronmodeError, ValueError):
    """A 1-based direction index lies outside 1..d."""


class InvalidInputError(KronmodeError, ValueError):
    """An input contains non-finite or otherwise unusable values."""


class ConfigurationError(KronmodeError, ValueError):
    """An unsupported parameter combination was requested."""


class InvalidGridError(KronmodeError, ValueError):
    """Grid nodes are non-finite, repeated or not strictly increasing."""


class InvalidPotentialError(KronmodeError, ValueError):
    """A potential evaluates to a non-finite value at a quadrature node."""


class InvalidReferenceError(KronmodeError, ValueError):
    """A relative error was requested against a zero-norm reference."""


class NoConvergenceError(KronmodeError, RuntimeError):
    """An iterative scheme exhausted its budget before meeting its tolerance.

    Carries the best error estimate seen so far in ``best_estimate``.
    """

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


def _check_count(name, value, minimum=1):
    """Reject a count that is no integer >= ``minimum`` (:class:`ConfigurationError`).

    An integer is a :class:`numbers.Integral` other than a bool, so numpy
    integers pass and ``2.0``, ``True`` and ``"3"`` do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_finite(name, value):
    """Reject a time or step that is not finite (:class:`ConfigurationError`).

    Zero and negative values pass: a step may run backwards or not at all.
    """
    if not np.isfinite(value):
        raise ConfigurationError(f"the {name} must be finite, got {value!r}")


def _real_array(values, what, error):
    """``values`` as a float array; complex values raise ``error`` instead of losing a part."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        raise error(f"{what} must be real, got dtype {arr.dtype}")
    return np.asarray(arr, dtype=float)
