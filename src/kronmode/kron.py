"""Kronecker-sum generators and their exact mode-wise exponential propagator.

A generator ``M = A_d (+) ... (+) A_1`` acting on vectorized order-d tensors
is stored as its d one-dimensional factors; ``exp(tau*M)`` is applied as one
mode product with ``exp(tau*A_mu)`` per direction, which advances linear
constant-coefficient problems without any time-discretization error.  The
dense ``M`` is never formed.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .errors import ConfigurationError, InvalidInputError, ShapeError
from .linalg import matexp
from .tensor import _active_counters, _lent_pair, _output_pair, mu_mode_product, tucker

__all__ = ["KroneckerOp", "PropagatorCache", "matvec", "prepare", "step"]


def _check_square_finite(mats, what, vectors=False):
    """Every matrix square (1-D entries allowed with ``vectors``) and finite."""
    for mu, a in enumerate(mats, start=1):
        if not (vectors and a.ndim == 1) and (a.ndim != 2 or a.shape[0] != a.shape[1]):
            raise ShapeError(f"{what} {mu} must be square, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise InvalidInputError(f"{what} {mu} has non-finite entries")


@dataclass(frozen=True)
class KroneckerOp:
    """Ordered one-dimensional factors ``A_1 .. A_d``; ``A_mu`` acts on direction mu.

    Every factor must be square and finite (:class:`ShapeError`,
    :class:`InvalidInputError`).
    """

    factors: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(a) for a in self.factors)
        if not mats:
            raise ShapeError("a Kronecker operator needs at least one factor")
        _check_square_finite(mats, "factor")
        object.__setattr__(self, "factors", mats)

    @property
    def d(self):
        return len(self.factors)

    @property
    def shape(self):
        return tuple(a.shape[0] for a in self.factors)


@dataclass(frozen=True)
class PropagatorCache:
    """Precomputed ``exp(tau*A_mu)`` factors for a fixed time increment.

    Immutable: rebuild via :func:`prepare` whenever ``tau`` or a factor
    changes.  Every entry must be finite, and either a square matrix or a
    1-D vector that stands for a diagonal exponential (as :func:`prepare`
    builds for an exactly diagonal factor; :func:`kronmode.tensor.tucker`
    applies it as a scaling).
    """

    tau: float
    exps: tuple

    def __post_init__(self):
        exps = tuple(np.asarray(e) for e in self.exps)
        _check_square_finite(exps, "exponential factor", vectors=True)
        object.__setattr__(self, "exps", exps)

    @property
    def shape(self):
        return tuple(e.shape[0] for e in self.exps)


def matvec(op, u):
    """Action of the Kronecker sum on a tensor: ``sum_mu u x_mu A_mu``."""
    u = np.asarray(u)
    if u.shape != op.shape:
        raise ShapeError(f"tensor shape {u.shape} does not match operator shape {op.shape}")
    out = mu_mode_product(u, op.factors[0], 1)
    for mu in range(2, op.d + 1):
        out += mu_mode_product(u, op.factors[mu - 1], mu)
    return out


def _check_steps(steps):
    """Reject a step count that is not an integer >= 1 (:class:`ConfigurationError`)."""
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ConfigurationError(f"steps must be an integer >= 1, got {steps!r}")


def _factor_exp(tau, a):
    """``exp(tau*a)``: a 1-D vector if ``a`` is exactly diagonal, else :func:`matexp`.

    The vector holds the diagonal of the exponential.  Exactly diagonal
    means that every off-diagonal entry is zero, with no tolerance.  A
    non-square or non-finite ``a`` is rejected on either path.
    """
    a = np.asarray(a)
    if a.ndim == 2 and np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
        _check_square_finite((a,), "factor")
        return np.exp(tau * np.diagonal(a))
    return matexp(tau * a)


def _cast(arr, dtype):
    """``arr`` in single precision if ``dtype`` is single, else ``arr`` itself.

    A single-precision result is a new array, complex64 for complex ``arr``
    and float32 otherwise, with every real or imaginary part below float32's
    ``tiny`` flushed to zero: subnormals would slow every mode product that
    reads them and are below the precision of any result.
    """
    if np.dtype(dtype) not in (np.float32, np.complex64):
        return arr
    out = arr.astype(np.complex64 if np.iscomplexobj(arr) else np.float32)
    tiny = np.finfo(np.float32).tiny
    for part in (out.real, out.imag) if np.iscomplexobj(out) else (out,):
        part[np.abs(part) < tiny] = 0
    return out


def _exponentials(tau, factors, dtype=None, known=None):
    """``exp(tau*a)`` of every factor ``a`` by :func:`_factor_exp`, cast by :func:`_cast`.

    Each distinct array object is exponentiated once, even if it serves
    several directions.  Returns the exponentials in factor order and the
    map ``id(a) -> (a, exponential)``; passed back as ``known`` (with the
    same ``tau`` and ``dtype``), it supplies the exponential of every factor
    that is the same object again.  The map holds the factors, so their ids
    are not reused by other objects while it lives.  The call's seconds go
    to ``exp_s`` of :func:`kronmode.tensor.count_flops`.
    """
    start = perf_counter()
    known = {} if known is None else known
    now = {}
    for a in factors:
        if id(a) not in now:
            now[id(a)] = known.get(id(a)) or (a, _cast(_factor_exp(tau, a), dtype))
    seconds = perf_counter() - start
    for counter in _active_counters.get():
        counter.exp_s += seconds
    return [now[id(a)][1] for a in factors], now


def prepare(op, tau, dtype=None):
    """Exponentiate every factor once for time increment ``tau``.

    An exactly diagonal factor gets the 1-D vector of its exponential's
    diagonal, every other one the dense exponential (see
    :class:`PropagatorCache`); a factor object shared by several directions
    is exponentiated once.  The exponentials are computed in double
    precision; with a single-precision ``dtype`` (the state's dtype, say
    ``np.float32``) each one is then cast to single precision, with its
    subnormal parts flushed to zero (see :func:`_cast`).
    """
    return PropagatorCache(tau, tuple(_exponentials(tau, op.factors, dtype)[0]))


def step(cache, u, steps=1):
    """Advance ``u`` by ``steps`` times the cache's time increment.

    Exact (up to rounding and the factor exponentials) for linear problems
    whose generator is the Kronecker sum the cache was prepared from.
    Factors are applied in ascending direction order; any order gives the
    same result because the factor exponentials commute.

    With ``steps > 1`` and a dense first factor, the call owns two buffers
    of the result's size and dtype, which its products write in turn; the
    result is a view of the last one written, and ``u`` is not modified.  A
    single step owns none: its products write into a pair its caller lent
    (as :func:`kronmode.problems.gpe_strang_step` does) or into new arrays.
    """
    _check_steps(steps)
    u = np.asarray(u)
    if u.shape != cache.shape:
        raise ShapeError(f"tensor shape {u.shape} does not match cache shape {cache.shape}")
    # tucker's products write into a pair only in the chain of cycled
    # products that starts with a dense direction 1.
    lend = steps > 1 and cache.exps[0].ndim == 2 and not _lent_pair.get()
    with _output_pair(u.size, np.result_type(u, *cache.exps)) if lend else nullcontext():
        for _ in range(steps):
            u = tucker(u, cache.exps)
    return u
