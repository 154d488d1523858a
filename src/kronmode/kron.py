"""Kronecker-sum generators and their exact mode-wise exponential propagator.

A generator ``M = A_d (+) ... (+) A_1`` acting on vectorized order-d tensors
is stored as its d one-dimensional factors; ``exp(tau*M)`` is applied as one
mode product with ``exp(tau*A_mu)`` per direction, which advances linear
constant-coefficient problems without any time-discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import ConfigurationError, InvalidInputError, OracleSizeError, ShapeError
from .linalg import matexp
from .tensor import mu_mode_product, tucker

__all__ = ["KroneckerOp", "PropagatorCache", "assemble_full", "matvec", "prepare", "step"]


def _check_square_finite(mats, what):
    for mu, a in enumerate(mats, start=1):
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
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

    @property
    def size(self):
        return prod(self.shape)


@dataclass(frozen=True)
class PropagatorCache:
    """Precomputed ``exp(tau*A_mu)`` factors for a fixed time increment.

    Immutable: rebuild via :func:`prepare` whenever ``tau`` or a factor
    changes.  Every factor must be square and finite, as for
    :class:`KroneckerOp`.
    """

    tau: float
    exps: tuple

    def __post_init__(self):
        exps = tuple(np.asarray(e) for e in self.exps)
        _check_square_finite(exps, "exponential factor")
        object.__setattr__(self, "exps", exps)

    @property
    def shape(self):
        return tuple(e.shape[0] for e in self.exps)


def assemble_full(op, limit=4096):
    """Dense ``sum_mu I x ... x A_mu x ... x I`` for test oracles.

    Uses the column-major vectorization convention, so the result times
    ``u.ravel(order="F")`` matches the tensor-form action.  Capped at
    ``limit`` total degrees of freedom.
    """
    n_total = op.size
    if n_total > limit:
        raise OracleSizeError(f"dense assembly of size {n_total} exceeds limit {limit}")
    dtype = np.result_type(np.float64, *(a.dtype for a in op.factors))
    full = np.zeros((n_total, n_total), dtype=dtype)
    for mu in range(op.d):
        term = np.ones((1, 1), dtype=dtype)
        for idx in range(op.d):
            if idx == mu:
                factor = op.factors[idx].astype(dtype)
            else:
                factor = np.eye(op.shape[idx], dtype=dtype)
            term = np.kron(factor, term)
        full += term
    return full


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


def prepare(op, tau, dtype=None):
    """Exponentiate every factor once for time increment ``tau``.

    The exponentials are computed in double precision; with ``dtype`` (the
    state's dtype, say ``np.float32`` for a single-precision run) each one is
    then cast to it.
    """
    exps = (matexp(tau * a) for a in op.factors)
    if dtype is not None:
        exps = (e.astype(dtype, copy=False) for e in exps)
    return PropagatorCache(tau, tuple(exps))


def step(cache, u, steps=1):
    """Advance ``u`` by ``steps`` times the cache's time increment.

    Exact (up to rounding and the factor exponentials) for linear problems
    whose generator is the Kronecker sum the cache was prepared from.
    Factors are applied in ascending direction order; any order gives the
    same result because the factor exponentials commute.
    """
    _check_steps(steps)
    u = np.asarray(u)
    if u.shape != cache.shape:
        raise ShapeError(f"tensor shape {u.shape} does not match cache shape {cache.shape}")
    for _ in range(steps):
        u = tucker(u, cache.exps)
    return u
