"""The dense matrix exponential of the per-direction factors."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, ShapeError

__all__ = ["matexp"]

# Al-Mohy and Higham (2011), theta_m for double precision: the m-term Taylor
# polynomial of exp(X) has backward error at most 2^-53 while |X|_1 <= theta_m.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3, 7: 2.38e-2,
    8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1,
    15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82,
    23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7,
    40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}

# matexp's degrees, up to its cap of 30, their thetas and the Taylor coefficients.
_DEGREES = np.arange(1, 31)
_THETAS = np.array([_THETA[m] for m in _DEGREES])
_COEFFS = [1.0 / math.factorial(k) for k in range(31)]


def matexp(a):
    """``exp(A)`` of a square matrix, or of each matrix of a stack ``(..., n, n)``.

    Scaling and squaring of the Taylor series, in numpy alone.  Each matrix
    gets its own plan from its own 1-norm: the fewest squarings ``s`` that
    bring ``|2^-s A|_1`` to at most ``theta_30 = 3.54`` of Al-Mohy and
    Higham (2011), then the smallest degree ``m`` whose ``theta_m`` covers
    it, so the degree-``m`` polynomial of ``2^-s A`` has backward error at
    most 2^-53.  The matrices that share a plan ``(m, s)`` go through one
    Paterson-Stockmeyer evaluation of the polynomial, with stacked matmuls,
    then ``s`` squarings; no linear solve.  So ``matexp(stack)[i]`` has the
    bits of ``matexp(stack[i])``.

    The cap is ``theta_30``.  A cap at ``theta_55`` raised the error of
    heat's n=128 exponential at tau = 1/40 (against its exact circulant
    exponential) from 6.5e-15 to 2.8e-14.  A cap at ``theta_11``, which
    gives gpe's ``|tau A|_1 = 1.63`` three squarings, raised gpe-n64's
    norm drift at T = 4.75, 5 and 5.25 from 2.7e-15, 1.5e-15 and 3.4e-16
    to 6.0e-15, 4.9e-15 and 1.1e-14 (two threads).

    Real input yields real output; a zero matrix gives the exact identity.
    A matrix that is not square raises :class:`ShapeError`, a non-finite
    entry in any matrix :class:`InvalidInputError`.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"matrix exponential needs square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix exponential of non-finite entries")
    n = a.shape[-1]
    stack = a.reshape(math.prod(a.shape[:-2]), n, n).astype(np.result_type(a.dtype, np.float64))
    # A column sum may overflow; at the largest float the plan stays in range.
    norms = np.minimum(np.abs(stack).sum(axis=-2).max(axis=-1, initial=0.0), np.finfo(float).max)
    # The fewest squarings: scaling by 2^-s is exact, so is the test.
    s = np.maximum(np.frexp(norms / _THETAS[-1])[1], 0)
    s -= (s > 0) & (np.ldexp(norms, 1 - s) <= _THETAS[-1])
    s += np.ldexp(norms, -s) > _THETAS[-1]
    m = _DEGREES[np.searchsorted(_THETAS, np.ldexp(norms, -s))]
    out = np.empty_like(stack)
    for plan in set(zip(m.tolist(), s.tolist())):
        group = np.flatnonzero((m == plan[0]) & (s == plan[1]))
        out[group] = _taylor_squared(stack[group] * 2.0 ** -plan[1], *plan)
    return out.reshape(a.shape)


def _taylor_squared(x, m, s):
    """``T_m(x)^(2^s)`` for the degree-``m`` Taylor polynomial ``T_m`` of each matrix of ``x``.

    Paterson-Stockmeyer: the powers ``x^1 .. x^p``, ``p = ceil(sqrt(m))``,
    and Horner's rule in ``x^p`` over blocks of ``p`` coefficients.
    """
    p = math.isqrt(m - 1) + 1
    powers = [x]
    for _ in range(p - 1):
        powers.append(powers[-1] @ x)
    diagonal = (slice(None), slice(None, None, x.shape[-1] + 1))

    def add_block(acc, j):
        # acc += sum_i _COEFFS[j p + i] x^i over the block's i < p
        for i in range(1, min(p, m - j * p + 1)):
            acc += _COEFFS[j * p + i] * powers[i - 1]
        acc.reshape(len(x), x.shape[-1] ** 2)[diagonal] += _COEFFS[j * p]
        return acc

    top = m // p
    if m % p == 0:  # the top block is _COEFFS[m] I, so its product needs no matmul
        acc = add_block(_COEFFS[m] * powers[-1], top - 1)
        top -= 1
    else:
        acc = add_block(np.zeros_like(x), top)
    for j in range(top - 1, -1, -1):
        acc = add_block(acc @ powers[-1], j)
    for _ in range(s):
        acc = acc @ acc
    return acc
