"""Matrix-free approximations of the exponential action.

Independent baselines for cross-checking the exact mode-wise propagator: the
operator enters only through :func:`kronmode.kron.matvec`, never through its
one-dimensional exponentials.  :func:`arnoldi_expmv` is plain Arnoldi with
restarts; ``_expmv_reference``, a truncated Taylor series with scaling
(Al-Mohy and Higham 2011) on the same action, is the pipe-flow driver's
reference and the one ``selftest`` checks the propagator against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, NoConvergenceError, ShapeError, _check_count, _check_finite
from .kron import KroneckerOp, matvec
from .linalg import _THETA, matexp
from .tensor import norm

__all__ = ["arnoldi_expmv"]

_BREAKDOWN_RTOL = 1e-12


def arnoldi_expmv(op, v, tau, tol=1e-10, m_max=50, max_substeps=1024):
    """Approximate ``exp(tau*M) v`` for a Kronecker-sum generator ``M``.

    Plain Arnoldi with classical Gram-Schmidt, two block products, run twice
    (CGS2).  Each substep is accepted once the relative norm difference
    between approximations at consecutive even subspace sizes drops below
    ``tol``; if that never happens at ``m_max``, ``tau`` is split into twice
    as many equal substeps and the sweep restarts, up to ``max_substeps``.

    Parameters
    ----------
    op : KroneckerOp
    v : ndarray
        Tensor matching ``op.shape``.
    tau : float
        Time increment; finite, and zero or negative allowed.
    tol : float
        Relative stopping tolerance, at least 1e-14.
    m_max : int
        Maximum subspace dimension per substep.
    max_substeps : int
        Substep budget before giving up.

    Raises
    ------
    NoConvergenceError
        If the substep budget is exhausted; carries the best estimate seen.
    """
    v = np.asarray(v)
    if v.shape != op.shape:
        raise ShapeError(f"tensor shape {v.shape} does not match operator shape {op.shape}")
    _check_finite("time increment", tau)
    if not tol >= 1e-14:
        raise ConfigurationError(f"the tolerance must be at least 1e-14, got {tol!r}")
    _check_count("m_max", m_max)
    _check_count("max_substeps", max_substeps)

    dtype = np.result_type(np.float64, v.dtype, *(a.dtype for a in op.factors))
    v0 = v.astype(dtype, order="F").ravel(order="F")
    shape = v.shape
    if tau == 0:
        return v0.reshape(shape, order="F")
    if np.linalg.norm(v0) == 0.0:
        return np.zeros_like(v0).reshape(shape, order="F")

    substeps = 1
    best_estimate = np.inf
    while substeps <= max_substeps:
        y = v0
        for _ in range(substeps):
            y, estimate, converged = _arnoldi_substep(op, y, shape, tau / substeps, tol, m_max)
            if not converged:
                best_estimate = min(best_estimate, estimate)
                break
        else:
            return y.reshape(shape, order="F")
        substeps *= 2
    raise NoConvergenceError(
        f"no convergence to tol={tol} within {max_substeps} substeps "
        f"(best estimate {best_estimate:.3e})",
        best_estimate=best_estimate,
    )


def _arnoldi_substep(op, y0, shape, tau, tol, m_max):
    """One Arnoldi sweep; returns (approximation, estimate, converged)."""
    beta = np.linalg.norm(y0)
    if beta == 0.0:
        return y0.copy(), 0.0, True
    n_total = y0.size
    basis = np.empty((n_total, m_max + 1), dtype=y0.dtype, order="F")
    hess = np.zeros((m_max + 1, m_max), dtype=y0.dtype)
    basis[:, 0] = y0 / beta

    y_prev = None
    estimate = np.inf
    for j in range(m_max):
        w = matvec(op, basis[:, j].reshape(shape, order="F")).ravel(order="F")
        for _ in range(2):  # the second pass reorthogonalizes
            # w^H V conjugated: V^H w without copying V's conjugate
            coeffs = (w.conj() @ basis[:, :j + 1]).conj()
            hess[:j + 1, j] += coeffs
            w -= basis[:, :j + 1] @ coeffs
        h_next = np.linalg.norm(w)
        m = j + 1
        h_scale = max(1.0, float(np.abs(hess[:m, :m]).max()))
        if h_next <= _BREAKDOWN_RTOL * h_scale:
            # Happy breakdown: the Krylov space is invariant, the projection
            # is the exact exponential action on it.
            return _project(basis, hess, m, tau, beta), 0.0, True
        hess[j + 1, j] = h_next
        basis[:, j + 1] = w / h_next
        if m % 2 == 0 or m == m_max:
            y_m = _project(basis, hess, m, tau, beta)
            if y_prev is not None:
                denom = max(np.linalg.norm(y_m), np.finfo(float).tiny)
                estimate = float(np.linalg.norm(y_m - y_prev) / denom)
                if estimate <= tol:
                    return y_m, estimate, True
            y_prev = y_m
    return y_prev, estimate, False


def _project(basis, hess, m, tau, beta):
    small = matexp(tau * hess[:m, :m])
    return basis[:, :m] @ (beta * small[:, 0])


# Widens each bound of the stopping test past the rounding it covers: of one
# ``f += b``, of the complex moduli in the norms (a few units of 2^-53), and
# of a matvec's sums (at most n units for an n-term sum).
_MARGIN = 1.0 + 2.0**-20


def _expmv_reference(op, v, tau):
    """``exp(tau*M) v`` by a truncated Taylor series with scaling, to double precision.

    Al-Mohy and Higham (2011), Algorithm 3.2: ``s`` stages of the degree-``m``
    Taylor polynomial of ``exp(tau/s * (M - mu I))``, each stopped early once
    two consecutive terms are below the unit roundoff of the partial sum.
    Each factor is shifted by its mean diagonal entry, so ``mu`` is the mean
    eigenvalue of ``M``.  The Kronecker sum bounds the 1-norm exactly by
    ``|tau| * sum_mu |A_mu - mu_mu I|_1``, and ``(m, s)`` follow from that
    bound and the theta table: no norm estimate, so no random vectors.
    ``M`` acts only through :func:`kronmode.kron.matvec`.

    The stopping test compares the norms of the last two terms with the
    exact ``|f|_inf`` of the partial sum, but takes each norm only where the
    test may pass.  A running upper bound on ``|f|_inf`` (the stage's
    starting norm plus every term's norm or bound, each widened by a margin
    far above the rounding it covers) stands in for the norm of the sum.
    While the previous term's norm alone fails the test against that bound,
    as it does for early terms, the new term's norm is not taken either: it
    is bounded by the previous one times the shifted factors' largest row
    sums.  So the stages stop at the same terms as with every norm taken
    after every term, and the result has the same bits.
    """
    v = np.asarray(v)
    dtype = np.result_type(np.float64, v.dtype, *(a.dtype for a in op.factors))
    means = [np.trace(a) / a.shape[0] for a in op.factors]
    shifted = KroneckerOp(tuple(a - mu * np.eye(a.shape[0]) for a, mu in zip(op.factors, means)))
    bound = abs(tau) * sum(np.abs(a).sum(axis=0).max() for a in shifted.factors)
    m, s = min(((m, max(1, math.ceil(bound / theta))) for m, theta in _THETA.items()),
               key=lambda ms: ms[0] * ms[1])
    eta = np.exp(tau * sum(means) / s)
    # |M b|_inf <= row_sums * |b|_inf, for the shifted M.
    row_sums = sum(np.abs(a).sum(axis=1).max() for a in shifted.factors)
    # The sum f, a Fortran-ordered copy of v, and each term b are updated in
    # place; every scalar stays the first operand, since numpy's complex
    # multiply is not symmetric in its operands to the last bit.
    f = v.astype(dtype, order="F")
    for _ in range(s):
        b = f
        c1 = f_max = norm(b, "max")
        for j in range(1, m + 1):
            prev, b = b, matvec(shifted, b)
            scale = tau / (s * j)
            np.multiply(scale, b, out=b)
            f += b
            if c1 is not None:
                # The test fails while c1 alone exceeds it against the bound
                # on |f|_inf that |b|_inf <= |scale| * row_sums * c1 gives.
                f_next = (f_max + abs(scale) * row_sums * c1 * _MARGIN) * _MARGIN
                if c1 > 2.0**-53 * f_next:
                    f_max, c1 = f_next, None
                    continue
            c2 = norm(b, "max")
            f_max = (f_max + c2) * _MARGIN
            if c2 <= 2.0**-53 * f_max:
                if c1 is None:
                    c1 = norm(prev, "max")
                if c1 + c2 <= 2.0**-53 * f_max:
                    f_max = norm(f, "max")
                    if c1 + c2 <= 2.0**-53 * f_max:
                        break
            c1 = c2
        np.multiply(eta, f, out=f)
    return f
