"""Matrix-free approximations of the exponential action.

Independent baselines for cross-checking the exact mode-wise propagator: the
operator enters only through :func:`kronmode.kron.matvec`, never through its
one-dimensional exponentials.  :func:`arnoldi_expmv` is plain Arnoldi with
restarts; ``_expmv_reference`` runs scipy's ``expm_multiply`` (Al-Mohy and
Higham 2011) on the same action and is the pipe-flow driver's reference.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, NoConvergenceError, ShapeError
from .kron import KroneckerOp, matvec
from .linalg import matexp

__all__ = ["arnoldi_expmv"]

_BREAKDOWN_RTOL = 1e-12


def arnoldi_expmv(op, v, tau, tol=1e-10, m_max=50, max_substeps=1024, return_estimate=False):
    """Approximate ``exp(tau*M) v`` for a Kronecker-sum generator ``M``.

    Plain Arnoldi with modified Gram-Schmidt and one reorthogonalization
    pass.  Each substep is accepted once the relative norm difference
    between approximations at consecutive even subspace sizes drops below
    ``tol``; if that never happens at ``m_max``, ``tau`` is split into twice
    as many equal substeps and the sweep restarts, up to ``max_substeps``.

    Parameters
    ----------
    op : KroneckerOp
    v : ndarray
        Tensor matching ``op.shape``.
    tau : float
        Time increment.
    tol : float
        Relative stopping tolerance, at least 1e-14.
    m_max : int
        Maximum subspace dimension per substep.
    max_substeps : int
        Substep budget before giving up.
    return_estimate : bool
        Also return the accumulated error estimate.

    Raises
    ------
    NoConvergenceError
        If the substep budget is exhausted; carries the best estimate seen.
    """
    v = np.asarray(v)
    if v.shape != op.shape:
        raise ShapeError(f"tensor shape {v.shape} does not match operator shape {op.shape}")
    if tol < 1e-14:
        raise ConfigurationError(f"tolerance {tol} below the supported minimum 1e-14")
    if m_max < 1:
        raise ConfigurationError("m_max must be at least 1")

    dtype = np.result_type(np.float64, v.dtype, *(a.dtype for a in op.factors))
    v0 = np.asfortranarray(v).astype(dtype).ravel(order="F")
    shape = v.shape

    def _done(yvec, estimate):
        result = yvec.reshape(shape, order="F")
        return (result, estimate) if return_estimate else result

    if tau == 0:
        return _done(v0.copy(), 0.0)
    if np.linalg.norm(v0) == 0.0:
        return _done(np.zeros_like(v0), 0.0)

    substeps = 1
    best_estimate = np.inf
    while substeps <= max_substeps:
        y = v0
        accumulated = 0.0
        failed = False
        for _ in range(substeps):
            y, estimate, converged = _arnoldi_substep(op, y, shape, tau / substeps, tol, m_max)
            if not converged:
                best_estimate = min(best_estimate, estimate)
                failed = True
                break
            accumulated += estimate
        if not failed:
            return _done(y, accumulated)
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
        for i in range(j + 1):
            coeff = np.vdot(basis[:, i], w)
            hess[i, j] += coeff
            w -= coeff * basis[:, i]
        for i in range(j + 1):
            coeff = np.vdot(basis[:, i], w)
            hess[i, j] += coeff
            w -= coeff * basis[:, i]
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


def _expmv_reference(op, v, tau):
    """``exp(tau*M) v`` by scipy's ``expm_multiply``, to double-precision accuracy.

    ``M`` acts through :func:`kronmode.kron.matvec` (see
    :func:`_linear_operator`).  The trace is passed exactly, so no matvecs
    go to estimating it.  The 1-norm estimate of ``expm_multiply`` draws
    its starting vectors from numpy's legacy global generator, and another
    draw can pick another Taylor degree and move the last bits of the
    result; the generator is seeded for the call and the caller's state
    restored after it, so the result is reproducible.
    """
    # Imported here: at module top it would add about 25 ms to ``import kronmode.cli``.
    from scipy.sparse.linalg import expm_multiply

    v = np.asarray(v)
    dtype = np.result_type(np.float64, v.dtype, *(a.dtype for a in op.factors))
    trace = sum(np.trace(a) * (op.size // a.shape[0]) for a in op.factors)
    state = np.random.get_state()
    np.random.seed(0)
    try:
        y = expm_multiply(tau * _linear_operator(op, dtype),
                          v.astype(dtype, copy=False).ravel(order="F"), traceA=tau * trace)
    finally:
        np.random.set_state(state)
    return y.reshape(op.shape, order="F")


def _linear_operator(op, dtype):
    """``op`` as a scipy ``LinearOperator`` on column-major vectorized tensors.

    Its adjoint, which ``expm_multiply``'s norm estimate applies, is the
    Kronecker sum of the conjugate-transposed factors.
    """
    from scipy.sparse.linalg import LinearOperator

    adjoint = KroneckerOp(tuple(a.conj().T for a in op.factors))

    def action(o):
        return lambda x: matvec(o, x.reshape(op.shape, order="F")).ravel(order="F")

    return LinearOperator((op.size, op.size), matvec=action(op), rmatvec=action(adjoint),
                          dtype=dtype)
