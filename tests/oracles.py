"""Dense and closed-form oracles that the tests check the library against.

None of these is part of kronmode: each is a slow or special-case
evaluation of something the library computes in tensor form.
"""

from math import prod

import numpy as np

from kronmode.hermite import hamiltonian_factor


class OracleSizeError(ValueError):
    """A dense oracle assembly exceeds its size cap."""


def assemble_full(op, limit=4096):
    """Dense ``sum_mu I x ... x A_mu x ... x I`` of a Kronecker-sum operator.

    Uses the column-major vectorization convention, so the result times
    ``u.ravel(order="F")`` matches the tensor-form action.  Capped at
    ``limit`` total degrees of freedom.
    """
    n_total = prod(op.shape)
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


def loop_mu_mode(u, mat, mu):
    """Triple-loop evaluation of the mode-product index formula."""
    ax = mu - 1
    out_shape = u.shape[:ax] + (mat.shape[0],) + u.shape[ax + 1 :]
    out = np.zeros(out_shape, dtype=np.result_type(u.dtype, mat.dtype))
    for idx in np.ndindex(out_shape):
        acc = 0
        for j in range(u.shape[ax]):
            acc += mat[idx[ax], j] * u[idx[:ax] + (j,) + idx[ax + 1 :]]
        out[idx] = acc
    return out


def kron_vec_apply(u, mats):
    """Dense Kronecker oracle: (L_d x ... x L_1) @ vec(u), column-major vec."""
    big = np.ones((1, 1))
    for mat in mats:
        big = np.kron(np.asarray(mat), big)
    return big @ u.ravel(order="F")


def harmonic_eigenvalues(ks):
    """Tensor of harmonic-oscillator energies ``sum_mu (i_mu + 1/2)``.

    Storage index ``i_mu`` (0-based) is the quantum number of direction mu.
    """
    d = len(ks)
    lam = np.zeros(ks, order="F")
    for ax, k in enumerate(ks):
        lam += (np.arange(k) + 0.5).reshape((1,) * ax + (k,) + (1,) * (d - ax - 1))
    return lam


def harmonic_factors(basis):
    """``factors_of`` for ``hermite_solve``: the plain harmonic oscillator in 3D.

    Every direction has the potential ``x^2/2``, whose Hamiltonian factor
    is the diagonal ``-i (j + 1/2)``; the exact solution multiplies each
    coefficient by ``exp(-i t`` :func:`harmonic_eigenvalues` ``)``.
    """
    factors = (hamiltonian_factor(basis, lambda x: 0.5 * x * x),) * 3
    return lambda t: factors


def rotate_full(psi, h, weights):
    """The GPE's nonlinear flow ``psi <- psi exp(i h/2 (1 - |psi|^2/w))`` over the whole state.

    In place on a Fortran-ordered ``psi``, with ``w`` the outer product of
    ``weights``: ``h/(4w)`` is one full-state array in double, cast to the
    real dtype of ``psi``.  The factor ``q - 1 + i t q``, with ``t`` the
    tangent of the half phase ``h/4 (1 - |psi|^2/w)`` and ``q = 2/(1 + t^2)``,
    is built from full-state temporaries.
    """
    c = np.ones(psi.shape, order="F")
    for ax, w in enumerate(weights):
        c *= np.asarray(w).reshape((1,) * ax + (-1,) + (1,) * (psi.ndim - ax - 1))
    c = np.divide(0.25 * h, c).astype(np.finfo(psi.dtype).dtype, copy=False)
    t = np.tan(0.25 * h - (np.square(psi.real) + np.square(psi.imag)) * c)
    q = 2.0 / (1.0 + np.square(t))
    factor = np.empty(psi.shape, psi.dtype, order="F")
    factor.real, factor.imag = q - 1.0, t * q
    psi *= factor


def weighted_forward_transform(values, phis, weights):
    """The Hermite forward transform in two passes: weight, then transform.

    ``values`` times the outer product of ``weights`` (one vector per
    direction), then ``phis[mu-1]`` applied along direction mu by
    ``tensordot``, one direction at a time.
    """
    out = np.array(values, dtype=np.result_type(values, *weights))
    for ax, w in enumerate(weights):
        out *= np.asarray(w).reshape((1,) * ax + (-1,) + (1,) * (out.ndim - ax - 1))
    for ax, phi in enumerate(phis):
        out = np.moveaxis(np.tensordot(phi, out, axes=(1, ax)), 0, ax)
    return out
