"""Dense and closed-form oracles that the tests check the library against.

None of these is part of kronmode: each is a slow or special-case
evaluation of something the library computes in tensor form.
"""

import math
from math import prod

import numpy as np

from kronmode.fd import NEUMANN_ZERO
from kronmode.hermite import hamiltonian_factor, hermite_eval
from kronmode.kron import KroneckerOp, matvec
from kronmode.linalg import _THETA
from kronmode.problems import hermite_solve
from kronmode.tensor import norm, tucker


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


def dense_propagation(op, t, u):
    """``exp(t M) vec(u)`` for the dense Kronecker sum ``M`` of ``op`` (see :func:`assemble_full`).

    ``s`` steps of ``t/s``, with ``|t M / s|_1 <= 1/2``, each by 30 terms of
    the Taylor series applied to the vector in extended precision.  Returned
    as a Fortran-ordered double tensor of ``u``'s shape.
    """
    full = assemble_full(op)
    cplx = np.iscomplexobj(full) or np.iscomplexobj(u)
    work = np.clongdouble if cplx else np.longdouble
    s = max(1, math.ceil(2 * abs(t) * np.abs(full).sum(axis=0).max()))
    x = full.astype(work) * (np.longdouble(t) / s)
    v = np.asarray(u).ravel(order="F").astype(work)
    for _ in range(s):
        term, acc = v, v.copy()
        for k in range(1, 31):
            term = x @ term / k
            acc += term
        v = acc
    return v.astype(np.complex128 if cplx else np.float64).reshape(u.shape, order="F")


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


def block_diagonal(blocks):
    """The dense block-diagonal matrix of a ``(b, m, m)`` stack of blocks."""
    b, m = blocks.shape[:2]
    out = np.zeros((b * m, b * m), blocks.dtype)
    for k in range(b):
        out[k * m : (k + 1) * m, k * m : (k + 1) * m] = blocks[k]
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


def full_tensor_reference(k_ref, factors_of, T, steps, points):
    """The Schrodinger reference through the whole ``k_ref^3`` coefficient tensor.

    :func:`kronmode.problems.hermite_solve` with ``k_ref`` functions and
    ``steps`` steps, then one ``tucker`` with the transposed
    :func:`kronmode.hermite.hermite_eval` matrix at ``points`` in every
    direction: the values on the tensor grid of ``points``.
    """
    _, _, coeffs = hermite_solve(k_ref, factors_of, T, steps)
    return tucker(coeffs, [hermite_eval(k_ref, points).T] * 3)


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


def fornberg_weights(x, center, m):
    """Order-``m`` finite-difference weights on the nodes ``x`` at ``center``, one node at a time.

    Fornberg's (1988) recurrence in scalar form, as ``kronmode.fd`` ran it
    for each stencil before it batched the rows.
    """
    n = len(x)
    weights = np.zeros((n, m + 1))
    weights[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - center
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - center
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    weights[i, k] = c1 * (k * weights[i - 1, k - 1] - c5 * weights[i - 1, k]) / c2
                weights[i, 0] = -c1 * c5 * weights[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                weights[j, k] = (c4 * weights[j, k] - k * weights[j, k - 1]) / c3
            weights[j, 0] = c4 * weights[j, 0] / c3
        c1 = c2
    return weights[:, m]


def diff_matrix_by_rows(grid, deriv_order, p, bc=None):
    """``kronmode.fd.diff_matrix`` assembled one row and one stencil node at a time.

    Each row's :func:`fornberg_weights` are added into the matrix in stencil
    order; a periodic grid wraps the columns, a Neumann ghost reflects onto
    the node as far inside and a Dirichlet ghost's term is dropped.
    """
    n, half = grid.n, p // 2
    mat = np.zeros((n, n))
    if grid.period is not None:
        w = fornberg_weights(grid.period / n * (np.arange(p + 1) - half), 0.0, deriv_order)
        rows = np.arange(n)
        for s in range(p + 1):
            mat[rows, (rows + s - half) % n] += w[s]
        return mat
    x = grid.points
    ghost_left = 2 * x[0] - x[half:0:-1]
    ghost_right = 2 * x[-1] - x[-2 : -half - 2 : -1]
    extended = np.concatenate([ghost_left, x, ghost_right])
    for i in range(n):
        w = fornberg_weights(extended[i : i + p + 1], x[i], deriv_order)
        for s in range(p + 1):
            j = i + s - half
            if 0 <= j < n:
                mat[i, j] += w[s]
            elif j < 0:
                if bc.left == NEUMANN_ZERO:
                    mat[i, -j] += w[s]
            elif bc.right == NEUMANN_ZERO:
                mat[i, 2 * (n - 1) - j] += w[s]
    return mat


def expmv_reference_eager(op, v, tau):
    """``kronmode.krylov._expmv_reference`` with every norm taken after every term.

    The same degree, scaling, shift and in-place updates; only the
    stopping test differs, which takes the norms of the new term and of the
    sum at each term instead of bounds on them.
    """
    v = np.asarray(v)
    dtype = np.result_type(np.float64, v.dtype, *(a.dtype for a in op.factors))
    means = [np.trace(a) / a.shape[0] for a in op.factors]
    shifted = KroneckerOp(tuple(a - mu * np.eye(a.shape[0]) for a, mu in zip(op.factors, means)))
    bound = abs(tau) * sum(np.abs(a).sum(axis=0).max() for a in shifted.factors)
    m, s = min(((m, max(1, math.ceil(bound / theta))) for m, theta in _THETA.items()),
               key=lambda ms: ms[0] * ms[1])
    eta = np.exp(tau * sum(means) / s)
    f = v.astype(dtype, order="F")
    for _ in range(s):
        b = f
        c1 = norm(b, "max")
        for j in range(1, m + 1):
            b = matvec(shifted, b)
            np.multiply(tau / (s * j), b, out=b)
            c2 = norm(b, "max")
            f += b
            if c1 + c2 <= 2.0**-53 * norm(f, "max"):
                break
            c1 = c2
        np.multiply(eta, f, out=f)
    return f
