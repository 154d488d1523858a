"""Hermite-function basis, Gauss quadrature and pseudospectral operators.

The basis functions are the orthonormal Hermite polynomials times
``exp(-x^2/2)``, evaluated by the three-term recurrence applied directly to
the weighted functions.  Quadrature uses the modified weights that absorb
the Gaussian factor, chosen so that the basis is orthonormal at the discrete
level by construction.  Multi-dimensional transforms are Tucker operators;
no fast transform is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigurationError, InvalidInputError, InvalidPotentialError, ShapeError
from .errors import _check_count, _real_array
from .tensor import tucker

__all__ = [
    "HermiteBasis",
    "forward_transform",
    "gauss_hermite",
    "hamiltonian_factor",
    "hermite_basis",
    "hermite_eval",
    "inverse_transform",
    "potential_operator",
]

_MAX_QUADRATURE = 500


def hermite_eval(k, x):
    """First k orthonormal Hermite functions at x.

    Returns shape ``(k,)`` for scalar x and ``(k, len(x))`` for a vector,
    with row i holding ``phi_i``.  An ``x`` of more than one dimension is a
    :class:`ShapeError`, a complex or non-finite point an :class:`InvalidInputError`.
    """
    _check_count("k", k)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    pts = np.atleast_1d(_real_array(x, "evaluation points", InvalidInputError))
    if pts.ndim != 1:
        raise ShapeError(f"evaluation points must be a scalar or a vector, got ndim={pts.ndim}")
    if not np.isfinite(pts).all():
        raise InvalidInputError("evaluation points must be finite")
    out = np.empty((k, pts.size))
    out[0] = np.pi**-0.25 * np.exp(-pts * pts / 2)
    if k > 1:
        out[1] = np.sqrt(2.0) * pts * out[0]
    for i in range(1, k - 1):
        out[i + 1] = np.sqrt(2.0 / (i + 1)) * pts * out[i] - np.sqrt(i / (i + 1)) * out[i - 1]
    return out[:, 0] if scalar else out


def gauss_hermite(k):
    """Gauss-Hermite nodes and modified weights for k-point quadrature.

    Nodes are the eigenvalues of the symmetric Jacobi matrix with
    off-diagonal ``sqrt(i/2)``, symmetrized about zero.  The modified weight
    at a node is ``1 / sum_j phi_j(node)^2`` (j < k), which equals the
    classical weight times ``exp(node^2)`` but stays bounded for large k and
    makes the discrete orthonormality relation hold by construction.
    """
    _check_count("k", k)
    if k > _MAX_QUADRATURE:
        raise ConfigurationError(f"quadrature size must lie in 1..{_MAX_QUADRATURE}, got {k}")
    if k == 1:
        nodes = np.zeros(1)
    else:
        offdiag = np.sqrt(np.arange(1, k) / 2.0)
        nodes = eigh_tridiagonal(np.zeros(k), offdiag, eigvals_only=True)
        nodes = (nodes - nodes[::-1]) / 2
    values = hermite_eval(k, nodes)
    mod_weights = 1.0 / np.sum(values * values, axis=0)
    return nodes, mod_weights


@dataclass(frozen=True)
class HermiteBasis:
    """Per-direction basis: size k, nodes, modified weights, value matrix.

    ``phi[i, l] = phi_i(node_l)``; the inverse-transform matrix at the
    quadrature nodes is its (conjugate) transpose.
    """

    k: int
    nodes: np.ndarray
    mod_weights: np.ndarray
    phi: np.ndarray


def hermite_basis(k):
    """Build the k-function basis with k-point quadrature."""
    nodes, mod_weights = gauss_hermite(k)
    return HermiteBasis(k=k, nodes=nodes, mod_weights=mod_weights, phi=hermite_eval(k, nodes))


def _check_field_shape(bases, values, what):
    expected = tuple(b.k for b in bases)
    if values.shape != expected:
        raise ShapeError(f"{what} of shape {values.shape} does not match basis sizes {expected}")


def forward_transform(bases, values):
    """Grid values at the quadrature nodes to basis coefficients.

    One Tucker operator: the modified weights are diagonal in each
    direction, so direction mu applies the k x k matrix
    ``phi * mod_weights`` (column l of ``phi`` times the weight of node l),
    and no weighted copy of ``values`` is made.
    """
    values = np.asarray(values)
    _check_field_shape(bases, values, "value tensor")
    return tucker(values, [b.phi * b.mod_weights for b in bases])


def inverse_transform(bases, coeffs):
    """Basis coefficients to values at the quadrature nodes.

    The exact inverse of :func:`forward_transform`.  For values at other
    points, apply the transpose of :func:`hermite_eval` at them.
    """
    coeffs = np.asarray(coeffs)
    _check_field_shape(bases, coeffs, "coefficient tensor")
    return tucker(coeffs, [b.phi.conj().T for b in bases])


def potential_operator(basis, potential):
    """Galerkin matrix of a multiplication operator, by the basis quadrature.

    ``P[i, j] = sum_l phi_i(X_l) V(X_l) phi_j(X_l) w_l`` over the k nodes of
    the basis (collocation aliasing accepted).
    """
    v = np.asarray(potential(basis.nodes))
    if v.shape != basis.nodes.shape:
        raise InvalidPotentialError("potential must map the node vector to one value per node")
    if not np.isfinite(v).all():
        raise InvalidPotentialError("potential is non-finite at a quadrature node")
    return (basis.phi * (v * basis.mod_weights)) @ basis.phi.T


def hamiltonian_factor(basis, potential):
    """One-direction generator of ``psi' = -i H psi`` in coefficient space.

    The harmonic part ``-(d^2/dx^2 - x^2)/2`` is diagonal with entries
    ``i + 1/2``; the remainder ``V(x) - x^2/2`` enters through the
    quadrature Galerkin matrix.  For the plain harmonic potential the
    remainder vanishes identically and the factor is exactly diagonal.
    """
    remainder = potential_operator(basis, lambda x: np.asarray(potential(x)) - 0.5 * x * x)
    return -1j * (np.diag(np.arange(basis.k) + 0.5) + remainder)
