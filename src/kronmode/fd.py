"""One-dimensional grids, finite-difference matrices and experiment factors.

A grid with a period wraps its indices.  A bounded grid closes each end
through ghost nodes: homogeneous Dirichlet drops the ghost contribution (the
ghost value is zero), homogeneous Neumann reflects the ghost value evenly
about the boundary node.  All n grid points stay in the state regardless of
the closure, which keeps the per-direction factors uniformly sized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, InvalidGridError, _check_count, _real_array
from .kron import KroneckerOp

__all__ = [
    "BoundaryCondition",
    "DIRICHLET_BC",
    "DIRICHLET_ZERO",
    "Grid1D",
    "NEUMANN_BC",
    "NEUMANN_ZERO",
    "diff_matrix",
    "fd_weights",
    "fourier_second_derivative",
    "gpe_weighted_factors",
    "heat_factors",
    "pipeflow_factors",
    "pipeflow_grids",
    "pipeflow_velocity",
    "sinh_clustered_grid",
    "trapezoid_weights",
    "uniform_grid",
    "uniform_periodic_grid",
]

DIRICHLET_ZERO = "dirichlet_zero"
NEUMANN_ZERO = "neumann_zero"


@dataclass(frozen=True)
class Grid1D:
    """Finite, strictly increasing coordinates; periodic exactly when ``period`` is given.

    A periodic grid holds n points equispaced over one period, each within
    ``1e-12 * (|points[0]| + period)`` of ``points[0] + i * period / n``
    (else :class:`InvalidGridError`); its stencils read only ``period`` and
    ``n``.  The points of a bounded grid may be spaced arbitrarily.
    """

    points: np.ndarray
    period: float | None = None

    def __post_init__(self):
        pts = _real_array(self.points, "grid points", InvalidGridError)
        if pts.ndim != 1 or pts.size < 1 or not np.isfinite(pts).all():
            raise InvalidGridError("grid needs a one-dimensional list of finite points")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise InvalidGridError("grid points must be strictly increasing")
        period = self.period
        if period is not None:
            if not 0 < period < np.inf:
                raise ConfigurationError(f"a period must be positive and finite, got {period!r}")
            even = pts[0] + (period / pts.size) * np.arange(pts.size)
            if np.abs(pts - even).max() > 1e-12 * (abs(pts[0]) + period):
                raise InvalidGridError("a periodic grid must be equispaced over its period")
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return self.points.size


def uniform_periodic_grid(a, b, n):
    """n equispaced points covering [a, b), spacing (b - a)/n."""
    _check_count("n", n)
    h = (b - a) / n
    return Grid1D(a + h * np.arange(n), period=b - a)


def uniform_grid(a, b, n):
    """n equispaced points covering [a, b] inclusive."""
    _check_count("n", n, minimum=2)
    return Grid1D(np.linspace(a, b, n))


def sinh_clustered_grid(n):
    """Nonuniform grid of n points on [-20, 20] clustered around the origin.

    Image of a uniform grid on [-1, 1] under x -> 20 sinh(2x) / sinh(2).
    """
    _check_count("n", n, minimum=2)
    xi = np.linspace(-1.0, 1.0, n)
    return Grid1D(20.0 * np.sinh(2.0 * xi) / np.sinh(2.0))


@dataclass(frozen=True)
class BoundaryCondition:
    """Closure of each end of a bounded grid: ``dirichlet_zero`` or ``neumann_zero``."""

    left: str
    right: str

    def __post_init__(self):
        for side in (self.left, self.right):
            if side not in (DIRICHLET_ZERO, NEUMANN_ZERO):
                raise ConfigurationError(f"unknown boundary kind {side!r}")


DIRICHLET_BC = BoundaryCondition(DIRICHLET_ZERO, DIRICHLET_ZERO)
NEUMANN_BC = BoundaryCondition(NEUMANN_ZERO, NEUMANN_ZERO)


def fd_weights(nodes, center, deriv_order):
    """Finite-difference weights on arbitrary distinct nodes.

    Returns coefficients c with ``sum_j c[j] f(nodes[j])`` approximating the
    ``deriv_order``-th derivative of f at the scalar ``center``, exact for
    polynomials up to degree ``len(nodes) - 1`` (the classical recursive
    interpolation-weight construction).
    """
    x = _real_array(nodes, "stencil nodes", InvalidGridError)
    if x.ndim != 1 or x.size == 0:
        raise InvalidGridError("stencil nodes must be a non-empty vector")
    center = _real_array(center, "a stencil center", InvalidGridError)
    if center.ndim != 0:
        raise InvalidGridError(f"a stencil center must be a scalar, got shape {center.shape}")
    return _stencil_weights(x[None], center.reshape(1), deriv_order)[0]


def _stencil_weights(windows, centers, m):
    """Fornberg's (1988) order-``m`` weights of each row of ``windows`` at its center.

    One recurrence over the stencil nodes, batched over the rows, with each
    row's arithmetic in the order of the one-row construction, so every row
    equals :func:`fd_weights` of that row to the last bit.
    """
    rows, n = windows.shape
    if not (np.isfinite(windows).all() and np.isfinite(centers).all()):
        raise InvalidGridError("stencil nodes and center must be finite")
    ordered = np.sort(windows, axis=1)
    if not (ordered[:, 1:] != ordered[:, :-1]).all():
        raise InvalidGridError("stencil nodes must be distinct")
    _check_count("the derivative order", m, minimum=0)
    if m >= n:
        raise ConfigurationError(f"derivative order {m} needs more than {n} stencil nodes")
    x = windows.T
    weights = np.zeros((n, m + 1, rows))
    weights[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - centers
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - centers
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    weights[i, k] = c1 * (k * weights[i - 1, k - 1] - c5 * weights[i - 1, k]) / c2
                weights[i, 0] = -c1 * c5 * weights[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                weights[j, k] = (c4 * weights[j, k] - k * weights[j, k - 1]) / c3
            weights[j, 0] = c4 * weights[j, 0] / c3
        c1 = c2
    return weights[:, m].T


def diff_matrix(grid, deriv_order, accuracy_order, bc=None):
    """Differentiation matrix of the requested derivative and accuracy order.

    Each row is a centered stencil of ``accuracy_order + 1`` nodes with the
    :func:`fd_weights` of its actual nodes, so any even order works on any
    bounded grid.  A periodic grid wraps its stencils and takes no ``bc``;
    a bounded grid needs one, whose closures fold the ghost nodes as
    described in the module docstring.  Each entry sums its row's folded
    weights in stencil order.
    """
    if isinstance(deriv_order, bool) or deriv_order not in (1, 2):
        raise ConfigurationError(f"derivative order {deriv_order} not supported")
    p = int(accuracy_order)
    if p != accuracy_order or p <= 0 or p % 2 != 0:
        raise ConfigurationError(f"accuracy order {accuracy_order!r} is no positive even integer")
    n = grid.n
    if p + 1 > n:
        raise ConfigurationError(f"accuracy order {p} needs at least {p + 1} of {n} points")
    if (bc is None) != (grid.period is not None):
        raise ConfigurationError("a bounded grid needs a bc and a periodic one takes none")
    half = p // 2
    rows = np.arange(n)[:, None]
    cols = rows + (np.arange(p + 1) - half)

    if grid.period is not None:
        offsets = grid.period / n * (np.arange(p + 1) - half)
        w = np.broadcast_to(fd_weights(offsets, 0.0, deriv_order), cols.shape)
        keep = np.ones(cols.shape, dtype=bool)
        cols = cols % n
    else:
        x = grid.points
        ghost_left = 2 * x[0] - x[half:0:-1]
        ghost_right = 2 * x[-1] - x[-2 : -half - 2 : -1]
        extended = np.concatenate([ghost_left, x, ghost_right])
        w = _stencil_weights(sliding_window_view(extended, p + 1), x, deriv_order)
        # A Neumann ghost reflects onto the node as far inside; a Dirichlet
        # ghost value is zero, so its term is dropped.
        keep = ((cols >= 0) | (bc.left == NEUMANN_ZERO)) & ((cols < n) | (bc.right == NEUMANN_ZERO))
        cols = np.where(cols < 0, -cols, np.where(cols < n, cols, 2 * (n - 1) - cols))
    mat = np.zeros((n, n))
    np.add.at(mat, (np.broadcast_to(rows, cols.shape)[keep], cols[keep]), w[keep])
    return mat


def fourier_second_derivative(n):
    """Dense second-derivative differentiation matrix on the periodic unit circle.

    Standard closed form for an even number of points on [0, 2*pi).
    """
    _check_count("n", n, minimum=2)
    if n % 2 != 0:
        raise ConfigurationError(f"the spectral differentiation matrix needs an even n, got {n}")
    h = 2 * np.pi / n
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    mat = np.full((n, n), -np.pi**2 / (3 * h * h) - 1.0 / 6.0)
    off = diff != 0
    mat[off] = -((-1.0) ** diff[off]) / (2 * np.sin(diff[off] * h / 2) ** 2)
    return mat


def heat_factors(n, p):
    """Three identical periodic second-derivative factors on [0, 2*pi)^3.

    ``p`` is the even finite-difference accuracy order; ``p = inf`` selects
    the dense spectral differentiation matrix.  The factor is symmetrized,
    ``0.5 * (a + a.T)``: each matrix is exactly circulant, and for p = 4, 6
    and 8 only nearly symmetric (``|a - a.T|`` up to 4.3e-16 of ``|a|``), so
    the symmetrized factor is exactly symmetric and centrosymmetric at every
    order, which :func:`kronmode.kron.prepare` folds at even ``n``.  For p = 2
    and ``inf`` the matrix is exactly symmetric already and keeps its bits.
    """
    if np.isinf(p):
        a = fourier_second_derivative(n)
    else:
        a = diff_matrix(uniform_periodic_grid(0.0, 2 * np.pi, n), 2, p)
    a = 0.5 * (a + a.T)
    return KroneckerOp((a, a, a))


_PIPE_DIFFUSIVITY = 1.0 / 90.0
_PIPE_RHO_MIN = 0.1
_PIPE_RHO_MAX = 5.0
_PIPE_Z_MAX = 8.0


def pipeflow_velocity(z):
    """Axial flow speed profile of the radially symmetric pipe model."""
    z = np.asarray(z, dtype=float)
    return 2.0 + np.tanh(4.0 * (z - 5.0 / 2.0)) - np.tanh(4.0 * (z - 5.0))


def pipeflow_grids(n):
    """Radial and axial grids of the pipe model, n points each."""
    return (
        uniform_grid(_PIPE_RHO_MIN, _PIPE_RHO_MAX, n),
        uniform_grid(0.0, _PIPE_Z_MAX, n),
    )


def pipeflow_factors(n):
    """Per-direction generators of the pipe diffusion-advection model.

    Radial: diffusion plus the 1/rho drift, zero-flux closure at both walls.
    Axial: diffusion minus velocity advection, zero value at the inlet and
    zero flux at the outlet.
    """
    _check_count("n", n, minimum=8)
    rho_grid, z_grid = pipeflow_grids(n)
    alpha = _PIPE_DIFFUSIVITY

    d2_rho = diff_matrix(rho_grid, 2, 2, NEUMANN_BC)
    d1_rho = diff_matrix(rho_grid, 1, 2, NEUMANN_BC)
    a_rho = alpha * (d2_rho + (1.0 / rho_grid.points)[:, None] * d1_rho)

    bc_z = BoundaryCondition(DIRICHLET_ZERO, NEUMANN_ZERO)
    d2_z = diff_matrix(z_grid, 2, 2, bc_z)
    d1_z = diff_matrix(z_grid, 1, 2, bc_z)
    a_z = alpha * d2_z - pipeflow_velocity(z_grid.points)[:, None] * d1_z

    return KroneckerOp((a_rho, a_z))


def trapezoid_weights(points):
    """Trapezoidal quadrature weights of a strictly increasing grid."""
    pts = np.asarray(points, dtype=float)
    gaps = np.diff(pts)
    if pts.size < 2 or not (np.all(gaps > 0) and np.isfinite(pts).all()):
        raise InvalidGridError("trapezoidal weights need a strictly increasing finite grid")
    w = np.empty(pts.size)
    w[0] = gaps[0] / 2
    w[-1] = gaps[-1] / 2
    w[1:-1] = (gaps[:-1] + gaps[1:]) / 2
    return w


def gpe_weighted_factors(grids):
    """Symmetrized half-Laplacian factors plus quadrature weights per direction.

    For each grid the raw zero-flux second-derivative matrix D2 is
    conjugated with the square root of the diagonal trapezoidal weight
    matrix, ``W^(1/2) (D2/2) W^(-1/2)``.  The raw matrix is self-adjoint with
    respect to those weights, so the returned factor is symmetric up to
    rounding; its spectrum equals the raw one.  The weights are returned for
    norms and for undoing the variable change in pointwise terms.
    """
    factors = []
    weights = []
    for grid in grids:
        raw = diff_matrix(grid, 2, 2, NEUMANN_BC)
        w = trapezoid_weights(grid.points)
        sqrt_w = np.sqrt(w)
        factors.append(sqrt_w[:, None] * (0.5 * raw) / sqrt_w[None, :])
        weights.append(w)
    return KroneckerOp(tuple(factors)), weights
