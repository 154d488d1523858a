"""Dense order-d tensor kernels: mu-mode products, Tucker operator, mode scaling, norms.

A tensor is a plain ``numpy.ndarray`` whose entry ``(i_1, ..., i_d)`` sits at
linear position ``i_1 + n_1*i_2 + n_1*n_2*i_3 + ...`` (0-based), i.e. the
column-major vectorization ``ravel(order="F")``.  Direction indices ``mu``
are 1-based; direction 1 varies fastest in memory.

Mode products are evaluated as batched matrix-matrix multiplications acting
directly on the stored array.  No globally transposed copy of the operand is
formed: direction 1 is a single multiplication against the first unfolding,
every other direction is one batched multiplication over the trailing
indices.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from math import prod
from time import perf_counter

import numpy as np

from .errors import ConfigurationError, InvalidDirectionError, ShapeError

__all__ = [
    "FlopCounter",
    "count_flops",
    "mu_mode_product",
    "norm",
    "scale_modes",
    "tucker",
]


class FlopCounter:
    """Multiply-adds and kernel seconds tallied while armed (see :func:`count_flops`)."""

    __slots__ = ("macs", "mode_s", "exp_s")

    def __init__(self):
        self.macs = 0
        self.mode_s = self.exp_s = 0.0


# The counters armed in the current context: each thread and each asyncio
# task counts only its own kernels.
_active_counters: ContextVar[tuple] = ContextVar("kronmode_flop_counters", default=())


@contextmanager
def count_flops():
    """Arm a :class:`FlopCounter` for the kernels run inside the block.

    ``mode_s`` sums the seconds spent in :func:`tucker` and ``exp_s`` those
    in the factor exponentials (``kronmode.kron._exponentials``).  One
    ``m x n_mu`` product applied to a tensor with ``N/n_mu`` fibers adds
    ``m * (N/n_mu) * n_mu`` to ``macs``, so a propagator step with square
    factors adds ``sum_mu N*n_mu``.  Only kernels run in the same context
    count: another thread's do not.
    """
    counter = FlopCounter()
    token = _active_counters.set(_active_counters.get() + (counter,))
    try:
        yield counter
    finally:
        _active_counters.reset(token)


def _check_direction(ndim, mu):
    if not isinstance(mu, (int, np.integer)):
        raise InvalidDirectionError(f"direction index must be an integer, got {mu!r}")
    if not 1 <= mu <= ndim:
        raise InvalidDirectionError(f"direction {mu} outside 1..{ndim}")


def mu_mode_product(u, mat, mu):
    """Multiply ``mat`` onto every mu-fiber of ``u``.

    Parameters
    ----------
    u : ndarray
        Order-d tensor with extent ``n_mu`` along direction ``mu``.
    mat : ndarray
        ``m x n_mu`` matrix.
    mu : int
        1-based direction index.

    Returns
    -------
    ndarray
        Fortran-ordered tensor of shape ``(n_1, ..., m, ..., n_d)`` with
        entries ``S[..., i, ...] = sum_j mat[i, j] * u[..., j, ...]``.
        Real and complex operands mix by the usual numpy promotion rules.
    """
    u = np.asarray(u)
    mat = np.asarray(mat)
    _check_direction(u.ndim, mu)
    if mat.ndim != 2:
        raise ShapeError(f"operator for direction {mu} must be a matrix, got ndim={mat.ndim}")
    ax = mu - 1
    shp = u.shape
    n_mu = shp[ax]
    m = mat.shape[0]
    if mat.shape[1] != n_mu:
        raise ShapeError(
            f"direction {mu}: matrix has {mat.shape[1]} columns, tensor extent is {n_mu}"
        )

    out_dtype = np.result_type(u.dtype, mat.dtype)
    for counter in _active_counters.get():
        counter.macs += m * n_mu * (u.size // n_mu)

    uf = u if u.flags.f_contiguous else np.asfortranarray(u)
    if uf.dtype != out_dtype:
        uf = uf.astype(out_dtype, order="F")
    if mat.dtype != out_dtype:
        mat = mat.astype(out_dtype)
    out_shape = shp[:ax] + (m,) + shp[ax + 1 :]

    if ax == 0:
        # One multiplication against the mode-1 unfolding.  The C-ordered
        # (N/n_1, m) product is the F-ordered transposed result, so no
        # reordering copy is needed.
        unfold = uf.reshape((n_mu, -1), order="F")
        tmp = np.matmul(unfold.T, mat.T)
        return tmp.T.reshape(out_shape, order="F")

    n_left = prod(shp[:ax])
    n_right = prod(shp[ax + 1 :])
    cube = uf.reshape((n_left, n_mu, n_right), order="F")
    out = np.empty((n_left, m, n_right), dtype=out_dtype, order="F")
    # cube.T and out.T are C-contiguous stacks of n_right matrices, so numpy
    # runs one direct matrix-matrix multiplication per trailing index.
    np.matmul(mat, cube.T, out=out.T)
    return out.reshape(out_shape, order="F")


def tucker(u, mats):
    """Apply one matrix per direction: ``u x_1 mats[0] x_2 ... x_d mats[d-1]``.

    ``None`` entries are skipped.  A 1-D entry of length ``n_mu`` stands for
    the diagonal matrix with that diagonal: the dense entries go through
    :func:`mu_mode_product` first, in ascending direction order, and the
    diagonal ones then scale the result in place, all in one multiply
    (``u`` itself is copied first, never written).  :func:`count_flops`
    counts no ``macs`` for scalings, but the whole call in ``mode_s``.
    Distinct directions commute, so the fixed order is a reproducibility
    choice, not a mathematical one.  The result has dtype
    ``np.result_type`` of ``u`` and the entries.
    """
    start = perf_counter()
    u = np.asarray(u)
    if len(mats) != u.ndim:
        raise ShapeError(f"expected {u.ndim} matrix slots, got {len(mats)}")
    mats = [None if mat is None else np.asarray(mat) for mat in mats]
    for mu, mat in enumerate(mats, start=1):
        if mat is None:
            continue
        n_mu = u.shape[mu - 1]
        if mat.shape != (n_mu,) and (mat.ndim != 2 or mat.shape[1] != n_mu):
            raise ShapeError(
                f"direction {mu}: matrix of shape {mat.shape} does not act on extent {n_mu}"
            )
    out = u
    for mu, mat in enumerate(mats, start=1):
        if mat is not None and mat.ndim == 2:
            out = mu_mode_product(out, mat, mu)
    diagonals = [(ax, v) for ax, v in enumerate(mats) if v is not None and v.ndim == 1]
    if diagonals:
        dtype = np.result_type(out, *(v for _, v in diagonals))
        if out is u or out.dtype != dtype:
            out = np.array(out, dtype=dtype, order="F")
        # One multiply by the outer product of the diagonals: built in Fortran
        # order, like out, so that numpy runs it in long contiguous loops.
        scale = 1
        for ax, v in diagonals:
            scale = np.multiply(scale, _along(ax, v, u.ndim), order="F")
        out *= scale
    seconds = perf_counter() - start
    for counter in _active_counters.get():
        counter.mode_s += seconds
    return out


def _along(ax, v, ndim):
    """The vector ``v`` as an order-``ndim`` array that broadcasts along axis ``ax``."""
    return v.reshape((1,) * ax + (v.size,) + (1,) * (ndim - ax - 1))


def _mode_vectors(u, vectors):
    """``vectors`` as arrays, one per direction of ``u`` and as long as it (else ShapeError)."""
    if len(vectors) != u.ndim:
        raise ShapeError(f"expected {u.ndim} vectors, got {len(vectors)}")
    out = [np.asarray(v) for v in vectors]
    for mu, v in enumerate(out, start=1):
        if v.shape != (u.shape[mu - 1],):
            raise ShapeError(
                f"direction {mu}: vector of shape {v.shape} does not match extent {u.shape[mu - 1]}"
            )
    return out


def scale_modes(u, vectors):
    """``u`` times the outer product of one vector per direction.

    ``vectors[mu-1]`` scales direction mu.  The result is a Fortran-ordered
    copy of ``u`` in the result dtype, multiplied by one direction at a
    time in ascending order, in place.
    """
    u = np.asarray(u)
    vectors = _mode_vectors(u, vectors)
    out = np.array(u, dtype=np.result_type(u, *vectors), order="F")
    for ax, v in enumerate(vectors):
        out *= _along(ax, v, u.ndim)
    return out


def norm(u, kind="two", weights=None):
    """Tensor norm: ``max`` entry modulus, Euclidean ``two``, or ``weighted_two``.

    For ``weighted_two``, ``weights`` is one positive vector per direction and
    the result is ``sqrt(sum_i w(i) |u(i)|^2)`` with ``w(i)`` the product of
    the per-direction weights.
    """
    u = np.asarray(u)
    if kind == "max":
        return float(np.max(np.abs(u)))
    if kind == "two":
        return float(np.linalg.norm(u.ravel(order="K")))
    if kind == "weighted_two":
        if weights is None:
            raise ConfigurationError("weighted_two norm requires per-direction weights")
        wvecs = _mode_vectors(u, weights)
        acc = np.abs(u) ** 2
        for w in reversed(wvecs):
            acc = acc @ np.asarray(w, dtype=float)
        return float(np.sqrt(acc))
    raise ConfigurationError(f"unknown norm kind {kind!r}")
