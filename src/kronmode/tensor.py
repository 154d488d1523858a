"""Dense order-d tensor kernels: mu-mode products, Tucker operator, mode scaling, norms.

A tensor is a plain ``numpy.ndarray`` whose entry ``(i_1, ..., i_d)`` sits at
linear position ``i_1 + n_1*i_2 + n_1*n_2*i_3 + ...`` (0-based), i.e. the
column-major vectorization ``ravel(order="F")``.  Direction indices ``mu``
are 1-based; direction 1 varies fastest in memory.

Mode products are evaluated as matrix-matrix multiplications acting directly
on the stored array; no globally transposed copy of the operand is formed.
:func:`tucker` applies each dense direction while its axis is the fastest in
memory, as one tall ``(m x n_mu) . (n_mu x N/n_mu)`` multiplication whose
C-ordered result is the tensor cycled so that the next direction is fastest;
after all d directions the layout is Fortran again.  A single
:func:`mu_mode_product` on a Fortran-ordered tensor is one multiplication
against the first unfolding for direction 1 and one batched multiplication
over the trailing indices for every other direction.
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


# The pair of flat output buffers lent to the products run in the current
# context (see :func:`_output_pair`); empty when none is lent.  It reaches
# mu_mode_product here rather than as an ``out=`` parameter because the
# benchmark's tracer (perfbench/spans.py) binds calls to ``(u, mat, mu)``.
_lent_pair: ContextVar[tuple] = ContextVar("kronmode_output_pair", default=())


@contextmanager
def _output_pair(size, dtype):
    """Lend two flat buffers of ``size`` entries of ``dtype`` for the block; yield them.

    Every product in the layout :func:`tucker` passes whose result has that
    size and dtype is written into the buffer that shares no memory with its
    input, so a chain of products ping-pongs between the two.  The lender
    owns both and keeps at most one result in them alive at a time.  The
    block's end, or an exception, takes the pair back.
    """
    pair = (np.empty(size, dtype=dtype), np.empty(size, dtype=dtype))
    token = _lent_pair.set(pair)
    try:
        yield pair
    finally:
        _lent_pair.reset(token)


def _lent_output(u, shape, dtype):
    """A lent buffer as a C-ordered ``shape`` array that shares no memory with ``u``, or None."""
    for buf in _lent_pair.get():
        if buf.size == prod(shape) and buf.dtype == dtype and not np.may_share_memory(buf, u):
            return buf.reshape(shape)
    return None


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
        A direction of extent 0 gives the all-zero product.

    Notes
    -----
    ``u`` is read without a copy in Fortran order and in the layout
    :func:`tucker` passes: ``mu`` the last direction, its axis the fastest,
    the other axes in Fortran order (one multiplication).  Any other layout
    is copied to Fortran order first.  In the layout :func:`tucker` passes,
    the result goes into a buffer a stepper lends (see :func:`_output_pair`)
    when one fits; every other result is a new array.
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
    out_shape = shp[:ax] + (m,) + shp[ax + 1 :]
    macs = m * n_mu * prod(shp[:ax] + shp[ax + 1 :])
    for counter in _active_counters.get():
        counter.macs += macs
    if macs == 0:
        # An empty sum (n_mu == 0) or an empty result.
        return np.zeros(out_shape, dtype=out_dtype, order="F")
    if mat.dtype != out_dtype:
        mat = mat.astype(out_dtype)

    if ax == u.ndim - 1 and not u.flags.f_contiguous:
        front = u.transpose((ax, *range(ax)))
        if front.flags.f_contiguous:
            # Last axis fastest, the others F-ordered (the layout tucker
            # passes): one multiplication against the F-ordered (n_mu, N/n_mu)
            # unfolding, whose C-ordered product is the F-ordered result.
            unfold = front.reshape((n_mu, -1), order="F").astype(out_dtype, copy=False)
            out = _lent_output(u, (m, unfold.shape[1]), out_dtype)
            return np.matmul(mat, unfold, out=out).T.reshape(out_shape, order="F")

    uf = u if u.flags.f_contiguous else np.asfortranarray(u)
    if uf.dtype != out_dtype:
        uf = uf.astype(out_dtype, order="F")

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

    Each entry is an ``m x n_mu`` matrix or a 1-D vector of length ``n_mu``,
    which stands for the diagonal matrix with that diagonal: the dense
    entries go through :func:`mu_mode_product` first, in ascending direction
    order, and the diagonal ones then scale the result in place, all in one
    multiply (``u`` itself is copied first, never written).  :func:`count_flops`
    counts no ``macs`` for scalings, but the whole call in ``mode_s``.
    Distinct directions commute, so the fixed order is a reproducibility
    choice, not a mathematical one.  The result is Fortran-ordered and has
    dtype ``np.result_type`` of ``u`` and the entries.

    While the dense entries are those of directions 1, 2, ..., each one is
    applied while its axis is the fastest in memory, as direction d of the
    tensor with its axes cycled; each product's output has the next
    direction fastest, and after d products the layout is Fortran again.
    Dense entries after a diagonal one are applied in their own direction,
    and a layout left cycled is copied back to Fortran order.

    ``tucker`` owns no buffers.  With a pair lent by a stepper (see
    :func:`_output_pair`), its cycled products alternate between the two
    and the result is a view of one of them; otherwise it is a new array.
    """
    start = perf_counter()
    u = np.asarray(u)
    if len(mats) != u.ndim:
        raise ShapeError(f"expected {u.ndim} matrix slots, got {len(mats)}")
    mats = [np.asarray(mat) for mat in mats]
    for mu, mat in enumerate(mats, start=1):
        n_mu = u.shape[mu - 1]
        if mat.shape != (n_mu,) and (mat.ndim != 2 or mat.shape[1] != n_mu):
            raise ShapeError(
                f"direction {mu}: matrix of shape {mat.shape} does not act on extent {n_mu}"
            )
    # out is F-ordered with its axes cycled left `cycled` times.
    cycle = (*range(1, u.ndim), 0)
    out, cycled = u, 0
    for mu, mat in enumerate(mats, start=1):
        if mat.ndim != 2:
            continue
        if cycled == mu - 1:
            out = mu_mode_product(out.transpose(cycle), mat, u.ndim)
            cycled += 1
        else:
            out = mu_mode_product(_uncycle(out, cycled), mat, mu)
            cycled = 0
    out = np.asarray(_uncycle(out, cycled), order="F")
    diagonals = [(ax, v) for ax, v in enumerate(mats) if v.ndim == 1]
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


def _uncycle(u, cycled):
    """``u``, whose axes are cycled left ``cycled`` times, back in direction order (a view)."""
    if not cycled:
        return u
    first = u.ndim - cycled
    return u.transpose((*range(first, u.ndim), *range(first)))


def _along(ax, v, ndim):
    """The vector ``v`` as an order-``ndim`` array that broadcasts along axis ``ax``."""
    return v.reshape((1,) * ax + (v.size,) + (1,) * (ndim - ax - 1))


def scale_modes(u, vectors):
    """``u`` times the outer product of one vector per direction.

    ``vectors[mu-1]`` scales direction mu and must be as long as it
    (:class:`ShapeError`).  The result is a Fortran-ordered copy of ``u`` in
    the result dtype, multiplied by one direction at a time in ascending
    order, in place.
    """
    u = np.asarray(u)
    if len(vectors) != u.ndim:
        raise ShapeError(f"expected {u.ndim} vectors, got {len(vectors)}")
    vectors = [np.asarray(v) for v in vectors]
    for mu, v in enumerate(vectors, start=1):
        if v.shape != (u.shape[mu - 1],):
            raise ShapeError(
                f"direction {mu}: vector of shape {v.shape} does not match extent {u.shape[mu - 1]}"
            )
    out = np.array(u, dtype=np.result_type(u, *vectors), order="F")
    for ax, v in enumerate(vectors):
        out *= _along(ax, v, u.ndim)
    return out


def norm(u, kind="two"):
    """Tensor norm: the ``max`` entry modulus or the Euclidean ``two`` norm."""
    u = np.asarray(u)
    if kind == "max":
        if u.dtype.kind == "f":
            # The larger of |max| and |min|, with no full-size |u| temporary;
            # a NaN entry makes both NaN.
            return float(max(abs(u.max()), abs(u.min())))
        return float(np.max(np.abs(u)))
    if kind == "two":
        return float(np.linalg.norm(u.ravel(order="K")))
    raise ConfigurationError(f"unknown norm kind {kind!r}")
