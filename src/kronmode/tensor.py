"""Dense order-d tensor kernels: mu-mode products, the Tucker operator, norms.

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


# The pair of flat output buffers that the running :func:`tucker` call was
# given; empty outside such a call or when it was given none.  It reaches
# mu_mode_product here rather than as an ``out=`` parameter because the
# benchmark's tracer (perfbench/spans.py) binds calls to ``(u, mat, mu)``.
_lent_pair: ContextVar[tuple] = ContextVar("kronmode_output_pair", default=())


def _output(u, shape, dtype):
    """A C-ordered ``shape`` array: a lent buffer that shares no memory with ``u``, or new."""
    for buf in _lent_pair.get():
        if buf.size == prod(shape) and buf.dtype == dtype and not np.may_share_memory(buf, u):
            return buf.reshape(shape)
    return np.empty(shape, dtype)


def _check_direction(ndim, mu):
    if isinstance(mu, bool) or not isinstance(mu, (int, np.integer)):
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
    :func:`tucker` passes: ``mu`` the last direction, its axis of unit
    stride, the other axes in Fortran order or merging into one stride, as
    those of a block of rows of the unfolding do (one multiplication, which
    reads that block as a view).  Any other layout is copied to Fortran
    order first.  Direction 1 is ``unfold.T @ mat.T``:
    a Fortran-ordered ``mat`` makes it a non-transposed GEMM, which OpenBLAS
    runs on one thread at 96x96 (39-63 µs with two BLAS threads allowed),
    where the transposed GEMM of a C-ordered ``mat`` spreads over both
    threads and takes 48-78 µs (2-core x86-64, OpenBLAS SkylakeX kernels).
    The two forms give the same bits at 96x96, but not at every size: at
    17x17, 32x32 and 33x33 they differ in the last bit.  So
    :func:`kronmode.kron.matvec` keeps its first factor in Fortran order.  Copying ``mat`` into that order at every
    call does not pay: from 128x128 up the copy costs more than it saves
    (122 against 94 µs at 128x128, 296 against 222 µs at 192x192).

    The result goes into one of the buffers the running :func:`tucker` call
    was given, when one fits and shares no memory with ``u``; otherwise it
    is a new array.
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

    # The promotion of one native dtype is itself; np.result_type takes about
    # 1 µs a call (2-core x86-64), a fifth of this function's own overhead.
    same = u.dtype == mat.dtype and u.dtype.isnative
    out_dtype = u.dtype if same else np.result_type(u.dtype, mat.dtype)
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
        if front.flags.f_contiguous or _unit_stride_unfolding(front):
            # Last axis fastest, the others F-ordered (the layout tucker
            # passes) or merging into one stride (a block of its rows): one
            # multiplication against the (n_mu, N/n_mu) unfolding, a view,
            # whose C-ordered product is the F-ordered result.
            unfold = front.reshape((n_mu, -1), order="F").astype(out_dtype, copy=False)
            out = np.matmul(mat, unfold, out=_output(u, (m, unfold.shape[1]), out_dtype))
            return out.T.reshape(out_shape, order="F")

    uf = u if u.flags.f_contiguous else np.asfortranarray(u)
    if uf.dtype != out_dtype:
        uf = uf.astype(out_dtype, order="F")

    if ax == 0:
        # One multiplication against the mode-1 unfolding.  The C-ordered
        # (N/n_1, m) product is the F-ordered transposed result, so no
        # reordering copy is needed.
        unfold = uf.reshape((n_mu, -1), order="F")
        tmp = np.matmul(unfold.T, mat.T, out=_output(u, (unfold.shape[1], m), out_dtype))
        return tmp.T.reshape(out_shape, order="F")

    n_left = prod(shp[:ax])
    n_right = prod(shp[ax + 1 :])
    cube = uf.reshape((n_left, n_mu, n_right), order="F")
    # cube.T and out are C-contiguous stacks of n_right matrices, so numpy
    # runs one direct matrix-matrix multiplication per trailing index.
    out = np.matmul(mat, cube.T, out=_output(u, (n_right, m, n_left), out_dtype))
    return out.T.reshape(out_shape, order="F")


def _unit_stride_unfolding(front):
    """Whether ``front`` reshapes to its F-ordered ``(n, N/n)`` unfolding as a view.

    It does, with unit stride down each column, when axis 0 has unit stride
    and the other axes merge into one stride in Fortran order, as those of a
    block of rows of a Fortran-ordered unfolding do.
    """
    tail = [(n, s) for n, s in zip(front.shape[1:], front.strides[1:]) if n != 1]
    return front.strides[0] == front.itemsize and all(
        s * n == s_next for (n, s), (_, s_next) in zip(tail, tail[1:]))


def tucker(u, mats, buffers=()):
    """Apply one matrix per direction: ``u x_1 mats[0] x_2 ... x_d mats[d-1]``.

    Each entry is an ``m x n_mu`` matrix, a 1-D vector of length ``n_mu``,
    which stands for the diagonal matrix with that diagonal, or a
    ``(b, m, m)`` stack with ``b >= 1`` and ``b*m = n_mu``, which stands for
    the block-diagonal matrix with those blocks; anything else raises
    :class:`ShapeError`.  The dense and block entries go through
    :func:`mu_mode_product` first, in ascending direction order, and the
    diagonal ones then scale the result in one multiply, which writes the
    last product's output if it may (never ``u``).  :func:`count_flops`
    counts no ``macs`` for scalings, but the whole call in ``mode_s``.
    Distinct directions commute, so the fixed order is a reproducibility
    choice, not a mathematical one.  The result is Fortran-ordered and has
    dtype ``np.result_type`` of ``u`` and the entries.

    While the dense entries are those of directions 1, 2, ..., each one is
    applied while its axis is the fastest in memory, as direction d of the
    tensor with its axes cycled; each product's output has the next
    direction fastest, and after d products the layout is Fortran again.
    Dense entries after a diagonal one are applied in their own direction;
    the scaling writes a layout left cycled into a Fortran-ordered output.
    A block entry is applied with its axis the fastest, as one product per
    block on the view of the block's rows of the unfolding, each written
    into its own chunk of one output; after a diagonal entry the tensor is
    first copied into that layout.

    ``buffers`` is empty or two flat arrays that the caller owns: each
    product (a block entry's products together), the copy before a block
    entry, and a scaling not in place, of their size and dtype writes into
    the one that shares no memory with its input, so the result may be a
    view of one of them.  ``u`` may be such a view too; the writes after the
    first product may then overwrite it.  With no buffers the result is new.
    """
    start = perf_counter()
    u = np.asarray(u)
    if len(mats) != u.ndim:
        raise ShapeError(f"expected {u.ndim} matrix slots, got {len(mats)}")
    mats = [np.asarray(mat) for mat in mats]
    for mu, mat in enumerate(mats, start=1):
        n_mu = u.shape[mu - 1]
        if not _acts_on(mat, n_mu):
            raise ShapeError(
                f"direction {mu}: matrix of shape {mat.shape} does not act on extent {n_mu}"
            )
    # out is F-ordered with its axes cycled left `cycled` times.  scale is the
    # outer product of the diagonals, built in Fortran order like the output,
    # so that numpy multiplies in long contiguous loops.
    cycle = (*range(1, u.ndim), 0)
    out, cycled, scale = u, 0, None
    token = _lent_pair.set(tuple(buffers))
    try:
        for mu, mat in enumerate(mats, start=1):
            if mat.ndim == 1:
                scale = np.multiply(1 if scale is None else scale, _along(mu - 1, mat, u.ndim),
                                    order="F")
            elif mat.ndim == 2 and cycled != mu - 1:
                out = mu_mode_product(_uncycle(out, cycled), mat, mu)
                cycled = 0
            else:
                if cycled != mu - 1:
                    out = _cycled_copy(_uncycle(out, cycled), mu - 1, mat.dtype)
                if mat.ndim == 2:
                    out = mu_mode_product(out.transpose(cycle), mat, u.ndim)
                else:
                    out = _block_product(out.transpose(cycle), mat)
                cycled = mu
        out = _uncycle(out, cycled)
        if scale is not None:
            dtype = np.result_type(out, scale)
            fits = out is not u and out.flags.f_contiguous and out.dtype == dtype
            out = np.multiply(out, scale, out=out if fits else _output(out, out.T.shape, dtype).T)
    finally:
        _lent_pair.reset(token)
    seconds = perf_counter() - start
    for counter in _active_counters.get():
        counter.mode_s += seconds
    return out


def _acts_on(mat, n):
    """Whether ``mat`` is a :func:`tucker` entry for a direction of extent ``n``."""
    if mat.ndim == 1:
        return mat.shape == (n,)
    if mat.ndim == 2:
        return mat.shape[1] == n
    return (mat.ndim == 3 and mat.shape[0] >= 1 and mat.shape[1] == mat.shape[2]
            and mat.shape[0] * mat.shape[1] == n)


def _cycled_copy(u, cycled, dtype):
    """Copy ``u`` (in direction order) to Fortran order, its axes cycled left ``cycled`` times.

    The copy has dtype ``np.result_type`` of ``u`` and ``dtype`` and goes
    into a lent buffer that shares no memory with ``u`` if one fits.
    """
    front = u.transpose((*range(cycled, u.ndim), *range(cycled)))
    out = _output(u, front.shape[::-1], np.result_type(u.dtype, dtype)).T
    np.copyto(out, front)
    return out


def _block_product(u, blocks):
    """``u`` times the block-diagonal matrix of ``blocks`` along its last axis, the fastest.

    One :func:`mu_mode_product` per block, on the rows of the block in the
    ``(n, N/n)`` unfolding (a view), each writing its chunk of rows of one
    C-ordered ``(n, N/n)`` output: a lent buffer that shares no memory with
    ``u``, or new.  Returns the output as the F-ordered tensor that one
    product with the whole matrix returns.
    """
    b, m = blocks.shape[:2]
    n = u.shape[-1]
    full = _output(u, (n, prod(u.shape[:-1])), np.result_type(u.dtype, blocks.dtype))
    for k in range(b):
        token = _lent_pair.set((full[k * m : (k + 1) * m],))
        try:
            mu_mode_product(u[..., k * m : (k + 1) * m], blocks[k], u.ndim)
        finally:
            _lent_pair.reset(token)
    return full.T.reshape(u.shape, order="F")


def _uncycle(u, cycled):
    """``u``, whose axes are cycled left ``cycled`` times, back in direction order (a view)."""
    if not cycled:
        return u
    first = u.ndim - cycled
    return u.transpose((*range(first, u.ndim), *range(first)))


def _along(ax, v, ndim):
    """The vector ``v`` as an order-``ndim`` array that broadcasts along axis ``ax``."""
    return v.reshape((1,) * ax + (v.size,) + (1,) * (ndim - ax - 1))


def norm(u, kind="two"):
    """Tensor norm: the ``max`` entry modulus or the Euclidean ``two`` norm."""
    u = np.asarray(u)
    if kind == "max":
        if u.size == 0:
            return 0.0
        if u.dtype.kind == "f":
            # The larger of |max| and |min|, with no full-size |u| temporary;
            # a NaN entry makes both NaN.
            return float(max(abs(u.max()), abs(u.min())))
        return float(np.max(np.abs(u)))
    if kind == "two":
        return float(np.linalg.norm(u.ravel(order="K")))
    raise ConfigurationError(f"unknown norm kind {kind!r}")
