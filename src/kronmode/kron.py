"""Kronecker-sum generators and their exact mode-wise exponential propagator.

A generator ``M = A_d (+) ... (+) A_1`` acting on vectorized order-d tensors
is stored as its d one-dimensional factors; ``exp(tau*M)`` is applied as one
mode product with ``exp(tau*A_mu)`` per direction, which advances linear
constant-coefficient problems without any time-discretization error.  The
dense ``M`` is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from time import perf_counter

import numpy as np

from .errors import InvalidInputError, ShapeError, _check_count, _check_finite
from .linalg import matexp
from .tensor import _active_counters, mu_mode_product, tucker

__all__ = ["KroneckerOp", "PropagatorCache", "matvec", "prepare", "step"]


def _check_square_finite(mats, what, vectors=False):
    """Every matrix square (1-D entries allowed with ``vectors``) and finite."""
    for mu, a in enumerate(mats, start=1):
        if not (vectors and a.ndim == 1) and (a.ndim != 2 or a.shape[0] != a.shape[1]):
            raise ShapeError(f"{what} {mu} must be square, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise InvalidInputError(f"{what} {mu} has non-finite entries")


@dataclass(frozen=True)
class KroneckerOp:
    """Ordered one-dimensional factors ``A_1 .. A_d``; ``A_mu`` acts on direction mu.

    Every factor must be square and finite (:class:`ShapeError`,
    :class:`InvalidInputError`).  For :func:`matvec` the operator also keeps
    the first factor in Fortran order and the others in C order, each
    copied once, at the first call, if it is not so already.
    """

    factors: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(a) for a in self.factors)
        if not mats:
            raise ShapeError("a Kronecker operator needs at least one factor")
        _check_square_finite(mats, "factor")
        object.__setattr__(self, "factors", mats)

    @property
    def d(self):
        return len(self.factors)

    @property
    def shape(self):
        return tuple(a.shape[0] for a in self.factors)

    @cached_property
    def _matvec_factors(self):
        """``(shape, dtype of the factors, the factors in the layouts matvec reads)``."""
        mats = (np.asfortranarray(self.factors[0]), *map(np.ascontiguousarray, self.factors[1:]))
        return self.shape, np.result_type(*mats), mats


@dataclass(frozen=True)
class PropagatorCache:
    """Precomputed ``exp(tau*A_mu)`` factors for a fixed time increment.

    Immutable: rebuild via :func:`prepare` whenever ``tau`` or a factor
    changes.  Every entry must be finite, and either a square matrix or a
    1-D vector that stands for a diagonal exponential (as :func:`prepare`
    builds for an exactly diagonal factor; :func:`kronmode.tensor.tucker`
    applies it as a scaling).  :func:`prepare` also keeps, for each
    direction it folds, the entries of the folded steps (see
    :func:`_step_entries`); a cache built from ``exps`` alone folds none.
    """

    tau: float
    exps: tuple
    _folds: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        exps = tuple(np.asarray(e) for e in self.exps)
        _check_square_finite(exps, "exponential factor", vectors=True)
        object.__setattr__(self, "exps", exps)

    @property
    def shape(self):
        return tuple(e.shape[0] for e in self.exps)


def matvec(op, u):
    """Action of the Kronecker sum on a tensor: ``sum_mu u x_mu A_mu``.

    The products read the factors in the layouts the operator keeps them
    in: ``A_1`` in Fortran order, so that direction 1's ``unfold.T @ A_1.T``
    is a non-transposed GEMM (see the Notes of
    :func:`kronmode.tensor.mu_mode_product`), and the others in C order.  So
    the result's bits do not depend on how the factors were given: a
    factor's layout picks the GEMM or GEMV form, and some forms differ in the
    last bit (direction 1 at 32x32, say, or every other direction's
    matrix-vector products when ``n_1 = 1``).
    """
    u = np.asarray(u)
    shape, dtype, mats = op._matvec_factors
    if u.shape != shape:
        raise ShapeError(f"tensor shape {u.shape} does not match operator shape {shape}")
    # Each product takes the dtype of u and its own factor; the sum, that of all.
    out = mu_mode_product(u, mats[0], 1)
    if out.dtype != dtype:
        out = out.astype(np.result_type(out, dtype), copy=False)
    for mu in range(2, len(mats) + 1):
        out += mu_mode_product(u, mats[mu - 1], mu)
    return out


def _cast(arr, dtype):
    """``arr`` in single precision if ``dtype`` is single, else ``arr`` itself.

    A single-precision result is a new array, complex64 for complex ``arr``
    and float32 otherwise, with every real or imaginary part below float32's
    ``tiny`` flushed to zero: subnormals would slow every mode product that
    reads them and are below the precision of any result.
    """
    if np.dtype(dtype) not in (np.float32, np.complex64):
        return arr
    out = arr.astype(np.complex64 if np.iscomplexobj(arr) else np.float32)
    # Every real and imaginary part, through a flat view (the new array has
    # no gaps), in blocks: their |x| and mask stay small beside the state.
    parts = out.ravel(order="K").view(np.float32)
    for start in range(0, parts.size, 1 << 16):
        block = parts[start : start + (1 << 16)]
        block[np.abs(block) < np.finfo(np.float32).tiny] = 0
    return out


def _exponentials(tau, midpoints, dtype=None, known=None):
    """``exp(tau*a)`` of every factor ``a`` of each tuple of ``midpoints``, cast by :func:`_cast`.

    An exactly diagonal factor (every off-diagonal entry zero, with no
    tolerance) gets the 1-D vector of its exponential's diagonal.  The dense
    exponentials of all the midpoints go into one :func:`matexp` call per
    factor shape and dtype.  A non-square or non-finite factor is rejected
    on either path.  A midpoint reuses the exponential of every factor that
    is the same array object as one of the midpoint before it, and a factor
    object that serves several directions is exponentiated once.  Returns
    the exponentials of each midpoint in factor order and the map
    ``id(a) -> [a, exponential]`` of the last one; passed back as ``known``
    (with the same ``tau`` and ``dtype``), it stands for the midpoint before
    the first.  The map holds the factors, so their ids are not reused by
    other objects while it lives.  The call's seconds go to ``exp_s`` of
    :func:`kronmode.tensor.count_flops`.
    """
    start = perf_counter()
    now = {} if known is None else known
    dense = {}  # (shape, dtype) -> [(factor, its entry)] for matexp
    per_midpoint = []
    for factors in midpoints:
        before, now = now, {}
        for a in factors:
            if id(a) in now:
                continue
            if id(a) in before:
                now[id(a)] = before[id(a)]
                continue
            arr = np.asarray(a)
            entry = now[id(a)] = [a, None]
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ShapeError(f"a factor must be a square matrix, got shape {arr.shape}")
            if np.count_nonzero(arr) == np.count_nonzero(np.diagonal(arr)):
                _check_square_finite((arr,), "factor")
                entry[1] = _cast(np.exp(tau * np.diagonal(arr)), dtype)
            else:
                dense.setdefault((arr.shape, arr.dtype), []).append((arr, entry))
        per_midpoint.append([now[id(a)] for a in factors])
    for group in dense.values():
        exps = _cast(matexp(tau * np.stack([arr for arr, _ in group])), dtype)
        for (_, entry), e in zip(group, exps):
            entry[1] = e
    seconds = perf_counter() - start
    for counter in _active_counters.get():
        counter.exp_s += seconds
    return [[entry[1] for entry in entries] for entries in per_midpoint], now


def prepare(op, tau, dtype=None):
    """Exponentiate every factor once for time increment ``tau``.

    An exactly diagonal factor gets the 1-D vector of its exponential's
    diagonal, every other one the dense exponential (see
    :class:`PropagatorCache`); a factor object shared by several directions
    is exponentiated once.  A dense factor of even extent ``n = 2m`` that is
    exactly centrosymmetric (``a == a[::-1, ::-1]``, with no tolerance) is
    folded: with ``T = [[I, J], [I, -J]]`` (``J`` the m x m exchange
    matrix), ``T a T^-1 = blkdiag(a11 + a12 J, a11 - a12 J)`` (Cantoni and
    Butler 1976).  Its two m x m blocks are exponentiated, in the one
    :func:`kronmode.linalg.matexp` call of their shape with the other
    factors, and its dense exponential is built from theirs; :func:`step`
    applies the blocks (see :func:`_step_entries`).  The exponentials are
    computed in double precision; with a single-precision ``dtype`` (the
    state's dtype, say ``np.float32``) each one is then cast to single
    precision, with its subnormal parts flushed to zero (see :func:`_cast`).
    A non-finite ``tau`` is rejected (:class:`ConfigurationError`); a zero
    or negative one is not.
    """
    _check_finite("time increment", tau)
    unique = list({id(a): a for a in op.factors}.values())
    halves = [_halves(a) for a in unique]
    exps = iter(_exponentials(tau, [[p for a, h in zip(unique, halves) for p in h or (a,)]])[0][0])
    # id(a) -> (exponential, fold entries or None)
    built = {id(a): _from_blocks(next(exps), next(exps), dtype) if h
             else (_cast(next(exps), dtype), None) for a, h in zip(unique, halves)}
    exps, folds = zip(*(built[id(a)] for a in op.factors))
    return PropagatorCache(tau, exps, folds)


def _halves(a):
    """The fold's blocks ``(a11 + a12 J, a11 - a12 J)`` of ``a`` (see :func:`prepare`), or None.

    None unless ``a`` has even extent, is not exactly diagonal and is exactly
    centrosymmetric.  The blocks are in the dtype that :func:`matexp`
    returns for ``a``.
    """
    m, odd = divmod(a.shape[0], 2)
    if (odd or np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))
            or not np.array_equal(a, a[::-1, ::-1])):
        return None
    a = a.astype(np.result_type(a.dtype, np.float64), copy=False)
    a11, a12_j = a[:m, :m], a[:m, m:][:, ::-1]
    return a11 + a12_j, a11 - a12_j


def _from_blocks(e_plus, e_minus, dtype):
    """A folded factor's exponential and fold entries from the exponentials of its blocks.

    ``E = T^-1 blkdiag(E+, E-) T``; the fold entries are the stack of the two
    blocks, ``blkdiag(E+, E-) T`` and ``T^-1 blkdiag(E+, E-)``, each cast by
    :func:`_cast`.  A block that came back as a diagonal's vector is made a
    matrix first.
    """
    ep, em = (e if e.ndim == 2 else np.diag(e) for e in (e_plus, e_minus))
    s, d = 0.5 * (ep + em), 0.5 * (ep - em)
    full = np.block([[s, d[:, ::-1]], [d[::-1], s[::-1, ::-1]]])
    first = np.block([[ep, ep[:, ::-1]], [em, -em[:, ::-1]]])
    last = 0.5 * np.block([[ep, em], [ep[::-1], -em[::-1]]])
    return _cast(full, dtype), tuple(_cast(f, dtype) for f in (np.stack([ep, em]), first, last))


def step(cache, u, steps=1):
    """Advance ``u`` by ``steps`` times the cache's time increment.

    Exact (up to rounding and the factor exponentials) for linear problems
    whose generator is the Kronecker sum the cache was prepared from.
    Factors are applied in ascending direction order; any order gives the
    same result because the factor exponentials commute.  Over two or more
    steps, each direction that :func:`prepare` folded is stepped in the
    folded coordinates, as its two half-size blocks (see
    :func:`_step_entries`): half the multiply-adds of its dense products in
    every step but the first and the last, and the same result up to
    rounding.  One step applies the dense exponentials.

    ``u`` is not modified: the first step runs out of place (a
    :func:`kronmode.tensor.tucker` call given no buffers), and its result is
    the state that :func:`_advance` owns for the other steps.
    """
    _check_count("steps", steps)
    u = np.asarray(u)
    if u.shape != cache.shape:
        raise ShapeError(f"tensor shape {u.shape} does not match cache shape {cache.shape}")
    entries = _step_entries(cache, steps)
    return _advance(entries, tucker(u, next(entries)))


def _step_entries(cache, steps):
    """The :func:`kronmode.tensor.tucker` entries of each of ``steps`` steps of ``cache``.

    With no folded direction, or in one step, every step gets ``cache.exps``.
    Otherwise a folded direction gets ``blkdiag(E+, E-) T`` in the first
    step, which also folds the state, the ``(2, m, m)`` stack of its blocks
    in the middle steps and ``T^-1 blkdiag(E+, E-)`` in the last, which
    unfolds it: ``E^s = (T^-1 B) B^(s-2) (B T)`` with ``B = blkdiag(E+, E-)``.
    The other directions get their exponentials in every step.
    """
    if steps < 2 or all(f is None for f in cache._folds):
        yield from repeat(cache.exps, steps)
        return
    first, blocks, last = ([e if f is None else f[i] for e, f in zip(cache.exps, cache._folds)]
                           for i in (1, 0, 2))
    yield first
    yield from repeat(blocks, steps - 2)
    yield last


def _advance(exps_per_step, u, after_step=None):
    """A :func:`kronmode.tensor.tucker` call for each entry of ``exps_per_step``, from ``u``.

    The loop of all three compositions (a Magnus rule's exponentials change
    every step).  It owns ``u``: the first step takes ``u`` in the
    stepping's dtype and Fortran order (a copy only if it is not so) as the
    first of two flat buffers that each call's products write in turn, and
    allocates the second; no step, no buffer.  A caller that must keep
    ``u`` runs its first step out of place.  After step ``s`` (from 0),
    ``after_step(u, s)`` may change the state ``u`` in place, with scratch
    of its own: the other buffer of the pair is not lent to it.  Returns the
    last state, a view of one of the pair or a new array.
    """
    pair = ()
    for s, exps in enumerate(exps_per_step):
        if not pair:
            u = u.astype(np.result_type(u, *exps), order="F", copy=False)
            first = u.ravel(order="F")
            pair = (first, np.empty_like(first))
        u = tucker(u, exps, pair)
        if after_step is not None:
            after_step(u, s)
    return u
