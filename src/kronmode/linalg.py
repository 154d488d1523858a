"""Small dense matrix helpers: products, solves, norms and the exponential."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import blas
from .errors import InvalidInputError, ShapeError, SingularMatrixError

__all__ = ["matexp", "matmul", "one_norm", "solve"]


def _as_matrix(a, name):
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be two-dimensional, got ndim={a.ndim}")
    return a


def matmul(a, b):
    """Matrix product with an explicit inner-dimension check."""
    a = _as_matrix(a, "left operand")
    b = _as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def one_norm(a):
    """Maximum absolute column sum."""
    a = _as_matrix(a, "matrix")
    return float(np.abs(a).sum(axis=0).max())


def solve(a, b):
    """Solve ``a @ x = b`` by LU factorization with partial pivoting."""
    a = _as_matrix(a, "coefficient matrix")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"coefficient matrix must be square, got {a.shape}")
    b = np.asarray(b)
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ShapeError(f"right-hand side of shape {b.shape} does not match {a.shape}")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"linear solve failed: {exc}") from exc


def matexp(a):
    """Matrix exponential by diagonal Pade approximation with scaling and squaring.

    Real input yields real output; ``matexp(0) == I`` exactly.

    Both OpenBLAS pools run at one thread during the call and get their
    earlier counts back after it (see :func:`kronmode.blas.limit`).  When
    exponentials alternate with numpy's mode products, the two pools'
    threads fight over the cores.  ``expm`` right after a numpy matmul on a
    2-core host (best of 5), scipy's pool at 2 vs 1 threads: n=64 12.0 vs
    0.61 ms, n=128 4.5 vs 1.9 ms, n=192 4.9 vs 5.5 ms, n=256 14.4 vs 12.5 ms,
    n=512 81 vs 74 ms.
    """
    a = _as_matrix(a, "matrix")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix exponential needs a square matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix exponential of non-finite entries")
    with blas.limit(1):
        return scipy.linalg.expm(a)
