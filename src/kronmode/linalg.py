"""The dense matrix exponential of the per-direction factors."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import blas
from .errors import InvalidInputError, ShapeError

__all__ = ["matexp"]


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
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix exponential needs a square matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix exponential of non-finite entries")
    with blas.limit(1):
        return scipy.linalg.expm(a)
