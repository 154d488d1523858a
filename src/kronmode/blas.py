"""Scoped thread counts for the two OpenBLAS pools numpy and scipy bundle.

numpy and scipy wheels each ship their own OpenBLAS, so one process has
two BLAS thread pools: numpy's runs every matmul of the library, the mode
products and the matrix exponentials alike, and scipy's serves only
``eigh_tridiagonal`` in :func:`kronmode.hermite.gauss_hermite`.  Both are
reached through ctypes.  The libraries are already loaded once numpy and
scipy.linalg are imported, so ``CDLL`` returns the live library, not a
fresh copy.  Outside such wheels a pool is not found and :func:`limit`
leaves it alone.  The library sets thread counts only in
:func:`kronmode.cli.run`, for a ``--threads`` flag.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import re
import threading
from contextlib import contextmanager

import numpy
import scipy.linalg

from .errors import ConfigurationError, _check_count

__all__ = ["limit", "max_threads", "thread_counts"]

# pool -> (package, library directory, library glob, symbol suffix)
_LIBRARIES = {
    "numpy": (numpy, "numpy.libs", "libscipy_openblas64_*.so", "64_"),
    "scipy": (scipy, "scipy.libs", "libscipy_openblas-*.so", ""),
}

_lock = threading.Lock()
_depth = 0  # scopes open, in any thread
_base = []  # counts from before the outermost open scope


@functools.cache
def _pools():
    """``{pool: (get_num_threads, set_num_threads, max_threads)}`` for every pool found."""
    pools = {}
    for pool, (package, libdir, pattern, suffix) in _LIBRARIES.items():
        site = os.path.dirname(os.path.dirname(package.__file__))
        found = glob.glob(os.path.join(site, libdir, pattern))
        if len(found) != 1:
            continue
        try:
            lib = ctypes.CDLL(found[0])
            get, set_, config = (getattr(lib, f"scipy_openblas_{name}{suffix}")
                                 for name in ("get_num_threads", "set_num_threads", "get_config"))
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        config.argtypes, config.restype = [], ctypes.c_char_p
        # larger counts are clamped to the MAX_THREADS the library was built with
        compiled = re.search(rb"MAX_THREADS=(\d+)", config())
        if compiled is None:
            continue
        pools[pool] = (get, set_, int(compiled.group(1)))
    return pools


def thread_counts():
    """``{pool: threads}`` for every pool found."""
    return {pool: get() for pool, (get, _, _) in _pools().items()}


def max_threads():
    """Largest count every pool found can be set to, or None if none is found."""
    return min((most for _, _, most in _pools().values()), default=None)


@contextmanager
def limit(threads):
    """Run the body with both pools at ``threads`` threads each.

    Each pool gets back its earlier count on exit, also when the body
    raises.  The counts are process-wide, so scopes open in several
    threads at once share them: while they overlap, a body may run at
    another scope's count, and once the last of them closes the pools are
    back at the counts from before the first one opened.

    ``threads`` must be an integer from 1 to :func:`max_threads` (when a
    pool is found); any other value raises :class:`ConfigurationError`
    before either pool is touched.
    """
    global _depth, _base
    _check_count("threads", threads)
    most = max_threads()
    if most is not None and threads > most:
        raise ConfigurationError(
            f"threads must be at most {most} (the OpenBLAS maximum), got {threads!r}")
    controls = [(get, set_) for get, set_, _ in _pools().values()]
    with _lock:
        saved = [get() for get, _ in controls]
        if _depth == 0:
            _base = saved
        _depth += 1
        for _, set_ in controls:
            set_(threads)
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            for (_, set_), count in zip(controls, saved if _depth else _base):
                set_(count)
