"""Read the thread count and build string of numpy's and scipy's OpenBLAS.

numpy and scipy each ship their own OpenBLAS, so a process has two thread
pools.  Both are queried through ctypes from outside the program: the
shared objects are already loaded once numpy and scipy.linalg are
imported, so ``CDLL`` returns the live library and not a fresh copy.
"""

from __future__ import annotations

import ctypes
import glob
import os

# (package, library directory, library glob, symbol suffix)
_POOLS = (
    ("numpy", "numpy.libs", "libscipy_openblas64_*.so", "64_"),
    ("scipy", "scipy.libs", "libscipy_openblas-*.so", ""),
)


def _library(package, libdir, pattern):
    module = __import__(package)
    found = sorted(glob.glob(os.path.join(os.path.dirname(module.__file__), "..", libdir, pattern)))
    if len(found) != 1:
        raise RuntimeError(f"expected one {pattern} in {libdir}, found {len(found)}")
    return ctypes.CDLL(found[0])


def pool_info():
    """``{"numpy": {"threads": n, "config": s}, "scipy": {...}}`` for the live pools."""
    info = {}
    for package, libdir, pattern, suffix in _POOLS:
        lib = _library(package, libdir, pattern)
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        info[package] = {
            "threads": int(get_threads()),
            "config": get_config().decode("ascii", "replace").strip(),
        }
    return info


def nproc():
    """CPUs this process may run on, as the ``nproc`` command counts them."""
    return len(os.sched_getaffinity(0))
