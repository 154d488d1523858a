"""One benchmark repetition in a fresh interpreter; prints one JSON line.

    worker.py import                       time ``import kronmode.cli`` only
    worker.py run TRACE REPORT -- ARGV...  time ``kronmode.cli.main(ARGV)``
    worker.py gemm N COLS DTYPE SECONDS    GEMM rate of (N x N) @ (N x COLS)

``run`` writes the CLI's JSON report to REPORT (``--output json --out``)
and returns it with the timing.  With TRACE set to 1 every public kronmode
function is wrapped by :mod:`spans` and the run is armed with
``kronmode.tensor.count_flops`` so the two multiply-add totals can be
compared.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_cli():
    import kronmode.cli

    setup_s = time.perf_counter() - _T0
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(kronmode.cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"kronmode imported from {kronmode.cli.__file__}, not from {src}")
    return setup_s


def cmd_import():
    setup_s = _import_cli()
    import numpy
    import scipy

    import blas_pools

    return {
        "setup_s": setup_s,
        "blas": blas_pools.pool_info(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def cmd_run(trace, report_path, argv):
    setup_s = _import_cli()
    import blas_pools
    import kronmode.cli
    import kronmode.tensor

    blas_before = blas_pools.pool_info()
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    counting = kronmode.tensor.count_flops() if trace else contextlib.nullcontext()
    argv = list(argv) + ["--output", "json", "--out", report_path]
    with counting as counter:
        start = time.perf_counter()
        try:
            code = kronmode.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        run_s = time.perf_counter() - start
    result = {
        "code": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": _peak_rss_mb(),
        "blas": blas_before,
        "blas_after": blas_pools.pool_info(),
        "report": None,
    }
    if code == 0:
        with open(report_path, encoding="utf-8") as handle:
            result["report"] = json.load(handle)
    if tracer is not None:
        result["layers"] = spans.summarize(tracer.spans, run_s)
        result["count_flops_macs"] = counter.macs
    return result


def cmd_gemm(n, cols, dtype, seconds):
    import numpy as np
    import scipy.linalg  # noqa: F401  (loads scipy's pool, as kronmode does)

    import blas_pools

    rng = np.random.default_rng(0)
    mat = rng.standard_normal((n, n)).astype(dtype)
    rhs = rng.standard_normal((n, cols)).astype(dtype)
    if mat.dtype.kind == "c":
        mat += 1j * rng.standard_normal((n, n))
        rhs += 1j * rng.standard_normal((n, cols))
    out = np.empty((n, cols), dtype=mat.dtype)
    np.matmul(mat, rhs, out=out)
    # Batches of about 20 ms; the best batch is the ceiling.
    t0 = time.perf_counter()
    np.matmul(mat, rhs, out=out)
    once = max(time.perf_counter() - t0, 1e-7)
    per_batch = max(1, int(0.02 / once))
    best = float("inf")
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        for _ in range(per_batch):
            np.matmul(mat, rhs, out=out)
        best = min(best, (time.perf_counter() - t0) / per_batch)
    flops_per_mac = 8 if mat.dtype.kind == "c" else 2
    return {
        "gflops": flops_per_mac * n * n * cols / best / 1e9,
        "blas": blas_pools.pool_info(),
    }


def main(args):
    if args[0] == "import":
        result = cmd_import()
    elif args[0] == "run":
        if args[3] != "--":
            raise SystemExit("usage: worker.py run TRACE REPORT -- ARGV...")
        result = cmd_run(args[1] == "1", args[2], args[4:])
    elif args[0] == "gemm":
        result = cmd_gemm(int(args[1]), int(args[2]), args[3], float(args[4]))
    else:
        raise SystemExit(f"unknown worker command {args[0]!r}")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
