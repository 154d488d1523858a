"""Benchmark of kronmode's command line, one fresh process per repetition.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   every workload in turn
    python3 perfbench/run.py --smoke                      tiny sizes, traced

Run from anywhere; the program is the ``src/kronmode`` next to this
directory.  Each repetition is ``worker.py`` calling
``kronmode.cli.main(argv + ["--output", "json", "--out", REPORT])`` in a
new interpreter with ``OPENBLAS_NUM_THREADS`` pinned to ``nproc`` and
``KRONMODE_THREADS``/``OMP_NUM_THREADS`` cleared.  Repetitions run one at
a time until the next one would end after ``--seconds`` (at least three,
or two pairs when traced).

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median time of
the ``main`` call), ``setup_s`` (median time to import ``kronmode.cli``
in a fresh interpreter, sampled by an import-only process before each
repetition and by every repetition) and ``peak_rss_mb`` (median
``ru_maxrss``).  ``--trace 1`` runs untraced/traced pairs at the same
final time and reports the per-layer metrics of the traced runs (see
``spans.py``).  Its context line holds the GEMM ceiling, measured in two
calibration processes (1 and ``nproc`` threads), which
``tensor.mode_product.ceiling_frac`` divides by.

A repetition fails if the CLI exits non-zero, its ``rel_error`` exceeds
the workload tolerance, a BLAS pool does not report the pinned thread
count, or (traced) the traced multiply-add total differs from
``count_flops()`` or a non-timing report field differs from the untraced
run.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import blas_pools
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REPS = 3
MIN_PAIRS = 2
IMPORTS_PER_REP = 2
GEMM_SECONDS = 2.0
# Every run, its stragglers included, ends well within 180 s.
HARD_LIMIT_S = 165.0
TIMING_FIELDS = ("time_exp_s", "time_mumode_s", "time_other_s", "total_s")


class Workers:
    """Starts workers one at a time and collects what went wrong."""

    def __init__(self, workdir, threads, deadline):
        self.workdir = workdir
        self.threads = threads
        self.deadline = deadline
        self.attempted = 0
        self.failures = []

    def worker(self, args, threads=None):
        """Run ``worker.py ARGS``; its JSON result, or None after a failure."""
        env = dict(os.environ)
        for var in ("KRONMODE_THREADS", "OMP_NUM_THREADS"):
            env.pop(var, None)
        env["OPENBLAS_NUM_THREADS"] = str(threads or self.threads)
        env["PYTHONPATH"] = str(SRC)
        env["PERFBENCH_SRC"] = str(SRC)
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return self.fail(f"worker {args[0]} timed out")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            return self.fail(f"worker {args[0]} exited {proc.returncode}: {tail[0]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def fail(self, message):
        self.failures.append(message)
        return None

    def run_cli(self, case, T, trace):
        """One repetition of ``case`` at final time ``T``.

        Returns the worker's result, or None if the call produced no
        report.  A result that fails a check is still returned, for its
        timings, and counted as failed.
        """
        report = str(Path(self.workdir) / f"report-{self.attempted}.json")
        result = self.worker(["run", str(int(trace)), report, "--", *case.cli_argv(T)])
        if result is None:
            return None
        if result["code"] != 0:
            return self.fail(f"kronmode exited {result['code']} at T={T!r}")
        problem = _rep_problem(result, case, self.threads, trace)
        if problem is not None:
            self.fail(f"{problem} at T={T!r}")
        return result


def _rep_problem(result, case, threads, trace):
    """The first check a finished repetition fails, or None."""
    problem = _pool_problem(result["blas"], threads) or _pool_problem(result["blas_after"], threads)
    if problem is not None:
        return problem
    error = result["report"]["error"]
    if not error <= case.tol:
        return f"rel_error {error:.3e} above tolerance {case.tol:.1e}"
    if trace:
        traced, counted = result["layers"]["tensor.mode_product.macs"], result["count_flops_macs"]
        if traced != counted:
            return f"traced mode-product MACs {traced} != count_flops() {counted}"
    return None


def _pool_problem(pools, threads):
    for name, pool in pools.items():
        if pool["threads"] != threads:
            return f"{name} pool has {pool['threads']} threads, pinned {threads}"
    return None


def _non_timing(report):
    return {key: value for key, value in report.items() if key not in TIMING_FIELDS}


def _median(values):
    return statistics.median(values) if values else math.nan


def _source_id():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def measure(workers, workload, case, times, seconds, trace, gemm_seconds, min_reps):
    """Run one workload; returns (end-to-end metrics, per-layer metrics or None, context)."""
    started = time.monotonic()
    setup = []
    context = {}
    ceilings = {}
    if trace:
        n, cols, dtype = workload.gemm
        for label, threads in (("1t", 1), ("nproc", workers.threads)):
            rate = workers.worker(["gemm", str(n), str(cols), dtype, str(gemm_seconds)], threads)
            problem = rate and _pool_problem(rate["blas"], threads)
            if problem:
                workers.fail(f"gemm calibration: {problem}")
            ceilings[label] = rate["gflops"] if rate else math.nan

    plain, traced = [], []
    loop_started = time.monotonic()
    for reps, T in enumerate(times, start=1):
        # Import-only processes before each repetition spread the set-up
        # samples over the whole run.  A traced run does not report
        # setup_s and needs only the first, for its context.
        for _ in range(int(reps == 1) if trace else IMPORTS_PER_REP):
            sample = workers.worker(["import"])
            if sample is not None:
                problem = _pool_problem(sample["blas"], workers.threads)
                if problem is not None:
                    workers.fail(problem)
                setup.append(sample["setup_s"])
                context = sample
        result = workers.run_cli(case, T, trace=False)
        if result is not None:
            plain.append(result)
        if trace:
            twin = workers.run_cli(case, T, trace=True)
            if twin is not None:
                traced.append(twin)
                if result is not None and _non_timing(twin["report"]) != _non_timing(result["report"]):
                    workers.fail(f"traced and untraced reports differ at T={T!r}")
        # Stop when the next repetition would end after the budget.
        now = time.monotonic()
        if workers.deadline - now < 20.0:
            break
        if reps >= min_reps and now + (now - loop_started) / reps > started + seconds:
            break

    timed = plain + traced  # every process that imported kronmode.cli
    e2e = {
        "run_s": _median([r["run_s"] for r in plain]),
        "setup_s": _median(setup + [r["setup_s"] for r in timed]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }
    counts = {"run_s": len(plain), "setup_s": len(setup) + len(timed), "peak_rss_mb": len(plain)}
    layers = None
    if trace:
        names = traced[0]["layers"].keys() if traced else ()
        layers = {name: _median([r["layers"][name] for r in traced]) for name in names}
        traced_run = _median([r["run_s"] for r in traced])
        layers["trace.overhead_s"] = traced_run - e2e["run_s"]
        layers["tensor.mode_product.ceiling_frac"] = (
            layers.get("tensor.mode_product.gflops", math.nan) / ceilings["nproc"])
        counts["traced"] = len(traced)
    context = {
        "python": platform.python_version(),
        "numpy": context.get("numpy"),
        "scipy": context.get("scipy"),
        "nproc": blas_pools.nproc(),
        "blas": context.get("blas"),
        "gemm_ceiling_gflops": ceilings or None,
        **_source_id(),
        "samples": counts,
        "run_s_samples": [round(r["run_s"], 4) for r in plain],
        "setup_s_samples": [round(value, 4) for value in setup + [r["setup_s"] for r in timed]],
        "seconds": time.monotonic() - started,
    }
    return e2e, layers, context


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _print_summary(name, e2e, layers, context, workers, spec):
    pools = context["blas"] or {}
    print(f"== {name}: {context['samples']['run_s']} repetitions, one fresh process each, "
          f"{context['seconds']:.1f} s")
    for pool, info in pools.items():
        print(f"   {pool} pool: {info['threads']} threads ({info['config']})")
    if context["gemm_ceiling_gflops"]:
        print("   GEMM ceiling at the workload's size: " + ", ".join(
            f"{rate:.2f} GFLOP/s ({label})" for label, rate in context["gemm_ceiling_gflops"].items()))
    print(f"   python {context['python']}  numpy {context['numpy']}  scipy {context['scipy']}  "
          f"nproc {context['nproc']}  git {context['git_sha']}  src {context['src_sha256']}")
    for metric in spec["end_to_end"]:
        key = metric["name"]
        print(f"   {key:<12} {e2e[key]:12.4f} {metric['unit']:<4} "
              f"median of {context['samples'][key]}")
    if layers is not None:
        for metric in spec["per_layer"]:
            key = metric["name"]
            print(f"   {key:<34} {layers.get(key, math.nan):16.6g} {metric['unit']}")
    share = len(workers.failures) / max(workers.attempted, 1)
    print(f"   failed {len(workers.failures)}/{workers.attempted} ({100 * share:.1f}%)")
    for failure in workers.failures:
        print(f"   FAILED: {failure}")
    print("   context " + json.dumps(context, sort_keys=True))


def _result(spec, metrics, kind, workers):
    values = {m["name"]: metrics.get(m["name"], math.nan) for m in spec[kind]}
    missing = sorted(name for name, value in values.items() if math.isnan(value))
    if missing and not workers.failures:
        raise SystemExit(f"perfbench: no value for {missing}")
    # A failed run still reports; a metric nothing measured reads 0.
    values = {name: 0.0 if math.isnan(value) else value for name, value in values.items()}
    return {
        "correct": not workers.failures,
        "attempted": workers.attempted,
        "failed": len(workers.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }


def run_one(spec, workdir, name, seed, seconds, trace):
    workload = WORKLOADS[name]
    threads = blas_pools.nproc()
    workers = Workers(workdir, threads, time.monotonic() + HARD_LIMIT_S)
    e2e, layers, context = measure(workers, workload, workload.full,
                                   workload.final_times(seed), seconds, trace,
                                   GEMM_SECONDS, MIN_PAIRS if trace else MIN_REPS)
    _print_summary(name, e2e, layers, context, workers, spec)
    kind, metrics = ("per_layer", layers) if trace else ("end_to_end", e2e)
    return _result(spec, metrics, kind, workers)


def smoke(spec, workdir):
    """Every workload once at tiny size, traced; metric names must match the spec."""
    problems = []
    for name, workload in WORKLOADS.items():
        workers = Workers(workdir, blas_pools.nproc(), time.monotonic() + HARD_LIMIT_S)
        e2e, layers, context = measure(workers, workload, workload.smoke,
                                       iter([workload.smoke.T]), 0.0, True, 0.05, 1)
        _print_summary(name, e2e, layers, context, workers, spec)
        problems += [f"{name}: {failure}" for failure in workers.failures]
        for kind, metrics in (("end_to_end", e2e), ("per_layer", layers)):
            expected = {m["name"] for m in spec[kind]}
            if set(metrics) != expected:
                problems.append(f"{name}: {kind} names differ from BENCHMARK.json: "
                                f"missing {sorted(expected - set(metrics))}, "
                                f"extra {sorted(set(metrics) - expected)}")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "kronmode" / "cli.py").is_file():
        print(f"perfbench: no kronmode sources at {SRC}", file=sys.stderr)
        return 2

    spec = load_spec()
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=ROOT / ".bench_build") as workdir:
        if args.smoke:
            return smoke(spec, workdir)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_one(spec, workdir, name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
