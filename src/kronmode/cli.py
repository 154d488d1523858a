"""Benchmark command line: configure runs, execute them, emit reports.

Exit codes: 0 success, 1 numerical or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import blas, problems
from .errors import KronmodeError
from .fd import heat_factors
from .hermite import forward_transform, hermite_basis, inverse_transform
from .kron import KroneckerOp, assemble_full, prepare, step
from .krylov import arnoldi_expmv
from .linalg import matexp
from .tensor import mu_mode_product
from .tensor import norm as tensor_norm

__all__ = ["main", "parse_args", "run"]

CSV_COLUMNS = (
    "problem", "n", "k", "p", "steps", "tau", "precision", "norm",
    "rel_error", "time_exp_s", "time_mumode_s", "time_other_s", "total_s",
)

_SWEEPABLE = ("heat", "pipeflow", "schrodinger-ti", "schrodinger-td", "gpe")
_PASSED_ON = ("p", "T", "steps", "tau", "k_ref", "ref_steps")  # sweep options for its problem


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _positive_int(text):
    value = _int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _nonnegative_int(text):
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _thread_count(text):
    value = _positive_int(text)
    most = blas.max_threads()
    if most is not None and value > most:
        raise argparse.ArgumentTypeError(
            f"expected at most {most} threads (the OpenBLAS maximum), got {text!r}")
    return value


def _positive_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value > 0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _accuracy_order(text):
    if text.strip().lower() in ("inf", "spectral"):
        return math.inf
    value = _positive_int(text)
    if value % 2 != 0:
        raise argparse.ArgumentTypeError(f"expected an even order or 'inf', got {text!r}")
    return value


def _int_list(text):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return values


def _add_common(sub):
    sub.add_argument("--precision", choices=("single", "double"), default="double",
                     help="scalar precision of the run (default: double)")
    sub.add_argument("--norm", choices=("max", "two"), default="max",
                     help="norm for the reported relative error (default: max); "
                          "ignored by gpe, which reports the drift of the weighted two-norm")
    sub.add_argument("--output", choices=("csv", "json", "table"), default="table",
                     help="report format (default: table)")
    sub.add_argument("--out", dest="out_path", default=None, metavar="PATH",
                     help="write the report to PATH instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kronmode",
        description="Benchmarks for the mode-wise exponential integrator on "
                    "Kronecker-form evolution equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    heat = sub.add_parser("heat", help="periodic 3D heat equation with analytic reference")
    heat.add_argument("--n", type=_positive_int, default=40, help="grid points per direction")
    heat.add_argument("--p", type=_accuracy_order, default=2,
                      help="even finite-difference order, or 'inf' for spectral")
    heat.add_argument("--T", type=_positive_float, default=1.0, help="final time")
    heat.add_argument("--steps", type=_positive_int, default=1, help="number of time steps")
    _add_common(heat)

    pipe = sub.add_parser("pipeflow", help="2D pipe diffusion-advection vs expm_multiply reference")
    pipe.add_argument("--n", type=_positive_int, default=32, help="grid points per direction")
    pipe.add_argument("--T", type=_positive_float, default=4.0, help="final time")
    pipe.add_argument("--steps", type=_positive_int, default=1, help="number of time steps")
    _add_common(pipe)

    sti = sub.add_parser("schrodinger-ti",
                         help="Schrodinger equation, time-independent potential, Hermite basis")
    sti.add_argument("--k", type=_positive_int, default=40, help="basis functions per direction")
    sti.add_argument("--T", type=_positive_float, default=1.0, help="final time")
    sti.add_argument("--k-ref", dest="k_ref", type=_nonnegative_int, default=120,
                     help="reference resolution for the error (0 disables)")
    _add_common(sti)

    std = sub.add_parser("schrodinger-td",
                         help="Schrodinger equation, driven potential, midpoint Magnus stepping")
    std.add_argument("--k", type=_positive_int, default=20, help="basis functions per direction")
    std.add_argument("--T", type=_positive_float, default=1.0, help="final time")
    std.add_argument("--steps", type=_positive_int, default=32, help="number of time steps")
    std.add_argument("--ref-steps", dest="ref_steps", type=_nonnegative_int, default=2048,
                     help="reference step count for the error (0 disables)")
    _add_common(std)

    gpe = sub.add_parser("gpe", help="Gross-Pitaevskii vortex pair with Strang splitting")
    gpe.add_argument("--n", type=_positive_int, default=32, help="grid points per direction")
    gpe.add_argument("--T", type=_positive_float, default=2.5, help="final time")
    gpe.add_argument("--tau", type=_positive_float, default=0.1, help="time step size")
    _add_common(gpe)

    sweep = sub.add_parser("sweep", help="run one problem over a list of resolutions")
    sweep.add_argument("--problem", choices=_SWEEPABLE, required=True)
    sweep.add_argument("--n", dest="n_list", type=_int_list, default=[],
                       help="comma-separated grid sizes (grid-based problems)")
    sweep.add_argument("--k", dest="k_list", type=_int_list, default=[],
                       help="comma-separated basis sizes (Hermite problems)")
    # Left unset, these take the default of the swept problem's own command.
    sweep.add_argument("--p", type=_accuracy_order, default=None)
    sweep.add_argument("--T", type=_positive_float, default=None)
    sweep.add_argument("--steps", type=_positive_int, default=None)
    sweep.add_argument("--tau", type=_positive_float, default=None)
    sweep.add_argument("--k-ref", dest="k_ref", type=_nonnegative_int, default=None)
    sweep.add_argument("--ref-steps", dest="ref_steps", type=_nonnegative_int, default=None)
    _add_common(sweep)

    selftest = sub.add_parser("selftest", help="run the built-in oracle equivalence checks")
    selftest.add_argument("--seed", type=int, default=1234,
                          help="seed for the randomized checks (default: 1234)")

    for command in sub.choices.values():
        command.add_argument("--threads", type=_thread_count, default=None,
                             help="thread count of both OpenBLAS pools (numpy's and scipy's) "
                                  "for the duration of the run; restored afterwards "
                                  "(default: KRONMODE_THREADS, else left as they are)")
    return parser


def parse_args(argv):
    """Parse and validate into a namespace; exits with code 2 on usage errors.

    An unset ``--threads`` takes ``KRONMODE_THREADS`` if that is set.
    """
    parser = build_parser()
    cfg = parser.parse_args(argv)
    if cfg.threads is None:
        env = os.environ.get("KRONMODE_THREADS")
        if env is not None:
            try:
                cfg.threads = _thread_count(env)
            except argparse.ArgumentTypeError as exc:
                parser.error(f"KRONMODE_THREADS: {exc}")
    if cfg.command == "sweep":
        own = vars(parser.parse_args([cfg.problem]))  # the options its command takes
        given = {"n": cfg.n_list, "k": cfg.k_list}
        given.update((name, getattr(cfg, name)) for name in _PASSED_ON)
        swept = "n" if "n" in own else "k"  # grid-based problems, else Hermite ones
        if not given[swept]:
            parser.error(f"sweep over {cfg.problem} needs --{swept} with at least one value")
        foreign = ["--" + name.replace("_", "-") for name, value in given.items()
                   if value not in (None, []) and name not in own]
        if foreign:
            parser.error(f"sweep over {cfg.problem} does not take {', '.join(foreign)}")
    return cfg


def _execute_single(cfg):
    if cfg.command == "heat":
        return problems.heat3d_run(cfg.n, p=cfg.p, T=cfg.T, steps=cfg.steps,
                                   norm_kind=cfg.norm, precision=cfg.precision)
    if cfg.command == "pipeflow":
        return problems.pipeflow_run(cfg.n, T=cfg.T, steps=cfg.steps,
                                     norm_kind=cfg.norm, precision=cfg.precision)
    if cfg.command == "schrodinger-ti":
        k_ref = cfg.k_ref if cfg.k_ref else None
        return problems.hkp_run(cfg.k, T=cfg.T, k_ref=k_ref,
                                norm_kind=cfg.norm, precision=cfg.precision)
    if cfg.command == "schrodinger-td":
        ref_steps = cfg.ref_steps if cfg.ref_steps else None
        return problems.hkmp_run(cfg.k, T=cfg.T, steps=cfg.steps, ref_steps=ref_steps,
                                 norm_kind=cfg.norm, precision=cfg.precision)
    if cfg.command == "gpe":
        return problems.gpe_run(cfg.n, T=cfg.T, tau=cfg.tau, precision=cfg.precision)
    raise KronmodeError(f"unhandled command {cfg.command!r}")


def _execute_sweep(cfg):
    base = parse_args([cfg.problem])  # the problem command's own defaults
    for name in _PASSED_ON + ("precision", "norm"):
        value = getattr(cfg, name)
        if value is not None:
            setattr(base, name, value)
    reports = []
    swept = "n" if cfg.n_list else "k"  # parse_args lets only the problem's own list through
    for value in getattr(cfg, f"{swept}_list"):
        entry = argparse.Namespace(**vars(base))
        setattr(entry, swept, value)
        reports.append(_execute_single(entry))
    return reports


def _fmt_csv_value(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return "inf" if math.isinf(value) else f"{value:.15e}"
    return str(value)


# CSV columns named unlike their run-report field.
_REPORT_FIELD = {"norm": "norm_kind", "rel_error": "error"}


def _report_row(report):
    row = report.as_dict()
    row = {col: row[_REPORT_FIELD.get(col, col)] for col in CSV_COLUMNS}
    if isinstance(row["p"], float) and row["p"].is_integer():
        row["p"] = int(row["p"])
    return row


def _render_csv(reports):
    lines = [",".join(CSV_COLUMNS)]
    for report in reports:
        row = _report_row(report)
        lines.append(",".join(_fmt_csv_value(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _render_json(reports, single):
    payload = reports[0].as_dict() if single else [r.as_dict() for r in reports]
    return json.dumps(payload, indent=2) + "\n"


def _render_table(reports):
    rows = [_report_row(r) for r in reports]
    headers = list(CSV_COLUMNS)
    cells = [[_short(r[c]) for c in headers] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(out) + "\n"


def _short(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.3e}"
    return str(value)


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _run_selftest(cfg):
    rng = np.random.default_rng(cfg.seed)
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except AssertionError as exc:
            checks.append((name, False, str(exc)))

    def mode_product_oracle():
        u = rng.standard_normal((3, 4, 2))
        mat = rng.standard_normal((5, 4))
        got = mu_mode_product(u, mat, 2)
        want = np.einsum("ij,ajb->aib", mat, u)
        assert np.abs(got - want).max() < 1e-13, "mode product disagrees with the index formula"

    def exactness_oracle():
        for _ in range(10):
            d = int(rng.integers(2, 4))
            dims = [int(rng.integers(2, 6)) for _ in range(d)]
            factors = [rng.standard_normal((m, m)) for m in dims]
            op = KroneckerOp(tuple(factors))
            u = np.asfortranarray(rng.standard_normal(dims))
            tau = 0.3
            got = step(prepare(op, tau), u)
            dense = matexp(tau * assemble_full(op)) @ u.ravel(order="F")
            rel = np.linalg.norm(got.ravel(order="F") - dense) / np.linalg.norm(dense)
            assert rel < 1e-12, f"propagator vs dense exponential: {rel:.2e}"

    def orthonormality():
        basis = hermite_basis(40)
        gram = (basis.phi * basis.mod_weights) @ basis.phi.T
        dev = np.abs(gram - np.eye(40)).max()
        assert dev < 1e-12, f"discrete orthonormality deviation {dev:.2e}"

    def round_trip():
        basis = hermite_basis(24)
        bases = (basis, basis)
        values = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        back = inverse_transform(bases, forward_transform(bases, values))
        rel = np.abs(back - values).max() / np.abs(values).max()
        assert rel < 1e-11, f"transform round trip error {rel:.2e}"

    def krylov_vs_step():
        op = heat_factors(8, 2)
        u = np.asfortranarray(rng.standard_normal((8, 8, 8)))
        got = arnoldi_expmv(op, u, 0.1, tol=1e-10)
        want = step(prepare(op, 0.1), u)
        rel = tensor_norm(got - want, "two") / tensor_norm(want, "two")
        assert rel < 1e-8, f"Arnoldi baseline vs propagator: {rel:.2e}"

    check("mode-product index formula", mode_product_oracle)
    check("propagator vs dense exponential", exactness_oracle)
    check("discrete orthonormality", orthonormality)
    check("transform round trip", round_trip)
    check("Arnoldi baseline vs propagator", krylov_vs_step)

    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status}  {name}{suffix}")
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def run(cfg):
    """Execute a parsed configuration; returns the process exit code.

    With ``cfg.threads`` set, both OpenBLAS pools run at that many threads
    for the duration of the call and get their earlier counts back after it.
    """
    threads = contextlib.nullcontext() if cfg.threads is None else blas.limit(cfg.threads)
    try:
        with threads:
            if cfg.command == "selftest":
                return _run_selftest(cfg)
            if cfg.command == "sweep":
                reports = _execute_sweep(cfg)
                single = False
            else:
                reports = [_execute_single(cfg)]
                single = True
            if cfg.output == "csv":
                text = _render_csv(reports)
            elif cfg.output == "json":
                text = _render_json(reports, single)
            else:
                text = _render_table(reports)
            _emit(text, cfg.out_path)
            return 0
    except KronmodeError as exc:
        print(f"kronmode: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"kronmode: i/o error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
