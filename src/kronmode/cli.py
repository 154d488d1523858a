"""Benchmark command line: configure runs, execute them, emit reports.

The parser checks only the form of a value: an integer, a number, ``inf``
for a spectral order, a comma-separated list, one of a flag's choices.
Whether a value is in range is decided once, by the library code that takes
it (the drivers in :mod:`kronmode.problems`, :func:`kronmode.blas.limit` for
``--threads``), before any step runs; the :class:`ConfigurationError` it
raises is a usage error.

Exit codes: 0 success, 1 numerical or I/O failure, 2 usage error (a
malformed or unknown flag, or a setting the library rejects).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import sys

import numpy as np

from . import blas, problems
from .errors import ConfigurationError, KronmodeError
from .fd import heat_factors
from .hermite import forward_transform, hermite_basis, inverse_transform
from .kron import KroneckerOp, prepare, step
from .krylov import _expmv_reference, arnoldi_expmv
from .tensor import mu_mode_product
from .tensor import norm as tensor_norm

__all__ = ["main", "parse_args", "run"]

CSV_COLUMNS = (
    "problem", "n", "k", "p", "steps", "tau", "precision", "norm",
    "rel_error", "time_exp_s", "time_mumode_s", "time_other_s", "total_s",
)

def _int(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _count_or_none(text):
    """An integer; ``0`` gives ``None``, which disables what the flag sets."""
    return _int(text) or None


def _accuracy_order(text):
    return math.inf if text.strip().lower() in ("inf", "spectral") else _int(text)


def _int_list(text):
    return [_int(part) for part in text.split(",") if part.strip()]


# Problem command -> (its driver in kronmode.problems, help line).  Drivers are
# looked up by name at each use, so a wrapper put in a driver's place is called.
_PROBLEMS = {
    "heat": ("heat3d_run", "periodic 3D heat equation with analytic reference"),
    "pipeflow": ("pipeflow_run", "2D pipe diffusion-advection vs Taylor-series reference"),
    "schrodinger-ti": ("hkp_run",
                       "Schrodinger equation, time-independent potential, Hermite basis"),
    "schrodinger-td": ("hkmp_run",
                       "Schrodinger equation, driven potential, midpoint Magnus stepping"),
    "gpe": ("gpe_run", "Gross-Pitaevskii vortex pair with Strang splitting"),
}

# Driver parameter -> (flag, argparse settings).  A problem command has one
# flag per parameter of its driver, with the driver's default.
_FLAGS = {
    "n": ("--n", dict(type=_int, help="grid points per direction")),
    "k": ("--k", dict(type=_int, help="basis functions per direction")),
    "p": ("--p", dict(type=_accuracy_order,
                      help="even finite-difference order, or 'inf' for spectral")),
    "T": ("--T", dict(type=float, help="final time")),
    "steps": ("--steps", dict(type=_int, help="number of time steps")),
    "k_ref": ("--k-ref", dict(type=_count_or_none,
                              help="reference resolution for the error (0 disables)")),
    "ref_steps": ("--ref-steps", dict(type=_count_or_none,
                                      help="reference step count for the error (0 disables)")),
    "tau": ("--tau", dict(type=float,
                          help="nominal time step: the run takes steps = max(1, round(T/tau)) "
                               "equal steps of T/steps")),
    "norm_kind": ("--norm", dict(choices=("max", "two"), help="norm for the reported relative "
                                 "error (default: %(default)s)")),
    "precision": ("--precision", dict(choices=("single", "double"),
                                      help="scalar precision of the run (default: %(default)s)")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kronmode", allow_abbrev=False,
        description="Benchmarks for the mode-wise exponential integrator on "
                    "Kronecker-form evolution equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (driver, help_line) in _PROBLEMS.items():
        own = sub.add_parser(command, help=help_line)
        for name, param in inspect.signature(getattr(problems, driver)).parameters.items():
            flag, settings = _FLAGS[name]
            own.add_argument(flag, dest=name, default=param.default, **settings)
        own.add_argument("--output", choices=("csv", "json", "table"), default="table",
                         help="report format (default: table)")
        own.add_argument("--out", dest="out_path", default=None, metavar="PATH",
                         help="write the report to PATH instead of stdout")

    sweep = sub.add_parser("sweep", help="run one problem over a list of resolutions; every "
                                         "other flag goes to the problem's own command "
                                         "(see kronmode <problem> -h)")
    sweep.add_argument("--problem", choices=tuple(_PROBLEMS), required=True)
    sweep.add_argument("--n", dest="n_list", type=_int_list, default=None,
                       help="comma-separated grid sizes (grid-based problems)")
    sweep.add_argument("--k", dest="k_list", type=_int_list, default=None,
                       help="comma-separated basis sizes (Hermite problems)")

    sub.add_parser("selftest", help="run the built-in oracle equivalence checks")

    for name, command in sub.choices.items():
        command.allow_abbrev = False  # an abbreviated flag is an unrecognized one
        if name != "sweep":  # sweep hands it to the problem's command
            command.add_argument("--threads", type=_int, default=None,
                                 help="thread count of both OpenBLAS pools (numpy's and "
                                      "scipy's) for the duration of the run; restored "
                                      "afterwards (default: left as they are)")
    return parser


def parse_args(argv):
    """Parse into a namespace; exits with code 2 on a malformed or unknown flag.

    ``sweep`` reads ``--problem``, ``--n`` and ``--k`` and hands every other
    argument to the swept problem's own command, whose parser supplies the
    defaults and rejects a flag that command does not take.  A sweep's
    namespace is that command's with the sweep's own settings over it.
    """
    parser = build_parser()
    cfg, rest = parser.parse_known_args(argv)
    if cfg.command != "sweep":
        if rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
        return cfg
    own = parser.parse_args([cfg.problem, *rest])
    swept, foreign = ("n", "k") if "n" in vars(own) else ("k", "n")  # grid-based, else Hermite
    if getattr(cfg, f"{foreign}_list") is not None:
        parser.error(f"sweep over {cfg.problem} does not take --{foreign}")
    if not getattr(cfg, f"{swept}_list"):
        parser.error(f"sweep over {cfg.problem} needs --{swept} with at least one value")
    vars(own).update(vars(cfg))
    return own


def _execute_single(cfg):
    driver = getattr(problems, _PROBLEMS[cfg.command][0])
    return driver(**{name: getattr(cfg, name) for name in inspect.signature(driver).parameters})


def _execute_sweep(cfg):
    reports = []
    swept = "n" if cfg.n_list else "k"  # parse_args lets only the problem's own list through
    for value in getattr(cfg, f"{swept}_list"):
        entry = argparse.Namespace(**{**vars(cfg), "command": cfg.problem, swept: value})
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


def _run_selftest():
    rng = np.random.default_rng(1234)
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
            want = _expmv_reference(op, u, tau)
            rel = tensor_norm(got - want, "two") / tensor_norm(want, "two")
            assert rel < 1e-12, f"propagator vs Taylor series: {rel:.2e}"

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
    check("propagator vs Taylor series", exactness_oracle)
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
    A setting the library rejects (:class:`ConfigurationError`) exits 2,
    every other :class:`KronmodeError` and an I/O error exit 1, each with
    one line on stderr.
    """
    threads = contextlib.nullcontext() if cfg.threads is None else blas.limit(cfg.threads)
    try:
        with threads:
            if cfg.command == "selftest":
                return _run_selftest()
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
        return 2 if isinstance(exc, ConfigurationError) else 1
    except OSError as exc:
        print(f"kronmode: i/o error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
