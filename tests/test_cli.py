import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import kronmode
from kronmode import blas, problems
from kronmode.cli import CSV_COLUMNS, main, parse_args, run

GOLDEN_HEADER = ("problem,n,k,p,steps,tau,precision,norm,rel_error,"
                 "time_exp_s,time_mumode_s,time_other_s,total_s")

RUN_REPORT_SCHEMA = {
    "type": "object",
    "required": ["problem", "shape", "steps", "tau", "error", "norm_kind",
                 "time_exp_s", "time_mumode_s", "time_other_s", "total_s",
                 "n", "k", "p", "precision"],
    "properties": {
        "problem": {"type": "string"},
        "shape": {"type": "array", "items": {"type": "integer"}},
        "steps": {"type": "integer", "minimum": 1},
        "tau": {"type": "number"},
        "error": {"type": "number"},
        "norm_kind": {"type": "string"},
        "time_exp_s": {"type": "number", "minimum": 0},
        "time_mumode_s": {"type": "number", "minimum": 0},
        "time_other_s": {"type": "number", "minimum": 0},
        "total_s": {"type": "number", "minimum": 0},
        "n": {"type": ["integer", "null"]},
        "k": {"type": ["integer", "null"]},
        "p": {"anyOf": [{"type": "number"}, {"type": "null"}, {"const": "inf"}]},
        "precision": {"enum": ["single", "double"]},
    },
    "additionalProperties": False,
}


TIMING_FIELDS = {"time_exp_s", "time_mumode_s", "time_other_s", "total_s"}

# Non-timing JSON fields of each command at --threads 1, captured before the
# five drivers shared one run path (pipeflow's error since its reference is
# scipy's expm_multiply); floats are compared to 1e-12 relative.  The gpe and
# pipeflow errors are round-off of the integrators, so another BLAS build may
# not reproduce them.
GOLDEN_REPORTS = [
    (["heat", "--n", "16", "--p", "4", "--T", "0.5", "--steps", "3"],
     {"problem": "heat", "shape": [16, 16, 16], "steps": 3, "tau": 0.16666666666666666,
      "error": 0.00013032190535557168, "norm_kind": "max", "n": 16, "k": None, "p": 4.0,
      "precision": "double"}),
    (["pipeflow", "--n", "16", "--T", "1", "--steps", "2"],
     {"problem": "pipeflow", "shape": [16, 16], "steps": 2, "tau": 0.5,
      "error": 3.164324248193437e-15, "norm_kind": "max", "n": 16, "k": None, "p": None,
      "precision": "double"}),
    (["schrodinger-ti", "--k", "10", "--k-ref", "16"],
     {"problem": "schrodinger-ti", "shape": [10, 10, 10], "steps": 1, "tau": 1.0,
      "error": 0.6942447946073698, "norm_kind": "max", "n": None, "k": 10, "p": None,
      "precision": "double"}),
    (["schrodinger-td", "--k", "8", "--steps", "4", "--ref-steps", "64"],
     {"problem": "schrodinger-td", "shape": [8, 8, 8], "steps": 4, "tau": 0.25,
      "error": 0.001732346544419975, "norm_kind": "max", "n": None, "k": 8, "p": None,
      "precision": "double"}),
    (["gpe", "--n", "16", "--T", "0.3", "--tau", "0.1"],
     {"problem": "gpe", "shape": [16, 16, 16], "steps": 3, "tau": 0.09999999999999999,
      "error": 2.2679051825996226e-16, "norm_kind": "weighted_two", "n": 16, "k": None,
      "p": None, "precision": "double"}),
]


def _non_timing(payload):
    return {key: value for key, value in payload.items() if key not in TIMING_FIELDS}


def _run_capture(argv, capsys):
    code = run(parse_args(argv))
    out = capsys.readouterr().out
    return code, out


class TestParse:
    def test_heat_defaults(self):
        cfg = parse_args(["heat"])
        assert cfg.command == "heat"
        assert (cfg.n, cfg.p, cfg.T, cfg.steps) == (40, 2, 1.0, 1)
        assert cfg.precision == "double"
        assert cfg.output == "table"

    def test_heat_explicit(self):
        cfg = parse_args(["heat", "--n", "16", "--p", "4", "--T", "0.5",
                          "--steps", "3", "--output", "csv"])
        assert (cfg.n, cfg.p, cfg.T, cfg.steps) == (16, 4, 0.5, 3)

    def test_spectral_order(self):
        cfg = parse_args(["heat", "--p", "inf"])
        assert cfg.p == float("inf")

    def test_negative_size_exits_2(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["heat", "--n", "-3"])
        assert info.value.code == 2

    def test_odd_order_exits_2(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["heat", "--p", "3"])
        assert info.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["heat", "--bogus", "1"])
        assert info.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            parse_args([])
        assert info.value.code == 2

    def test_sweep_plan(self):
        cfg = parse_args(["sweep", "--problem", "heat", "--n", "40,55,70,85,100"])
        assert cfg.problem == "heat"
        assert cfg.n_list == [40, 55, 70, 85, 100]

    def test_sweep_without_values_exits_2(self):
        with pytest.raises(SystemExit) as info:
            parse_args(["sweep", "--problem", "heat"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["--problem", "gpe", "--n", "16", "--steps", "4"], "--steps"),
        (["--problem", "gpe", "--n", "16", "--p", "4"], "--p"),
        (["--problem", "gpe", "--n", "16", "--k-ref", "3"], "--k-ref"),
        (["--problem", "schrodinger-ti", "--k", "8", "--tau", "0.1"], "--tau"),
        (["--problem", "schrodinger-ti", "--k", "8", "--ref-steps", "4"], "--ref-steps"),
        (["--problem", "heat", "--n", "16", "--k", "8,9"], "--k"),
        (["--problem", "schrodinger-td", "--k", "8", "--n", "16"], "--n"),
    ])
    def test_sweep_flag_its_problem_does_not_take_exits_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as info:
            parse_args(["sweep"] + argv)
        assert info.value.code == 2
        assert f"does not take {flag}" in capsys.readouterr().err

    def test_sweep_passes_norm_to_gpe(self):
        assert parse_args(["sweep", "--problem", "gpe", "--n", "16", "--norm", "two"]).norm == "two"

    @pytest.mark.parametrize("argv", [
        ["selftest", "--out", "report.csv"],
        ["selftest", "--output", "csv"],
        ["selftest", "--precision", "single"],
        ["selftest", "--norm", "two"],
        ["heat", "--seed", "1"],
        ["sweep", "--problem", "heat", "--n", "16", "--seed", "1"],
    ])
    def test_flag_the_command_does_not_read_exits_2(self, argv):
        with pytest.raises(SystemExit) as info:
            parse_args(argv)
        assert info.value.code == 2

    def test_threads_env_fallback(self, monkeypatch):
        monkeypatch.setenv("KRONMODE_THREADS", "1")
        assert parse_args(["heat"]).threads == 1
        monkeypatch.setenv("KRONMODE_THREADS", "zero")
        with pytest.raises(SystemExit) as info:
            parse_args(["heat"])
        assert info.value.code == 2

    def test_threads_above_openblas_maximum_exits_2(self, monkeypatch):
        too_many = str(blas.max_threads() + 1)
        with pytest.raises(SystemExit) as info:
            parse_args(["heat", "--threads", too_many])
        assert info.value.code == 2
        monkeypatch.setenv("KRONMODE_THREADS", too_many)
        with pytest.raises(SystemExit) as info:
            parse_args(["heat"])
        assert info.value.code == 2

    def test_threads_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("KRONMODE_THREADS", "4")
        assert parse_args(["heat", "--threads", "2"]).threads == 2


class TestRun:
    def test_heat_csv_golden_header_and_error(self, capsys):
        code, out = _run_capture(
            ["heat", "--n", "40", "--p", "2", "--T", "1", "--steps", "1",
             "--output", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == GOLDEN_HEADER
        row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert row["problem"] == "heat"
        assert row["n"] == "40"
        assert row["k"] == ""
        assert float(row["rel_error"]) == pytest.approx(2.06e-3, rel=0.01)

    def test_csv_floats_have_16_significant_digits(self, capsys):
        import re

        _, out = _run_capture(["heat", "--n", "16", "--output", "csv"], capsys)
        row = dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))
        assert re.fullmatch(r"-?\d\.\d{15}e[+-]\d{2,3}", row["rel_error"])
        assert re.fullmatch(r"-?\d\.\d{15}e[+-]\d{2,3}", row["tau"])

    def test_sweep_rows_in_input_order(self, capsys):
        code, out = _run_capture(
            ["sweep", "--problem", "heat", "--n", "16,12", "--output", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "16"
        assert lines[2].split(",")[1] == "12"

    def test_json_single_run_matches_schema(self, capsys):
        code, out = _run_capture(["heat", "--n", "16", "--output", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, RUN_REPORT_SCHEMA)

    def test_heat_csv_integer_order_and_spectral_flag(self, capsys):
        _, out = _run_capture(["heat", "--n", "12", "--output", "csv"], capsys)
        assert dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))["p"] == "2"
        _, out = _run_capture(["heat", "--n", "12", "--p", "inf", "--output", "csv"], capsys)
        assert dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))["p"] == "inf"

    def test_json_spectral_order_is_strict_json(self, capsys):
        code, out = _run_capture(
            ["heat", "--n", "12", "--p", "inf", "--output", "json"], capsys)
        assert code == 0
        payload = json.loads(out, parse_constant=lambda _: pytest.fail("non-strict JSON"))
        jsonschema.validate(payload, RUN_REPORT_SCHEMA)
        assert payload["p"] == "inf"

    def test_json_sweep_is_array(self, capsys):
        code, out = _run_capture(
            ["sweep", "--problem", "heat", "--n", "12,16", "--output", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and len(payload) == 2
        for item in payload:
            jsonschema.validate(item, RUN_REPORT_SCHEMA)

    def test_table_output(self, capsys):
        code, out = _run_capture(["heat", "--n", "12"], capsys)
        assert code == 0
        assert out.splitlines()[0].split() == list(CSV_COLUMNS)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code, out = _run_capture(
            ["heat", "--n", "12", "--output", "csv", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0] == GOLDEN_HEADER

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.csv"
        code, _ = _run_capture(
            ["heat", "--n", "12", "--output", "csv", "--out", str(target)], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv, want", GOLDEN_REPORTS,
                             ids=[argv[0] for argv, _ in GOLDEN_REPORTS])
    def test_report_values_are_pinned(self, argv, want, capsys):
        code, out = _run_capture(argv + ["--threads", "1", "--output", "json"], capsys)
        assert code == 0
        got = _non_timing(json.loads(out))
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key
            else:
                assert got[key] == value, key

    @pytest.mark.parametrize("argv", [
        ["heat", "--n", "8"],
        ["pipeflow", "--n", "16"],
        ["schrodinger-ti", "--k", "8"],
        ["schrodinger-td", "--k", "8"],
        ["gpe", "--n", "16"],
    ], ids=lambda argv: argv[0])
    def test_one_value_sweep_matches_the_single_command(self, argv, capsys):
        problem, flag, value = argv
        common = ["--threads", "1", "--output", "json"]
        _, single = _run_capture(argv + common, capsys)
        _, swept = _run_capture(["sweep", "--problem", problem, flag, value] + common, capsys)
        (row,) = json.loads(swept)
        assert _non_timing(row) == _non_timing(json.loads(single))

    def test_determinism_of_non_timing_fields(self, capsys):
        timing = {"time_exp_s", "time_mumode_s", "time_other_s", "total_s"}
        argv = ["pipeflow", "--n", "16", "--output", "csv", "--threads", "2"]
        _, first = _run_capture(argv, capsys)
        _, second = _run_capture(argv, capsys)
        row1 = dict(zip(CSV_COLUMNS, first.strip().splitlines()[1].split(",")))
        row2 = dict(zip(CSV_COLUMNS, second.strip().splitlines()[1].split(",")))
        for col in CSV_COLUMNS:
            if col not in timing:
                assert row1[col] == row2[col], col

    def test_single_precision_runs(self, capsys):
        code, out = _run_capture(
            ["heat", "--n", "12", "--precision", "single", "--output", "csv"], capsys)
        assert code == 0
        assert ",single," in out.splitlines()[1]

    def test_norm_choice_is_immaterial_for_heat(self, capsys):
        # the heat modal error is uniform over the grid
        _, out_max = _run_capture(["heat", "--n", "16", "--output", "csv"], capsys)
        _, out_two = _run_capture(
            ["heat", "--n", "16", "--norm", "two", "--output", "csv"], capsys)
        err_max = float(dict(zip(CSV_COLUMNS, out_max.strip().splitlines()[1].split(",")))["rel_error"])
        err_two = float(dict(zip(CSV_COLUMNS, out_two.strip().splitlines()[1].split(",")))["rel_error"])
        assert err_two == pytest.approx(err_max, rel=1e-11)

    def test_schrodinger_ti_small(self, capsys):
        code, out = _run_capture(
            ["schrodinger-ti", "--k", "10", "--k-ref", "16", "--output", "csv"], capsys)
        assert code == 0
        row = dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))
        assert row["k"] == "10"
        assert float(row["rel_error"]) >= 0

    def test_schrodinger_ti_without_reference(self, capsys):
        code, out = _run_capture(
            ["schrodinger-ti", "--k", "10", "--k-ref", "0", "--output", "csv"], capsys)
        assert code == 0
        row = dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))
        assert math.isnan(float(row["rel_error"]))

    def test_schrodinger_td_without_reference(self, capsys):
        code, out = _run_capture(
            ["schrodinger-td", "--k", "8", "--steps", "4", "--ref-steps", "0",
             "--output", "csv"], capsys)
        assert code == 0
        row = dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))
        assert math.isnan(float(row["rel_error"]))

    def test_schrodinger_td_small(self, capsys):
        code, out = _run_capture(
            ["schrodinger-td", "--k", "8", "--steps", "4", "--ref-steps", "64",
             "--output", "csv"], capsys)
        assert code == 0

    def test_gpe_small(self, capsys):
        code, out = _run_capture(
            ["gpe", "--n", "16", "--T", "0.3", "--tau", "0.1", "--output", "csv"], capsys)
        assert code == 0
        row = dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))
        assert float(row["rel_error"]) <= 1e-10

    def test_selftest_passes(self, capsys):
        code, out = _run_capture(["selftest"], capsys)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) == 5
        assert all(ln.startswith("PASS") for ln in lines)
        assert "5/5 checks passed" in out

    def test_threads_sets_both_pools_for_the_call(self, monkeypatch, capsys):
        seen = []
        report = problems.RunReport(
            problem="heat", shape=(8, 8, 8), steps=1, tau=1.0, error=0.0,
            norm_kind="max", time_exp_s=0.0, time_mumode_s=0.0, time_other_s=0.0,
            total_s=0.0, n=8, p=2.0)

        def fake_heat(*args, **kwargs):
            seen.append(blas.thread_counts())
            return report

        monkeypatch.setattr(problems, "heat3d_run", fake_heat)
        with blas.limit(2):
            code, _ = _run_capture(["heat", "--threads", "1", "--output", "csv"], capsys)
            assert code == 0
            assert seen == [{"numpy": 1, "scipy": 1}]
            assert blas.thread_counts() == {"numpy": 2, "scipy": 2}

    def test_main_entry(self, capsys):
        assert main(["heat", "--n", "12", "--output", "csv"]) == 0
        capsys.readouterr()


def test_import_leaves_out_scipy_sparse_linalg():
    # The pipe-flow reference imports it when it runs; at import time it
    # would add about 25 ms and 2.3 MB to every command.
    env = dict(os.environ)
    src = str(Path(kronmode.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, kronmode.cli; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout
    assert out.strip() == "False"
