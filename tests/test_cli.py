"""Command-line interface: subcommands, exit codes, artifacts, stdout JSON."""

import json
import os
import subprocess
import sys
import warnings

import pytest

import grushinlab
from grushinlab.cli import main as cli_main

from conftest import config_path


def base_config():
    return {"space": {"m": 1, "k": 1, "gamma": 0.0},
            "bounds": [[0.0, 1.0], [0.0, 1.0]],
            "cells": [8, 8],
            "sim": {"t_end": 0.01, "dt_init": 1e-3}}


def m2_config():
    """m = 2, k = 1 at gamma = 1.5: the eigensolve is inverse iteration,
    which can fail."""
    return dict(base_config(), space={"m": 2, "k": 1, "gamma": 1.5},
                bounds=[[0.0, 1.0]] * 3, cells=[4, 4, 4])


def free_sine():
    with open(config_path("free_sine.json")) as fh:
        return json.load(fh)


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(argv, capsys):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommands:
    def test_eig_prints_eigenvalue(self, tmp_path, capsys):
        # The eig command prints lambda1 and the report's eigen block; at
        # m = 2 and gamma = 1.5 its inverse iteration runs inner CG.
        for config, inner in ((base_config, False), (m2_config, True)):
            cfgp = write_config(tmp_path, config())
            code, out, _ = run_cli(["eig", cfgp], capsys)
            assert code == 0
            payload = json.loads(out)
            assert payload["lambda1"] > 0.0
            assert payload["residual"] >= 0.0
            rpt = grushinlab.run_experiment(grushinlab.parse_config(cfgp))
            assert payload == {"lambda1": rpt.lambda1, **rpt.eigen}
            assert (payload["solver_iterations"] > 0) == inner

    def test_eig_converges_at_m2_gamma2(self, tmp_path, capsys):
        # This eigensolve once ran 10,000 inverse iterations and exited 3.
        data = dict(base_config(), space={"m": 2, "k": 1, "gamma": 2.0},
                    bounds=[[0.0, 0.1], [0.0, 0.1], [0.0, 1.0]],
                    cells=[3, 3, 4])
        code, out, _ = run_cli(["eig", write_config(tmp_path, data)], capsys)
        assert code == 0
        assert json.loads(out)["lambda1"] == pytest.approx(1800.00034,
                                                           rel=1e-8)

    def test_simulate_writes_artifacts_and_strips_mode(self, tmp_path, capsys):
        data = dict(base_config(), mode="blowup")
        cfgp = write_config(tmp_path, data)
        out_dir = str(tmp_path / "out")
        code, out, _ = run_cli(["simulate", cfgp, "--out", out_dir], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "free"
        assert payload["verdict"] is None
        for name in ("records.csv", "plot.svg", "report.json"):
            assert os.path.exists(os.path.join(out_dir, name))

    def test_verify_reports_verdict(self, tmp_path, capsys):
        data = dict(base_config(), mode="global", alpha=0.0, beta=1.0,
                    theta=0.0)
        cfgp = write_config(tmp_path, data)
        out_dir = str(tmp_path / "v")
        code, out, _ = run_cli(["verify", cfgp, "--out", out_dir], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "HypothesesNotMet"
        assert os.path.exists(os.path.join(out_dir, "report.json"))

    def test_check_hypothesis_reports_both_modes(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, base_config())
        code, out, _ = run_cli(["check-hypothesis", cfgp], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"u_max", "blowup", "global", "f_positive"}
        assert payload["blowup"]["holds"] is True  # alpha=4 cubic default
        assert payload["global"]["holds"] is False
        assert payload["f_positive"]["ok"] is True

    def test_check_hypothesis_with_phi1_initial_data(self, tmp_path, capsys):
        cfgp = write_config(tmp_path,
                            dict(free_sine(), initial={"kind": "phi1"}))
        code, out, _ = run_cli(["check-hypothesis", cfgp], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"u_max", "blowup", "global", "f_positive"}
        assert payload["u_max"] > 0.0

    def test_sweep_emits_rows_and_csv(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, base_config())
        out_dir = str(tmp_path / "sw")
        code, out, _ = run_cli(
            ["sweep", cfgp, "--out", out_dir, "--axis", "gamma",
             "--values", "0,0.5,1"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert [r["value"] for r in rows] == [0.0, 0.5, 1.0]
        assert os.path.exists(os.path.join(out_dir, "sweep.csv"))

    def test_sweep_takes_negative_values_in_the_equals_form(self, tmp_path,
                                                             capsys):
        # Global mode needs alpha <= 0; "--values -2,-1" reads as a flag.
        out_dir = str(tmp_path / "sw")
        code, out, _ = run_cli(
            ["sweep", config_path("global_decay.json"), "--out", out_dir,
             "--axis", "alpha", "--values=-2,-1"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert [r["value"] for r in rows] == [-2.0, -1.0]
        assert [r["verdict"] for r in rows] == ["HypothesesNotMet"] * 2

    def test_integer_keys_written_as_floats_give_the_same_run(self, tmp_path,
                                                              capsys):
        data = dict(base_config(), mode="blowup",
                    sim={"t_end": 0.01, "dt_init": 1e-3, "record_every": 2},
                    eigen={"max_iter": 500}, hypothesis={"samples": 101})
        twin = json.loads(json.dumps(data))
        twin["space"].update(m=1.0, k=1.0)
        twin["cells"] = [8.0, 8.0]
        twin["sim"]["record_every"] = 2.0
        twin["eigen"]["max_iter"] = 500.0
        twin["hypothesis"]["samples"] = 101.0
        runs = []
        for name, config in (("int", data), ("float", twin)):
            cfgp = write_config(tmp_path, config, f"{name}.json")
            out_dir = tmp_path / name
            code, out, err = run_cli(["verify", cfgp, "--out", str(out_dir)],
                                     capsys)
            assert (code, err) == (0, "")
            eig_code, eig_out, _ = run_cli(["eig", cfgp], capsys)
            assert eig_code == 0
            runs.append([out, eig_out] + [
                (out_dir / artifact).read_bytes()
                for artifact in ("report.json", "records.csv")])
        assert runs[0] == runs[1]
        assert json.loads(runs[1][0])["parameters"]["cells"] == [8, 8]

    def test_float_keys_written_as_integers_give_the_same_run(self, tmp_path,
                                                              capsys):
        data = dict(base_config(), space={"m": 1, "k": 1, "gamma": 0.0},
                    sim={"t_end": 1.0, "dt_init": 1e-3, "dt_max": 1.0},
                    nonlinearity={"power": {"p": 3.0, "c": 1.0}},
                    alpha=4.0, beta=0.0, theta=0.0,
                    initial={"kind": "product_sine", "amplitude": 1.0},
                    hypothesis={"umax_factor": 10.0})
        twin = json.loads(json.dumps(data))
        twin["space"]["gamma"] = 0
        twin["bounds"] = [[0, 1], [0, 1]]
        twin["sim"].update(t_end=1, dt_max=1)
        twin["nonlinearity"]["power"].update(p=3, c=1)
        twin.update(alpha=4, beta=0, theta=0)
        twin["initial"]["amplitude"] = 1
        twin["hypothesis"]["umax_factor"] = 10
        runs = []
        for name, config in (("float", data), ("int", twin)):
            cfgp = write_config(tmp_path, config, f"{name}.json")
            out_dir = tmp_path / name
            code, out, err = run_cli(["verify", cfgp, "--out", str(out_dir)],
                                     capsys)
            assert (code, err) == (0, "")
            runs.append([out] + [(out_dir / artifact).read_bytes()
                                 for artifact in ("report.json",
                                                  "records.csv")])
        assert runs[0] == runs[1]
        assert json.loads(runs[1][1])["parameters"]["t_end"] == 1.0
        assert b'"t_end": 1.0' in runs[1][1]

    def test_dump_matrix_flag(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, base_config())
        out_dir = str(tmp_path / "dm")
        code, _, _ = run_cli(
            ["simulate", cfgp, "--out", out_dir, "--dump-matrix"], capsys)
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "matrix.txt"))


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(["eig", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert "config error" in err

    def test_invalid_config_field(self, tmp_path, capsys):
        data = base_config()
        data["space"]["gamma"] = -1.0
        cfgp = write_config(tmp_path, data)
        code, _, err = run_cli(["eig", cfgp], capsys)
        assert code == 2
        assert "/space: gamma" in err

    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys):
        data = base_config()
        data["sim"]["t_end"] = float("nan")
        cfgp = write_config(tmp_path, data)
        with open(cfgp) as fh:
            assert "NaN" in fh.read()  # a literal that json.load accepts
        code, _, err = run_cli(["eig", cfgp], capsys)
        assert code == 2
        assert "/sim/t_end: expected a finite number, got nan" in err

    @pytest.mark.parametrize("output, problem", [
        ({"csv": ""}, "/output/csv: need a file name"),
        ({"csv": "a/b.csv"}, "/output/csv: need a file name"),
        ({"report": ".."}, "/output/report: need a file name"),
        ({"svg": "report.json"}, "/output/svg: 'report.json' is also"),
        ({"csv": "report.json"}, "/output/report: 'report.json' is also"),
        ({"svg": "matrix.txt"}, "/output/svg: 'matrix.txt' is also the "
                                "--dump-matrix file"),
    ], ids=["empty", "directory", "parent", "svg-report", "csv-report",
            "matrix"])
    def test_output_name_that_loses_an_artifact(self, tmp_path, capsys,
                                                output, problem):
        # Each name once lost the report or overwrote another artifact.
        with open(config_path("blowup_cubic.json")) as fh:
            data = dict(json.load(fh), cells=[16, 16], output=output)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["verify", write_config(tmp_path, data),
                                "--out", str(out_dir)], capsys)
        assert code == 2
        assert problem in err
        assert not out_dir.exists()

    def test_runtime_failure_in_pipeline(self, tmp_path, capsys):
        data = dict(m2_config(), eigen={"tol": 1e-14, "max_iter": 1})
        cfgp = write_config(tmp_path, data)
        code, out, _ = run_cli(["verify", cfgp, "--out",
                                str(tmp_path / "rf")], capsys)
        assert code == 3
        payload = json.loads(out)
        assert payload["failure"]["stage"] == "eigenvalue"

    def test_solver_failure_outside_pipeline(self, tmp_path, capsys):
        data = dict(m2_config(), eigen={"tol": 1e-14, "max_iter": 1})
        cfgp = write_config(tmp_path, data)
        code, _, err = run_cli(["eig", cfgp], capsys)
        assert code == 3
        assert "solver failure" in err

    @pytest.mark.parametrize("expr", [
        "(" * 2000 + "u" + ")" * 2000,
        "+".join(["u"] * 5000),
        "^".join(["u"] * 3000),
        "-" * 3000 + "u",
    ], ids=["parens", "sum", "powers", "minus"])
    def test_deeply_nested_expression_is_a_config_error(self, tmp_path,
                                                        capsys, expr):
        data = dict(base_config(), nonlinearity={"expr": expr})
        with pytest.raises(grushinlab.ConfigError, match="nests deeper"):
            grushinlab.runner.parse_config_dict(data)
        code, _, err = run_cli(["verify", write_config(tmp_path, data),
                                "--out", str(tmp_path / "deep")], capsys)
        assert code == 2
        assert "nests deeper" in err

    def test_missing_initial_file_outside_pipeline(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, dict(free_sine(), initial={
            "kind": "file", "path": "missing.txt"}))
        code, out, err = run_cli(["check-hypothesis", cfgp], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: FileNotFoundError")

    def test_sweep_rejects_bad_values(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, base_config())
        code, _, err = run_cli(
            ["sweep", cfgp, "--axis", "gamma", "--values", "0,x"], capsys)
        assert code == 2
        assert "config error" in err
        code, _, _ = run_cli(
            ["sweep", cfgp, "--axis", "gamma", "--values", ""], capsys)
        assert code == 2

    def test_sweep_rejects_non_finite_values(self, capsys):
        code, out, err = run_cli(
            ["sweep", config_path("free_sine.json"), "--axis", "amplitude",
             "--values", "nan,inf"], capsys)
        assert code == 2
        assert out == ""
        assert "--values must be finite numbers" in err


class TestQuietFlag:
    def test_quiet_suppresses_warnings(self, tmp_path, capsys):
        data = base_config()
        data["bounds"] = [[-1.0, 1.0], [-1.0, 1.0]]  # straddles x = 0
        cfgp = write_config(tmp_path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["eig", cfgp]) == 0
        capsys.readouterr()
        assert any("straddl" in str(w.message) for w in caught)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["eig", cfgp, "--quiet"]) == 0
        capsys.readouterr()
        assert caught == []


class TestModuleEntryPoint:
    def test_help_via_subprocess(self):
        # The child imports the same checkout as this process.
        src = os.path.dirname(os.path.dirname(grushinlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "grushinlab", "--help"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        for word in ("eig", "simulate", "verify", "check-hypothesis", "sweep"):
            assert word in proc.stdout
