"""Command-line interface: subcommands, exit codes, artifacts, stdout JSON."""

import json
import os
import subprocess
import sys
import warnings

import pytest

import grushinlab
from grushinlab.cli import main as cli_main


def base_config():
    return {"space": {"m": 1, "k": 1, "gamma": 0.0},
            "bounds": [[0.0, 1.0], [0.0, 1.0]],
            "cells": [8, 8],
            "sim": {"t_end": 0.01, "dt_init": 1e-3}}


def m2_config():
    """m = 2, k = 1: the eigensolve is inverse iteration, which can fail."""
    return dict(base_config(), space={"m": 2, "k": 1, "gamma": 1.0},
                bounds=[[0.0, 1.0]] * 3, cells=[4, 4, 4])


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
        cfgp = write_config(tmp_path, base_config())
        code, out, _ = run_cli(["eig", cfgp], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda1"] > 0.0
        assert payload["residual"] >= 0.0

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
        assert "/space/gamma" in err

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
            grushinlab.parse_config_dict(data)
        code, _, err = run_cli(["verify", write_config(tmp_path, data),
                                "--out", str(tmp_path / "deep")], capsys)
        assert code == 2
        assert "nests deeper" in err

    def test_sweep_rejects_bad_values(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, base_config())
        code, _, err = run_cli(
            ["sweep", cfgp, "--axis", "gamma", "--values", "0,x"], capsys)
        assert code == 2
        assert "config error" in err
        code, _, _ = run_cli(
            ["sweep", cfgp, "--axis", "gamma", "--values", ""], capsys)
        assert code == 2


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
