"""Config parsing, blow-up constants, verdict logic, and the full pipeline."""

import collections
import contextlib
import copy
import glob
import json
import math
import os

import numpy as np
import pytest

from grushinlab import (ConfigError, Power, assemble_grushin, build_grid,
                        concavity_margin, check_blowup_hypothesis,
                        check_f_positive, check_global_hypothesis,
                        diagnostics, integrator, linalg, nonlinearity,
                        parse_config, read_csv, run_experiment, run_sweep,
                        runner)
from grushinlab.diagnostics import certified_records
from grushinlab.nonlinearity import Expression
from grushinlab.runner import SWEEP_AXES, parse_config_dict
from grushinlab.theorems import BLOWUP, GLOBAL, decide_verdict

from conftest import CONFIG_DIR, config_path
from oracles import blowup_constants_reference, sweep_rows_reference


def minimal_dict(**extra):
    data = {"space": {"m": 1, "k": 1, "gamma": 0.0},
            "bounds": [[0.0, 1.0], [0.0, 1.0]],
            "cells": [8, 8]}
    data.update(copy.deepcopy(extra))
    return data


# A small m = 2, k = 1 problem at gamma = 1.5, where the step solves run
# preconditioned CG and the eigensolve is inverse iteration.
M2_SPACE = {"space": {"m": 2, "k": 1, "gamma": 1.5},
            "bounds": [[0.0, 1.0]] * 3, "cells": [4, 4, 4]}
# The same at gamma = 1 on [-1, 1]^3, where both are exact, origin included.
M2_EXACT_SPACE = {"space": {"m": 2, "k": 1, "gamma": 1.0},
                  "bounds": [[-1.0, 1.0]] * 3, "cells": [4, 4, 4]}


def fail_late_steps(monkeypatch):
    """Make every step of a march that has passed t = 0.05 raise."""
    step = integrator.step

    def failing(state, *args, **kwargs):
        if state.t > 0.05:
            raise ArithmeticError("step past t = 0.05")
        return step(state, *args, **kwargs)
    monkeypatch.setattr(integrator, "step", failing)


def fast_dict(**extra):
    """A config small enough that full runs take well under a second."""
    return minimal_dict(sim={"t_end": 0.01, "dt_init": 1e-3}, **extra)


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config_dict(minimal_dict())
        assert cfg.space.gamma == 0.0
        assert cfg.cells == (8, 8)
        assert isinstance(cfg.nonlinearity, Power)
        assert (cfg.nonlinearity.p, cfg.nonlinearity.c) == (3.0, 1.0)
        assert (cfg.alpha, cfg.beta, cfg.theta) == (4.0, 0.1, 0.01)
        assert cfg.initial.kind == "product_sine"
        assert cfg.initial.amplitude == 1.0
        assert cfg.mode == "free"
        assert cfg.sim.t_end == 1.0
        assert cfg.output.csv == "records.csv"
        assert cfg.output.svg_fields == ("calE", "supnorm")
        assert cfg.umax_factor == 10.0
        assert cfg.notes is None

    def test_negative_gamma_names_its_pointer(self):
        data = minimal_dict()
        data["space"]["gamma"] = -1.0
        with pytest.raises(ConfigError) as exc:
            parse_config_dict(data)
        assert any("/space: gamma" in p for p in exc.value.problems)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("pointer", ["/sim/t_end", "/alpha",
                                         "/initial/amplitude"])
    def test_non_finite_number_names_its_pointer(self, pointer, value):
        data = minimal_dict(sim={}, initial={"kind": "product_sine"})
        *parents, key = pointer[1:].split("/")
        node = data
        for name in parents:
            node = node[name]
        node[key] = value
        with pytest.raises(ConfigError) as exc:
            parse_config_dict(data)
        assert exc.value.problems == [
            f"{pointer}: expected a finite number, got {value!r}"]

    def test_integer_keys_take_integral_numbers_only(self):
        cells = parse_config_dict(minimal_dict(cells=[8.0, 8])).cells
        assert cells == (8.0, 8)
        assert [type(n) for n in cells] == [int, int]
        for value in (8.5, True):
            with pytest.raises(ConfigError, match="/cells/0: expected an "
                                                  "integer"):
                parse_config_dict(minimal_dict(cells=[value, 8]))
        with pytest.raises(ConfigError, match="/alpha: expected a number"):
            parse_config_dict(minimal_dict(alpha=True))

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="gama"):
            parse_config_dict(minimal_dict(gama=1.0))

    def test_bounds_count_must_match_space(self):
        data = minimal_dict()
        data["bounds"] = [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
        with pytest.raises(ConfigError, match="/bounds"):
            parse_config_dict(data)

    def test_bound_pair_of_wrong_length_names_its_axis(self):
        data = minimal_dict()
        data["bounds"][1].append(2.0)
        with pytest.raises(ConfigError) as exc:
            parse_config_dict(data)
        assert exc.value.problems == [
            "/bounds: axis 1: bounds must be a pair (a, b) with a < b, "
            "got (0.0, 1.0, 2.0)"]

    def test_cells_count_must_match_space(self):
        data = minimal_dict()
        data["cells"] = [8, 8, 8]
        with pytest.raises(ConfigError, match="/cells"):
            parse_config_dict(data)

    def test_nonlinearity_wants_exactly_one_variant(self):
        both = minimal_dict(nonlinearity={"power": {"p": 3, "c": 1},
                                          "expr": "u^3"})
        with pytest.raises(ConfigError, match="/nonlinearity"):
            parse_config_dict(both)
        with pytest.raises(ConfigError, match="/nonlinearity"):
            parse_config_dict(minimal_dict(nonlinearity={}))

    def test_expression_nonlinearity_parses(self):
        cfg = parse_config_dict(minimal_dict(nonlinearity={"expr": "u^3"}))
        assert isinstance(cfg.nonlinearity, Expression)
        assert cfg.nonlinearity.text == "u^3"

    def test_unknown_svg_field_rejected(self):
        for fields in (["calE", "bogus"], ["t"]):
            data = minimal_dict(output={"svg_fields": fields})
            with pytest.raises(ConfigError, match="/output/svg_fields"):
                parse_config_dict(data)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="/mode"):
            parse_config_dict(minimal_dict(mode="explode"))
        for mode in ("free", "blowup", "global"):
            assert parse_config_dict(minimal_dict(mode=mode)).mode == mode

    @pytest.mark.parametrize("extra, problem", [
        ({"space": {"m": 1, "k": 1}}, "/space: missing key 'gamma'"),
        ({"nonlinearity": {"power": {"p": 3.0}}},
         "/nonlinearity/power: missing key 'c'"),
        ({"initial": {"amplitude": 2.0}}, "/initial: missing key 'kind'"),
        ({"eigen": {"tol": 0.0}}, "/eigen: tol must be > 0"),
        ({"eigen": {"max_iter": 0}}, "/eigen: max_iter must be > 0"),
        ({"eigen": {"cg_tol": -1e-9}}, "/eigen: cg_tol must be > 0"),
        ({"hypothesis": {"samples": 1}}, "/hypothesis: samples must be > 1"),
        ({"hypothesis": {"umax_factor": 0.0}},
         "/hypothesis: umax_factor must be > 0"),
        ({"output": {"svg_fields": []}}, "/output/svg_fields: need one"),
        ({"cells": [2**32 + 1, 2**32 + 1]},
         "/cells: 18446744073709551616 nodes need about"),
    ], ids=["space-gamma", "power-c", "initial-kind", "eigen-tol",
            "eigen-max_iter", "eigen-cg_tol", "samples", "umax_factor",
            "svg_fields", "cells-memory"])
    def test_missing_key_or_range_names_its_object(self, extra, problem):
        with pytest.raises(ConfigError) as exc:
            parse_config_dict(minimal_dict(**extra))
        [got] = exc.value.problems
        assert got.startswith(problem)

    def test_inconsistent_sim_block_rejected(self):
        data = minimal_dict(sim={"dt_init": 1e-3, "dt_min": 1e-2})
        with pytest.raises(ConfigError, match="dt_min"):
            parse_config_dict(data)

    def test_relative_initial_path_resolves_against_base_dir(self):
        data = minimal_dict(initial={"kind": "file", "path": "u0.txt"})
        cfg = parse_config_dict(data, base_dir="/some/where")
        assert cfg.initial.path == os.path.join("/some/where", "u0.txt")

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            parse_config(str(arr))

    def test_shipped_configs_parse(self):
        for name in SHIPPED_VERDICTS:
            cfg = parse_config(config_path(name))
            assert cfg.space.n == (3 if name == "blowup_m2.json" else 2)


# Every shipped config and the verdict it reaches; between them they reach
# every verdict but InconsistencyFlag, and free mode's null.
SHIPPED_VERDICTS = {"blowup_cubic.json": "ConsistentWithTheorem",
                    "blowup_m2.json": "ConsistentWithTheorem",
                    "blowup_before_window.json": "Inconclusive",
                    "global_decay.json": "HypothesesNotMet",
                    "free_sine.json": None}


class TestShippedConfigs:
    def test_every_shipped_config_has_its_verdict_listed(self):
        names = [os.path.basename(path)
                 for path in glob.glob(os.path.join(CONFIG_DIR, "*.json"))]
        assert sorted(names) == sorted(SHIPPED_VERDICTS)

    @pytest.mark.parametrize("name, verdict", SHIPPED_VERDICTS.items())
    def test_shipped_config_reaches_its_verdict(self, request, name, verdict):
        if name == "blowup_cubic.json":
            rpt = request.getfixturevalue("blowup_outcome").report
        else:
            rpt = run_experiment(parse_config(config_path(name)))
        assert rpt.failure is None
        assert rpt.verdict == verdict
        if name == "blowup_m2.json":
            # m = 2 at gamma = 1: every solve is exact, origin included.
            assert rpt.warnings == []
            assert rpt.eigen["method"] == "separable"
            assert rpt.eigen["residual"] <= 1e-12 * rpt.lambda1
            assert rpt.sim["solver_iterations"] == 0


class TestConstraints:
    """The report's constraints block: the mode's three parameter ranges in
    order, each detail giving both sides of its inequality."""

    def test_blowup_ranges_read_the_reports_lambda1(self, blowup_outcome):
        rpt = blowup_outcome.report
        cap = rpt.lambda1 * (4.0 - 2.0) / 2.0
        assert rpt.constraints == [
            {"name": "alpha > 2", "ok": True, "detail": "alpha = 4.0"},
            {"name": "0 < beta <= lambda1*(alpha-2)/2", "ok": True,
             "detail": f"beta = 0.1, lambda1*(alpha-2)/2 = {cap} "
                       f"(lambda1 = {rpt.lambda1})"},
            {"name": "theta > 0", "ok": True, "detail": "theta = 0.01"}]

    @pytest.mark.parametrize("beta, met", [(0.1, True), (100.0, False)])
    def test_blowup_beta_above_its_cap_is_not_met(self, beta, met):
        # At amplitude 12, F0 > 0 and the sign condition holds, so the beta
        # range alone decides whether the premises are met.
        rpt = run_experiment(parse_config_dict(fast_dict(
            mode="blowup", alpha=4.0, beta=beta, theta=0.01,
            initial={"kind": "product_sine", "amplitude": 12.0})))
        assert rpt.F0 > 0.0 and rpt.hypothesis_initial["holds"]
        assert [c["ok"] for c in rpt.constraints] == [True, met, True]
        assert rpt.constraints[1]["detail"] == (
            f"beta = {beta}, lambda1*(alpha-2)/2 = {rpt.lambda1} "
            f"(lambda1 = {rpt.lambda1})")
        assert rpt.hypotheses_met is met
        assert (rpt.verdict == "HypothesesNotMet") is not met

    @pytest.mark.parametrize("beta", [2.0, 1.0])
    def test_global_ranges_agree_with_the_sign_check(self, beta):
        rpt = run_experiment(parse_config_dict(fast_dict(
            mode="global", alpha=-2.0, beta=beta, theta=1.0)))
        assert rpt.constraints == [
            {"name": "alpha <= 0", "ok": True, "detail": "alpha = -2.0"},
            {"name": "beta >= (2-alpha)/2", "ok": beta >= 2.0,
             "detail": f"beta = {beta}, (2-alpha)/2 = 2.0"},
            {"name": "theta >= 0", "ok": True, "detail": "theta = 1.0"}]
        assert rpt.hypothesis_initial["constraint_violations"] == tuple(
            f"{c['name']} fails: {c['detail']}"
            for c in rpt.constraints if not c["ok"])
        assert rpt.verdict == "HypothesesNotMet"


class TestBlowupConstants:
    def test_reference_point_exact(self):
        assert BLOWUP.constants(8.0, 1.0, 2.0) == (1.0, 1.0, 0.5)

    def test_documented_example(self):
        sigma, M, tstar = BLOWUP.constants(4.0, 0.5, 1.0)
        assert sigma == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
        assert M == pytest.approx(1.20711, rel=1e-5)
        assert tstar == pytest.approx(2.91421, rel=1e-5)

    def test_each_precondition_fails_individually(self):
        with pytest.raises(ValueError, match="alpha"):
            BLOWUP.constants(2.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="F0"):
            BLOWUP.constants(4.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="I0"):
            BLOWUP.constants(4.0, 1.0, 0.0)

    def test_scaling_in_F0_and_I0(self):
        _, M, tstar = BLOWUP.constants(4.0, 1.0, 1.0)
        _, M_f, _ = BLOWUP.constants(4.0, 2.0, 1.0)
        _, M_i, tstar_i = BLOWUP.constants(4.0, 1.0, 2.0)
        assert M_f == pytest.approx(M / 2.0, rel=1e-14)
        assert M_i == pytest.approx(4.0 * M, rel=1e-14)
        assert tstar_i == pytest.approx(2.0 * tstar, rel=1e-14)

    def test_against_independent_arrangement(self):
        rng = np.random.default_rng(20260814)
        for _ in range(1000):
            alpha = 2.0 + 10.0 ** rng.uniform(-3, 2)
            F0 = 10.0 ** rng.uniform(-6, 6)
            I0 = 10.0 ** rng.uniform(-6, 6)
            got = BLOWUP.constants(alpha, F0, I0)
            want = blowup_constants_reference(alpha, F0, I0)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-14)


class TestPremise:
    def test_F0_must_be_positive(self):
        assert [theorem.premise(F0) for theorem in (BLOWUP, GLOBAL)
                for F0 in (-1.0, 0.0, 1e-300)] == [False, False, True] * 2

    def test_joint_satisfiability_is_global_modes_own(self):
        assert [GLOBAL.joint_satisfiable(holds, F0) for holds, F0 in
                [(True, 1.0), (True, 0.0), (False, 1.0)]] == [
                    True, False, False]
        assert BLOWUP.joint_satisfiable(True, 1.0) is None


class TestDecideVerdict:
    def test_free_mode_has_no_verdict(self):
        assert decide_verdict("free", True, "blowup", 0.1, 0.1, 1.0, None) is None
        assert decide_verdict("free", False, "completed", None, 1.0, None,
                              2.0) is None

    def test_unmet_hypotheses_dominate(self):
        for mode in ("blowup", "global"):
            got = decide_verdict(mode, False, "blowup", 0.1, 0.1, 1.0, 0.5)
            assert got == "HypothesesNotMet"

    def test_failed_simulation_is_inconclusive(self):
        assert decide_verdict("blowup", True, "failed", None, 0.3, 1.0,
                              None) == "Inconclusive"
        assert decide_verdict("global", True, "failed", None, 0.3, None,
                              None) == "Inconclusive"

    def test_blowup_within_bound_is_consistent(self):
        assert decide_verdict("blowup", True, "blowup", 1.0, 1.0, 1.0,
                              None) == "ConsistentWithTheorem"
        # Equality with the slacked horizon still counts.
        assert decide_verdict("blowup", True, "blowup", 1.1, 1.1, 1.0,
                              None) == "ConsistentWithTheorem"

    def test_late_blowup_contradicts(self):
        assert decide_verdict("blowup", True, "blowup", 1.2, 1.2, 1.0,
                              None) == "InconsistencyFlag"

    def test_completed_past_horizon_contradicts(self):
        assert decide_verdict("blowup", True, "completed", None, 2.0, 1.0,
                              None) == "InconsistencyFlag"

    def test_completed_short_of_horizon_is_inconclusive(self):
        assert decide_verdict("blowup", True, "completed", None, 0.5, 1.0,
                              None) == "Inconclusive"

    def test_blowup_without_constants_is_inconclusive(self):
        assert decide_verdict("blowup", True, "blowup", 0.1, 0.1, None,
                              None) == "Inconclusive"

    def test_global_blowup_contradicts(self):
        assert decide_verdict("global", True, "blowup", 0.1, 0.1, None,
                              0.9) == "InconsistencyFlag"

    def test_global_decay_margin_thresholds(self):
        assert decide_verdict("global", True, "completed", None, 1.0, None,
                              1.0005) == "ConsistentWithTheorem"
        assert decide_verdict("global", True, "completed", None, 1.0, None,
                              1.001) == "ConsistentWithTheorem"
        assert decide_verdict("global", True, "completed", None, 1.0, None,
                              1.01) == "InconsistencyFlag"
        assert decide_verdict("global", True, "completed", None, 1.0, None,
                              None) == "Inconclusive"


# The margins block's entries, by the margin they state.
MARGIN_ENTRIES = {
    "monotonicity": ("monotonicity", "monotonicity_scale", "monotonicity_ok"),
    "concavity": ("concavity", "concavity_scale", "concavity_ok"),
    "decay": ("decay", "decay_rate", "decay_ok")}


class TestMargins:
    """calF's monotonicity is certified in every mode; blow-up mode adds the
    concavity margin and global mode the decay margin, and each leaves the
    other theorem's entries null."""

    @pytest.mark.parametrize("name, filled", [
        ("free_sine.json", {"monotonicity"}),
        ("blowup_cubic.json", {"monotonicity", "concavity"}),
        ("global_decay.json", {"monotonicity", "decay"})])
    def test_each_mode_fills_its_own_margins(self, request, name, filled):
        if name == "blowup_cubic.json":
            rpt = request.getfixturevalue("blowup_outcome").report
        else:
            rpt = run_experiment(parse_config(config_path(name)))
        margins = rpt.margins
        assert set(margins) == {"certified_count", "excluded_count",
                                *sum(MARGIN_ENTRIES.values(), ())}
        assert margins["certified_count"] >= 3
        for margin, keys in MARGIN_ENTRIES.items():
            values = [margins[key] for key in keys]
            if margin in filled:
                assert None not in values
                assert type(values[-1]) is bool
            else:
                assert values == [None] * 3

    @pytest.mark.parametrize("name, alpha, decay_ok", [
        ("global_decay.json", None, False), ("fast", -2.0, False),
        ("fast", 0.0, False), ("fast", 1.9, True)])
    def test_decay_ok_agrees_with_the_verdict(self, name, alpha, decay_ok):
        # No global-mode run meets its hypotheses yet, so the verdict is
        # asked what it would say of this march if they held.
        if name == "fast":
            cfg = parse_config_dict(fast_dict(mode="global", alpha=alpha))
        else:
            cfg = parse_config(config_path(name))
        rpt = run_experiment(cfg)
        assert rpt.sim["status"] == "completed"
        assert rpt.margins["decay_ok"] is decay_ok
        verdict = decide_verdict("global", True, "completed", None,
                                 rpt.sim["t_final"], None,
                                 rpt.margins["decay"])
        assert verdict == ("ConsistentWithTheorem" if decay_ok
                           else "InconsistencyFlag")


class TestRunExperiment:
    @pytest.mark.parametrize("space", [{}, M2_SPACE], ids=["m1", "m2"])
    def test_builds_one_separable_solver(self, monkeypatch, space):
        # The eigensolve and the march share the operator's solver.
        built = []
        init = linalg.SeparableSolver.__init__

        def counting_init(solver, *args):
            built.append(args)
            init(solver, *args)
        monkeypatch.setattr(linalg.SeparableSolver, "__init__", counting_init)
        rpt = run_experiment(parse_config_dict(fast_dict(**space)))
        assert rpt.failure is None
        assert len(built) == 1

    def test_free_mode_pipeline(self):
        rpt = run_experiment(parse_config_dict(fast_dict()))
        assert rpt.failure is None
        assert rpt.verdict is None
        assert rpt.hypotheses_met is None
        assert rpt.hypothesis_initial is None
        assert rpt.lambda1 > 0.0
        assert rpt.sim["status"] == "completed"
        assert rpt.margins["certified_count"] >= 2
        assert rpt.decay_rate is None

    def test_f_positivity_warning_carried_not_fatal(self):
        cfg = parse_config_dict(fast_dict(nonlinearity={"expr": "0*u"}))
        rpt = run_experiment(cfg)
        assert rpt.failure is None
        assert rpt.f_positive["ok"] is False
        assert any("positiv" in w for w in rpt.warnings)
        assert rpt.sim["status"] == "completed"

    def test_global_alpha_zero_reports_hypotheses_not_met(self):
        cfg = parse_config_dict(fast_dict(mode="global", alpha=0.0, beta=1.0,
                                          theta=0.0))
        rpt = run_experiment(cfg)
        assert rpt.failure is None
        assert rpt.hypotheses_met is False
        assert rpt.verdict == "HypothesesNotMet"
        assert rpt.joint_satisfiable is False

    def test_failure_is_localized_to_its_stage(self):
        cfg = parse_config_dict(fast_dict(
            initial={"kind": "file", "path": "no/such/file.txt"}))
        rpt = run_experiment(cfg)
        assert rpt.failure is not None
        assert rpt.failure["stage"] == "initial-condition"
        assert rpt.verdict is None
        assert rpt.lambda1 is not None  # earlier stages already landed

    def test_march_failure_keeps_partial_records(self, tmp_path,
                                                 monkeypatch):
        # The growing march raises once it passes t = 0.05.
        fail_late_steps(monkeypatch)
        cfg = parse_config_dict(minimal_dict(
            cells=[16, 16], nonlinearity={"expr": "100*u^3*(2-u)^0.5"},
            hypothesis={"umax_factor": 1.0}))
        out = tmp_path / "partial"
        rpt = run_experiment(cfg, out_dir=str(out))
        assert rpt.failure["stage"] == "simulate"
        assert rpt.verdict is None
        rows = read_csv(str(out / "records.csv"))
        assert len(rows) >= 2
        assert (out / "plot.svg").exists()
        assert rpt.sim["status"] == "failed"
        assert rpt.sim["records"] == len(rows)
        assert rpt.sim["t_final"] == rows[-1].t
        assert rpt.sim["final_supnorm"] == rows[-1].supnorm
        assert rpt.sim["t_blow"] is None and rpt.sim["steps"] is None
        assert rpt.sim["attempts"] is None
        assert rpt.sim["dt_accepted"] is None
        assert rpt.sim["reason"] == rpt.failure["error"]
        assert "ArithmeticError: step past t = 0.05" in rpt.sim["reason"]
        saved = json.loads((out / "report.json").read_text())
        assert saved["sim"] == rpt.sim

    def test_non_finite_f_is_a_failed_positivity_sample(self):
        # f is non-finite past u = 2, inside the default scan (0, 10*sup u0].
        cfg = parse_config_dict(minimal_dict(
            cells=[16, 16], nonlinearity={"expr": "100*u^3*(2-u)^0.5"}))
        rpt = run_experiment(cfg)
        assert rpt.f_positive["ok"] is False
        assert rpt.f_positive["first_nonpositive_u"] > 2.0
        assert any("non-finite" in w for w in rpt.warnings)
        # The march stops short of u = 2 instead of raising; see
        # test_domain_exit_ends_the_march_failed.
        assert rpt.failure is None and rpt.sim["status"] == "failed"

    def test_domain_exit_ends_the_march_failed(self, tmp_path):
        # free_sine.json with a source that is non-finite past u = 2: steps
        # whose new state leaves f's domain are rejected, and once they
        # shrink dt below dt_min the march ends failed, not blowup, with
        # every record inside the domain.
        data = json.loads(open(config_path("free_sine.json")).read())
        data["nonlinearity"] = {"expr": "100*u^3*(2-u)^0.5"}
        out = tmp_path / "exit"
        rpt = run_experiment(parse_config_dict(data), out_dir=str(out))
        assert rpt.failure is None
        sim = rpt.sim
        assert sim["status"] == "failed" and sim["t_blow"] is None
        assert sim["reason"].startswith(
            "expression '100*u^3*(2-u)^0.5' is non-finite at u = 2.0")
        assert sim["rejected"] > 0
        assert sim["dt_accepted"][0] < 1e-10
        assert 0.126 < sim["t_final"] < 0.13
        rows = read_csv(str(out / "records.csv"))
        assert len(rows) == sim["records"]
        assert max(r.supnorm for r in rows) < 2.0

    @pytest.mark.parametrize("mode", ["blowup", "global"])
    def test_non_finite_f_fails_the_sign_condition(self, mode):
        # f is non-finite past u = 2, inside the default scan (0, 10*sup u0];
        # the premise sampler reports that instead of failing the run.
        cfg = parse_config_dict(fast_dict(
            mode=mode, nonlinearity={"expr": "100*u^3*(2-u)^0.5"}))
        rpt = run_experiment(cfg)
        hyp = rpt.hypothesis_initial
        assert hyp["holds"] is False
        assert hyp["worst_margin"] is None and hyp["argmin_u"] > 2.0
        assert rpt.failure is None
        assert rpt.verdict == "HypothesesNotMet"
        json.loads(rpt.to_json())

    def test_failed_run_keeps_its_warnings(self):
        # Assembly warns on m = 1 across x = 0 before the file lookup fails.
        cfg = parse_config_dict(minimal_dict(
            bounds=[[-1.0, 1.0], [-1.0, 1.0]],
            initial={"kind": "file", "path": "/no/such/file.txt"}))
        rpt = run_experiment(cfg)
        assert rpt.failure["stage"] == "initial-condition"
        assert any("straddling x = 0" in w for w in rpt.warnings)

    def test_eigensolver_failure_reports_stage(self):
        # m = 2 at gamma = 1.5, because only an inexact solver's eigensolve
        # iterates and can fail.
        cfg = parse_config_dict(fast_dict(eigen={"tol": 1e-14, "max_iter": 1},
                                          **M2_SPACE))
        rpt = run_experiment(cfg)
        assert rpt.failure is not None
        assert rpt.failure["stage"] == "eigenvalue"
        assert "NonConvergence" in rpt.failure["error"]

    def test_report_names_its_eigensolve(self):
        m1 = run_experiment(parse_config_dict(fast_dict()))
        assert m1.eigen["method"] == "separable"
        assert m1.eigen["iterations"] > 0
        assert 0.0 <= m1.eigen["residual"] <= 1e-10 * m1.lambda1
        m2 = run_experiment(parse_config_dict(fast_dict(**M2_SPACE)))
        assert m2.eigen["method"] == "inverse-iteration"
        assert m2.eigen["iterations"] >= 1
        assert 0.0 <= m2.eigen["residual"] <= 1e-8 * m2.lambda1
        exact = run_experiment(parse_config_dict(fast_dict(**M2_EXACT_SPACE)))
        assert exact.eigen["method"] == "separable"
        assert exact.eigen["iterations"] > 0
        assert 0.0 <= exact.eigen["residual"] <= 1e-12 * exact.lambda1

    def test_report_counts_the_solver_work(self):
        m1 = run_experiment(parse_config_dict(fast_dict()))
        m2 = run_experiment(parse_config_dict(fast_dict(**M2_SPACE)))
        exact = run_experiment(parse_config_dict(fast_dict(**M2_EXACT_SPACE)))
        for rpt in (m1, m2, exact):
            sim = rpt.sim
            assert sim["attempts"] == sim["steps"] + sim["rejected"]
        # The m = 1 and the m = 2, gamma = 1 solves are exact; m = 2 at
        # gamma = 1.5 runs preconditioned CG.
        for rpt in (m1, exact):
            assert rpt.sim["solver_iterations"] == 0
            assert rpt.eigen["solver_iterations"] == 0
        assert m2.sim["solver_iterations"] >= m2.sim["attempts"]
        assert m2.eigen["solver_iterations"] >= m2.eigen["iterations"]

    def test_report_gives_the_accepted_step_range(self, tmp_path):
        # free_sine records every accepted step, so the record times'
        # differences are the accepted step sizes.
        from conftest import config_path
        out = tmp_path / "free"
        rpt = run_experiment(parse_config(config_path("free_sine.json")),
                             out_dir=str(out))
        steps = np.diff([r.t for r in read_csv(str(out / "records.csv"))])
        assert len(steps) == rpt.sim["steps"]
        lo, hi = rpt.sim["dt_accepted"]
        assert lo == pytest.approx(steps.min(), rel=1e-12)
        assert hi == pytest.approx(steps.max(), rel=1e-12)
        assert lo < hi
        saved = json.loads((out / "report.json").read_text())
        assert saved["sim"] == rpt.sim

    def test_concavity_margin_reads_the_csv(self, blowup_outcome):
        # The margin uses each record's E, so the CSV reproduces it exactly.
        rpt = blowup_outcome.report
        recs = read_csv(os.path.join(blowup_outcome.out_dir, "records.csv"))
        cert = certified_records(recs, rpt.sim["status"])
        assert concavity_margin(cert, rpt.sigma) == rpt.margins["concavity"]

    def test_report_serializes_without_nan(self):
        rpt = run_experiment(parse_config_dict(fast_dict()))
        payload = json.loads(rpt.to_json())
        assert payload["mode"] == "free"
        assert payload["parameters"]["cells"] == [8, 8]
        assert payload["sim"]["status"] == "completed"

    def test_artifacts_written(self, tmp_path):
        cfg = parse_config_dict(fast_dict())
        out = str(tmp_path / "art")
        rpt = run_experiment(cfg, out_dir=out, dump_matrix=True)
        assert rpt.failure is None
        for name in ("records.csv", "plot.svg", "report.json", "matrix.txt"):
            assert os.path.exists(os.path.join(out, name))
        first = open(os.path.join(out, "matrix.txt")).readline().split()
        assert first[0] == "0"
        saved = json.load(open(os.path.join(out, "report.json")))
        assert saved["verdict"] == rpt.verdict

    def test_matrix_dump_walks_the_csr_view(self, tmp_path):
        cfg = parse_config_dict(fast_dict(**M2_SPACE))
        out = str(tmp_path / "art")
        run_experiment(cfg, out_dir=out, dump_matrix=True)
        A = assemble_grushin(build_grid(cfg.domain, cfg.cells), cfg.space)
        want = "".join(
            f"{i} {A.indices[pos]} {format(A.values[pos], '.17g')}\n"
            for i in range(A.n) for pos in range(A.indptr[i], A.indptr[i + 1]))
        with open(os.path.join(out, "matrix.txt"), newline="") as fh:
            assert fh.read() == want

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = parse_config_dict(fast_dict())
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            run_experiment(cfg, out_dir=str(out))
            blobs.append(((out / "records.csv").read_bytes(),
                          (out / "report.json").read_bytes()))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("stage, change", [
        ("initial-condition", {"initial": {"kind": "file", "path": "u0.txt"}}),
        ("functionals", {"nonlinearity": {"power": {"p": 1000.0, "c": 1.0}}}),
        ("functionals", {"initial": {"kind": "product_sine",
                                     "amplitude": 1e100}}),   # F0 = inf
        ("functionals", {"initial": {"kind": "product_sine",
                                     "amplitude": 1e160}}),   # I0 = inf
    ])
    def test_non_finite_initial_data_fails_with_a_whole_report(
            self, tmp_path, stage, change):
        # A NaN or an infinity cannot go into report.json, so each fails
        # at its stage and the report is still written whole.
        (tmp_path / "u0.txt").write_text("1\n" * 48 + "nan\n")
        with open(config_path("blowup_cubic.json")) as fh:
            data = dict(json.load(fh), cells=[8, 8], **change)
        cfg = parse_config_dict(data, base_dir=str(tmp_path))
        out = tmp_path / "out"
        rpt = run_experiment(cfg, out_dir=str(out))
        assert rpt.failure["stage"] == stage
        assert rpt.F0 is None and rpt.I0 is None
        assert json.loads((out / "report.json").read_text()) == rpt.to_dict()

    def test_a_report_that_cannot_be_written_leaves_no_file(
            self, tmp_path, monkeypatch):
        def fail(rpt):
            raise ValueError("not JSON compliant")
        monkeypatch.setattr(runner.TheoremReport, "to_json", fail)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="not JSON compliant"):
            run_experiment(parse_config_dict(fast_dict()), out_dir=str(out))
        assert not (out / "report.json").exists()

    def test_custom_output_names(self, tmp_path):
        cfg = parse_config_dict(fast_dict(
            output={"csv": "r.csv", "report": "rep.json", "svg": "p.svg",
                    "svg_fields": ["l2"]}))
        out = str(tmp_path / "named")
        run_experiment(cfg, out_dir=out)
        for name in ("r.csv", "rep.json", "p.svg"):
            assert os.path.exists(os.path.join(out, name))
        assert open(os.path.join(out, "p.svg")).read().count("<polyline") == 1


class TestRunSweep:
    def test_amplitude_sweep_f0_sign_is_monotone(self):
        cfg = parse_config_dict(fast_dict(mode="blowup"))
        rows = run_sweep(cfg, "amplitude", [0.1, 1.0, 10.0])
        assert [r["value"] for r in rows] == [0.1, 1.0, 10.0]
        signs = [r["F0"] > 0.0 for r in rows]
        for earlier, later in zip(signs, signs[1:]):
            assert later >= earlier
        assert not signs[0]
        assert signs[-1]

    def test_gamma_sweep_has_positive_lambda1(self):
        cfg = parse_config_dict(fast_dict())
        rows = run_sweep(cfg, "gamma", [0.0, 0.5, 1.0])
        assert all(r["lambda1"] > 0.0 for r in rows)

    def test_empty_values_write_header_only(self, tmp_path):
        cfg = parse_config_dict(fast_dict())
        out = str(tmp_path / "sweep")
        rows = run_sweep(cfg, "gamma", [], out_dir=out)
        assert rows == []
        content = open(os.path.join(out, "sweep.csv")).read()
        assert content == "value,lambda1,F0,verdict,outcome\n"

    def test_failing_value_keeps_its_row(self, tmp_path):
        cfg = parse_config_dict(fast_dict(
            initial={"kind": "file", "path": "no/such/file.txt"}))
        out = str(tmp_path / "sweepfail")
        rows = run_sweep(cfg, "gamma", [0.0, 1.0], out_dir=out)
        assert len(rows) == 2
        for row in rows:
            assert row["verdict"] == "Failed[initial-condition]"
            assert row["outcome"] is None
        lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert lines[0] == "value,lambda1,F0,verdict,outcome"
        assert len(lines) == 3
        assert lines[1].endswith(",")  # empty outcome cell

    def test_unknown_axis_rejected(self):
        cfg = parse_config_dict(fast_dict())
        with pytest.raises(ValueError, match="axis"):
            run_sweep(cfg, "cells", [8, 16])


# Small m = 1 and m = 2 problems whose cubic source blows up inside t_end at
# amplitude 12 (blowup mode) and not at amplitude 4 (global mode), so that
# sweep rows reach blow-up times, decay margins and several verdicts.
SWEEP_SPACES = {
    1: {"space": {"m": 1, "k": 1, "gamma": 1.0},
        "bounds": [[-1.0, 1.0]] * 2, "cells": [8, 8]},
    2: {"space": {"m": 2, "k": 1, "gamma": 1.0},
        "bounds": [[-1.0, 1.0]] * 3, "cells": [4, 4, 4]},
}
# Three values per axis.  gamma = -1 and amplitude = 0 are rejected by the
# objects they build, so those rows fail on their own.
SWEEP_VALUES = {"gamma": [0.5, -1.0, 1.0], "alpha": [1.0, 2.5, 4.0],
                "beta": [0.1, 1.0, 3.0], "theta": [-1.0, 0.01, 1.0],
                "amplitude": [4.0, 0.0, 12.0]}


# Six theta rows, as many as the sweep benchmark runs.
THETA_ROWS = [0.01, 0.2, 0.4, 0.6, 0.8, 1.0]


def count_calls(monkeypatch, module, *names):
    """A Counter of the calls made to each named function of ``module``
    through its module global."""
    calls = collections.Counter()
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def sweep_dict(m, mode="blowup", **extra):
    data = copy.deepcopy(SWEEP_SPACES[m])
    amplitude = 12.0 if mode == "blowup" else 4.0
    data.update(mode=mode, sim={"t_end": 0.05},
                initial={"kind": "product_sine", "amplitude": amplitude})
    data.update(copy.deepcopy(extra))
    return data


def sweep_like_reference(tmp_path, cfg, axis, values):
    """run_sweep's rows, after checking them (float repr included) and the
    bytes of its sweep.csv against one whole run per value, and each row's
    full report against that run's."""
    rows = run_sweep(cfg, axis, values, out_dir=str(tmp_path / "shared"))
    ref = sweep_rows_reference(cfg, axis, values,
                               out_dir=str(tmp_path / "reference"))
    assert repr(rows) == repr(ref)
    assert ((tmp_path / "shared" / "sweep.csv").read_bytes()
            == (tmp_path / "reference" / "sweep.csv").read_bytes())
    cfgs = []
    for value in values:
        with contextlib.suppress(ValueError):
            cfgs.append(runner._with_axis(cfg, axis, value))
    shared = runner._run_rows(cfgs, runner._SHARED[axis])
    assert ([row.rpt.to_json() for row in shared]
            == [run_experiment(c).to_json() for c in cfgs])
    return rows


class TestSweepSharesWork:
    """run_sweep runs the stages its axis leaves unchanged once, and each row
    still equals a whole run_experiment of its own."""

    @pytest.mark.parametrize("mode", ["blowup", "global"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_rows_equal_one_run_per_value(self, tmp_path, axis, m, mode):
        rows = sweep_like_reference(tmp_path, parse_config_dict(
            sweep_dict(m, mode)), axis, SWEEP_VALUES[axis])
        failed = [r["verdict"] for r in rows
                  if r["verdict"].startswith("Failed")]
        alone = axis in ("gamma", "amplitude")
        assert failed == (["Failed[ValueError]"] if alone else [])

    @pytest.mark.parametrize("axis, values", [
        ("gamma", [0.5, 1.5]), ("theta", [0.01, 1.0]),
        ("amplitude", [4.0, 12.0])])
    def test_eigensolve_failure_fails_every_row(self, tmp_path, axis, values):
        # At gamma = 1 the eigensolve is exact and cannot fail, so the
        # sweeps run at gamma = 1.5, and the gamma axis avoids 1.
        cfg = parse_config_dict(sweep_dict(
            2, eigen={"tol": 1e-14, "max_iter": 1},
            space={"m": 2, "k": 1, "gamma": 1.5}))
        rows = sweep_like_reference(tmp_path, cfg, axis, values)
        assert [r["verdict"] for r in rows] == ["Failed[eigenvalue]"] * 2

    @pytest.mark.parametrize("axis, values", [
        ("theta", [0.01, 0.5, 1.0]), ("amplitude", [1.0, 1.5])])
    def test_march_failure_fails_every_row(self, tmp_path, axis, values,
                                           monkeypatch):
        # Every row's march raises once it passes t = 0.05.
        fail_late_steps(monkeypatch)
        cfg = parse_config_dict(minimal_dict(
            cells=[16, 16], nonlinearity={"expr": "100*u^3*(2-u)^0.5"},
            hypothesis={"umax_factor": 1.0}))
        rows = sweep_like_reference(tmp_path, cfg, axis, values)
        assert [r["verdict"] for r in rows] == ["Failed[simulate]"] * len(rows)

    def test_row_failing_before_the_march_leaves_the_others(self, tmp_path,
                                                            monkeypatch):
        check = runner.check_blowup_hypothesis

        def failing_at_half(nl, alpha, beta, theta, *args):
            if theta == 0.5:
                raise ArithmeticError("sampler fails at theta = 0.5")
            return check(nl, alpha, beta, theta, *args)
        monkeypatch.setattr(runner, "check_blowup_hypothesis", failing_at_half)
        rows = sweep_like_reference(tmp_path, parse_config_dict(sweep_dict(1)),
                                    "theta", [0.01, 0.5, 1.0])
        assert [r["verdict"] for r in rows] == [
            "ConsistentWithTheorem", "Failed[hypothesis]",
            "ConsistentWithTheorem"]

    def test_row_whose_F0_overflows_fails_alone(self, tmp_path):
        # F0 is each row's own: theta = 1e308 overflows only its own, and
        # the theta = 1 row keeps the verdict and outcome of its own run.
        with open(config_path("global_decay.json")) as fh:
            data = dict(json.load(fh), cells=[8, 8])
        rows = sweep_like_reference(tmp_path, parse_config_dict(data),
                                    "theta", [1.0, 1e308])
        assert [r["verdict"] for r in rows] == ["HypothesesNotMet",
                                                "Failed[functionals]"]
        assert rows[0]["outcome"] == pytest.approx(12.6468, rel=1e-5)

    @pytest.mark.parametrize("axis, eigensolves, marches", [
        ("gamma", 3, 3), ("alpha", 1, 1), ("beta", 1, 1), ("theta", 1, 1),
        ("amplitude", 1, 3)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_counts_its_eigensolves_and_marches(self, monkeypatch, m, axis,
                                                eigensolves, marches):
        calls = count_calls(monkeypatch, runner, "smallest_eigenpair", "run")
        values = {"gamma": [0.0, 0.5, 1.0],
                  "amplitude": [2.0, 4.0, 12.0]}.get(axis, SWEEP_VALUES[axis])
        rows = run_sweep(parse_config_dict(sweep_dict(m)), axis, values)
        assert not any(r["verdict"].startswith("Failed") for r in rows)
        assert calls == {"smallest_eigenpair": eigensolves, "run": marches}

    @pytest.mark.parametrize("m", [1, 2])
    def test_measures_each_state_once(self, monkeypatch, m):
        # Each state's l2, grad and F(u) are measured once, in one run and
        # for all rows of a sweep: functionals measures u0 for every row's
        # F0 and I0, and the march's t = 0 record reuses that measurement.
        cfg = parse_config_dict(sweep_dict(m))
        values = SWEEP_VALUES["theta"]
        ref = sweep_rows_reference(cfg, "theta", values)
        plain = run_experiment(cfg)
        records = plain.sim["records"]
        calls = count_calls(monkeypatch, diagnostics,
                            "F_values", "_weighted_energy")
        assert run_experiment(cfg).to_json() == plain.to_json()
        assert calls == {"F_values": records, "_weighted_energy": records}
        calls.clear()
        assert repr(run_sweep(cfg, "theta", values)) == repr(ref)
        assert calls == {"F_values": records, "_weighted_energy": records}

    @pytest.mark.parametrize("mode", ["blowup", "global"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_samples_each_premise_grid_once(self, monkeypatch, m, mode):
        # theta enters neither f, F nor u_max, and the rows share u0 and one
        # march: the checks before the march sample one grid and those after
        # it another, two in all where six rows made twelve.  F on a grid is
        # computed once too, and each row's report is its own run's.
        cfg = parse_config_dict(sweep_dict(m, mode))
        ref = sweep_rows_reference(cfg, "theta", THETA_ROWS)
        calls = count_calls(monkeypatch, nonlinearity,
                            "sample_points", "F_values")
        nonlinearity._samples.cache_clear()
        assert repr(run_sweep(cfg, "theta", THETA_ROWS)) == repr(ref)
        assert calls == {"sample_points": 2, "F_values": 2}

    @pytest.mark.parametrize("mode", ["free", "blowup"])
    def test_sampling_grid_is_freed_after_a_run(self, monkeypatch, mode):
        # No stage after the march reads the grid of the checks before it,
        # so the march runs without it, and none after the last row reads
        # any.
        held = []
        march = runner.run

        def run(*args, **kwargs):
            held.append(nonlinearity._samples.cache_info().currsize)
            return march(*args, **kwargs)
        monkeypatch.setattr(runner, "run", run)
        cfg = parse_config_dict(sweep_dict(1, mode))
        for go in (lambda: run_experiment(cfg),
                   lambda: run_sweep(cfg, "theta", THETA_ROWS)):
            assert go()
            assert nonlinearity._samples.cache_info().currsize == 0
        assert held == [0, 0]

    @pytest.mark.parametrize("mode, grids", [("free", 0), ("blowup", 2)])
    def test_only_a_sign_condition_samples_F(self, monkeypatch, mode, grids):
        # Free mode checks only that f > 0, so it computes no F on a
        # sampling grid; the march's records take F from diagnostics.
        cfg = parse_config_dict(sweep_dict(1, mode))
        calls = count_calls(monkeypatch, nonlinearity, "F_values")
        nonlinearity._samples.cache_clear()
        rpt = run_experiment(cfg)
        assert rpt.failure is None and rpt.f_positive["ok"]
        assert calls["F_values"] == grids

    def test_shared_samples_are_read_only(self):
        nonlinearity._samples.cache_clear()
        s = nonlinearity._samples(Power(3.0, 1.0), 2.0, 101)
        for a in (s.u, s.defined, s.fu, s.Fu):
            assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s.fu[0] = -1.0

    @pytest.mark.parametrize("nl, u_max", [
        (Power(3.0, 1.0), 10.0), (Expression("u^3 - u/(1+u)"), 2.0),
        (Expression("u*(2-u)^0.5"), 3.0)])   # non-finite past u = 2
    def test_reports_equal_with_the_samples_cold_and_warm(self, nl, u_max):
        checks = [
            lambda: check_blowup_hypothesis(nl, 4.0, 0.1, 0.01, u_max, 501),
            lambda: check_global_hypothesis(nl, -2.0, 2.0, 1.0, u_max, 501),
            lambda: check_f_positive(nl, u_max, 501)]
        for check in checks:
            nonlinearity._samples.cache_clear()
            cold = check()
            for other in checks:   # warm: every check has used the grid
                other()
            assert repr(check()) == repr(cold)

    def test_builds_one_weight_per_sweep(self, monkeypatch):
        # The six trackers share a slot, and only the first measures a
        # state itself, so only it builds the y-edge weight.
        calls = count_calls(monkeypatch, diagnostics, "_degenerate_weight")
        rows = run_sweep(parse_config_dict(sweep_dict(2)), "theta", THETA_ROWS)
        assert not any(r["verdict"].startswith("Failed") for r in rows)
        assert calls == {"_degenerate_weight": 1}

    def test_rows_survive_a_two_argument_record_wrapper(self, monkeypatch):
        # A profiler may wrap the tracker's call as record(tracker, state).
        cfg = parse_config_dict(sweep_dict(2))
        values = SWEEP_VALUES["theta"]
        plain = run_sweep(cfg, "theta", values)
        records = run_experiment(cfg).sim["records"]
        call, counted = diagnostics.EnergyTracker.__call__, collections.Counter()

        def record(tracker, state):
            before = len(tracker.records)
            call(tracker, state)
            counted["records"] += len(tracker.records) - before
        monkeypatch.setattr(diagnostics.EnergyTracker, "__call__", record)
        assert repr(run_sweep(cfg, "theta", values)) == repr(plain)
        assert counted["records"] == len(values) * records

    def test_expression_source_march_completes(self, tmp_path):
        # F(u) comes from the batched Simpson quadrature here, not the
        # closed form of Power.
        cfg = parse_config_dict(sweep_dict(1, nonlinearity={"expr": "u^3"}))
        rows = sweep_like_reference(tmp_path, cfg, "theta",
                                    SWEEP_VALUES["theta"])
        assert not any(r["verdict"].startswith("Failed") for r in rows)
        assert run_experiment(cfg).sim["records"] > 10
