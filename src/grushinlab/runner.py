"""Experiment pipeline: config -> operator -> eigenvalue -> hypotheses ->
simulation -> certified margins -> verdict.

The verdict vocabulary is deliberately small.  ConsistentWithTheorem means the
checked premises held and the observed outcome matches the prediction (blow-up
no later than 1.1x the bound, or decay under the exponential envelope).
HypothesesNotMet means some premise failed, so the run predicts nothing.
InconsistencyFlag is the loud one: premises held and the outcome still
contradicted the prediction.  Inconclusive covers everything else (e.g. the
run ended before the predicted window, or the march failed).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np
from jsonschema import Draft202012Validator

from .diagnostics import (_FIELDS, EnergyTracker, certified_records,
                          concavity_margin, decay_margin, emit_svg_plot,
                          monotonicity_margin, write_csv)
from .geometry import BoxDomain, GrushinSpace, build_grid
from .integrator import InitialCondition, SimConfig, build_initial_condition, run
from .linalg import smallest_eigenpair
from .nonlinearity import (Nonlinearity, Power, check_blowup_hypothesis,
                           check_f_positive, check_global_hypothesis,
                           decay_ranges, parse_expression)
from .operators import assemble_grushin

BLOWUP_TIME_SLACK = 1.1      # declared factor on the blow-up time bound
DECAY_MARGIN_TOL = 1e-3      # decay envelope certification tolerance
CERT_RTOL = 1e-6             # relative margin tolerance vs. local scale

MODES = ("blowup", "global", "free")
SWEEP_AXES = ("gamma", "alpha", "beta", "theta", "amplitude")


class ConfigError(ValueError):
    """Config rejected; ``problems`` lists '<json-pointer>: message' strings."""

    def __init__(self, problems) -> None:
        problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class OutputSpec:
    csv: str = "records.csv"
    report: str = "report.json"
    svg: str = "plot.svg"
    svg_fields: tuple[str, ...] = ("calE", "supnorm")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    space: GrushinSpace
    domain: BoxDomain
    cells: tuple[int, ...]
    nonlinearity: Nonlinearity
    alpha: float
    beta: float
    theta: float
    initial: InitialCondition
    sim: SimConfig
    mode: str = "free"
    eigen_tol: float = 1e-8
    eigen_max_iter: int = 10_000
    eigen_cg_tol: float = 1e-10
    hypothesis_samples: int = 10_001
    umax_factor: float = 10.0
    output: OutputSpec = OutputSpec()
    notes: str | None = None


_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["space", "bounds", "cells"],
    "properties": {
        "space": {
            "type": "object",
            "additionalProperties": False,
            "required": ["m", "k", "gamma"],
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "k": {"type": "integer", "minimum": 1},
                "gamma": {"type": "number", "minimum": 0},
            },
        },
        "bounds": {
            "type": "array", "minItems": 2,
            "items": {"type": "array", "items": _NUM,
                      "minItems": 2, "maxItems": 2},
        },
        "cells": {
            "type": "array", "minItems": 2,
            "items": {"type": "integer", "minimum": 2},
        },
        "nonlinearity": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1, "maxProperties": 1,
            "properties": {
                "power": {
                    "type": "object", "additionalProperties": False,
                    "required": ["p", "c"],
                    "properties": {"p": {"type": "number", "exclusiveMinimum": 1},
                                   "c": _POS},
                },
                "expr": {"type": "string", "minLength": 1},
            },
        },
        "alpha": _NUM,
        "beta": _NUM,
        "theta": _NUM,
        "initial": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["product_sine", "phi1", "file"]},
                "amplitude": _POS,
                "path": {"type": "string"},
            },
        },
        "sim": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_end": _POS, "dt_init": _POS, "dt_min": _POS, "dt_max": _POS,
                "blowup_threshold": _POS, "step_change_high": _POS,
                "step_change_low": {"type": "number", "minimum": 0},
                "cg_tol": _POS,
                "record_every": {"type": "integer", "minimum": 1},
            },
        },
        "eigen": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"tol": _POS,
                           "max_iter": {"type": "integer", "minimum": 1},
                           "cg_tol": _POS},
        },
        "hypothesis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"samples": {"type": "integer", "minimum": 2},
                           "umax_factor": _POS},
        },
        "mode": {"enum": list(MODES)},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "csv": {"type": "string"},
                "report": {"type": "string"},
                "svg": {"type": "string"},
                "svg_fields": {"type": "array", "minItems": 1,
                               "items": {"type": "string"}},
            },
        },
        "notes": {"type": "string"},
    },
}

_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)


# Optional config keys and the ExperimentConfig fields they set when given.
_TUNING_KEYS = (("eigen", "tol", "eigen_tol", float),
                ("eigen", "max_iter", "eigen_max_iter", int),
                ("eigen", "cg_tol", "eigen_cg_tol", float),
                ("hypothesis", "samples", "hypothesis_samples", int),
                ("hypothesis", "umax_factor", "umax_factor", float))


def _pointer(err) -> str:
    return "/" + "/".join(str(p) for p in err.absolute_path)


def parse_config_dict(data: dict, base_dir: str = ".") -> ExperimentConfig:
    """Validate a config mapping and build the typed experiment description.

    Unknown keys anywhere are rejected; messages carry JSON pointer paths.
    Relative initial-condition file paths resolve against ``base_dir``.
    """
    problems = [f"{_pointer(e)}: {e.message}"
                for e in sorted(_VALIDATOR.iter_errors(data),
                                key=lambda e: list(map(str, e.absolute_path)))]
    if problems:
        raise ConfigError(problems)

    def build():
        space = GrushinSpace(m=data["space"]["m"], k=data["space"]["k"],
                             gamma=float(data["space"]["gamma"]))
        domain = BoxDomain(data["bounds"])
        if domain.n != space.n:
            raise ConfigError([f"/bounds: expected {space.n} axis bounds "
                               f"(m + k), got {domain.n}"])
        cells = tuple(data["cells"])
        if len(cells) != space.n:
            raise ConfigError([f"/cells: expected {space.n} entries (m + k), "
                               f"got {len(cells)}"])
        nl_spec = data.get("nonlinearity", {"power": {"p": 3.0, "c": 1.0}})
        if "power" in nl_spec:
            nl: Nonlinearity = Power(p=float(nl_spec["power"]["p"]),
                                     c=float(nl_spec["power"]["c"]))
        else:
            nl = parse_expression(nl_spec["expr"])
        ic_spec = dict(data.get("initial", {"kind": "product_sine"}))
        path = ic_spec.get("path")
        if path is not None and not os.path.isabs(path):
            ic_spec["path"] = os.path.join(base_dir, path)
        initial = InitialCondition(kind=ic_spec["kind"],
                                   amplitude=float(ic_spec.get("amplitude", 1.0)),
                                   path=ic_spec.get("path"))
        sim = SimConfig(**data.get("sim", {}))
        tuning = {field: cast(data[group][key])
                  for group, key, field, cast in _TUNING_KEYS
                  if key in data.get(group, {})}
        if "mode" in data:
            tuning["mode"] = data["mode"]
        out = data.get("output", {})
        if "svg_fields" in out:
            bad = [f for f in out["svg_fields"] if f not in _FIELDS or f == "t"]
            if bad:
                raise ConfigError(
                    [f"/output/svg_fields: unknown record fields {bad}"])
            out = dict(out, svg_fields=tuple(out["svg_fields"]))
        return ExperimentConfig(
            space=space, domain=domain, cells=cells, nonlinearity=nl,
            alpha=float(data.get("alpha", 4.0)),
            beta=float(data.get("beta", 0.1)),
            theta=float(data.get("theta", 0.01)),
            initial=initial, sim=sim, output=OutputSpec(**out),
            notes=data.get("notes"), **tuning)

    try:
        return build()
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError([f"/: {exc}"]) from exc


def parse_config(path: str) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"/: cannot read {path!r}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"/: not valid JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["/: config must be a JSON object"])
    return parse_config_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


def compute_blowup_constants(alpha: float, F0: float, I0: float):
    """(sigma, M, Tstar_bound) from the initial data functionals.

    sigma = sqrt(alpha/2) - 1, M = (1+sigma)(1+1/sigma) I0^2 / (2 alpha F0),
    Tstar_bound = M / (sigma I0).  Each precondition fails with its own
    message: alpha > 2, F0 > 0, I0 > 0.
    """
    if not alpha > 2.0:
        raise ValueError(f"blow-up constants need alpha > 2, got alpha = {alpha}")
    if not F0 > 0.0:
        raise ValueError(f"blow-up constants need F0 > 0, got F0 = {F0}")
    if not I0 > 0.0:
        raise ValueError(f"blow-up constants need I0 > 0, got I0 = {I0}")
    sigma = math.sqrt(alpha / 2.0) - 1.0
    M = (1.0 + sigma) * (1.0 + 1.0 / sigma) * I0 * I0 / (2.0 * alpha * F0)
    tstar = M / (sigma * I0)
    return sigma, M, tstar


def decide_verdict(mode: str, hypotheses_met: bool, sim_status: str,
                   t_blow: float | None, t_final: float,
                   tstar_bound: float | None,
                   decay_margin_value: float | None) -> str | None:
    """Pure verdict logic, synthetic-report testable.

    Free mode carries no verdict.  InconsistencyFlag fires only when every
    checked premise held and the observed outcome still contradicts the
    prediction; a run that merely stopped short of the predicted window is
    Inconclusive.
    """
    if mode == "free":
        return None
    if not hypotheses_met:
        return "HypothesesNotMet"
    if sim_status == "failed":
        return "Inconclusive"
    if mode == "blowup":
        if tstar_bound is None:
            return "Inconclusive"
        horizon = BLOWUP_TIME_SLACK * tstar_bound
        if sim_status == "blowup":
            return ("ConsistentWithTheorem" if t_blow <= horizon
                    else "InconsistencyFlag")
        return "InconsistencyFlag" if t_final >= horizon else "Inconclusive"
    # mode == "global"
    if sim_status == "blowup":
        return "InconsistencyFlag"
    if decay_margin_value is None:
        return "Inconclusive"
    return ("ConsistentWithTheorem"
            if decay_margin_value <= 1.0 + DECAY_MARGIN_TOL
            else "InconsistencyFlag")


@dataclass(eq=False)
class TheoremReport:
    """Everything the pipeline measured, plus the verdict.

    Numeric fields that do not apply to the run's mode are None (serialized
    as JSON null), never NaN.
    """

    mode: str
    parameters: dict
    lambda1: float | None = None
    eigen: dict | None = None
    I0: float | None = None
    F0: float | None = None
    sigma: float | None = None
    M: float | None = None
    Tstar_bound: float | None = None
    decay_rate: float | None = None
    hypothesis_initial: dict | None = None
    hypothesis_trajectory: dict | None = None
    constraints: list = dataclasses.field(default_factory=list)
    hypotheses_met: bool | None = None
    f_positive: dict | None = None
    joint_satisfiable: bool | None = None
    sim: dict | None = None
    margins: dict | None = None
    consistency: dict | None = None
    verdict: str | None = None
    warnings: list = dataclasses.field(default_factory=list)
    failure: dict | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"


def _parameters_block(cfg: ExperimentConfig) -> dict:
    if isinstance(cfg.nonlinearity, Power):
        nl = {"power": {"p": cfg.nonlinearity.p, "c": cfg.nonlinearity.c}}
    else:
        nl = {"expr": cfg.nonlinearity.text}
    return {
        "m": cfg.space.m, "k": cfg.space.k, "gamma": cfg.space.gamma,
        "bounds": [list(b) for b in cfg.domain.bounds],
        "cells": list(cfg.cells),
        "nonlinearity": nl,
        "alpha": cfg.alpha, "beta": cfg.beta, "theta": cfg.theta,
        "initial": {"kind": cfg.initial.kind,
                    "amplitude": cfg.initial.amplitude},
        "t_end": cfg.sim.t_end,
        "mode": cfg.mode,
    }


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   dump_matrix: bool = False) -> TheoremReport:
    """Execute the full pipeline; any stage failure is folded into the report.

    When ``out_dir`` is given, the records CSV, the SVG plot and the report
    JSON are written there (plus the operator triplet dump on request).
    """
    rpt = TheoremReport(mode=cfg.mode, parameters=_parameters_block(cfg))
    records = []
    stage = "setup"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            stage = "grid"
            grid = build_grid(cfg.domain, cfg.cells)
            stage = "assemble"
            A = assemble_grushin(grid, cfg.space)
            stage = "eigenvalue"
            eig = _eigenpair(cfg, A)
            rpt.lambda1 = eig.lambda1
            rpt.eigen = {"method": eig.method, "residual": eig.residual,
                         "iterations": eig.iterations}
            stage = "initial-condition"
            u0 = build_initial_condition(grid, cfg.space, cfg.initial,
                                         phi1=eig.phi1)
            sup0 = float(np.abs(u0).max())
            stage = "functionals"
            tracker = EnergyTracker(grid, cfg.space, cfg.nonlinearity,
                                    theta=cfg.theta)
            l2, grad, rpt.F0 = tracker.measure(u0)
            rpt.I0 = l2 + grad
            if cfg.mode == "global":
                rpt.decay_rate = 2.0 - cfg.alpha

            stage = "hypothesis"
            u_max_pre = cfg.umax_factor * sup0
            f_ok, f_bad = check_f_positive(cfg.nonlinearity, u_max_pre,
                                           cfg.hypothesis_samples)
            rpt.f_positive = {"ok": f_ok, "first_nonpositive_u": f_bad,
                              "u_max": u_max_pre}
            if not f_ok:
                warnings.warn(
                    f"source term is not positive on (0, {u_max_pre:g}]: "
                    f"f(u) is non-positive or non-finite at u = {f_bad:g}; "
                    "both theorems assume positivity, so conclusions may not "
                    "transfer")
            hyp0 = _check_hypothesis(cfg, u_max_pre)
            rpt.hypothesis_initial = hyp0 and dataclasses.asdict(hyp0)

            stage = "constraints"
            constraints, constraints_ok = _check_constraints(cfg, eig.lambda1)
            rpt.constraints = constraints

            stage = "constants"
            premises = (cfg.mode != "free" and hyp0.holds and constraints_ok
                        and rpt.F0 > 0.0)
            if cfg.mode == "blowup" and premises:
                rpt.sigma, rpt.M, rpt.Tstar_bound = compute_blowup_constants(
                    cfg.alpha, rpt.F0, rpt.I0)
            if cfg.mode == "global":
                rpt.joint_satisfiable = bool(hyp0.holds and rpt.F0 > 0.0)

            stage = "simulate"
            tracker.M = rpt.M or 0.0
            # The tracker fills this list in place, so a march that raises
            # still leaves its records for the CSV, the plot and the report.
            records = tracker.records
            final, _ = run(grid, cfg.space, A, cfg.nonlinearity, u0, cfg.sim,
                           observer=tracker)
            rpt.sim = {
                "status": final.status,
                "t_final": final.t,
                "t_blow": final.t_blow,
                "steps": final.steps,
                "reason": final.reason,
                "final_supnorm": float(np.abs(final.u).max()),
                "records": len(records),
            }

            stage = "recheck-hypothesis"
            hyp1 = _check_hypothesis(
                cfg, max([sup0] + [r.supnorm for r in records]))
            rpt.hypothesis_trajectory = hyp1 and dataclasses.asdict(hyp1)
            hypotheses_met = bool(premises and (hyp1 is None or hyp1.holds))
            rpt.hypotheses_met = None if cfg.mode == "free" else hypotheses_met

            stage = "certify"
            rpt.margins = _certify(records, final.status, rpt.sigma,
                                   rpt.decay_rate)

            stage = "verdict"
            rpt.verdict = decide_verdict(
                cfg.mode, hypotheses_met, final.status, final.t_blow,
                final.t, rpt.Tstar_bound, rpt.margins["decay"])
            rpt.consistency = {
                "blowup_time_slack": BLOWUP_TIME_SLACK,
                "decay_margin_tol": DECAY_MARGIN_TOL,
                "certification_rtol": CERT_RTOL,
            }
        except Exception as exc:  # pipeline stages fail loudly but locally
            error = f"{type(exc).__name__}: {exc}"
            rpt.failure = {"stage": stage, "error": error}
            rpt.verdict = None
            if stage == "simulate" and records:
                rpt.sim = {"status": "failed", "t_final": records[-1].t,
                           "t_blow": None, "steps": None, "reason": error,
                           "final_supnorm": records[-1].supnorm,
                           "records": len(records)}
    rpt.warnings = [str(w.message) for w in caught]

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        if records:
            write_csv(records, os.path.join(out_dir, cfg.output.csv))
            emit_svg_plot(records, cfg.output.svg_fields,
                          os.path.join(out_dir, cfg.output.svg))
        if dump_matrix and rpt.failure is None:
            _dump_matrix(A, os.path.join(out_dir, "matrix.txt"))
        with open(os.path.join(out_dir, cfg.output.report), "w",
                  newline="") as fh:
            fh.write(rpt.to_json())
    return rpt


def _eigenpair(cfg: ExperimentConfig, A):
    """First eigenpair of the assembled operator under the config's ``eigen``
    settings."""
    return smallest_eigenpair(A, tol=cfg.eigen_tol,
                              max_iter=cfg.eigen_max_iter,
                              cg_tol=cfg.eigen_cg_tol)


def _check_hypothesis(cfg: ExperimentConfig, u_max: float):
    if cfg.mode == "blowup":
        return check_blowup_hypothesis(cfg.nonlinearity, cfg.alpha, cfg.beta,
                                       cfg.theta, u_max,
                                       cfg.hypothesis_samples)
    if cfg.mode == "global":
        return check_global_hypothesis(cfg.nonlinearity, cfg.alpha, cfg.beta,
                                       cfg.theta, u_max,
                                       cfg.hypothesis_samples)
    return None


def _check_constraints(cfg: ExperimentConfig, lambda1: float):
    """Parameter-range checks for the active mode; details always print both
    sides of the inequality."""
    ranges = ()
    if cfg.mode == "blowup":
        cap = lambda1 * (cfg.alpha - 2.0) / 2.0
        ranges = (
            ("alpha > 2", cfg.alpha > 2.0, f"alpha = {cfg.alpha}"),
            ("0 < beta <= lambda1*(alpha-2)/2", 0.0 < cfg.beta <= cap,
             f"beta = {cfg.beta}, lambda1*(alpha-2)/2 = {cap} "
             f"(lambda1 = {lambda1})"),
            ("theta > 0", cfg.theta > 0.0, f"theta = {cfg.theta}"))
    elif cfg.mode == "global":
        ranges = decay_ranges(cfg.alpha, cfg.beta, cfg.theta)
    cons = [{"name": name, "ok": bool(ok), "detail": detail}
            for name, ok, detail in ranges]
    return cons, all(c["ok"] for c in cons)


def _certify(records, status: str, sigma: float | None,
             decay_rate: float | None) -> dict:
    cert = certified_records(records, status)
    out = {
        "certified_count": len(cert),
        "excluded_count": len(records) - len(cert),
        "monotonicity": None, "monotonicity_scale": None,
        "monotonicity_ok": None,
        "concavity": None, "concavity_scale": None, "concavity_ok": None,
        "decay": None, "decay_rate": None, "decay_ok": None,
    }
    if len(cert) >= 2:
        mono = monotonicity_margin(cert)
        scale = max(1.0, max(abs(r.calF) for r in cert))
        out.update(monotonicity=mono, monotonicity_scale=scale,
                   monotonicity_ok=bool(mono >= -CERT_RTOL * scale))
    if sigma is not None and len(cert) >= 3:
        conc = concavity_margin(cert, sigma)
        calE = np.array([r.calE for r in cert])
        scale = max(1.0, float(((1.0 + sigma) * calE ** 2).max()))
        out.update(concavity=conc, concavity_scale=scale,
                   concavity_ok=bool(conc >= -CERT_RTOL * scale))
    if decay_rate is not None and len(cert) >= 1 and cert[0].calE > 0.0:
        dm = decay_margin(cert, decay_rate)
        out.update(decay=dm, decay_rate=decay_rate,
                   decay_ok=bool(dm <= 1.0 + DECAY_MARGIN_TOL))
    return out


def _dump_matrix(A, path) -> None:
    """Zero-based 'i j value' triplets, one stored entry per line."""
    lines = []
    for i in range(A.n):
        for pos in range(A.indptr[i], A.indptr[i + 1]):
            lines.append(f"{i} {A.indices[pos]} {format(A.values[pos], '.17g')}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _with_axis(cfg: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "gamma":
        return replace(cfg, space=GrushinSpace(cfg.space.m, cfg.space.k,
                                               float(value)))
    if axis in ("alpha", "beta", "theta"):
        return replace(cfg, **{axis: float(value)})
    return replace(cfg, initial=replace(cfg.initial, amplitude=float(value)))


def run_sweep(cfg: ExperimentConfig, axis: str, values, out_dir: str | None = None,
              csv_name: str = "sweep.csv") -> list[dict]:
    """Run one experiment per value of the swept parameter.

    Rows keep the input order.  A run that fails still yields its row, with
    the failure stage in the verdict column.  Only the summary CSV is
    written; per-run artifacts are suppressed.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")
    rows = []
    for value in values:
        row = {"value": float(value), "lambda1": None, "F0": None,
               "verdict": None, "outcome": None}
        try:
            rpt = run_experiment(_with_axis(cfg, axis, value), out_dir=None)
            row["lambda1"] = rpt.lambda1
            row["F0"] = rpt.F0
            if rpt.failure is not None:
                row["verdict"] = f"Failed[{rpt.failure['stage']}]"
            else:
                row["verdict"] = rpt.verdict
                if rpt.sim["status"] == "blowup":
                    row["outcome"] = rpt.sim["t_blow"]
                else:
                    row["outcome"] = rpt.margins["decay"]
        except Exception as exc:
            row["verdict"] = f"Failed[{type(exc).__name__}]"
        rows.append(row)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        lines = ["value,lambda1,F0,verdict,outcome"]
        for row in rows:
            lines.append(",".join(
                "" if row[c] is None
                else (format(row[c], ".17g") if isinstance(row[c], float)
                      else str(row[c]))
                for c in ("value", "lambda1", "F0", "verdict", "outcome")))
        with open(os.path.join(out_dir, csv_name), "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    return rows
