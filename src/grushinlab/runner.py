"""Experiment pipeline: config -> operator -> eigenvalue -> hypotheses ->
simulation -> certified margins -> verdict.

The verdict vocabulary is deliberately small.  ConsistentWithTheorem means the
checked premises held and the observed outcome matches the prediction (blow-up
no later than 1.1x the bound, or decay under the exponential envelope).
HypothesesNotMet means some premise failed, so the run predicts nothing.
InconsistencyFlag is the loud one: premises held and the outcome still
contradicted the prediction.  Inconclusive covers everything else (e.g. the
run ended before the predicted window, or the march failed).  What each
theorem assumes and predicts, the margins it certifies, the tolerances and
how it judges a march are stated in one place, ``theorems.py``: the
``certify`` and ``verdict`` stages are one call there each.

The pipeline is a table of named stages (``_STAGES``), and a stage that
raises is named in the report's ``failure``.  A sweep runs the stages its
axis leaves unchanged once for all its rows (``_SHARED``).

A config is checked in two passes.  ``_SHAPE`` gives each key its JSON type,
and unknown keys, wrong types and non-finite numbers are rejected first.  Then
each object built from the config (GrushinSpace, BoxDomain, the grid, Power or
Expression, InitialCondition, SimConfig, ExperimentConfig) checks its own
ranges, and a failure names that object's JSON pointer.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from .diagnostics import (_FIELDS, EnergyTracker, emit_svg_plot, write_csv,
                          write_lines, write_table)
from .geometry import BoxDomain, GrushinSpace, build_grid
from .integrator import InitialCondition, SimConfig, build_initial_condition, run
from .linalg import smallest_eigenpair
from .nonlinearity import (Nonlinearity, Power, _samples, check_f_positive,
                           parse_expression)
from .operators import assemble_grushin
from .theorems import (THEOREMS, certify, check_blowup_hypothesis,
                       check_global_hypothesis, judge)

MODES = (*THEOREMS, "free")
# The pipeline stages a sweep runs once for all its rows, by swept axis.  Only
# gamma changes the operator; alpha, beta and theta do not enter the flow
# u_t - L u_t = L u + f(u): their rows share u0 and a march.
_OPERATOR = ("grid", "assemble", "eigenvalue")
_SHARED = {"gamma": (),
           **dict.fromkeys(("alpha", "beta", "theta"), _OPERATOR + (
               "initial-condition", "simulate")),
           "amplitude": _OPERATOR}
SWEEP_AXES = tuple(_SHARED)
# run_sweep's row keys, in the column order of sweep.csv.
_SWEEP_COLUMNS = ("value", "lambda1", "F0", "verdict", "outcome")
# The file ``run_experiment`` dumps the operator to, on request.
_MATRIX_FILE = "matrix.txt"


class ConfigError(ValueError):
    """Config rejected; ``problems`` lists '<json-pointer>: message' strings."""

    def __init__(self, problems) -> None:
        problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(problems))
        self.problems = problems


# Optional config keys, the ExperimentConfig fields they set when given, the
# JSON type of each and the bound each value must exceed.
_TUNING_KEYS = (("eigen", "tol", "eigen_tol", float, 0.0),
                ("eigen", "max_iter", "eigen_max_iter", int, 0),
                ("eigen", "cg_tol", "eigen_cg_tol", float, 0.0),
                ("hypothesis", "samples", "hypothesis_samples", int, 1),
                ("hypothesis", "umax_factor", "umax_factor", float, 0.0))


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

    def __post_init__(self) -> None:
        """Check the ranges no component object owns; each problem names the
        config key that sets the value."""
        problems = [f"/{group}: {key} must be > {floor}, "
                    f"got {getattr(self, field)}"
                    for group, key, field, _, floor in _TUNING_KEYS
                    if not getattr(self, field) > floor]
        if self.mode not in MODES:
            problems.append(f"/mode: must be one of {list(MODES)}, "
                            f"got {self.mode!r}")
        bad = [f for f in self.output.svg_fields
               if f not in _FIELDS or f == "t"]
        if bad or not self.output.svg_fields:
            problems.append(f"/output/svg_fields: need one or more record "
                            f"fields, got unknown {bad}")
        # Each artifact is a file of its own in the output directory.
        taken = {_MATRIX_FILE: "the --dump-matrix file"}
        for key in ("csv", "report", "svg"):
            name = getattr(self.output, key)
            if name in ("", ".", "..") or os.path.dirname(name):
                problems.append(f"/output/{key}: need a file name with no "
                                f"directory part, got {name!r}")
            elif name in taken:
                problems.append(f"/output/{key}: {name!r} is also "
                                f"{taken[name]}")
            else:
                taken[name] = f"/output/{key}"
        if problems:
            raise ConfigError(problems)


# Every config key and its JSON type: a dict is an object, [t] an array of t,
# float any number, int a number with no fractional part.  Ranges are checked
# by the objects built from the config, not here.
_SHAPE = {
    "space": {"m": int, "k": int, "gamma": float},
    "bounds": [[float]],
    "cells": [int],
    "nonlinearity": {"power": {"p": float, "c": float}, "expr": str},
    "alpha": float, "beta": float, "theta": float,
    "initial": {"kind": str, "amplitude": float, "path": str},
    "sim": {f.name: type(f.default) for f in dataclasses.fields(SimConfig)},
    **{group: {key: cast for g, key, _, cast, _ in _TUNING_KEYS if g == group}
       for group in ("eigen", "hypothesis")},
    "mode": str,
    "output": {"csv": str, "report": str, "svg": str, "svg_fields": [str]},
    "notes": str,
}

_KINDS = {dict: "an object", list: "an array", str: "a string",
          float: "a number", int: "an integer"}


def _shape_problems(value, shape, pointer: str = ""):
    """Yield '<pointer>: message' for each place ``value`` departs from
    ``shape``: an unknown key, a wrong JSON type (a boolean is not a number),
    a non-finite number or an integer with a fractional part."""
    kind = type(shape) if isinstance(shape, (dict, list)) else shape
    where = pointer or "/"
    if kind in (float, int):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        yield f"{where}: expected {_KINDS[kind]}, got {value!r}"
    elif kind is dict:
        for key, item in value.items():
            if key in shape:
                yield from _shape_problems(item, shape[key], f"{pointer}/{key}")
            else:
                yield f"{where}: unknown key {key!r}"
    elif kind is list:
        for i, item in enumerate(value):
            yield from _shape_problems(item, shape[0], f"{pointer}/{i}")
    elif kind is not str and not abs(value) <= sys.float_info.max:
        yield f"{where}: expected a finite number, got {value!r}"
    elif kind is int and value != int(value):
        yield f"{where}: expected an integer, got {value!r}"


def _with_types(value, shape):
    """``value``, checked against ``shape``, with each number made the type
    ``shape`` gives it, int or float, so that ``8.0`` and ``8`` give the
    same run and the same report."""
    if isinstance(shape, dict):
        return {key: _with_types(item, shape[key])
                for key, item in value.items()}
    if isinstance(shape, list):
        return [_with_types(item, shape[0]) for item in value]
    return shape(value) if shape in (int, float) else value


@contextmanager
def _at(pointer: str):
    """Report a failure to build the config object at ``pointer`` (a missing
    key or a ValueError from its constructor) as a ConfigError there."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError([f"{pointer}: missing key {exc.args[0]!r}"]) from None
    except ValueError as exc:
        raise ConfigError([f"{pointer}: {exc}"]) from exc


def parse_config_dict(data: dict, base_dir: str = ".") -> ExperimentConfig:
    """Validate a config mapping and build the typed experiment description.

    Unknown keys, wrong JSON types and non-finite numbers anywhere are
    rejected first, and each number takes its key's type, int or float; then
    each object built from the config checks its own ranges.  Messages
    carry JSON pointer paths.  Relative initial-condition file paths resolve
    against ``base_dir``.
    """
    problems = list(_shape_problems(data, _SHAPE))
    if problems:
        raise ConfigError(problems)
    data = _with_types(data, _SHAPE)

    with _at("/"):
        space_spec, bounds = data["space"], data["bounds"]
        cells = tuple(data["cells"])
    with _at("/space"):
        space = GrushinSpace(m=space_spec["m"], k=space_spec["k"],
                             gamma=space_spec["gamma"])
    with _at("/bounds"):
        domain = BoxDomain(bounds)
        if domain.n != space.n:
            raise ValueError(f"expected {space.n} axis bounds (m + k), "
                             f"got {domain.n}")
    with _at("/cells"):
        build_grid(domain, cells)
    nl_spec = data.get("nonlinearity", {"power": {"p": 3.0, "c": 1.0}})
    if len(nl_spec) != 1:
        raise ConfigError(["/nonlinearity: give exactly one of 'power' "
                           "and 'expr'"])
    if "power" in nl_spec:
        with _at("/nonlinearity/power"):
            nl: Nonlinearity = Power(p=nl_spec["power"]["p"],
                                     c=nl_spec["power"]["c"])
    else:
        with _at("/nonlinearity/expr"):
            nl = parse_expression(nl_spec["expr"])
    ic_spec = data.get("initial", {"kind": "product_sine"})
    path = ic_spec.get("path")
    if path is not None and not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    with _at("/initial"):
        initial = InitialCondition(kind=ic_spec["kind"],
                                   amplitude=ic_spec.get("amplitude", 1.0),
                                   path=path)
    with _at("/sim"):
        sim = SimConfig(**data.get("sim", {}))
    tuning = {field: data[group][key]
              for group, key, field, _, _ in _TUNING_KEYS
              if key in data.get(group, {})}
    if "mode" in data:
        tuning["mode"] = data["mode"]
    out = dict(data.get("output", {}))
    if "svg_fields" in out:
        out["svg_fields"] = tuple(out["svg_fields"])
    return ExperimentConfig(
        space=space, domain=domain, cells=cells, nonlinearity=nl,
        alpha=data.get("alpha", 4.0), beta=data.get("beta", 0.1),
        theta=data.get("theta", 0.01),
        initial=initial, sim=sim, output=OutputSpec(**out),
        notes=data.get("notes"), **tuning)


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
    (row,) = _run_rows([cfg])
    rpt = row.rpt
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        # A march that raised still leaves its records for the CSV and plot.
        records = row.tracker.records if row.tracker else []
        if records:
            write_csv(records, os.path.join(out_dir, cfg.output.csv))
            emit_svg_plot(records, cfg.output.svg_fields,
                          os.path.join(out_dir, cfg.output.svg))
        if dump_matrix and rpt.failure is None:
            _dump_matrix(row.A, os.path.join(out_dir, _MATRIX_FILE))
        text = rpt.to_json()   # first, so a failure leaves no empty file
        with open(os.path.join(out_dir, cfg.output.report), "w",
                  newline="") as fh:
            fh.write(text)
    return rpt


# The stages.  grid, assemble, eigenvalue, initial-condition and simulate
# may serve several rows of a sweep at once: each takes every row it serves,
# in order, and computes from the first one's config.  The others take one
# row and work out its report.

def _grid(*rows) -> None:
    cfg = rows[0].cfg
    _share(rows, grid=build_grid(cfg.domain, cfg.cells))


def _assemble(*rows) -> None:
    _share(rows, A=assemble_grushin(rows[0].grid, rows[0].cfg.space))


def _eigenvalue(*rows) -> None:
    eig = _eigenpair(rows[0].cfg, rows[0].A)
    _share(rows, eig=eig)
    for row in rows:
        row.rpt.lambda1 = eig.lambda1
        row.rpt.eigen = _eigen_block(eig)


def _initial_condition(*rows) -> None:
    lead = rows[0]
    _share(rows, u0=build_initial_condition(lead.grid, lead.cfg.initial,
                                            phi1=lead.eig.phi1), slot=[])


def _functionals(row) -> None:
    """The row's tracker and its finite F0 and I0.  The rows that share u0
    share its slot, so u0 is measured once, for them and for the march."""
    cfg, rpt = row.cfg, row.rpt
    row.tracker = EnergyTracker(row.grid, cfg.space, cfg.nonlinearity,
                                theta=cfg.theta, slot=row.slot)
    l2, grad, F0 = row.tracker.measure(row.u0)
    I0 = l2 + grad
    if not (math.isfinite(F0) and math.isfinite(I0)):
        raise ValueError(f"F0 = {F0} and I0 = {I0} must be finite")
    rpt.F0, rpt.I0 = F0, I0
    theorem = THEOREMS.get(cfg.mode)
    rpt.decay_rate = theorem and theorem.decay_rate(cfg.alpha)


def _hypothesis(row) -> None:
    cfg, rpt = row.cfg, row.rpt
    u_max_pre, f_ok, f_bad = _f_positive(cfg, row.u0)
    rpt.f_positive = {"ok": f_ok, "first_nonpositive_u": f_bad,
                      "u_max": u_max_pre}
    if not f_ok:
        warnings.warn(
            f"source term is not positive on (0, {u_max_pre:g}]: "
            f"f(u) is non-positive or non-finite at u = {f_bad:g}; "
            "both theorems assume positivity, so conclusions may not "
            "transfer")
    row.hyp0 = _check_hypothesis(cfg, u_max_pre)
    rpt.hypothesis_initial = row.hyp0 and dataclasses.asdict(row.hyp0)


def _constraints(row) -> None:
    cfg, theorem = row.cfg, THEOREMS.get(row.cfg.mode)
    ranges = theorem.ranges(cfg.alpha, cfg.beta, cfg.theta,
                            row.eig.lambda1) if theorem else ()
    row.rpt.constraints = [{"name": name, "ok": bool(ok), "detail": detail}
                           for name, ok, detail in ranges]
    row.constraints_ok = all(c["ok"] for c in row.rpt.constraints)


def _constants(row) -> None:
    cfg, rpt, theorem = row.cfg, row.rpt, THEOREMS.get(row.cfg.mode)
    held = bool(theorem and row.hyp0.holds)   # the sign condition at u0
    row.premises = held and row.constraints_ok and theorem.premise(rpt.F0)
    rpt.joint_satisfiable = theorem and theorem.joint_satisfiable(held, rpt.F0)
    if row.premises:
        rpt.sigma, rpt.M, rpt.Tstar_bound = theorem.constants(
            cfg.alpha, rpt.F0, rpt.I0)


def _simulate(*rows) -> None:
    """One march; each observed state goes to every row's own tracker, in
    row order.  The trackers share one slot, so a state's theta-free part
    (l2, grad, F(u), supnorm, min_u) is measured once and each row adds only
    its own theta and M; the slot is emptied when the observation ends, so
    no state outlives it.  The trackers fill their lists in place, so a
    march that raises still leaves each row its records."""
    _samples.cache_clear()   # no check after the march reads this grid
    lead = rows[0]
    for row in rows:
        row.tracker.M = row.rpt.M or 0.0

    def observe(state):
        try:
            for row in rows:
                row.tracker(state)
        finally:
            lead.slot.clear()

    final, _ = run(lead.A, lead.cfg.nonlinearity, lead.u0, lead.cfg.sim,
                   observer=observe)
    _share(rows, final=final)
    for row in rows:
        row.rpt.sim = _sim_block(row.tracker.records, final)


def _sim_block(records, final=None, error=None) -> dict:
    """The report's ``sim`` block of a march that ended in state ``final``,
    or of one that raised ``error``: that one is "failed" at its last
    record, and its counters are null."""
    def of_final(name, raised=None):
        return raised if final is None else getattr(final, name)
    last, dt_accepted = records[-1], of_final("dt_accepted")
    return {
        "status": of_final("status", "failed"),
        "t_final": of_final("t", last.t),
        "t_blow": of_final("t_blow"),
        "steps": of_final("steps"),
        "attempts": of_final("attempts"),
        "rejected": of_final("rejected"),
        "solver_iterations": of_final("solver_iterations"),
        "dt_accepted": None if dt_accepted is None else list(dt_accepted),
        "reason": of_final("reason", error),
        "final_supnorm": last.supnorm if final is None else final.supnorm,
        "records": len(records),
    }


def _recheck_hypothesis(row) -> None:
    cfg, rpt = row.cfg, row.rpt
    # The first record is u0's.
    hyp1 = _check_hypothesis(cfg, max(r.supnorm for r in row.tracker.records))
    rpt.hypothesis_trajectory = hyp1 and dataclasses.asdict(hyp1)
    row.hypotheses_met = bool(row.premises and (hyp1 is None or hyp1.holds))
    rpt.hypotheses_met = None if cfg.mode == "free" else row.hypotheses_met


def _certify(row) -> None:
    row.rpt.margins = certify(row.cfg.mode, row.tracker.records,
                              row.final.status, row.rpt)


def _verdict(row) -> None:
    row.rpt.verdict, row.rpt.consistency = judge(
        row.cfg.mode, row.hypotheses_met, row.final, row.rpt)


_STAGES = (("grid", _grid), ("assemble", _assemble),
           ("eigenvalue", _eigenvalue),
           ("initial-condition", _initial_condition),
           ("functionals", _functionals), ("hypothesis", _hypothesis),
           ("constraints", _constraints), ("constants", _constants),
           ("simulate", _simulate),
           ("recheck-hypothesis", _recheck_hypothesis),
           ("certify", _certify), ("verdict", _verdict))


def _run_rows(cfgs, shared=()):
    """Run the pipeline once per config and yield each row, in input order,
    when its last stage is done.

    The configs differ in one swept parameter only.  A stage named in
    ``shared`` runs once for all rows still live, and a failure there fails
    each of them at that stage's name; every other stage runs row by row,
    and a row that fails leaves the others.  Rows go through the stages
    together up to the last shared one and then one at a time, so only the
    shared work is held for all of them at once.  A warning raised in a
    stage goes into the report of every row that ran it.
    """
    rows = [SimpleNamespace(cfg=cfg, tracker=None, rpt=TheoremReport(
        mode=cfg.mode, parameters=_parameters_block(cfg))) for cfg in cfgs]
    split = max([i + 1 for i, (name, _) in enumerate(_STAGES)
                 if name in shared], default=0)
    for name, stage in _STAGES[:split]:
        live = [row for row in rows if row.rpt.failure is None]
        for group in ([live] if name in shared and live
                      else [[row] for row in live]):
            _attempt(name, stage, group)
    while rows:
        row = rows.pop(0)   # a finished row is freed once its caller is done
        for name, stage in _STAGES[split:]:
            if row.rpt.failure is None:
                _attempt(name, stage, [row])
        yield row
    _samples.cache_clear()   # no stage is left to read the sampling grid


def _attempt(name: str, stage, rows) -> None:
    """Run one stage for ``rows``; a failure fails each of them at ``name``,
    and a march that raised leaves each row the records it made."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            stage(*rows)
        except Exception as exc:  # pipeline stages fail loudly but locally
            error = f"{type(exc).__name__}: {exc}"
            for row in rows:
                row.rpt.failure = {"stage": name, "error": error}
                records = row.tracker.records if row.tracker else []
                if name == "simulate" and records:
                    row.rpt.sim = _sim_block(records, error=error)
    for row in rows:
        row.rpt.warnings += [str(w.message) for w in caught]


def _share(rows, **built) -> None:
    for row in rows:
        vars(row).update(built)


def _eigenpair(cfg: ExperimentConfig, A):
    """First eigenpair of the assembled operator under the config's ``eigen``
    settings."""
    return smallest_eigenpair(A, tol=cfg.eigen_tol,
                              max_iter=cfg.eigen_max_iter,
                              cg_tol=cfg.eigen_cg_tol)


def _eigen_block(eig) -> dict:
    """The report's ``eigen`` block, which ``grushinlab eig`` prints too."""
    return {"method": eig.method, "residual": eig.residual,
            "iterations": eig.iterations,
            "solver_iterations": eig.solver_iterations}


def _f_positive(cfg: ExperimentConfig, u0):
    """The premise checks' bound u_max = umax_factor * max|u0|, and whether
    f is positive on (0, u_max]: (u_max, ok, first non-positive u)."""
    u_max = cfg.umax_factor * float(np.abs(u0).max())
    return (u_max, *check_f_positive(cfg.nonlinearity, u_max,
                                     cfg.hypothesis_samples))


def _check_hypothesis(cfg: ExperimentConfig, u_max: float):
    # None in free mode.  The mapping is built when called, so a wrapper set
    # on this module since import is the one that runs.
    check = {"blowup": check_blowup_hypothesis,
             "global": check_global_hypothesis}.get(cfg.mode)
    return check and check(cfg.nonlinearity, cfg.alpha, cfg.beta, cfg.theta,
                           u_max, cfg.hypothesis_samples)


def _dump_matrix(A, path) -> None:
    """Zero-based 'i j value' triplets, one stored entry per line."""
    rows = np.repeat(np.arange(A.n), np.diff(A.indptr)).tolist()
    write_lines(path, [f"{i} {j} {v:.17g}" for i, j, v in
                       zip(rows, A.indices.tolist(), A.values.tolist())])


def _with_axis(cfg: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "gamma":
        return replace(cfg, space=GrushinSpace(cfg.space.m, cfg.space.k,
                                               float(value)))
    if axis in ("alpha", "beta", "theta"):
        return replace(cfg, **{axis: float(value)})
    return replace(cfg, initial=replace(cfg.initial, amplitude=float(value)))


def run_sweep(cfg: ExperimentConfig, axis: str, values,
              out_dir: str | None = None) -> list[dict]:
    """Run the pipeline once per value of the swept parameter.

    Rows share the stages their axis leaves unchanged (``_SHARED``): every
    axis but ``gamma`` builds the grid, the operator and its eigenpair once;
    ``amplitude`` then changes u0, so each of its rows marches alone; and
    ``alpha``, ``beta`` and ``theta``, which the flow does not contain, also
    share u0 and one march.  Every state of that march, u0 included, is
    measured once, and each row's own tracker adds its own theta and M.
    Each row gets the numbers its own run would give, and fails alone.

    Rows keep the input order, and each holds the keys of
    ``_SWEEP_COLUMNS``, which are also the columns of ``sweep.csv``, the
    only file written; per-run artifacts are suppressed.  A run that fails
    still yields its row, with the failure stage in the verdict column.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")
    rows, runs = [], []
    for value in values:
        row = {**dict.fromkeys(_SWEEP_COLUMNS), "value": float(value)}
        try:
            runs.append((row, _with_axis(cfg, axis, value)))
        except ValueError as exc:   # a value the config objects reject
            row["verdict"] = f"Failed[{type(exc).__name__}]"
        rows.append(row)
    # map holds no finished row while the next runs, and zip drains it first.
    reports = map(attrgetter("rpt"),
                  _run_rows([run_cfg for _, run_cfg in runs], _SHARED[axis]))
    for rpt, (row, _) in zip(reports, runs):
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
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_table(os.path.join(out_dir, "sweep.csv"), _SWEEP_COLUMNS,
                    ([row[c] for c in _SWEEP_COLUMNS] for row in rows))
    return rows
