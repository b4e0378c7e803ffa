"""Command-line front end.

Subcommands: eig, simulate, verify, sweep, check-hypothesis.  Reports go to
standard output as JSON; artifacts (CSV, SVG, report JSON, optional matrix
dump) land under --out.  Exit codes: 0 success with any verdict, 2 bad
config, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np

from .geometry import build_grid
from .integrator import build_initial_condition
from .linalg import SolverError
from .operators import assemble_grushin
from .runner import (SWEEP_AXES, ConfigError, _eigen_block, _eigenpair,
                     _f_positive, parse_config, run_experiment, run_sweep)
from .theorems import THEOREMS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))


def _cmd_eig(cfg, args) -> int:
    grid = build_grid(cfg.domain, cfg.cells)
    eig = _eigenpair(cfg, assemble_grushin(grid, cfg.space))
    _emit({"lambda1": eig.lambda1, **_eigen_block(eig)})
    return EXIT_OK


def _cmd_experiment(cfg, args) -> int:
    if args.command == "simulate":
        # Simulation and diagnostics only: strip the theorem machinery.
        cfg = replace(cfg, mode="free")
    rpt = run_experiment(cfg, out_dir=args.out, dump_matrix=args.dump_matrix)
    _emit(rpt.to_dict())
    return EXIT_RUNTIME if rpt.failure is not None else EXIT_OK


def _cmd_check_hypothesis(cfg, args) -> int:
    grid = build_grid(cfg.domain, cfg.cells)
    phi1 = None
    if cfg.initial.kind == "phi1":
        phi1 = _eigenpair(cfg, assemble_grushin(grid, cfg.space)).phi1
    u0 = build_initial_condition(grid, cfg.initial, phi1=phi1)
    u_max, f_ok, f_bad = _f_positive(cfg, u0)
    sampled = (cfg.nonlinearity, cfg.alpha, cfg.beta, cfg.theta, u_max,
               cfg.hypothesis_samples)
    _emit({
        "u_max": u_max,
        **{mode: asdict(theorem.check(*sampled))
           for mode, theorem in THEOREMS.items()},
        "f_positive": {"ok": f_ok, "first_nonpositive_u": f_bad},
    })
    return EXIT_OK


def _cmd_sweep(cfg, args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError([f"/: --values must be comma-separated numbers: {exc}"])
    if not values:
        raise ConfigError(["/: --values is empty"])
    if not all(np.isfinite(values)):
        raise ConfigError([f"/: --values must be finite numbers, got "
                           f"{args.values!r}"])
    rows = run_sweep(cfg, args.axis, values, out_dir=args.out)
    _emit(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grushinlab",
        description="Degenerate-diffusion pseudo-parabolic experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dump=False):
        p.add_argument("config", help="JSON experiment config")
        p.add_argument("--out", default="out",
                       help="output directory (default: out)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress warnings on stderr")
        if dump:
            p.add_argument("--dump-matrix", action="store_true",
                           help="write the assembled operator as i j value "
                                "triples")

    common(sub.add_parser("eig", help="first eigenvalue of the operator"))
    common(sub.add_parser("simulate", help="time march plus diagnostics"),
           dump=True)
    common(sub.add_parser("verify", help="full pipeline with verdict"),
           dump=True)
    common(sub.add_parser("check-hypothesis",
                          help="sample the structural inequalities only"))
    sweep = sub.add_parser("sweep", help="repeat verify over one parameter")
    common(sweep)
    sweep.add_argument("--axis", required=True,
                       choices=SWEEP_AXES)
    sweep.add_argument("--values", required=True,
                       help="comma-separated parameter values; a list that "
                            "starts with a minus sign needs the = form, "
                            "as in --values=-2,-1")
    return parser


_COMMANDS = {
    "eig": _cmd_eig,
    "simulate": _cmd_experiment,
    "verify": _cmd_experiment,
    "check-hypothesis": _cmd_check_hypothesis,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.quiet:
        warnings.filterwarnings("ignore")
    try:
        cfg = parse_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error:\n{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # surfaced as a runtime failure, not a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
