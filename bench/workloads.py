"""The benchmark's workloads: seeded configs, the timed operation, checks.

Each workload turns ``--seed`` into a config dict, runs one operation through
the public ``grushinlab`` API, and checks the outcome against what the
workload promises (verdict, status, first eigenvalue).  Configs are frozen
here rather than read from ``configs/`` so that editing a shipped example does
not silently change what the benchmark measures.

Every call into the package goes through attributes of the ``grushinlab``
package or its modules at call time, which is where :mod:`tracing` wraps them.
"""

from __future__ import annotations

import random
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

EIGEN_RTOL = 1e-6   # agreement of lambda1 with the independent eigsh solve


def _blowup_cubic(cells):
    # configs/blowup_cubic.json, the paper's headline run.
    return {
        "space": {"m": 1, "k": 1, "gamma": 1.0},
        "bounds": [[-1.0, 1.0], [-1.0, 1.0]],
        "cells": list(cells),
        "nonlinearity": {"power": {"p": 3.0, "c": 1.0}},
        "alpha": 4.0, "beta": 0.1, "theta": 0.01,
        "initial": {"kind": "product_sine", "amplitude": 5.0},
        "sim": {"t_end": 3.0},
        "mode": "blowup",
    }


def _free_sine(cells, amplitude):
    # configs/free_sine.json with a longer horizon.
    return {
        "space": {"m": 1, "k": 1, "gamma": 0.5},
        "bounds": [[0.0, 1.0], [0.0, 1.0]],
        "cells": list(cells),
        "nonlinearity": {"expr": "u^3"},
        "alpha": 4.0, "beta": 0.1, "theta": 0.01,
        "initial": {"kind": "product_sine", "amplitude": amplitude},
        "sim": {"t_end": 1.0},
        "mode": "free",
    }


def _global_m2(cells):
    # configs/global_decay.json's parameters lifted to m = 2, k = 1.
    return {
        "space": {"m": 2, "k": 1, "gamma": 1.0},
        "bounds": [[-1.0, 1.0]] * 3,
        "cells": list(cells),
        "nonlinearity": {"power": {"p": 3.0, "c": 1.0}},
        "alpha": -2.0, "beta": 2.0, "theta": 1.0,
        "initial": {"kind": "product_sine", "amplitude": 0.05},
        "sim": {"t_end": 1.0},
        "mode": "global",
    }


# Seed bands.  Inside each band the expected verdict or status holds and the
# amount of work (steps, CG iterations) moves by only a few percent, so runs
# with different seeds stay comparable.
BLOWUP_AMPLITUDE = (4.95, 5.05)
FREE_AMPLITUDE = (0.95, 1.05)
SWEEP_THETA = (0.5, 2.0)
SWEEP_ROWS = 6


def blowup_config(seed: int, small: bool) -> dict:
    cfg = _blowup_cubic((32, 32) if small else (128, 128))
    cfg["initial"]["amplitude"] = random.Random(seed).uniform(*BLOWUP_AMPLITUDE)
    return cfg


def eig_config(seed: int, small: bool) -> dict:
    # The eigenpair does not depend on the initial data, so the seed is unused.
    return _blowup_cubic((32, 32) if small else (256, 256))


def free_config(seed: int, small: bool) -> dict:
    amplitude = random.Random(seed).uniform(*FREE_AMPLITUDE)
    return _free_sine((24, 24) if small else (128, 128), amplitude)


def sweep_config(seed: int, small: bool) -> dict:
    return _global_m2((6, 6, 6) if small else (20, 20, 20))


def sweep_values(seed: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.uniform(*SWEEP_THETA) for _ in range(SWEEP_ROWS)]


# --- operations -------------------------------------------------------------
# Each returns a small summary dict built after the timed call returns.

def experiment(gl, cfg, seed: int, out_dir: Path):
    """One ``run_experiment`` with its artifacts written to ``out_dir``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    rpt = gl.run_experiment(cfg, out_dir=str(out_dir))

    def summary():
        csv = out_dir / cfg.output.csv
        rows = len(csv.read_text().splitlines()) - 1 if csv.exists() else None
        return {"lambda1": rpt.lambda1, "verdict": rpt.verdict,
                "status": rpt.sim and rpt.sim["status"],
                "records": rpt.sim and rpt.sim["records"],
                "csv_rows": rows, "failure": rpt.failure}
    return summary


def eigensolve(gl, cfg, seed: int, out_dir: Path):
    """Grid, assembly and the smallest eigenpair, as ``grushinlab eig`` does."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # m = 1 straddling x = 0 warns
        grid = gl.build_grid(cfg.domain, cfg.cells)
        A = gl.assemble_grushin(grid, cfg.space)
        eig = gl.smallest_eigenpair(A, tol=cfg.eigen_tol,
                                    max_iter=cfg.eigen_max_iter,
                                    cg_tol=cfg.eigen_cg_tol,
                                    cell_volume=grid.cell_volume)

    def summary():
        phi = eig.phi1
        return {"lambda1": eig.lambda1, "residual": eig.residual,
                "tol": cfg.eigen_tol,
                "phi1_sign_ok": bool(phi[int(np.argmax(np.abs(phi)))] > 0.0)}
    return summary


def sweep(gl, cfg, seed: int, out_dir: Path):
    """``run_sweep`` over theta; no artifacts."""
    rows = gl.run_sweep(cfg, "theta", sweep_values(seed), out_dir=None)
    return lambda: {"rows": [(r["lambda1"], r["verdict"]) for r in rows]}


# --- checks -----------------------------------------------------------------

def _lambda_problem(lam, ref):
    if lam is None or not abs(lam - ref) <= EIGEN_RTOL * ref:
        return [f"lambda1 {lam!r} differs from eigsh {ref!r} "
                f"by more than {EIGEN_RTOL:g} relative"]
    return []


def expect_experiment(verdict, status):
    def check(s, ref):
        problems = _lambda_problem(s["lambda1"], ref)
        if s["failure"] is not None:
            problems.append(f"report.failure = {s['failure']}")
        if s["verdict"] != verdict:
            problems.append(f"verdict {s['verdict']!r}, expected {verdict!r}")
        if s["status"] != status:
            problems.append(f"status {s['status']!r}, expected {status!r}")
        if s["csv_rows"] is None or s["csv_rows"] != s["records"]:
            problems.append(f"CSV has {s['csv_rows']} rows, "
                            f"sim.records = {s['records']}")
        return problems
    return check


def check_eigen(s, ref):
    problems = _lambda_problem(s["lambda1"], ref)
    if not s["residual"] <= s["tol"] * s["lambda1"]:
        problems.append(f"eigen residual {s['residual']:.3e} above "
                        f"tol*lambda1 = {s['tol'] * s['lambda1']:.3e}")
    if not s["phi1_sign_ok"]:
        problems.append("phi1's largest-magnitude entry is not positive")
    return problems


def check_sweep(s, ref):
    problems = []
    if len(s["rows"]) != SWEEP_ROWS:
        problems.append(f"{len(s['rows'])} sweep rows, expected {SWEEP_ROWS}")
    for lam, verdict in s["rows"]:
        problems += _lambda_problem(lam, ref)
        if verdict != "HypothesesNotMet":
            problems.append(f"sweep verdict {verdict!r}, "
                            "expected 'HypothesesNotMet'")
    return problems


def reference_lambda1(gl, cfg) -> float:
    """First eigenvalue of -A from scipy's shift-invert Lanczos (ARPACK),
    independent of the package's inverse iteration and CG."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = gl.build_grid(cfg.domain, cfg.cells)
        A = gl.assemble_grushin(grid, cfg.space)
    B = sp.csr_matrix((-A.values, A.indices, A.indptr), shape=(A.n, A.n))
    vals = eigsh(B.tocsc(), k=1, sigma=0.0, which="LM",
                 return_eigenvectors=False)
    return float(vals[0])


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[int, bool], dict]
    operation: Callable
    check: Callable[[dict, float], list]


WORKLOADS = {w.name: w for w in (
    Workload("blowup-128", blowup_config, experiment,
             expect_experiment("ConsistentWithTheorem", "blowup")),
    Workload("eig-256", eig_config, eigensolve, check_eigen),
    Workload("free-expr-128", free_config, experiment,
             expect_experiment(None, "completed")),
    Workload("sweep-m2", sweep_config, sweep, check_sweep),
)}
