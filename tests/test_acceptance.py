"""Acceptance suite: one test per headline guarantee, at stated tolerances.

Each test prints one "CRITERION NN ...: PASS" line on success; a failed
assert marks the criterion failed.  Run with ``pytest tests/test_acceptance.py
-v`` for the per-criterion pass/fail listing.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from grushinlab import (BoxDomain, EnergyRecord, GrushinSpace, SimConfig,
                        apply, assemble_grushin, build_grid,
                        compute_blowup_constants, concavity_margin,
                        decay_margin, grushin_energy, homogeneous_dimension,
                        integral, l2_norm_sq, parse_expression, run,
                        smallest_eigenpair)
from grushinlab.runner import run_experiment

from oracles import (blowup_constants_reference, dense_from_csr,
                     jacobi_eigenvalues, trapezoid_E)


def quiet_setup(bounds, cells, gamma):
    """Grid + operator with straddle warnings silenced."""
    space = GrushinSpace(1, 1, gamma)
    grid = build_grid(BoxDomain(list(bounds)), cells)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        A = assemble_grushin(grid, space)
    return space, grid, A


def test_criterion_01_discrete_poincare():
    t0 = time.perf_counter()
    for gamma in (0.0, 0.5, 1.0):
        space, grid, A = quiet_setup([(0.0, 1.0), (0.0, 1.0)], (64, 64),
                                     gamma)
        lam = smallest_eigenpair(A, tol=1e-10,
                                 cell_volume=grid.cell_volume).lambda1
        rng = np.random.default_rng(1234)
        for _ in range(100):
            u = rng.standard_normal(grid.N)
            energy = grushin_energy(grid, space, u)
            floor = lam * l2_norm_sq(grid, u) * (1.0 - 1e-10)
            assert energy >= floor
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nCRITERION 01 discrete Poincare inequality ({elapsed:.1f}s): PASS")


def test_criterion_02_eigenvalue_oracle():
    t0 = time.perf_counter()
    space, grid, A = quiet_setup([(0.0, 1.0), (0.0, 1.0)], (32, 32), 0.0)
    lam = smallest_eigenpair(A, tol=1e-10,
                             cell_volume=grid.cell_volume).lambda1
    h = 1.0 / 32.0
    closed = (8.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
    assert abs(lam - closed) / closed <= 1e-8

    space, grid, A = quiet_setup([(0.0, 1.0), (0.0, 1.0)], (128, 128), 0.0)
    lam128 = smallest_eigenpair(A, tol=1e-10,
                                cell_volume=grid.cell_volume).lambda1
    target = 2.0 * math.pi**2
    assert abs(lam128 - target) / target <= 0.005
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"CRITERION 02 eigenvalue closed-form oracle ({elapsed:.1f}s): PASS")


def test_criterion_03_dense_oracle_equivalence():
    cases = [
        ([(0.0, 1.0), (0.0, 1.0)], (11, 11), 0.0),    # N = 100
        ([(-1.0, 1.0), (0.0, 1.0)], (15, 15), 1.0),   # N = 196
    ]
    for bounds, cells, gamma in cases:
        space, grid, A = quiet_setup(bounds, cells, gamma)
        assert A.n <= 400
        lam = smallest_eigenpair(A, tol=1e-10,
                                 cell_volume=grid.cell_volume).lambda1
        dense = dense_from_csr(A.n, A.indptr, A.indices, A.values)
        brute = float(jacobi_eigenvalues(-dense).min())
        assert abs(lam - brute) / brute <= 1e-8
    print("CRITERION 03 dense-eigensolve equivalence: PASS")


def test_criterion_04_summation_by_parts():
    for gamma in (0.0, 1.0, 2.0):
        space, grid, A = quiet_setup([(-1.0, 1.0), (-1.0, 1.0)], (16, 16),
                                     gamma)
        rng = np.random.default_rng(42)
        vol = grid.cell_volume
        for _ in range(100):
            u = rng.standard_normal(grid.N)
            lhs = -float(u @ apply(A, u)) * vol
            rhs = grushin_energy(grid, space, u)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
    print("CRITERION 04 summation-by-parts identity: PASS")


def test_criterion_05_eigenmode_decay(unit16, eigenmode_run):
    lam = unit16.lam
    exact = math.exp(-2.0 * lam / (1.0 + lam))

    final_l2 = eigenmode_run.records[-1].l2
    err_full = abs(final_l2 - exact) / exact
    assert err_full <= 1e-3

    zero = parse_expression("0*u")
    cfg = SimConfig(t_end=1.0, dt_init=5e-5, dt_min=5e-5, dt_max=5e-5,
                    record_every=10**6)
    final, _ = run(unit16.A, zero, unit16.eig.phi1.copy(), cfg)
    err_half = abs(l2_norm_sq(unit16.grid, final.u) - exact) / exact
    ratio = err_full / err_half
    assert 1.6 <= ratio <= 2.4
    print(f"CRITERION 05 eigenmode decay, error ratio {ratio:.2f}: PASS")


def test_criterion_06_measure_scaling():
    space, grid, _ = quiet_setup([(-1.0, 1.0), (-1.0, 1.0)], (128, 128), 1.0)
    lam = 0.5
    Q = homogeneous_dimension(space)  # 3 for m = k = gamma = 1

    def bump(s):
        return (1.0 - np.minimum(s * s, 1.0)) ** 4

    def g(x, y):
        return bump(x / 0.4) * bump(y / 0.2)

    base = integral(grid, grid.nodal_values(g))
    composed = integral(grid, grid.nodal_values(
        lambda x, y: g(lam * x, lam ** (1.0 + space.gamma) * y)))
    want = lam ** (-Q) * base
    assert abs(composed - want) / want <= 0.005
    print("CRITERION 06 dilation measure scaling: PASS")


def test_criterion_07_blowup_end_to_end(blowup_outcome):
    rpt = blowup_outcome.report
    cfg = blowup_outcome.cfg
    assert rpt.failure is None
    # Parameters as stated, with the amplitude choice documented in the config.
    assert cfg.space.gamma == 1.0
    assert (cfg.alpha, cfg.theta) == (4.0, 0.01)
    assert cfg.beta == min(0.1, rpt.lambda1 * (cfg.alpha - 2.0) / 2.0)
    assert cfg.notes and "amplitude" in cfg.notes
    assert rpt.F0 > 0.0
    assert rpt.hypothesis_initial["holds"] is True
    assert rpt.hypothesis_trajectory["holds"] is True
    assert all(c["ok"] for c in rpt.constraints)
    assert rpt.sim["status"] == "blowup"
    assert rpt.Tstar_bound == pytest.approx(
        rpt.M / (rpt.sigma * rpt.I0), rel=1e-14)
    assert rpt.sim["t_blow"] <= 1.1 * rpt.Tstar_bound
    m = rpt.margins
    assert m["monotonicity"] >= -1e-6 * m["monotonicity_scale"]
    assert m["concavity"] >= -1e-6 * m["concavity_scale"]
    assert rpt.verdict == "ConsistentWithTheorem"
    assert blowup_outcome.elapsed < 300.0
    print(f"\nCRITERION 07 blow-up end-to-end, t_blow = "
          f"{rpt.sim['t_blow']:.4f} <= 1.1 x {rpt.Tstar_bound:.4f} "
          f"({blowup_outcome.elapsed:.1f}s): PASS")


def test_criterion_08_concavity_soundness():
    def make(t, calE):
        E = trapezoid_E(t, calE, M)
        return [EnergyRecord(t=float(ti), dt=0.0, l2=ci / 2, grad=ci / 2,
                             calE=float(ci), calF=0.0, supnorm=1.0,
                             min_u=0.0, E=float(Ei))
                for ti, ci, Ei in zip(t, calE, E)]

    sigma, M, a = 0.5, 1.0, 0.1
    t = np.linspace(0.0, 5.0, 2001)
    extremal = (a * M / sigma) * (1.0 - a * t) ** (-1.0 / sigma - 1.0)
    margin = concavity_margin(make(t, extremal), sigma)
    scale = float(np.max((1.0 + sigma) * extremal**2))
    assert margin >= -1e-6 * scale

    c = 0.8
    t = np.linspace(0.0, 2.0, 501)
    exponential = c * M * np.exp(c * t)
    assert concavity_margin(make(t, exponential), sigma) < 0.0
    print("CRITERION 08 concavity-check soundness: PASS")


def test_criterion_09_decay_envelope(eigenmode_run):
    lam = eigenmode_run.lam
    rate = 2.0 * lam / (1.0 + lam)
    certified = decay_margin(eigenmode_run.records, rate)
    assert certified <= 1.0 + 1e-3
    overclaimed = decay_margin(eigenmode_run.records, rate + 1.0)
    assert overclaimed > 1.0
    print(f"CRITERION 09 decay envelope, margin {certified:.6f} at the exact "
          f"rate: PASS")


def test_criterion_10_joint_satisfiability(tmp_path):
    from conftest import config_path
    from grushinlab import parse_config
    cfg = parse_config(config_path("global_decay.json"))
    assert cfg.mode == "global" and cfg.alpha < 0.0
    rpt = run_experiment(cfg, out_dir=str(tmp_path / "global"))
    assert rpt.failure is None
    # The sign condition holds on the sampled range, which forces F0 <= 0,
    # so the two premises can never hold together.
    assert rpt.hypothesis_initial["holds"] is True
    assert rpt.F0 <= 0.0
    assert rpt.joint_satisfiable is False
    assert rpt.verdict == "HypothesesNotMet"
    assert rpt.verdict != "InconsistencyFlag"
    print("\nCRITERION 10 joint-satisfiability diagnostic: PASS")


def test_criterion_11_constants_arithmetic():
    assert compute_blowup_constants(8.0, 1.0, 2.0) == (1.0, 1.0, 0.5)
    rng = np.random.default_rng(55)
    for _ in range(1000):
        alpha = 2.0 + 10.0 ** rng.uniform(-3, 2)
        F0 = 10.0 ** rng.uniform(-6, 6)
        I0 = 10.0 ** rng.uniform(-6, 6)
        got = compute_blowup_constants(alpha, F0, I0)
        want = blowup_constants_reference(alpha, F0, I0)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 * abs(w)
    print("CRITERION 11 blow-up constants arithmetic: PASS")


def test_criterion_12_determinism(blowup_outcome, tmp_path):
    import os
    rerun_dir = str(tmp_path / "rerun")
    run_experiment(blowup_outcome.cfg, out_dir=rerun_dir)
    for name in ("records.csv", "report.json"):
        first = open(os.path.join(blowup_outcome.out_dir, name), "rb").read()
        second = open(os.path.join(rerun_dir, name), "rb").read()
        assert first == second, f"{name} differs between identical runs"
    print("\nCRITERION 12 byte-identical reruns: PASS")
