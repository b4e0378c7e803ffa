"""Shared fixtures: reference grids, the slow eigenmode-decay trajectory and
the shipped blow-up experiment, computed once per session."""

import os
import tempfile
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from grushinlab import (BoxDomain, GrushinSpace, SimConfig, assemble_grushin,
                        build_grid, parse_expression, run, smallest_eigenpair)
from grushinlab.diagnostics import EnergyTracker
from grushinlab.runner import parse_config, run_experiment

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(REPO_ROOT, "configs")


def pytest_configure(config):
    """Hypothesis caches the constants it reads from source files while tests
    are collected; keep that cache in a temporary directory, not the
    checkout."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    config.add_cleanup(lambda: set_hypothesis_home_dir(None))
    set_hypothesis_home_dir(home.name)


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


@pytest.fixture(scope="session")
def unit16():
    """Unit square at gamma = 0, 16 cells per axis, with its eigenpair."""
    space = GrushinSpace(1, 1, 0.0)
    domain = BoxDomain([(0.0, 1.0), (0.0, 1.0)])
    grid = build_grid(domain, (16, 16))
    A = assemble_grushin(grid, space)
    eig = smallest_eigenpair(A, tol=1e-10, cell_volume=grid.cell_volume)
    return SimpleNamespace(space=space, domain=domain, grid=grid, A=A,
                           eig=eig, lam=eig.lambda1)


@pytest.fixture(scope="session")
def eigenmode_run(unit16):
    """Source-free march of the first eigenmode at fixed dt = 1e-4 to t = 1.

    The semi-discrete solution is exactly e^{-lam t/(1+lam)} phi1, so this
    one trajectory backs every decay, E-series and monotonicity check.
    The state behind each record is kept for difference-quotient identities.
    """
    zero = parse_expression("0*u")
    cfg = SimConfig(t_end=1.0, dt_init=1e-4, dt_min=1e-4, dt_max=1e-4,
                    record_every=1)
    tracker = EnergyTracker(unit16.grid, unit16.space, zero)
    states = []

    def observer(state):
        before = len(tracker.records)
        tracker(state)
        if len(tracker.records) > before:
            states.append((float(state.t), state.u.copy()))

    final, _ = run(unit16.A, zero, unit16.eig.phi1.copy(), cfg,
                   observer=observer)
    return SimpleNamespace(final=final, records=tracker.records,
                           states=states, lam=unit16.lam,
                           grid=unit16.grid, space=unit16.space,
                           cfg=cfg)


@pytest.fixture(scope="session")
def blowup_outcome(tmp_path_factory):
    """One full run of the shipped blow-up experiment, with artifacts."""
    cfg = parse_config(config_path("blowup_cubic.json"))
    out = str(tmp_path_factory.mktemp("blowup_run"))
    t0 = time.perf_counter()
    rpt = run_experiment(cfg, out_dir=out)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(cfg=cfg, report=rpt, out_dir=out, elapsed=elapsed)
