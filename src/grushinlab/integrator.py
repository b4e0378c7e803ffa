"""Semi-implicit time stepping for the pseudo-parabolic evolution.

The semi-discrete system is (I + L) du/dt = -L u + f(u) with L the negated
diffusion operator (SPD).  One step treats the linear part implicitly and the
source explicitly:

    (I + L + dt*L) u_new = (I + L) u_old + dt * f(u_old),

a first-order scheme whose stiffness lives entirely in the SPD solve.  That
solve is exact when ``linalg.separable_solver`` offers a solver for the
operator, and conjugate gradients to ``cg_tol`` otherwise.  Step size adapts
on the relative sup-norm change per step; runaway growth is declared blow-up
either by threshold or by the controller collapsing below dt_min.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import EnergyTracker
from .geometry import Grid, GrushinSpace
from .linalg import SolverError, cg_solve, separable_solver
from .nonlinearity import Nonlinearity, f_values
from .operators import SparseMatrix, apply


@dataclass(frozen=True)
class SimConfig:
    """Time-stepping controls; defaults are the package-wide reference values."""

    t_end: float = 1.0
    dt_init: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 1e-2
    blowup_threshold: float = 1e8
    step_change_high: float = 0.1
    step_change_low: float = 0.01
    cg_tol: float = 1e-10
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.t_end <= 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError(
                f"need 0 < dt_min <= dt_init <= dt_max, got "
                f"({self.dt_min}, {self.dt_init}, {self.dt_max})")
        if self.blowup_threshold <= 0.0:
            raise ValueError("blowup_threshold must be positive")
        if not (0.0 <= self.step_change_low < self.step_change_high):
            raise ValueError(
                f"need 0 <= step_change_low < step_change_high, got "
                f"({self.step_change_low}, {self.step_change_high})")
        if self.cg_tol <= 0.0:
            raise ValueError("cg_tol must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True, eq=False)
class SimState:
    """Snapshot of the march: time, nodal values, current dt, step count and
    status in {"running", "completed", "blowup", "failed"}."""

    t: float
    u: np.ndarray
    dt: float
    steps: int
    status: str = "running"
    t_blow: float | None = None
    reason: str | None = None


@dataclass(frozen=True)
class InitialCondition:
    """kind in {"product_sine", "phi1", "file"}; amplitude scales the shape."""

    kind: str
    amplitude: float = 1.0
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("product_sine", "phi1", "file"):
            raise ValueError(f"unknown initial-condition kind {self.kind!r}")
        if self.amplitude <= 0.0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if self.kind == "file" and not self.path:
            raise ValueError("file initial condition needs a path")


def build_initial_condition(grid: Grid, space: GrushinSpace,
                            ic: InitialCondition,
                            phi1: np.ndarray | None = None) -> np.ndarray:
    """Nodal initial data: a product-sine bump, a scaled first eigenmode, or
    values loaded from a file (one per line, length N, nonnegative, not all
    zero)."""
    if ic.kind == "product_sine":
        axes = grid.meshgrid()
        u = np.ones(grid.shape)
        for d in range(grid.n):
            a, b = grid.domain.bounds[d]
            u = u * np.sin(np.pi * (axes[d] - a) / (b - a))
        return ic.amplitude * u.ravel()
    if ic.kind == "phi1":
        if phi1 is None:
            raise ValueError("phi1 initial condition needs the eigenvector")
        u = ic.amplitude * np.asarray(phi1, dtype=float)
        # The converged eigenmode is positive; scrub sub-tolerance dips.
        u[(u < 0.0) & (u > -1e-10 * np.abs(u).max())] = 0.0
        if np.any(u < 0.0):
            raise ValueError("eigenmode initial condition has negative entries")
        return u
    values = np.atleast_1d(np.loadtxt(ic.path, dtype=float))
    if values.ndim != 1 or values.size != grid.N:
        raise ValueError(
            f"initial condition file {ic.path!r} holds {values.size} values, "
            f"grid has {grid.N} interior nodes")
    if np.any(values < 0.0):
        raise ValueError("initial condition file contains negative entries")
    if not np.any(values > 0.0):
        raise ValueError("initial condition is identically zero")
    return ic.amplitude * values


def _advance(u: np.ndarray, dt: float, A: SparseMatrix, nl: Nonlinearity,
             cg_tol: float, solver) -> np.ndarray:
    """Solve (I + (1+dt)L) u_new = (I + L) u + dt f(u) with L = -A, exactly
    with ``solver`` when given, else by CG."""
    Au = apply(A, u)
    rhs = u - Au + dt * f_values(nl, u)
    if solver is not None:
        return solver.solve(rhs, 1.0 + dt)
    lhs = lambda v: v - (1.0 + dt) * apply(A, v)
    u_new, _ = cg_solve(lhs, rhs, tol=cg_tol, x0=u)
    return u_new


def step(state: SimState, A: SparseMatrix, nl: Nonlinearity, cfg: SimConfig,
         dt_cap: float | None = None, solver=None) -> SimState:
    """One accepted step (or a terminal status change).

    Retries with halved dt while the relative sup-norm change exceeds
    step_change_high; halving past dt_min declares blow-up at the current
    time.  After acceptance the threshold check runs, then dt grows by 1.5x
    (capped at dt_max) if the change was below step_change_low.  ``dt_cap``
    temporarily limits the attempted dt (used to land on t_end) without
    feeding back into the controller.  ``solver``, from
    ``separable_solver(A)``, replaces the CG solve.
    """
    if state.status != "running":
        return state
    dt_try = state.dt if dt_cap is None else min(state.dt, dt_cap)
    u_norm = float(np.abs(state.u).max())
    while True:
        try:
            u_new = _advance(state.u, dt_try, A, nl, cfg.cg_tol, solver)
        except SolverError as exc:
            return replace(state, status="failed", reason=f"linear solve: {exc}")
        change = float(np.abs(u_new - state.u).max()) / max(u_norm, 1e-300)
        if change > cfg.step_change_high:
            if dt_try <= cfg.dt_min * (1.0 + 1e-12):
                return replace(state, status="blowup", t_blow=state.t,
                               reason="step size exhausted below dt_min")
            dt_try = max(0.5 * dt_try, cfg.dt_min)
            continue
        break
    dt_next = dt_try
    if change < cfg.step_change_low:
        dt_next = min(1.5 * dt_next, cfg.dt_max)
    nxt = SimState(t=state.t + dt_try, u=u_new, dt=dt_next,
                   steps=state.steps + 1)
    if float(np.abs(u_new).max()) >= cfg.blowup_threshold:
        return replace(nxt, status="blowup", t_blow=nxt.t,
                       reason="sup-norm reached blowup_threshold")
    return nxt


def run(grid: Grid, space: GrushinSpace, A: SparseMatrix, nl: Nonlinearity,
        u0: np.ndarray, cfg: SimConfig, observer=None):
    """March from u0 until t_end, blow-up, or failure.

    The observer (an :class:`EnergyTracker` by default) is invoked at t = 0,
    after every record_every-th accepted step, and at the final state.
    Returns ``(final_state, records)``.
    """
    if observer is None:
        observer = EnergyTracker(grid, space, nl)
    u0 = np.asarray(u0, dtype=float)
    if u0.size != grid.N:
        raise ValueError(f"u0 has {u0.size} values, grid has {grid.N} nodes")
    solver = separable_solver(A)
    state = SimState(t=0.0, u=u0.copy(), dt=cfg.dt_init, steps=0)
    observer(state)
    t_tol = 1e-10 * max(1.0, cfg.t_end)
    while state.status == "running":
        remaining = cfg.t_end - state.t
        if remaining <= t_tol:
            state = replace(state, status="completed")
            break
        state = step(state, A, nl, cfg,
                     dt_cap=remaining if remaining < state.dt else None,
                     solver=solver)
        if state.status == "running" and state.steps % cfg.record_every == 0:
            observer(state)
    observer(state)
    return state, list(getattr(observer, "records", []))
