"""Semi-implicit time stepping for the pseudo-parabolic evolution.

The semi-discrete system is (I + L) du/dt = -L u + f(u) with L the negated
diffusion operator (SPD).  One step treats the linear part implicitly and the
source explicitly:

    (I + L + dt*L) u_new = (I + L) u_old + dt * f(u_old),

a first-order scheme whose stiffness lives entirely in the SPD solve.
The operator's own ``SparseMatrix.solver`` decides how it is solved: exactly
when the operator has one x-axis, or when its weight and the separable
surrogate's differ on at most one x-node (as at gamma = 1); otherwise by
conjugate gradients preconditioned with the separable surrogate.  CG stops
on the true residual at ``cg_tol``, which the exact path does not use.
Step size adapts on the relative sup-norm change per step.  A candidate
that passes that test is checked by evaluating f there, and is rejected too
where an expression source leaves its domain; the f of an accepted state is
handed on to the next step.  Blow-up is declared by threshold or by runaway
change at dt_min, and a domain exit at dt_min ends the march failed.  Each
state carries the work done so far: step attempts, rejected attempts, the CG
iterations of the step solves and the smallest and largest accepted dt.
A step forms (I + L) u_old once for all its attempts, and the sup norm of a
state is taken once, by the threshold check of the step that made it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .diagnostics import EnergyTracker
from .geometry import Grid
from .linalg import SolverError, cg_solve
from .nonlinearity import DomainError, Nonlinearity, f_values
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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
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


_COUNTERS = ("attempts", "rejected", "solver_iterations")


@dataclass(frozen=True, eq=False)
class SimState:
    """Snapshot of the march: time, nodal values, current dt, step count and
    status in {"running", "completed", "blowup", "failed"}, plus the work so
    far: :data:`_COUNTERS` (step attempts, attempts the step controller
    rejected, the CG iterations of the step solves, 0 on the exact path)
    and the smallest and largest accepted dt (None until a step is accepted).
    ``f_at`` is (u, f(u)), evaluated by the check of the step that made the
    state, so the next step need not; it is None only at a state no step
    made, and is used only while ``u`` is that same array.  ``sup_at`` is
    (u, max |u|) in the same way, from the threshold check; read it as
    :attr:`supnorm`."""

    t: float
    u: np.ndarray
    dt: float
    steps: int
    status: str = "running"
    t_blow: float | None = None
    reason: str | None = None
    attempts: int = 0
    rejected: int = 0
    solver_iterations: int = 0
    dt_accepted: tuple[float, float] | None = None
    f_at: tuple[np.ndarray, np.ndarray] | None = field(default=None,
                                                       repr=False)
    sup_at: tuple[np.ndarray, float] | None = field(default=None, repr=False)

    @property
    def supnorm(self) -> float:
        """max |u|: the one ``sup_at`` carries while ``u`` is its array, else
        computed here on first use and kept in ``sup_at``."""
        known = self.sup_at
        if known is None or known[0] is not self.u:
            known = (self.u, float(np.abs(self.u).max()))
            object.__setattr__(self, "sup_at", known)
        return known[1]


@dataclass(frozen=True)
class InitialCondition:
    """kind in {"product_sine", "phi1", "file"}; amplitude scales the shape."""

    kind: str
    amplitude: float = 1.0
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("product_sine", "phi1", "file"):
            raise ValueError(f"unknown initial-condition kind {self.kind!r}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        if self.amplitude <= 0.0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if self.kind == "file" and not self.path:
            raise ValueError("file initial condition needs a path")


def build_initial_condition(grid: Grid, ic: InitialCondition,
                            phi1: np.ndarray | None = None) -> np.ndarray:
    """Nodal initial data: a product-sine bump, a scaled first eigenmode, or
    values loaded from a file (one per line, length N, finite and
    nonnegative, not all zero)."""
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
    if not np.all(np.isfinite(values)):
        raise ValueError("initial condition file contains non-finite entries")
    if np.any(values < 0.0):
        raise ValueError("initial condition file contains negative entries")
    if not np.any(values > 0.0):
        raise ValueError("initial condition is identically zero")
    return ic.amplitude * values


def _advance(u: np.ndarray, dt: float, A: SparseMatrix, base: np.ndarray,
             f_u: np.ndarray, cg_tol: float) -> tuple[np.ndarray, int]:
    """Solve (I + (1+dt)L) u_new = base + dt f_u with L = -A, where
    base = (I + L) u = u - A u and f_u = f(u); return u_new and the CG
    iterations spent.  Exact when ``A.solver`` is exact, else by CG
    preconditioned by ``A.solver`` and started at u."""
    rhs = dt * f_u
    rhs += base
    c = 1.0 + dt
    solver = A.solver
    if solver.exact:
        return solver.solve(rhs, c), 0
    lhs = lambda v: v - c * apply(A, v)
    u_new, rep = cg_solve(lhs, rhs, lambda r: solver.solve(r, c), tol=cg_tol,
                          x0=u)
    return u_new, rep.iterations


def step(state: SimState, A: SparseMatrix, nl: Nonlinearity, cfg: SimConfig,
         dt_cap: float | None = None) -> SimState:
    """One accepted step (or a terminal status change).

    Every candidate is checked: one whose relative sup-norm change exceeds
    step_change_high is rejected, and otherwise f is evaluated there, so one
    where an expression source is non-finite (:class:`DomainError`) is
    rejected too.  A rejection halves dt; at dt_min it ends the march
    instead, ``blowup`` at the current time for a change too large and
    ``failed`` with the error's text as the reason for a domain exit.  After
    acceptance the threshold check runs, then dt grows by 1.5x (capped at
    dt_max) if the change was below step_change_low.  ``dt_cap`` limits the
    attempted dt (``run`` passes the time left, to land on t_end), and the
    controller carries on from the dt it used.  Every solve goes through
    ``A.solver``, so calls on one operator share its factorization.  Every
    solve counts as an attempt, and every rejection as rejected.  f is
    evaluated at the old state only when the state does not carry it, and
    the accepted state carries the f of its check in ``f_at`` and the sup
    norm of its threshold check in ``sup_at``.
    """
    if state.status != "running":
        return state
    dt_try = state.dt if dt_cap is None else min(state.dt, dt_cap)
    u_norm = state.supnorm
    base = apply(A, state.u)   # (I + L) u, the same for every attempt
    np.subtract(state.u, base, base)
    work = {name: getattr(state, name) for name in _COUNTERS}
    known = state.f_at
    f_u = (known[1] if known is not None and known[0] is state.u
           else f_values(nl, state.u))
    while True:
        work["attempts"] += 1
        try:
            u_new, iterations = _advance(state.u, dt_try, A, base, f_u,
                                         cfg.cg_tol)
        except SolverError as exc:
            return replace(state, status="failed",
                           reason=f"linear solve: {exc}", **work)
        work["solver_iterations"] += iterations
        change = float(np.abs(u_new - state.u).max()) / max(u_norm, 1e-300)
        if change > cfg.step_change_high:
            end = {"status": "blowup", "t_blow": state.t,
                   "reason": "step size exhausted below dt_min"}
        else:
            try:
                f_new = f_values(nl, u_new)
                break
            except DomainError as exc:
                end = {"status": "failed", "reason": str(exc)}
        work["rejected"] += 1
        if dt_try <= cfg.dt_min * (1.0 + 1e-12):
            return replace(state, **end, **work)
        dt_try = max(0.5 * dt_try, cfg.dt_min)
    dt_next = dt_try
    if change < cfg.step_change_low:
        dt_next = min(1.5 * dt_next, cfg.dt_max)
    lo, hi = state.dt_accepted or (dt_try, dt_try)
    sup = float(np.abs(u_new).max())
    nxt = SimState(t=state.t + dt_try, u=u_new, dt=dt_next,
                   steps=state.steps + 1,
                   dt_accepted=(min(lo, dt_try), max(hi, dt_try)),
                   f_at=(u_new, f_new), sup_at=(u_new, sup), **work)
    if sup >= cfg.blowup_threshold:
        return replace(nxt, status="blowup", t_blow=nxt.t,
                       reason="sup-norm reached blowup_threshold")
    return nxt


def run(A: SparseMatrix, nl: Nonlinearity, u0: np.ndarray, cfg: SimConfig,
        observer=None):
    """March from u0 until t_end, blow-up, or failure, on A's own grid.

    The observer (an :class:`EnergyTracker` on ``A.grid`` and ``A.space`` by
    default) is invoked at t = 0, after every record_every-th accepted step,
    and at the final state.  Returns ``(final_state, records)``.
    """
    A.solver   # refuses a hand-built matrix before the t = 0 record
    if observer is None:
        observer = EnergyTracker(A.grid, A.space, nl)
    u0 = np.asarray(u0, dtype=float)
    if u0.size != A.n:
        raise ValueError(f"u0 has {u0.size} values, A has {A.n} nodes")
    state = SimState(t=0.0, u=u0.copy(), dt=cfg.dt_init, steps=0)
    observer(state)
    t_tol = 1e-10 * max(1.0, cfg.t_end)
    while state.status == "running":
        remaining = cfg.t_end - state.t
        if remaining <= t_tol:
            state = replace(state, status="completed")
            break
        state = step(state, A, nl, cfg, dt_cap=remaining)
        if state.status == "running" and state.steps % cfg.record_every == 0:
            observer(state)
    observer(state)
    return state, list(getattr(observer, "records", []))
