"""Linear solves and the first eigenpair of the assembled operator.

Two paths, chosen here alone (:func:`separable_solver`) by the number of
x-axes; :func:`smallest_eigenpair` is the one eigensolver entry point.

With one x-axis (m == 1) the y-edge weights depend only on x, so
-A = K_x (x) I + diag(W) (x) K_y, where K_d is the 1D Dirichlet
second-difference matrix of axis d.  An orthonormal DST-I diagonalizes every
y-axis, and each y-mode j leaves one tridiagonal x-problem K_x + mu_j diag(W).
:class:`SeparableSolver` solves a time step exactly this way and takes the
first eigenpair from the mode j = 1: the fast diagonalization method of
Lynch, Rice and Thomas (Numer. Math. 6, 1964).  It uses numpy alone.

With m >= 2, or a matrix not built by ``assemble_grushin``, steps use
conjugate gradients with a transparent failure mode, and the eigensolve is
:func:`inverse_iteration`, whose inner solve is the same CG.  Both are also
the test oracles of the separable path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Grid, GrushinSpace
from .operators import SparseMatrix, _degenerate_weight


class SolverError(RuntimeError):
    """Base class for iterative-solver failures."""


class NonConvergence(SolverError):
    """Iteration budget exhausted; carries the best iterate seen."""

    def __init__(self, message: str, best_x: np.ndarray, residual: float,
                 iterations: int) -> None:
        super().__init__(message)
        self.best_x = best_x
        self.residual = residual
        self.iterations = iterations


class NumericalBreakdown(SolverError):
    """A non-finite quantity appeared mid-iteration."""


# Outer inverse-iteration steps without a new best eigen-residual after which
# the residual counts as stalled: the inner CG tolerance bounds how far it can
# fall, so a smaller ``tol`` is out of reach.
STALL_STEPS = 100


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_residual: float


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Smallest eigenpair; phi1 has l2_norm_sq == 1 and its largest-magnitude
    entry is positive.  residual is ||B phi - lambda phi||_2 / ||phi||_2.
    method is "inverse-iteration" (iterations counts outer steps) or
    "separable" (iterations counts Sturm bisection steps)."""

    lambda1: float
    phi1: np.ndarray
    residual: float
    iterations: int
    method: str


def _matvec(A):
    if isinstance(A, SparseMatrix):
        return A.apply
    if callable(A):
        return A
    raise TypeError(f"expected SparseMatrix or callable operator, got {type(A)!r}")


def cg_solve(A, b: np.ndarray, tol: float = 1e-10, max_iter: int | None = None,
             x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients for SPD ``A``; converges when ||b - Ax|| <= tol*||b||.

    ``A`` is a :class:`SparseMatrix` or a matvec callable.  Convergence is
    confirmed against the true residual, not just the recurrence.  Raises
    :class:`NonConvergence` (with the best iterate attached) after
    ``max_iter`` (default 10*N) and :class:`NumericalBreakdown` on NaN/Inf.
    """
    mv = _matvec(A)
    b = np.asarray(b, dtype=float)
    N = b.size
    if max_iter is None:
        max_iter = 10 * N
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), SolveReport(iterations=0, final_residual=0.0)

    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - mv(x)
    p = r.copy()
    rs = float(r @ r)
    if not np.isfinite(rs):
        raise NumericalBreakdown("non-finite initial residual in cg_solve")

    best_x, best_res = x.copy(), float(np.sqrt(rs)) / b_norm
    if best_res <= tol:
        # A warm start may already satisfy the tolerance; no work to do.
        return x, SolveReport(iterations=0, final_residual=best_res)
    for it in range(1, max_iter + 1):
        Ap = mv(p)
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0.0:
            raise NumericalBreakdown(
                f"cg_solve: curvature p^T A p = {pAp} at iteration {it}")
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        if not np.isfinite(rs_new):
            raise NumericalBreakdown(f"cg_solve: non-finite residual at iteration {it}")
        res = float(np.sqrt(rs_new)) / b_norm
        if res < best_res:
            best_x, best_res = x.copy(), res
        if res <= tol:
            # Recurrence can drift; accept only on the true residual.
            true_res = float(np.linalg.norm(b - mv(x))) / b_norm
            if true_res <= tol:
                return x, SolveReport(iterations=it, final_residual=true_res)
            r = b - mv(x)
            rs = float(r @ r)
            p = r.copy()
            continue
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise NonConvergence(
        f"cg_solve: no convergence to {tol} within {max_iter} iterations "
        f"(best residual {best_res:.3e})",
        best_x=best_x, residual=best_res, iterations=max_iter)


def smallest_eigenpair(A: SparseMatrix, tol: float = 1e-8,
                       max_iter: int = 10_000, cg_tol: float = 1e-10,
                       cell_volume: float | None = None) -> EigenResult:
    """Smallest eigenpair of B = -A, for A symmetric and negative definite.

    Exact from :class:`SeparableSolver` when A was assembled with one x-axis
    (``tol``, ``max_iter`` and ``cg_tol`` then have nothing to tune), else by
    :func:`inverse_iteration`.  l2_norm_sq(phi1) == 1 under the rectangle
    rule with ``cell_volume``, by default that of A's grid (1.0 without one).
    """
    solver = separable_solver(A)
    if solver is not None:
        return solver.eigenpair(A, cell_volume)
    return inverse_iteration(A, tol, max_iter, cg_tol, cell_volume)


def inverse_iteration(A: SparseMatrix, tol: float = 1e-8,
                      max_iter: int = 10_000, cg_tol: float = 1e-10,
                      cell_volume: float | None = None) -> EigenResult:
    """Smallest eigenpair of B = -A by inverse power iteration, the m >= 2
    path and the test oracle of the separable one.

    B is SPD and its smallest eigenvalue is the discrete Rayleigh minimum
    grushin_energy(u)/l2_norm_sq(u).  Starts from the all-ones vector, solves
    by CG to ``cg_tol``, and converges on the eigen-residual
    ||B v - lambda v|| <= tol * lambda for unit v.  Raises
    :class:`NonConvergence` with the best iterate after ``max_iter`` steps,
    or sooner once :data:`STALL_STEPS` steps bring no new best residual.
    """
    if not A.symmetric:
        raise ValueError("inverse_iteration expects a symmetric operator")
    B = lambda v: -A.apply(v)
    v = np.ones(A.n) / np.sqrt(A.n)
    lam = float(v @ B(v))
    best_res, best_v, best_it = np.inf, v, 0
    for it in range(1, max_iter + 1):
        z, _ = cg_solve(B, v, tol=cg_tol, x0=v / lam)
        v = z / float(np.linalg.norm(z))
        Bv = B(v)
        lam = float(v @ Bv)
        if not np.isfinite(lam) or lam <= 0.0:
            raise NumericalBreakdown(f"inverse iteration: Rayleigh quotient {lam}")
        residual = float(np.linalg.norm(Bv - lam * v))
        if residual <= tol * lam:
            return _eigen_result(A, v, lam, residual, it, "inverse-iteration",
                                 cell_volume)
        if residual < best_res:
            best_res, best_v, best_it = residual, v, it
        elif it - best_it >= STALL_STEPS:
            break
    raise NonConvergence(
        f"inverse iteration: eigen-residual above {tol}*lambda after {it} "
        f"iterations (best residual {best_res:.3e} at iteration {best_it}, "
        f"lambda {lam:.6e})", best_x=best_v, residual=best_res, iterations=it)


def _eigen_result(A, v, lam, residual, iterations, method, cell_volume):
    """Both paths' result: the unit eigenvector v with its largest-magnitude
    entry made positive, scaled as :func:`smallest_eigenpair` says."""
    if cell_volume is None:
        cell_volume = 1.0 if A.grid is None else A.grid.cell_volume
    if v[int(np.argmax(np.abs(v)))] < 0.0:
        v = -v
    return EigenResult(lam, v / np.sqrt(cell_volume), residual, iterations,
                       method)


def separable_solver(A: SparseMatrix) -> SeparableSolver | None:
    """The exact solver for an operator assembled with one x-axis, else None."""
    if A.space is None or A.space.m != 1:
        return None
    return SeparableSolver(A.grid, A.space)


def _thomas(diag, off: float, rhs):
    """Tridiagonal solve with main diagonal ``diag`` and the constant
    off-diagonal ``off``, along axis 0.  Trailing axes are independent
    systems.  No pivoting: the matrix must be diagonally dominant or SPD."""
    n = diag.shape[0]
    ratio = np.empty_like(diag)
    x = np.empty_like(rhs, dtype=float)
    ratio[0] = off / diag[0]
    x[0] = rhs[0] / diag[0]
    for i in range(1, n):
        pivot = diag[i] - off * ratio[i - 1]
        ratio[i] = off / pivot
        x[i] = (rhs[i] - off * x[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    return x


def _has_eigenvalue_below(diag: list, off_sq: float, s: float) -> bool:
    """Sturm test: does the symmetric tridiagonal matrix with main diagonal
    ``diag`` and squared off-diagonal ``off_sq`` have an eigenvalue below s?
    True exactly when an LDL^T pivot of the shifted matrix is negative."""
    pivot = 1.0
    coupling = 0.0
    for a in diag:
        pivot = a - s - coupling / pivot
        if pivot < 0.0:
            return True
        if pivot == 0.0:
            pivot = 1e-300
        coupling = off_sq
    return False


class SeparableSolver:
    """Exact solves with I - c*A and the first eigenpair of -A, for m == 1.

    Built once per grid: the x-line weights W, one orthonormal DST-I matrix
    per y-axis (symmetric and its own inverse) and the y-mode eigenvalues
    mu.  A solve costs two dense transforms and one batched Thomas sweep.
    """

    def __init__(self, grid: Grid, space: GrushinSpace) -> None:
        if space.m != 1 or grid.n != space.n:
            raise ValueError("the separable solver needs m == 1 and a grid "
                             "with m + k axes")
        self.shape = grid.shape
        self.inv_h2 = 1.0 / float(grid.h[0]) ** 2
        self.W = _degenerate_weight(grid, space).ravel()
        self.sines = []
        mu = np.zeros(())
        for d in range(1, grid.n):
            n, c = grid.shape[d], grid.cells[d]
            j = np.arange(1, n + 1)
            self.sines.append(np.sqrt(2.0 / c)
                              * np.sin(np.pi * np.outer(j, j) / c))
            mu_d = (2.0 * np.sin(0.5 * np.pi * j / c) / float(grid.h[d])) ** 2
            mu = np.add.outer(mu, mu_d)
        self.mu = mu.ravel()

    def _transform(self, U: np.ndarray) -> np.ndarray:
        """Orthonormal DST-I along every y-axis of a grid-shaped array."""
        for d, S in enumerate(self.sines, start=1):
            U = np.moveaxis(np.tensordot(U, S, axes=([d], [0])), -1, d)
        return U

    def solve(self, b: np.ndarray, c: float) -> np.ndarray:
        """x with (I - c*A) x = b for c >= 0, exact up to rounding."""
        b = np.asarray(b, dtype=float)
        if not np.all(np.isfinite(b)):
            raise NumericalBreakdown("non-finite right-hand side in the "
                                     "separable solve")
        rhs = self._transform(b.reshape(self.shape)).reshape(self.shape[0], -1)
        diag = 1.0 + c * (2.0 * self.inv_h2 + np.multiply.outer(self.W, self.mu))
        x = _thomas(diag, -c * self.inv_h2, rhs)
        return self._transform(x.reshape(self.shape)).ravel()

    def eigenpair(self, A: SparseMatrix, cell_volume=None) -> EigenResult:
        """First eigenpair of -A from the y-mode j = 1.

        lambda1 is the smallest eigenvalue of K_x + mu_1 diag(W), bracketed
        in [0, min diagonal] and bisected with Sturm tests to the last bit;
        two shifted Thomas solves give its x-profile.  phi1 is that profile
        times the first sine of every y-axis, and lambda1 and the residual
        are measured against the assembled ``A``.
        """
        diag = 2.0 * self.inv_h2 + self.mu[0] * self.W
        entries = diag.tolist()
        lo, hi = 0.0, min(entries)
        steps = 0
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            steps += 1
            if _has_eigenvalue_below(entries, self.inv_h2 ** 2, mid):
                hi = mid
            else:
                lo = mid
        # A shift a few rounding units of |T| below lambda1 keeps T - shift
        # SPD, so Thomas needs no pivoting, and each solve shrinks every
        # other eigenvector against the first by (lambda1 - shift) /
        # (lambda_j - shift); two solves put them below rounding.
        shift = lo - 64.0 * np.finfo(float).eps * (max(entries)
                                                     + 2.0 * self.inv_h2)
        v = np.ones(diag.size)
        for _ in range(2):
            v = _thomas(diag - shift, -self.inv_h2, v)
        for S in self.sines:
            v = np.multiply.outer(v, S[0])
        v = v.ravel() / float(np.linalg.norm(v))
        Bv = -A.apply(v)
        lam = float(v @ Bv)
        return _eigen_result(A, v, lam, float(np.linalg.norm(Bv - lam * v)),
                             steps, "separable", cell_volume)
