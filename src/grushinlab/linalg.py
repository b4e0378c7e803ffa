"""Linear solves and the first eigenpair of the assembled operator.

Every operator built by ``assemble_grushin`` owns a :class:`SeparableSolver`,
``SparseMatrix.solver``, built on first use and kept, so the eigensolve and
every time step share it.  :func:`smallest_eigenpair`, the one eigensolver
entry point, picks the method.  The solver builds the dense DST-I matrix of
every y-axis on its first solve; the exact eigenpair reads only their first
rows, so it builds none.  The solver plays one of two roles.

*Exact solve* (m == 1).  The y-edge weights depend only on x, so
-A = K_x (x) I + diag(W) (x) K_y, where K_d is the 1D Dirichlet
second-difference matrix of axis d.  An orthonormal DST-I diagonalizes every
y-axis, and each y-mode j leaves one tridiagonal x-problem K_x + mu_j diag(W),
solved by a Thomas sweep; the first eigenpair comes from the mode j = 1.
This is the fast diagonalization method of Lynch, Rice and Thomas
(Numer. Math. 6, 1964).  The sweep is split into the LU factorization of the
tridiagonals and a substitution (Golub and Van Loan, Matrix Computations,
sec. 4.3): a solve costs a substitution with the factorization of the last
(c, shift), which the solver keeps in 2 N floats, and a new pair refactors
first.  A solve's batch of every y-mode is walked row by row in x, and each
row is written straight into the preallocated result by ufuncs with an
output argument, with one scratch row: the operations and their order are
the one-pass sweep's, without a new array per row.  The eigenpair's single
system runs in Python floats.

*Exact solve* (m >= 2, weights equal but on at most one x-node).  The
solver inverts the operator with the additively separable surrogate weight
s = sum_d w_d, w_d = |x_d|^(2 gamma) / m^(1 - gamma): per y-mode a
Kronecker sum of m tridiagonals K_d + mu_j diag(w_d), each eigendecomposed
once per grid.  At gamma == 0 A's weight is 1 and A is the Laplacian; the
surrogate puts that 1 on x-axis 0 alone (w_0 = 1, the other w_d = 0), so
the two agree for every m, where m copies of 1/m need not sum to 1.
At gamma == 1, |x|^2 = sum_d x_d^2, and A's weight differs from the
surrogate's only where ``_degenerate_weight`` lifts the origin node off
zero.  A rank-one Sherman-Morrison correction per y-mode then makes every
solve exact, and the first eigenpair is the root of a secular equation in
the mode j = 1 (see :class:`SeparableSolver`).

*Preconditioner* (m >= 2 otherwise).  The two weights are spectrally
equivalent, so conjugate gradients preconditioned with the surrogate solve
(:func:`cg_solve`) converge in a few iterations whatever the grid (Concus
and Golub, SIAM J. Numer. Anal. 10, 1973).  The factor 1 / m^(1 - gamma)
scales the ratio of the two weights and leaves its spread, max over min, as
it was.  Time steps and the inner solves of :func:`inverse_iteration` both
use it, and the iteration starts in the y-mode j = 1.  numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    "separable" (iterations counts bisection steps);
    solver_iterations sums the inner CG iterations, 0 for "separable"."""

    lambda1: float
    phi1: np.ndarray
    residual: float
    iterations: int
    method: str
    solver_iterations: int = 0


def cg_solve(matvec, b: np.ndarray, precond, tol: float = 1e-10,
             max_iter: int | None = None,
             x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients for SPD A; converges when ||b - Ax|| <= tol*||b||.

    ``matvec`` computes x -> Ax, and ``precond`` maps a residual r to
    M^-1 r for an SPD M close to A; the identity ``lambda r: r`` gives
    plain CG.  The stopping test stays on the unpreconditioned residual,
    and convergence is confirmed against the true residual, not just the
    recurrence.  Raises :class:`NonConvergence` (with the best iterate
    attached) after ``max_iter`` (default 10*N) and
    :class:`NumericalBreakdown` on NaN/Inf or a preconditioner that is not
    positive definite.
    """
    b = np.asarray(b, dtype=float)
    N = b.size
    if max_iter is None:
        max_iter = 10 * N
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), SolveReport(iterations=0, final_residual=0.0)

    def preconditioned(r, it):
        """(M^-1 r, r^T M^-1 r)."""
        z = precond(r)
        rz = float(r @ z)
        if not np.isfinite(rz) or rz <= 0.0:
            raise NumericalBreakdown(
                f"cg_solve: preconditioned r^T M^-1 r = {rz} at iteration {it}")
        return z, rz

    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - matvec(x)
    rr = float(r @ r)
    if not np.isfinite(rr):
        raise NumericalBreakdown("non-finite initial residual in cg_solve")

    best_x, best_res = x.copy(), float(np.sqrt(rr)) / b_norm
    if best_res <= tol:
        # A warm start may already satisfy the tolerance; no work to do.
        return x, SolveReport(iterations=0, final_residual=best_res)
    z, rz = preconditioned(r, 0)
    p = z.copy()
    for it in range(1, max_iter + 1):
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0.0:
            raise NumericalBreakdown(
                f"cg_solve: curvature p^T A p = {pAp} at iteration {it}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rr = float(r @ r)
        if not np.isfinite(rr):
            raise NumericalBreakdown(f"cg_solve: non-finite residual at iteration {it}")
        res = float(np.sqrt(rr)) / b_norm
        if res < best_res:
            best_x, best_res = x.copy(), res
        if res <= tol:
            # Recurrence can drift; accept only on the true residual.
            true_res = float(np.linalg.norm(b - matvec(x))) / b_norm
            if true_res <= tol:
                return x, SolveReport(iterations=it, final_residual=true_res)
            r = b - matvec(x)
            z, rz = preconditioned(r, it)
            p = z.copy()
            continue
        z, rz_new = preconditioned(r, it)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergence(
        f"cg_solve: no convergence to {tol} within {max_iter} iterations "
        f"(best residual {best_res:.3e})",
        best_x=best_x, residual=best_res, iterations=max_iter)


def smallest_eigenpair(A: SparseMatrix, tol: float = 1e-8,
                       max_iter: int = 10_000, cg_tol: float = 1e-10,
                       cell_volume: float | None = None) -> EigenResult:
    """Smallest eigenpair of B = -A for A built by ``assemble_grushin``: in
    closed form if A's solver is exact, else by :func:`inverse_iteration`
    with these settings, preconditioned by the solver and started in the
    y-mode j = 1, constant in x.  l2_norm_sq(phi1) == 1 under the rectangle
    rule with ``cell_volume``, by default that of A's grid.
    """
    solver = A.solver
    cell_volume = A.grid.cell_volume if cell_volume is None else cell_volume
    if solver.exact:
        return solver.eigenpair(A, cell_volume)
    start = solver._first_mode(np.ones(solver.shape[:solver.m]))
    return inverse_iteration(A, lambda r: solver.solve(r, 1.0, shift=0.0),
                             tol, max_iter, cg_tol, cell_volume, start=start)


def inverse_iteration(A: SparseMatrix, precond, tol: float = 1e-8,
                      max_iter: int = 10_000, cg_tol: float = 1e-10,
                      cell_volume: float | None = None,
                      start: np.ndarray | None = None) -> EigenResult:
    """Smallest eigenpair of B = -A, for A symmetric and negative definite,
    by inverse power iteration: the path of an inexact solver.

    B is SPD and its smallest eigenvalue is the discrete Rayleigh minimum
    grushin_energy(u)/l2_norm_sq(u).  Starts from ``start`` (by default the
    all-ones vector), solves by CG to ``cg_tol`` (preconditioned by
    ``precond``, an approximate inverse of B; the identity gives plain CG),
    and converges on the eigen-residual ||B v - lambda v|| <= tol * lambda
    for unit v.  Raises :class:`NonConvergence` with the best iterate after
    ``max_iter`` steps, or sooner once :data:`STALL_STEPS` steps bring no new
    best residual.  phi1 is scaled as :func:`smallest_eigenpair` says; a
    matrix built by hand has no grid, so its caller passes ``cell_volume``.
    """
    cell_volume = A.grid.cell_volume if cell_volume is None else cell_volume
    B = lambda v: -A.apply(v)
    v = np.ones(A.n) if start is None else np.asarray(start, dtype=float)
    v = v / float(np.linalg.norm(v))
    lam = float(v @ B(v))
    best_res, best_v, best_it = np.inf, v, 0
    inner = 0
    for it in range(1, max_iter + 1):
        z, rep = cg_solve(B, v, precond, tol=cg_tol, x0=v / lam)
        inner += rep.iterations
        v = z / float(np.linalg.norm(z))
        Bv = B(v)
        lam = float(v @ Bv)
        if not np.isfinite(lam) or lam <= 0.0:
            raise NumericalBreakdown(f"inverse iteration: Rayleigh quotient {lam}")
        residual = float(np.linalg.norm(Bv - lam * v))
        if residual <= tol * lam:
            return _eigen_result(v, lam, residual, it, "inverse-iteration",
                                 cell_volume, inner)
        if residual < best_res:
            best_res, best_v, best_it = residual, v, it
        elif it - best_it >= STALL_STEPS:
            break
    raise NonConvergence(
        f"inverse iteration: eigen-residual above {tol}*lambda after {it} "
        f"iterations (best residual {best_res:.3e} at iteration {best_it}, "
        f"lambda {lam:.6e})", best_x=best_v, residual=best_res, iterations=it)


def _eigen_result(v, lam, residual, iterations, method, cell_volume,
                  solver_iterations=0):
    """Both paths' result: the unit eigenvector v with its largest-magnitude
    entry made positive, scaled as :func:`smallest_eigenpair` says, in v's
    own array, which the caller hands over."""
    if v[int(np.argmax(np.abs(v)))] < 0.0:
        np.negative(v, out=v)
    v /= np.sqrt(cell_volume)
    return EigenResult(lam, v, residual, iterations, method,
                       solver_iterations)


def _factor(diag, off: float):
    """LU factorization of the tridiagonal matrix with main diagonal ``diag``
    and the constant off-diagonal ``off``, along axis 0: the pivots and the
    ratios off / pivot.  Trailing axes are independent matrices.  No
    pivoting: the matrix must be diagonally dominant or SPD."""
    if diag.ndim == 1:
        # One matrix, the eigenpair's: Python floats index and compute
        # faster than numpy scalars.
        d = diag.tolist()
        pivot, ratio = [0.0] * len(d), [0.0] * len(d)
        pivot[0] = d[0]
        ratio[0] = off / d[0]
        for i in range(1, len(d)):
            pivot[i] = d[i] - off * ratio[i - 1]
            ratio[i] = off / pivot[i]
        return np.asarray(pivot, dtype=float), np.asarray(ratio, dtype=float)
    # A batch is written row by row into its results, in place: a pivot row
    # holds off times the last ratio row until the subtraction overwrites it.
    # Each row costs a few ufunc calls, so they are bound to local names and
    # off is a 0-d array, which they take without converting it each call.
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    pivot, ratio = np.empty_like(diag), np.empty_like(diag)
    off = np.array(off)
    rows = zip(diag, pivot, ratio)
    d, p, last = next(rows)
    np.copyto(p, d)
    divide(off, p, last)
    for d, p, r in rows:
        multiply(last, off, p)
        subtract(d, p, p)
        last = divide(off, p, r)
    return pivot, ratio


def _substitute(pivot, ratio, off: float, rhs):
    """Solve with the factorization ``_factor(diag, off)``: forward
    elimination, then back substitution, along axis 0 of ``rhs``."""
    if rhs.ndim == 1:
        # The eigenpair's system, in Python floats, stored once.
        b, p, r = rhs.tolist(), pivot.tolist(), ratio.tolist()
        xs = [b[0] / p[0]]
        for i in range(1, len(b)):
            xs.append((b[i] - off * xs[i - 1]) / p[i])
        for i in range(len(b) - 2, -1, -1):
            xs[i] -= r[i] * xs[i + 1]
        return np.asarray(xs, dtype=float)
    # A batch is written row by row into the solution, in place: a row
    # holds off times the row before until the subtraction overwrites it,
    # and the back substitution takes one scratch row.  The rows are walked
    # by iterators, so no list of row views is held.  Local ufuncs and a 0-d
    # off as in ``_factor``.
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    x = np.empty_like(rhs, dtype=float)
    off = np.array(off)
    rows = zip(rhs, pivot, x)
    b, p, last = next(rows)
    divide(b, p, last)
    for b, p, xi in rows:
        multiply(last, off, xi)
        subtract(b, xi, xi)
        last = divide(xi, p, xi)
    del rows, b, p, off   # the forward pass's views, before the scratch row
    scratch = np.empty(x.shape[1:])
    rows = zip(reversed(ratio), reversed(x))
    next(rows)   # the last row is solved
    for r, xi in rows:
        multiply(r, last, scratch)
        last = subtract(xi, scratch, xi)
    return x


def _has_eigenvalue_below(diag: list, off_sq: float, s: float) -> bool:
    """Sturm test: does the symmetric tridiagonal matrix with main diagonal
    ``diag`` and squared off-diagonal ``off_sq`` have an eigenvalue below s?
    True exactly when an LDL^T pivot of the shifted matrix is negative; a
    zero pivot is taken as 1e-300 (Barth, Martin and Wilkinson, Numer.
    Math. 9, 1967).  A NaN pivot makes every later one NaN, and no NaN is
    negative.  ``diag`` holds at least one entry."""
    entries = iter(diag)
    pivot = next(entries) - s
    if pivot <= 0.0:
        if pivot < 0.0:
            return True
        pivot = 1e-300
    for a in entries:
        pivot = a - s - off_sq / pivot
        if pivot <= 0.0:
            if pivot < 0.0:
                return True
            pivot = 1e-300
    return False


def _bisect(below, lo: float, hi: float) -> tuple[float, int]:
    """Bisect the bracket [lo, hi] of a smallest eigenvalue to the last bit,
    where ``below(s)`` tells whether there is an eigenvalue below s; return
    the final lower end and the number of tests made."""
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, steps
        steps += 1
        if below(mid):
            hi = mid
        else:
            lo = mid


def _sine_rows(n: int, c: int, rows: int) -> np.ndarray:
    """The first ``rows`` rows of the orthonormal DST-I matrix of a y-axis
    with n interior nodes and c cells: sqrt(2/c) sin(pi i j / c).  The
    first row alone is the x-independent factor of phi1 along the axis, and
    it is byte-equal to row 0 of the whole matrix."""
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / c) * np.sin(np.pi * np.outer(j[:rows], j) / c)


def _mode_products(X: np.ndarray, bases, inverse: bool = False):
    """Apply Q^T (or Q, when ``inverse``) of every x-axis to X of shape
    (modes, nodes of the x-axes), one batched product per x-axis and mode.
    Each product contracts the leading x-axis and moves it last, so m of
    them restore the axis order."""
    modes = X.shape[0]
    for Q in bases:
        if inverse:
            Q = Q.transpose(0, 2, 1)
        X = X.reshape(modes, Q.shape[1], -1).transpose(0, 2, 1) @ Q
    return X.reshape(modes, -1)


class SeparableSolver:
    """Solves with shift*I - c*A for an assembled operator A, exactly
    (``exact``) when m == 1 or when the separable surrogate weight
    s = sum_d w_d, w_d = |x_d|^(2 gamma) / m^(1 - gamma), equals A's weight
    |x|^(2 gamma) on every x-node but at most one (gamma == 1, or gamma == 0,
    where both are 1), and else with the surrogate in place of A, which makes
    it a preconditioner for A.  When the solve is exact it finds the first
    eigenpair of -A too (:meth:`eigenpair`).
    ``_degenerate_weight`` first checks that the grid has the space's m + k
    axes.

    Built once per grid: the y-mode eigenvalues mu; for m == 1 the x-line
    weights W, for m >= 2 the eigendecomposition of every x-tridiagonal
    K_d + mu_j diag(w_d), one batched ``eigh`` per x-axis.  The
    dense orthonormal DST-I matrix of every y-axis (symmetric and its own
    inverse), ``sines``, is built on the first solve and kept; the
    eigenpair reads only the first sine row of each axis and builds none.
    A solve costs two dense y-transforms and, in between, a substitution with
    the factorization of the last ``(c, shift)``: the kept Thomas pivots and
    ratios of every y-mode (m == 1, 2 N floats), or two batched products per
    x-axis around a division by the kept denominators shift + c * lam
    (m >= 2, N floats, and N more for the update below when a node is
    lifted).  A new pair refactors first.

    At gamma == 1 the two weights differ at most on the origin node o, when
    it is a node: there ``_degenerate_weight`` lifts A's weight off zero, by
    delta = (h_min / 2)^2.  With such a lifted node o, where A's weight
    exceeds the surrogate's by delta, y-mode j of shift*I - c*A is the
    surrogate's x-problem S_j plus rho_j e_o e_o^T, rho_j = c * delta * mu_j,
    and a Sherman-Morrison update per y-mode, made in the surrogate's
    eigenbasis, solves it exactly (the capacitance method of Buzbee, Dorr,
    George and Golub, SIAM J. Numer. Anal. 8, 1971, whose capacitance matrix
    is 1 x 1 per y-mode).
    """

    def __init__(self, grid: Grid, space: GrushinSpace) -> None:
        weight = _degenerate_weight(grid, space)
        self.m = m = space.m
        self.shape = grid.shape
        self._key = self._factors = None
        # (nodes, cells) of every y-axis, for the sines.
        self._y_axes = list(zip(grid.shape[m:], grid.cells[m:]))
        mu = np.zeros(())
        for (n, c), h in zip(self._y_axes, grid.h[m:]):
            j = np.arange(1, n + 1)
            mu_d = (2.0 * np.sin(0.5 * np.pi * j / c) / float(h)) ** 2
            mu = np.add.outer(mu, mu_d)
        self.mu = mu.ravel()
        if m == 1:
            self.exact = True
            self.inv_h2 = 1.0 / float(grid.h[0]) ** 2
            self.W = weight.ravel()
            return
        # Per y-mode j and x-axis d: T = K_d + mu_j diag(w_d) =
        # Q diag(lam) Q^T.  self.lam[j, i_1, ..., i_m] sums lam over the
        # x-axes, the eigenvalues of the surrogate's j-th x-problem.
        self.bases = []
        self.lam = np.zeros((self.mu.size,) + (1,) * m)
        surrogate = np.zeros((1,) * m)
        for d in range(m):
            n, inv_h2 = grid.shape[d], 1.0 / float(grid.h[d]) ** 2
            if space.gamma == 0.0:   # A's weight 1, on x-axis 0 alone
                w = np.full(n, float(d == 0))
            else:
                w = (np.abs(grid.axis_coords(d)) ** (2.0 * space.gamma)
                     / float(m) ** (1.0 - space.gamma))
            T = np.zeros((self.mu.size, n, n))
            i = np.arange(n)
            T[:, i, i] = 2.0 * inv_h2 + np.multiply.outer(self.mu, w)
            T[:, i[1:], i[:-1]] = T[:, i[:-1], i[1:]] = -inv_h2
            lam, Q = np.linalg.eigh(T)
            self.bases.append(Q)
            shape = [self.mu.size] + [1] * m
            shape[1 + d] = n
            self.lam = self.lam + lam.reshape(shape)
            surrogate = surrogate + w.reshape(shape[1:])
        # At gamma == 1 both weights sum the same squares in the same order,
        # and the division by 1.0 is exact, so off the origin they agree to
        # the bit; at gamma == 0 both are 1 everywhere.
        lift = weight.reshape(grid.shape[:m]) - surrogate
        lifted = np.flatnonzero(lift)
        self.exact = lifted.size <= 1
        # The lifted node o's entries in every eigenvector of the surrogate's
        # x-problems, q[j] = (x)_d Q_d[j][o_d, :], and the lift delta.
        self.q, self.delta = None, 0.0
        if lifted.size == 1:
            o = np.unravel_index(lifted[0], lift.shape)
            self.delta = float(lift[o])
            q = np.ones((self.mu.size,) + (1,) * m)
            for d, Q in enumerate(self.bases):
                shape = [self.mu.size] + [1] * m
                shape[1 + d] = Q.shape[1]
                q = q * Q[:, o[d], :].reshape(shape)
            self.q = q.reshape(self.mu.size, -1)

    def _first_mode(self, profile: np.ndarray) -> np.ndarray:
        """The grid vector of the y-mode j = 1 with x-profile ``profile``
        (the x-nodes' values, flat or shaped): the profile times the first
        sine of every y-axis."""
        for n, c in self._y_axes:
            profile = np.multiply.outer(profile, _sine_rows(n, c, 1)[0])
        return profile.ravel()

    @cached_property
    def sines(self) -> list:
        """The orthonormal DST-I matrix of every y-axis, built on first use
        (the first solve) and kept."""
        return [_sine_rows(n, c, n) for n, c in self._y_axes]

    def _transform(self, U: np.ndarray) -> np.ndarray:
        """Orthonormal DST-I along every y-axis of a grid-shaped array: the
        axis is swapped last and the 2-D product ``np.tensordot`` would make
        is taken there, without its wrapper.  ``swapaxes`` makes the same
        views as ``np.moveaxis`` for k <= 2 and the same bytes for any k,
        without the Python calls that cost ``np.moveaxis`` about 14 us per
        transform at 19^3."""
        for d, S in enumerate(self.sines, start=self.m):
            V = U.swapaxes(d, -1)
            W = np.dot(V.reshape(-1, S.shape[0]), S)
            U = W.reshape(V.shape).swapaxes(d, -1)
        return U

    def solve(self, b: np.ndarray, c: float, shift: float = 1.0) -> np.ndarray:
        """x with (shift*I - c*A) x = b, for finite c >= 0 and shift >= 0
        not both 0 (else ValueError); exact up to rounding when ``exact``,
        else with A's surrogate.  With a lifted node the update is made
        between the two halves of the surrogate solve, in its eigenbasis,
        where the lifted node's row of the x-problems is q."""
        b = np.asarray(b, dtype=float)
        if not np.all(np.isfinite(b)):
            raise NumericalBreakdown("non-finite right-hand side in the "
                                     "separable solve")
        if (c, shift) != self._key:
            self._factors = self._factorize(c, shift)
            self._key = (c, shift)
        rhs = self._transform(b.reshape(self.shape))
        if self.m == 1:
            x = _substitute(*self._factors, rhs.reshape(self.shape[0], -1))
        else:
            denominators, update = self._factors
            X = _mode_products(rhs.reshape(-1, self.mu.size).T, self.bases)
            X = X / denominators
            if update is not None:
                X -= np.einsum("ji,ji->j", self.q, X)[:, None] * update
            x = _mode_products(X, self.bases, inverse=True).T
        return self._transform(x.reshape(self.shape)).ravel()

    def _factorize(self, c: float, shift: float):
        """What :meth:`solve` keeps for ``(c, shift)``: (pivot, ratio, off)
        of every y-mode's x-tridiagonal when m == 1; when m >= 2, the
        denominators shift + c * lam and, with a lifted node, the update
        rho_j g_j / (1 + rho_j q_j . g_j) of every y-mode, where
        g_j = q_j / denominators_j is S_j^-1 e_o in the eigenbasis."""
        if not (np.isfinite(c) and np.isfinite(shift) and c >= 0.0
                and shift >= 0.0 and (c > 0.0 or shift > 0.0)):
            raise ValueError("the separable solve needs finite c >= 0 and "
                             f"shift >= 0, not both 0; got c={c!r}, "
                             f"shift={shift!r}")
        if self.m > 1:
            denominators = (shift + c * self.lam).reshape(self.mu.size, -1)
            if self.q is None:
                return denominators, None
            g = self.q / denominators
            rho = c * self.delta * self.mu
            g *= (rho / (1.0 + rho * np.einsum("ji,ji->j", self.q, g)))[:, None]
            return denominators, g
        off = -c * self.inv_h2
        diag = shift + c * (2.0 * self.inv_h2
                            + np.multiply.outer(self.W, self.mu))
        return _factor(diag, off) + (off,)

    def eigenpair(self, A: SparseMatrix, cell_volume: float) -> EigenResult:
        """First eigenpair of -A in closed form, from the y-mode j = 1, and
        phi1 scaled by ``cell_volume`` as :func:`smallest_eigenpair` says;
        ValueError unless ``exact``.

        m == 1: lambda1 is the smallest eigenvalue of K_x + mu_1 diag(W),
        bracketed in [0, min diagonal] and bisected with Sturm tests to the
        last bit; one factorization of the shifted tridiagonal and two
        substitutions give its x-profile.

        m >= 2: in the surrogate's eigenbasis the x-problem is
        diag(d) + rho g g^T, with d = lam[0], g = q[0] and rho =
        delta * mu_1.  lambda1 is the root of the secular equation
        1 + rho sum g_i^2 / (d_i - lambda) = 0 next to min d, bisected to the
        last bit (Golub, SIAM Rev. 15, 1973), and the x-profile is
        g / (d - lambda1) mapped back through the bases.  Without a lifted
        node lambda1 is min d and the profile its eigenvector.

        phi1 is the x-profile times the first sine of every y-axis, and
        lambda1 and the residual are measured against the assembled ``A``.
        """
        if not self.exact:
            raise ValueError("only an exact separable solver has a "
                             "closed-form eigenpair")
        if self.m == 1:
            diag = 2.0 * self.inv_h2 + self.mu[0] * self.W
            entries = diag.tolist()
            lo, steps = _bisect(
                lambda s: _has_eigenvalue_below(entries, self.inv_h2 ** 2, s),
                0.0, min(entries))
            # A shift a few rounding units of |T| below lambda1 keeps
            # T - shift SPD, so Thomas needs no pivoting, and each solve
            # shrinks every other eigenvector against the first by
            # (lambda1 - shift) / (lambda_j - shift); two solves put them
            # below rounding.
            shift = lo - 64.0 * np.finfo(float).eps * (max(entries)
                                                         + 2.0 * self.inv_h2)
            pivot, ratio = _factor(diag - shift, -self.inv_h2)
            v = np.ones(diag.size)
            for _ in range(2):
                v = _substitute(pivot, ratio, -self.inv_h2, v)
        else:
            d = self.lam[0].ravel()
            if self.q is None:
                v, steps = (d == d.min()).astype(float), 0
            else:
                g, rho = self.q[0], self.delta * self.mu[0]
                # Weyl's bound and interlacing bracket lambda1: it lies
                # between min d and min d + rho |g|^2, and below the second
                # smallest d.  There is an eigenvalue below s exactly when
                # 1/rho + sum g_i^2 / (d_i - s) > 0 inside that bracket.
                first, spread = float(d.min()), rho * float(g @ g)
                second = float(np.partition(d, 1)[1]) if d.size > 1 else np.inf
                lo, steps = _bisect(
                    lambda s: 1.0 / rho + float(np.sum(g * g / (d - s))) > 0.0,
                    first + min(spread, 0.0),
                    min(second, first + max(spread, 0.0)))
                v = g / (d - lo)
            v = _mode_products(v[None], [Q[:1] for Q in self.bases],
                               inverse=True)[0]
        v = self._first_mode(v)
        v /= float(np.linalg.norm(v))
        # B v and then the residual B v - lam v, in A v's buffer, with
        # lam v formed a block of A's product plan at a time; the buffer is
        # freed before phi1 is scaled, in v's array.
        Bv = A.apply(v)
        np.negative(Bv, out=Bv)
        lam = float(v @ Bv)
        for rows, _ in A.plan:
            Bv[rows] -= lam * v[rows]
        residual = float(np.linalg.norm(Bv))
        del Bv
        return _eigen_result(v, lam, residual, steps, "separable",
                             cell_volume)
