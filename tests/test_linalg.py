"""Conjugate gradients, the separable m = 1 solver and the smallest
eigenpair of the discrete operator."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import grushinlab
from grushinlab import (BoxDomain, GrushinSpace, NonConvergence,
                        NumericalBreakdown, SolverError, SparseMatrix, apply,
                        assemble_grushin, build_grid, cg_solve,
                        grushin_energy, l2_norm_sq, smallest_eigenpair)
from grushinlab.linalg import SeparableSolver, separable_solver

from oracles import dense_from_csr, jacobi_eigenvalues


def diag_matrix(values):
    values = np.asarray(values, dtype=float)
    n = values.size
    return SparseMatrix(n=n, indptr=np.arange(n + 1), indices=np.arange(n),
                        values=values, symmetric=True)


def grushin_setup(bounds, cells, gamma, m=1, k=None):
    k = k if k is not None else len(bounds) - m
    space = GrushinSpace(m, k, gamma)
    grid = build_grid(BoxDomain(bounds), cells)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        A = assemble_grushin(grid, space)
    return grid, space, A


def closed_form_lambda1(cells):
    """Smallest eigenvalue of the 5-point Dirichlet Laplacian on the unit
    square with cells subdivisions per axis."""
    h = 1.0 / cells
    return (8.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2


class TestCgSolve:
    def test_identity_converges_immediately(self):
        A = diag_matrix(np.ones(5))
        b = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
        x, report = cg_solve(A, b)
        assert np.allclose(x, b, rtol=0.0, atol=1e-12)
        assert report.iterations <= 1

    def test_diagonal_two(self):
        A = diag_matrix(2.0 * np.ones(4))
        b = np.array([2.0, 4.0, -6.0, 1.0])
        x, _ = cg_solve(A, b)
        assert np.allclose(x, b / 2.0, rtol=1e-12, atol=0.0)

    def test_zero_rhs_short_circuits(self):
        A = diag_matrix(np.ones(3))
        x, report = cg_solve(A, np.zeros(3))
        assert np.array_equal(x, np.zeros(3))
        assert report.iterations == 0

    def test_manufactured_solution(self):
        grid, _, A = grushin_setup([(0.0, 1.0), (0.0, 1.0)], (12, 12), 0.0)
        scale = float(np.abs(A.values).max())
        B = lambda v: v - apply(A, v) / scale  # SPD, spectrum within [1, 3]
        rng = np.random.default_rng(5)
        tol = 1e-10
        for _ in range(5):
            x_star = rng.standard_normal(grid.N)
            b = B(x_star)
            x, report = cg_solve(B, b, tol=tol)
            rel = np.linalg.norm(x - x_star) / np.linalg.norm(x_star)
            assert rel <= 10.0 * tol
            assert report.final_residual <= tol

    def test_warm_start_uses_given_iterate(self):
        A = diag_matrix(np.array([1.0, 2.0, 3.0]))
        b = np.array([1.0, 2.0, 3.0])
        x, report = cg_solve(A, b, x0=np.array([1.0, 1.0, 1.0]))
        assert np.allclose(x, np.array([1.0, 1.0, 1.0]))
        assert report.iterations == 0

    def test_nonconvergence_carries_best_iterate(self):
        grid, _, A = grushin_setup([(0.0, 1.0), (0.0, 1.0)], (16, 16), 0.0)
        B = A.negated()
        b = np.ones(grid.N)
        with pytest.raises(NonConvergence) as info:
            cg_solve(B, b, tol=1e-14, max_iter=2)
        err = info.value
        assert err.iterations == 2
        assert err.residual > 1e-14
        assert err.best_x.shape == b.shape
        assert isinstance(err, SolverError)

    def test_nan_rhs_raises_breakdown(self):
        A = diag_matrix(np.ones(3))
        with pytest.raises(NumericalBreakdown):
            cg_solve(A, np.array([np.nan, 1.0, 0.0]))

    def test_indefinite_matrix_raises(self):
        A = diag_matrix(np.array([-1.0, -1.0]))
        with pytest.raises(SolverError):
            cg_solve(A, np.array([1.0, 2.0]))


class TestSmallestEigenpair:
    def test_matches_closed_form_on_unit_square(self):
        for cells in (8, 16, 32):
            grid, _, A = grushin_setup([(0.0, 1.0), (0.0, 1.0)],
                                       (cells, cells), 0.0)
            eig = smallest_eigenpair(A, cell_volume=grid.cell_volume)
            assert eig.lambda1 == pytest.approx(closed_form_lambda1(cells),
                                                rel=1e-8)

    def test_continuum_value_on_fine_rectangle(self):
        grid, _, A = grushin_setup([(0.0, 1.0), (0.0, 2.0)], (64, 128), 0.0)
        eig = smallest_eigenpair(A, cell_volume=grid.cell_volume)
        assert eig.lambda1 == pytest.approx(np.pi ** 2 * 1.25, rel=1e-2)

    def test_result_invariants(self):
        grid, space, A = grushin_setup([(0.0, 1.0), (0.0, 1.0)], (16, 16), 0.5)
        eig = smallest_eigenpair(A, tol=1e-9, cell_volume=grid.cell_volume)
        assert eig.lambda1 > 0.0
        assert eig.residual <= 1e-9 * eig.lambda1
        assert l2_norm_sq(grid, eig.phi1) == pytest.approx(1.0, rel=1e-12)
        assert eig.phi1[np.argmax(np.abs(eig.phi1))] > 0.0
        assert eig.phi1.min() > 0.0  # ground state has one sign

    def test_dense_oracle_agreement(self):
        cases = [
            ([(0.0, 1.0), (0.0, 1.0)], (11, 11), 0.0, 1),
            ([(-1.0, 1.0), (0.0, 1.0)], (12, 8), 1.0, 1),
            ([(-1.0, 1.0), (-1.0, 1.0), (0.0, 1.0)], (6, 6, 6), 1.0, 2),
        ]
        for bounds, cells, gamma, m in cases:
            grid, _, A = grushin_setup(bounds, cells, gamma, m=m)
            assert grid.N <= 400
            eig = smallest_eigenpair(A, cell_volume=grid.cell_volume)
            dense = dense_from_csr(A.n, A.indptr, A.indices, A.values)
            reference = float(jacobi_eigenvalues(-dense)[0])
            assert eig.lambda1 == pytest.approx(reference, rel=1e-8)

    def test_poincare_inequality_on_random_vectors(self):
        for gamma in (0.0, 0.5, 1.0):
            grid, space, A = grushin_setup([(0.0, 1.0), (0.0, 1.0)],
                                           (16, 16), gamma)
            eig = smallest_eigenpair(A, cell_volume=grid.cell_volume)
            rng = np.random.default_rng(101)
            for _ in range(100):
                u = rng.standard_normal(grid.N)
                energy = grushin_energy(grid, space, u)
                assert energy >= eig.lambda1 * l2_norm_sq(grid, u) \
                    - 1e-10 * energy

    def test_equality_case_at_first_eigenmode(self):
        grid, space, A = grushin_setup([(0.0, 1.0), (0.0, 1.0)], (20, 20), 1.0)
        eig = smallest_eigenpair(A, cell_volume=grid.cell_volume)
        rayleigh = grushin_energy(grid, space, eig.phi1) / l2_norm_sq(
            grid, eig.phi1)
        assert rayleigh == pytest.approx(eig.lambda1, rel=1e-9)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_lambda1_nonincreasing_under_domain_enlargement(self, gamma):
        small = grushin_setup([(0.5, 1.5), (0.0, 1.0)], (16, 16), gamma)
        large = grushin_setup([(0.5, 2.5), (0.0, 1.0)], (32, 16), gamma)
        lam_small = smallest_eigenpair(
            small[2], cell_volume=small[0].cell_volume).lambda1
        lam_large = smallest_eigenpair(
            large[2], cell_volume=large[0].cell_volume).lambda1
        assert lam_large <= lam_small * (1.0 + 1e-10)
        assert lam_large < lam_small

    def test_requires_symmetric_flag(self):
        A = SparseMatrix(n=2, indptr=np.array([0, 1, 2]),
                         indices=np.array([0, 1]),
                         values=np.array([-1.0, -2.0]), symmetric=False)
        with pytest.raises(ValueError):
            smallest_eigenpair(A)

    def test_inner_solve_failure_propagates(self):
        # positive definite input makes the negated system indefinite for CG
        A = diag_matrix(np.array([1.0, 2.0]))
        with pytest.raises(SolverError):
            smallest_eigenpair(A)


class TestOneEntryPoint:
    """smallest_eigenpair picks the path from the operator alone."""

    @pytest.mark.parametrize("m, cells, method", [
        (1, (10, 8), "separable"),
        (2, (5, 4, 4), "inverse-iteration"),
    ])
    def test_assembled_operator_picks_its_path(self, m, cells, method):
        grid, space, A = grushin_setup([(-1.0, 1.0)] + [(0.0, 1.5)] * m,
                                       cells, gamma=1.0, m=m, k=1)
        eig = smallest_eigenpair(A)
        assert eig.method == method
        assert l2_norm_sq(grid, eig.phi1) == pytest.approx(1.0, rel=1e-12)
        assert eig.phi1[np.argmax(np.abs(eig.phi1))] > 0.0
        assert (separable_solver(A) is None) == (m != 1)

    def test_hand_built_matrix_takes_inverse_iteration(self):
        A = diag_matrix([-3.0, -1.0, -2.0])
        eig = smallest_eigenpair(A, tol=1e-9)
        assert eig.method == "inverse-iteration"
        assert eig.lambda1 == pytest.approx(1.0, rel=1e-9)
        assert float(eig.phi1 @ eig.phi1) == pytest.approx(1.0, rel=1e-12)
        assert separable_solver(A) is None

    def test_largest_entry_is_made_positive(self):
        # Ground state x has a positive projection on the all-ones start
        # vector, so inverse iteration converges to +x, whose largest entry
        # is negative.
        x = np.array([1.0, 1.0, -1.5])
        B = 3.0 * np.eye(3) - 2.0 * np.outer(x, x) / (x @ x)
        A = SparseMatrix(n=3, indptr=np.array([0, 3, 6, 9]),
                         indices=np.tile(np.arange(3), 3),
                         values=-B.ravel(), symmetric=True)
        eig = smallest_eigenpair(A, tol=1e-9)
        assert eig.lambda1 == pytest.approx(1.0, rel=1e-9)
        assert np.allclose(eig.phi1, -x / np.linalg.norm(x), atol=1e-8)

    def test_negated_copy_forgets_its_grid(self):
        _, _, A = grushin_setup([(0.0, 1.0), (0.0, 1.0)], (4, 4), gamma=1.0)
        assert A.grid is not None and A.space is not None
        B = A.negated()
        assert B.grid is None and B.space is None
        assert separable_solver(B) is None

    @pytest.mark.parametrize("m", [1, 2])
    def test_explicit_cell_volume_keeps_its_meaning(self, m):
        grid, _, A = grushin_setup([(0.0, 1.0)] * (m + 1), (4,) * (m + 1),
                                   gamma=1.0, m=m, k=1)
        default = smallest_eigenpair(A, tol=1e-10)
        scaled = smallest_eigenpair(A, tol=1e-10, cell_volume=0.25)
        assert float(scaled.phi1 @ scaled.phi1) * 0.25 == pytest.approx(
            1.0, rel=1e-12)
        assert np.allclose(scaled.phi1 * 0.5,
                           default.phi1 * np.sqrt(grid.cell_volume),
                           rtol=1e-6, atol=0.0)


class TestSeparableSolver:
    @pytest.mark.parametrize("bounds, cells", [
        ([(-1.0, 1.0), (0.0, 2.0)], (7, 6)),
        ([(-0.5, 1.5), (0.0, 1.0), (0.0, 0.5)], (5, 4, 3)),
    ])
    def test_dense_oracle_agreement(self, bounds, cells):
        grid, space, A = grushin_setup(bounds, cells, gamma=1.0)
        eig = SeparableSolver(grid, space).eigenpair(A)
        dense = -dense_from_csr(A.n, A.indptr, A.indices, A.values)
        want = jacobi_eigenvalues(dense)[0]
        assert eig.lambda1 == pytest.approx(want, rel=1e-12)
        assert eig.method == "separable"
        assert eig.residual <= 1e-12 * eig.lambda1

    def test_laplacian_closed_form(self):
        # gamma = 0 on the unit square: the sum of the two 1D eigenvalues.
        grid, space, A = grushin_setup([(0.0, 1.0), (0.0, 1.0)], (16, 12),
                                       gamma=0.0)
        eig = SeparableSolver(grid, space).eigenpair(A)
        want = sum((2.0 * c * np.sin(np.pi / (2 * c))) ** 2 for c in (16, 12))
        assert eig.lambda1 == pytest.approx(want, rel=1e-13)

    def test_solve_inverts_the_step_matrix(self):
        grid, space, A = grushin_setup([(-1.0, 1.0), (-1.0, 1.0)], (12, 10),
                                       gamma=1.0)
        x = np.random.default_rng(3).standard_normal(grid.N)
        b = x - 1.25 * apply(A, x)
        got = SeparableSolver(grid, space).solve(b, 1.25)
        assert np.abs(got - x).max() <= 1e-13 * np.abs(x).max()

    def test_needs_one_x_axis(self):
        grid, space, _ = grushin_setup([(0.0, 1.0)] * 3, (3, 3, 3),
                                       gamma=1.0, m=2)
        with pytest.raises(ValueError, match="m == 1"):
            SeparableSolver(grid, space)

    def test_nan_rhs_raises_breakdown(self):
        grid, space, _ = grushin_setup([(0.0, 1.0), (0.0, 1.0)], (4, 4),
                                       gamma=1.0)
        b = np.ones(grid.N)
        b[2] = np.nan
        with pytest.raises(NumericalBreakdown):
            SeparableSolver(grid, space).solve(b, 1.0)


def test_m1_pipeline_imports_neither_scipy_fft_nor_linalg():
    # Either module would add start-up time and resident memory to every run.
    code = (
        "import sys, grushinlab as gl\n"
        "cfg = gl.parse_config_dict({'space': {'m': 1, 'k': 1, 'gamma': 1.0},"
        " 'bounds': [[-1, 1], [-1, 1]], 'cells': [8, 8], 'mode': 'blowup',"
        " 'sim': {'t_end': 0.01}})\n"
        "assert gl.run_experiment(cfg).failure is None\n"
        "grid = gl.build_grid(cfg.domain, (16, 12))\n"
        "A = gl.assemble_grushin(grid, cfg.space)\n"
        "assert gl.smallest_eigenpair(A).method == 'separable'\n"
        "print([m for m in ('scipy.fft', 'scipy.linalg') if m in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(grushinlab.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestJacobiOracleSelfChecks:
    def test_two_by_two(self):
        eigs = jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eigs, [1.0, 3.0], rtol=0.0, atol=1e-13)

    def test_diagonal_passthrough(self):
        eigs = jacobi_eigenvalues(np.diag([3.0, -1.0, 7.0]))
        assert np.allclose(eigs, [-1.0, 3.0, 7.0])

    def test_tridiagonal_closed_form(self):
        n = 20
        main = 2.0 * np.ones(n)
        mat = np.diag(main) - np.diag(np.ones(n - 1), 1) \
            - np.diag(np.ones(n - 1), -1)
        expect = np.sort(
            2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
        assert np.allclose(jacobi_eigenvalues(mat), expect, atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
