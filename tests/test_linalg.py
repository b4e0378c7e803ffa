"""Conjugate gradients (preconditioned, and plain with the identity), the
separable solver (exact for m = 1 and at gamma = 1, a preconditioner
otherwise) and the smallest eigenpair of the discrete operator."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import grushinlab
from grushinlab import (BoxDomain, GrushinSpace, Power, SimConfig,
                        SolverError, apply, assemble_grushin, build_grid,
                        build_initial_condition, grushin_energy, integrator,
                        l2_norm_sq, linalg, parse_config, run,
                        smallest_eigenpair)
from grushinlab.linalg import (NonConvergence, NumericalBreakdown,
                               SeparableSolver, cg_solve, inverse_iteration)
from grushinlab.operators import SparseMatrix

from conftest import CONFIG_DIR, config_path
from oracles import (continuum_lambda1, dense_from_csr, identity,
                     jacobi_eigenvalues, sturm_below_reference,
                     surrogate_dense, transform_reference)


def diag_matrix(values):
    values = np.asarray(values, dtype=float)
    return SparseMatrix(n=values.size, diagonals={0: values})


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
        x, report = cg_solve(A.apply, b, identity)
        assert np.allclose(x, b, rtol=0.0, atol=1e-12)
        assert report.iterations <= 1

    def test_diagonal_two(self):
        A = diag_matrix(2.0 * np.ones(4))
        b = np.array([2.0, 4.0, -6.0, 1.0])
        x, _ = cg_solve(A.apply, b, identity)
        assert np.allclose(x, b / 2.0, rtol=1e-12, atol=0.0)

    def test_zero_rhs_short_circuits(self):
        A = diag_matrix(np.ones(3))
        x, report = cg_solve(A.apply, np.zeros(3), identity)
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
            x, report = cg_solve(B, b, identity, tol=tol)
            rel = np.linalg.norm(x - x_star) / np.linalg.norm(x_star)
            assert rel <= 10.0 * tol
            assert report.final_residual <= tol

    def test_warm_start_uses_given_iterate(self):
        A = diag_matrix(np.array([1.0, 2.0, 3.0]))
        b = np.array([1.0, 2.0, 3.0])
        x, report = cg_solve(A.apply, b, identity,
                             x0=np.array([1.0, 1.0, 1.0]))
        assert np.allclose(x, np.array([1.0, 1.0, 1.0]))
        assert report.iterations == 0

    def test_nonconvergence_carries_best_iterate(self):
        grid, _, A = grushin_setup([(0.0, 1.0), (0.0, 1.0)], (16, 16), 0.0)
        B = lambda v: -apply(A, v)
        b = np.ones(grid.N)
        with pytest.raises(NonConvergence) as info:
            cg_solve(B, b, identity, tol=1e-14, max_iter=2)
        err = info.value
        assert err.iterations == 2
        assert err.residual > 1e-14
        assert err.best_x.shape == b.shape
        assert isinstance(err, SolverError)

    def test_convergence_is_confirmed_on_the_true_residual(self):
        # The first true-residual check (the matvec's second product with
        # the iterate array) is perturbed, so the recurrence's convergence
        # is turned down and CG restarts from the true residual.
        A = diag_matrix(np.arange(1.0, 6.0))
        b = np.ones(5)
        _, plain = cg_solve(A.apply, b, identity)
        iterate_products = []

        def matvec(v):
            out = A.apply(v)
            if not iterate_products or v is iterate_products[0]:
                iterate_products.append(v)
                if len(iterate_products) == 2:
                    out = out + 1e-3
            return out
        x, report = cg_solve(matvec, b, identity)
        assert (plain.iterations, report.iterations) == (5, 6)
        assert len(iterate_products) == 4
        assert np.allclose(x, 1.0 / np.arange(1.0, 6.0), rtol=1e-12, atol=0.0)
        assert report.final_residual <= 1e-10

    def test_nan_rhs_raises_breakdown(self):
        A = diag_matrix(np.ones(3))
        with pytest.raises(NumericalBreakdown):
            cg_solve(A.apply, np.array([np.nan, 1.0, 0.0]), identity)

    def test_indefinite_matrix_raises(self):
        A = diag_matrix(np.array([-1.0, -1.0]))
        with pytest.raises(SolverError):
            cg_solve(A.apply, np.array([1.0, 2.0]), identity)


class TestPreconditionedCg:
    def test_identity_preconditioner_is_plain_cg(self):
        # On this m = 2, gamma = 1.5 step matrix and on -A, CG with the
        # identity takes the 62 and 64 iterations that plain CG took when
        # cg_solve had a branch of its own for it.
        _, _, A = grushin_setup([(-1.0, 1.0)] * 3, (10, 10, 10), gamma=1.5,
                                m=2)
        b = np.random.default_rng(5).standard_normal(A.n)
        for matvec, iterations in ((lambda v: v - 1.5 * apply(A, v), 62),
                                   (lambda v: -apply(A, v), 64)):
            x, rep = cg_solve(matvec, b, identity, tol=1e-10)
            assert rep.iterations == iterations
            assert np.linalg.norm(b - matvec(x)) <= 1e-10 * np.linalg.norm(b)

    def test_indefinite_preconditioner_raises(self):
        A = diag_matrix([1.0, 2.0, 3.0])
        with pytest.raises(NumericalBreakdown, match="M\\^-1"):
            cg_solve(A.apply, np.ones(3), precond=lambda r: -r)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k, cells", [(1, (12, 12, 12)), (2, (6, 6, 6, 6))])
    def test_iteration_ceiling(self, k, cells, gamma):
        # Plain CG needs 27 to 89 iterations on these; the separable
        # preconditioner needs at most 13, whatever the grid.  A broken
        # preconditioner fails here instead of only running slower.
        grid, space, A = grushin_setup([(-1.0, 1.0)] * (2 + k), cells,
                                       gamma=gamma, m=2, k=k)
        solver = A.solver
        b = np.random.default_rng(7).standard_normal(A.n)
        c = 1.01
        lhs = lambda v: v - c * apply(A, v)
        x, rep = cg_solve(lhs, b, tol=1e-10,
                          precond=lambda r: solver.solve(r, c))
        assert rep.iterations <= 15
        B = lambda v: -apply(A, v)
        _, rep = cg_solve(B, b, tol=1e-10,
                          precond=lambda r: solver.solve(r, 1.0, shift=0.0))
        assert rep.iterations <= 15


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

    def test_peak_memory_of_a_fresh_eigensolve(self):
        # In units of one 127 x 127 state (8 N bytes): assembly hands its
        # frozen arrays to the matrix, whose stride pairs share one array,
        # the eigenpair builds no sine matrix, and its closing check forms
        # B v and the residual in A v's buffer and frees it before phi1 is
        # scaled, so assembly plus the eigensolve peak at about 6.1 states.
        # Negating A v into a new array and forming the residual apart put
        # the peak at about 7.1; copying every diagonal and building the
        # 127 x 127 sine matrix, at about 10.
        # A small solve first, so that one-time first-use allocations fall
        # outside the trace.
        smallest_eigenpair(grushin_setup([(-1.0, 1.0)] * 2, (8, 8),
                                         gamma=1.0)[2])
        grid = build_grid(BoxDomain([(-1.0, 1.0)] * 2), (128, 128))
        space = GrushinSpace(1, 1, 1.0)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                smallest_eigenpair(assemble_grushin(grid, space))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 8 * grid.N

    def test_peak_memory_of_a_fresh_eigensolve_at_256(self):
        # In units of one 255 x 255 state: the peak is the closing check's,
        # the three diagonals of A, v and A v, whose residual takes lam v a
        # block of rows at a time, about 5.3.  A full-size lam v puts it at
        # about 6.05.
        smallest_eigenpair(grushin_setup([(-1.0, 1.0)] * 2, (8, 8),
                                         gamma=1.0)[2])
        grid = build_grid(BoxDomain([(-1.0, 1.0)] * 2), (256, 256))
        space = GrushinSpace(1, 1, 1.0)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                smallest_eigenpair(assemble_grushin(grid, space))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.6 * 8 * grid.N

    @pytest.mark.parametrize("m, gamma, method", [
        (1, 1.0, "separable"), (2, 1.0, "separable"),
        (2, 1.5, "inverse-iteration")])
    def test_phi1_owns_its_memory(self, m, gamma, method):
        # phi1 is scaled in the array the eigenpair made for it: the memory
        # it views is its own, all of it, and none of A's.
        _, _, A = grushin_setup([(-1.0, 1.0)] * (m + 1), (6,) * (m + 1),
                                gamma=gamma, m=m)
        eig = smallest_eigenpair(A)
        assert eig.method == method
        phi = eig.phi1
        owner = phi if phi.base is None else phi.base
        assert owner.flags.owndata and owner.nbytes == phi.nbytes
        assert phi.flags.writeable
        assert not any(np.shares_memory(phi, c)
                       for c in A.diagonals.values())

    def test_inverse_iteration_leaves_its_start_unchanged(self):
        _, _, A = grushin_setup([(-1.0, 1.0)] * 3, (6, 6, 6), gamma=1.5, m=2)
        start = np.random.default_rng(2).uniform(0.5, 1.5, A.n)
        kept = start.copy()
        eig = inverse_iteration(A, identity, tol=1e-9, cell_volume=1.0,
                                start=start)
        assert start.tobytes() == kept.tobytes()
        assert not np.shares_memory(eig.phi1, start)

    def test_requires_symmetric_flag(self):
        # An eigensolve needs a symmetric operator, and only assemble_grushin
        # vouches for one: a hand-built matrix, here an asymmetric one, is
        # refused before any iteration.
        A = SparseMatrix(n=2, diagonals={0: [-1.0, -2.0], 1: [0.5],
                                         -1: [-0.25]})
        with pytest.raises(ValueError, match="assemble_grushin"):
            smallest_eigenpair(A)

    def test_stalled_residual_raises_early(self):
        # The inner CG's default 1e-10 tolerance keeps the eigen-residual
        # above 1e-12 * lambda.
        A = diag_matrix([-3.0, -1.0, -2.0])
        with pytest.raises(NonConvergence) as info:
            inverse_iteration(A, identity, tol=1e-12, max_iter=10_000,
                              cell_volume=1.0)
        assert info.value.iterations < 1_000
        assert info.value.residual > 1e-12
        assert info.value.best_x.shape == (3,)

    def test_inner_solve_failure_propagates(self):
        # positive definite input makes the negated system indefinite for CG
        A = diag_matrix(np.array([1.0, 2.0]))
        with pytest.raises(SolverError):
            inverse_iteration(A, identity, cell_volume=1.0)


class TestOneEntryPoint:
    """smallest_eigenpair picks the path from the operator alone."""

    @pytest.mark.parametrize("m, cells, method", [
        (1, (10, 8), "separable"),
        (2, (5, 4, 4), "inverse-iteration"),
        (2, (4, 4, 4), "separable"),
    ])
    def test_assembled_operator_picks_its_path(self, m, cells, method):
        # At m = 2 the path follows gamma: gamma = 1 is exact and
        # gamma = 1.5 iterates.
        gamma = 1.5 if method == "inverse-iteration" else 1.0
        grid, space, A = grushin_setup([(-1.0, 1.0)] + [(0.0, 1.5)] * m,
                                       cells, gamma=gamma, m=m, k=1)
        eig = smallest_eigenpair(A)
        assert eig.method == method
        assert l2_norm_sq(grid, eig.phi1) == pytest.approx(1.0, rel=1e-12)
        assert eig.phi1[np.argmax(np.abs(eig.phi1))] > 0.0
        assert A.solver.exact == (method == "separable")
        assert (eig.solver_iterations == 0) == (method == "separable")

    def test_inexact_operator_takes_preconditioned_inverse_iteration(self):
        # With m = 2 at gamma = 1.5 the weights differ on every x-node, so
        # the solver is a preconditioner, and smallest_eigenpair returns
        # inverse iteration preconditioned by it and started in the y-mode
        # j = 1, constant in x.
        grid, space, A = grushin_setup([(0.0, 1.0)] * 3, (3, 3, 3),
                                       gamma=1.5, m=2)
        solver = A.solver
        assert not solver.exact
        start = solver._first_mode(np.ones(grid.shape[:2]))
        want = inverse_iteration(A, lambda r: solver.solve(r, 1.0, shift=0.0),
                                 cell_volume=grid.cell_volume, start=start)
        got = smallest_eigenpair(A)
        assert got.method == want.method == "inverse-iteration"
        assert got.lambda1 == want.lambda1
        assert got.phi1.tobytes() == want.phi1.tobytes()
        assert ((got.residual, got.iterations, got.solver_iterations)
                == (want.residual, want.iterations, want.solver_iterations))

    @pytest.mark.parametrize("name", ["blowup_cubic.json", "blowup_m2.json"])
    def test_exact_eigenpair_reads_no_iterative_setting(self, name):
        # Settings no iteration could meet in one step change no byte of an
        # exact eigenpair.
        cfg = parse_config(config_path(name))
        _, _, A = grushin_setup(cfg.domain.bounds, cfg.cells, cfg.space.gamma,
                                m=cfg.space.m)
        assert A.solver.exact
        want = smallest_eigenpair(A)
        got = smallest_eigenpair(A, tol=1e-30, max_iter=1, cg_tol=1e-30)
        assert (got.method, got.lambda1, got.residual, got.iterations,
                got.solver_iterations) == (want.method, want.lambda1,
                                           want.residual, want.iterations,
                                           want.solver_iterations)
        assert got.phi1.tobytes() == want.phi1.tobytes()

    def test_inexact_eigensolve_keeps_its_budget(self):
        # At m = 2, gamma = 1.5 the settings reach inverse iteration.
        _, _, A = grushin_setup([(-1.0, 1.0)] * 3, (6, 6, 6), gamma=1.5, m=2)
        with pytest.raises(NonConvergence):
            smallest_eigenpair(A, max_iter=1)

    def test_hand_built_matrix_has_no_eigensolve_or_march(self):
        # Only assemble_grushin gives a matrix a solver.
        A = diag_matrix([-3.0, -1.0, -2.0])
        with pytest.raises(ValueError, match="assemble_grushin"):
            smallest_eigenpair(A)
        with pytest.raises(ValueError, match="assemble_grushin"):
            run(A, Power(3.0, 1.0), np.ones(3), SimConfig())

    def test_hand_built_matrix_takes_inverse_iteration(self):
        # A hand-built matrix reaches inverse iteration only directly, with
        # the identity preconditioner and its own cell volume.
        eig = inverse_iteration(diag_matrix([-3.0, -1.0, -2.0]), identity,
                                tol=1e-9, cell_volume=1.0)
        assert eig.method == "inverse-iteration"
        assert eig.lambda1 == pytest.approx(1.0, rel=1e-9)
        assert float(eig.phi1 @ eig.phi1) == pytest.approx(1.0, rel=1e-12)

    def test_identity_preconditioned_inverse_iteration_is_the_oracle(self):
        # Unpreconditioned inverse iteration takes the 57 outer steps here
        # that it took when it had a branch of its own, and finds the
        # eigenpair it found then.
        _, _, A = grushin_setup([(-1.0, 1.0)] * 3, (10, 10, 10), gamma=1.5,
                                m=2)
        ref = inverse_iteration(A, identity, tol=1e-10)
        assert (ref.method, ref.iterations) == ("inverse-iteration", 57)
        eig = smallest_eigenpair(A, tol=1e-10)
        assert abs(eig.lambda1 - ref.lambda1) <= 1e-10 * ref.lambda1

    def test_largest_entry_is_made_positive(self):
        # Ground state x has a positive projection on the all-ones start
        # vector, so inverse iteration converges to +x, whose largest entry
        # is negative.
        x = np.array([1.0, 1.0, -1.5])
        B = 3.0 * np.eye(3) - 2.0 * np.outer(x, x) / (x @ x)
        A = SparseMatrix(n=3, diagonals={o: -np.diagonal(B, o)
                                         for o in range(-2, 3)})
        eig = inverse_iteration(A, identity, tol=1e-9, cell_volume=1.0)
        assert eig.lambda1 == pytest.approx(1.0, rel=1e-9)
        assert np.allclose(eig.phi1, -x / np.linalg.norm(x), atol=1e-8)

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


SHIPPED_CONFIGS = sorted(name for name in os.listdir(CONFIG_DIR)
                         if name.endswith(".json"))


def discrete_lambda1(cfg, refine=1):
    """λ1 of the discrete operator on the config's box, its cells times
    ``refine`` on every axis."""
    _, _, A = grushin_setup(cfg.domain.bounds,
                            [refine * c for c in cfg.cells],
                            cfg.space.gamma, m=cfg.space.m)
    return smallest_eigenpair(A, tol=1e-10).lambda1


class TestContinuumLambda1:
    """The discrete λ1 against the continuum one, from
    ``oracles.continuum_lambda1``: the blow-up ranges and the global bound
    use the discrete value, so premises judged with it are on the safe side
    while it lies below the continuum value."""

    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_oracle_is_converged(self, name):
        cfg = parse_config(config_path(name))
        assert continuum_lambda1(cfg, N=80) == pytest.approx(
            continuum_lambda1(cfg, N=40), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_discrete_lambda1_lies_below_the_continuum(self, name):
        cfg = parse_config(config_path(name))
        assert discrete_lambda1(cfg) < continuum_lambda1(cfg)

    @pytest.mark.parametrize("name", ["blowup_cubic.json", "free_sine.json"])
    def test_second_order_in_h(self, name):
        cfg = parse_config(config_path(name))
        lam = continuum_lambda1(cfg)
        order = np.log2((discrete_lambda1(cfg) - lam)
                        / (discrete_lambda1(cfg, refine=2) - lam))
        assert order == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("m, gamma, bounds", [
        (1, 0.75, [(-1.0, 1.0), (0.0, 1.0)]),   # |x|^1.5 kinks at 0
        (1, 0.75, [(0.0, 1.0), (0.0, 1.0)]),    # x^1.5 at the wall
        (2, 0.5, [(0.5, 1.0), (0.5, 1.0), (0.0, 1.0)]),  # not separable
    ])
    def test_refuses_what_collocation_cannot_resolve(self, m, gamma, bounds):
        cfg = SimpleNamespace(space=GrushinSpace(m, len(bounds) - m, gamma),
                              domain=BoxDomain(bounds))
        with pytest.raises(ValueError):
            continuum_lambda1(cfg)


class TestSeparableSolver:
    @pytest.mark.parametrize("bounds, cells", [
        ([(-1.0, 1.0), (0.0, 2.0)], (7, 6)),
        ([(-0.5, 1.5), (0.0, 1.0), (0.0, 0.5)], (5, 4, 3)),
    ])
    def test_dense_oracle_agreement(self, bounds, cells):
        grid, space, A = grushin_setup(bounds, cells, gamma=1.0)
        eig = SeparableSolver(grid, space).eigenpair(A, grid.cell_volume)
        dense = -dense_from_csr(A.n, A.indptr, A.indices, A.values)
        want = jacobi_eigenvalues(dense)[0]
        assert eig.lambda1 == pytest.approx(want, rel=1e-12)
        assert eig.method == "separable"
        assert eig.residual <= 1e-12 * eig.lambda1

    def test_laplacian_closed_form(self):
        # gamma = 0 on the unit square: the sum of the two 1D eigenvalues.
        grid, space, A = grushin_setup([(0.0, 1.0), (0.0, 1.0)], (16, 12),
                                       gamma=0.0)
        eig = SeparableSolver(grid, space).eigenpair(A, grid.cell_volume)
        want = sum((2.0 * c * np.sin(np.pi / (2 * c))) ** 2 for c in (16, 12))
        assert eig.lambda1 == pytest.approx(want, rel=1e-13)

    def test_laplacian_closed_form_at_m2(self):
        # gamma = 0 at m = 2: A is the Laplacian, and the surrogate weight,
        # 1 on x-axis 0 and 0 on x-axis 1, is its weight 1, so the solver is
        # exact.
        bounds, cells = [(-1.0, 1.0), (0.0, 2.5), (0.0, 1.5)], (6, 5, 7)
        grid, space, A = grushin_setup(bounds, cells, gamma=0.0, m=2)
        assert A.solver.exact
        eig = smallest_eigenpair(A)
        assert (eig.method, eig.solver_iterations) == ("separable", 0)
        want = sum((2.0 / float(h) * np.sin(np.pi / (2 * c))) ** 2
                   for h, c in zip(grid.h, cells))
        assert eig.lambda1 == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("m", [6, 7])
    def test_laplacian_is_exact_for_every_m(self, m):
        # m copies of 1/m do not sum to 1 at m = 6 or 7; the surrogate puts
        # the weight 1 on x-axis 0 alone, so the solver stays exact.
        cells = (3,) * (m + 1)
        grid, space, A = grushin_setup([(0.0, 1.0)] * (m + 1), cells,
                                       gamma=0.0, m=m)
        assert A.solver.exact
        eig = smallest_eigenpair(A)
        assert (eig.method, eig.solver_iterations) == ("separable", 0)
        want = sum((2.0 / float(h) * np.sin(np.pi / (2 * c))) ** 2
                   for h, c in zip(grid.h, cells))
        assert abs(eig.lambda1 - want) <= 1e-13

    def test_solve_inverts_the_step_matrix(self):
        grid, space, A = grushin_setup([(-1.0, 1.0), (-1.0, 1.0)], (12, 10),
                                       gamma=1.0)
        x = np.random.default_rng(3).standard_normal(grid.N)
        b = x - 1.25 * apply(A, x)
        got = SeparableSolver(grid, space).solve(b, 1.25)
        assert np.abs(got - x).max() <= 1e-13 * np.abs(x).max()

    def test_eigenpair_refuses_an_inexact_solver(self):
        # The closed form needs an exact solve; smallest_eigenpair sends an
        # inexact operator to inverse iteration instead.
        grid, space, A = grushin_setup([(0.0, 1.0)] * 3, (3, 3, 3),
                                       gamma=1.5, m=2)
        solver = SeparableSolver(grid, space)
        assert not solver.exact
        with pytest.raises(ValueError, match="exact"):
            solver.eigenpair(A, grid.cell_volume)

    def test_inexact_eigensolve_starts_in_the_first_y_mode(self):
        # From the all-ones vector this m = 2, gamma = 2 eigensolve stalled
        # for 10,000 steps; from the y-mode j = 1, which holds lambda1 and
        # which A and the surrogate solve both keep, it converges at once.
        grid, space, A = grushin_setup([(0.0, 0.1), (0.0, 0.1), (0.0, 1.0)],
                                       (3, 3, 4), gamma=2.0, m=2)
        eig = smallest_eigenpair(A)
        assert eig.method == "inverse-iteration"
        dense = -dense_from_csr(A.n, A.indptr, A.indices, A.values)
        assert eig.lambda1 == pytest.approx(np.linalg.eigvalsh(dense)[0],
                                            rel=1e-12)
        grid, space, A = grushin_setup([(-1.0, 1.0)] * 3, (16, 16, 16),
                                       gamma=1.5, m=2)
        assert smallest_eigenpair(A).iterations <= 15

    def test_axis_count_mismatch_rejected(self):
        grid, _, _ = grushin_setup([(0.0, 1.0)] * 2, (4, 4), gamma=0.0)
        with pytest.raises(ValueError, match="grid has 2 axes, space "
                                             "expects 3"):
            SeparableSolver(grid, GrushinSpace(2, 1, 0.0))

    @pytest.mark.parametrize("bounds, lifted", [
        ([(-1.0, 1.0)] * 3, True), ([(0.0, 1.0)] * 3, False),
        ([(-1.0, 1.0), (0.0, 1.0), (-1.0, 1.0)], False)])
    def test_exact_at_gamma_one(self, bounds, lifted):
        # |x|^2 = x_1^2 + x_2^2, so the weights differ at most on the origin
        # node, which a 4-cell axis on [-1, 1] puts on the grid.
        grid, space, A = grushin_setup(bounds, (4, 4, 4), gamma=1.0, m=2)
        solver = SeparableSolver(grid, space)
        assert solver.exact
        assert (solver.q is not None) == lifted
        x = np.random.default_rng(7).standard_normal(grid.N)
        got = solver.solve(x - 1.25 * apply(A, x), 1.25)
        assert np.abs(got - x).max() <= 1e-13 * np.abs(x).max()
        eig = solver.eigenpair(A, grid.cell_volume)
        dense = -dense_from_csr(A.n, A.indptr, A.indices, A.values)
        assert eig.lambda1 == pytest.approx(jacobi_eigenvalues(dense)[0],
                                            rel=1e-12)
        assert eig.residual <= 1e-12 * eig.lambda1
        assert (eig.iterations > 0) == lifted

    def test_surrogate_solve_matches_dense_oracle_at_m3(self):
        # tests/test_properties.py draws the m = 2 cases.
        grid, space, _ = grushin_setup([(-1.0, 1.3)] * 4, (3, 4, 3, 5),
                                       gamma=1.5, m=3, k=1)
        solver = SeparableSolver(grid, space)
        assert not solver.exact
        b = np.random.default_rng(11).standard_normal(grid.N)
        dense = surrogate_dense(grid, space)
        for c, shift in [(1.3, 1.0), (1.0, 0.0)]:
            want = np.linalg.solve(shift * np.eye(grid.N) + c * dense, b)
            got = solver.solve(b, c, shift=shift)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_surrogate_is_the_operator_at_gamma_one_off_the_plane(self):
        # |x|^2 = x_1^2 + x_2^2, so off x = 0 the preconditioner inverts
        # the step matrix itself.
        grid, space, A = grushin_setup([(0.1, 1.0), (-1.0, 0.5), (0.0, 2.0)],
                                       (5, 4, 6), gamma=1.0, m=2)
        x = np.random.default_rng(3).standard_normal(grid.N)
        got = SeparableSolver(grid, space).solve(x - 1.25 * apply(A, x), 1.25)
        assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()

    def test_nan_rhs_raises_breakdown(self):
        grid, space, _ = grushin_setup([(0.0, 1.0), (0.0, 1.0)], (4, 4),
                                       gamma=1.0)
        b = np.ones(grid.N)
        b[2] = np.nan
        with pytest.raises(NumericalBreakdown):
            SeparableSolver(grid, space).solve(b, 1.0)

    def test_bisection_at_256_is_pinned(self):
        # The eigenpair's bisection of lambda1 at 256^2 (blowup_cubic's box
        # and space): the lower end and the number of Sturm tests, the same
        # with the test the eigenpair first ran.
        grid, space, A = grushin_setup([(-1.0, 1.0)] * 2, (256, 256),
                                       gamma=1.0)
        S = A.solver
        entries = (2.0 * S.inv_h2 + S.mu[0] * S.W).tolist()
        for below in (linalg._has_eigenvalue_below, sturm_below_reference):
            got = linalg._bisect(
                lambda s: below(entries, S.inv_h2 ** 2, s), 0.0, min(entries))
            assert got == (2.7828013757662116, 66), below.__name__
        assert smallest_eigenpair(A).iterations == 66

    @pytest.mark.parametrize("m, cells", [(1, (9, 7)), (2, (4, 4, 5))])
    def test_eigenpair_builds_no_sine_matrix(self, m, cells):
        # The eigenpair reads only the first sine row of every y-axis, so
        # the dense matrices wait for the first solve; the result is the
        # same bytes before and after they are built.  At m = 2 the origin
        # is a lifted node, so the secular equation is solved.
        grid, space, A = grushin_setup([(-1.0, 1.0)] * (m + 1), cells,
                                       gamma=1.0, m=m)
        first = smallest_eigenpair(A)
        assert "sines" not in vars(A.solver)
        A.solver.solve(np.ones(grid.N), 1.0)
        assert [S.shape for S in A.solver.sines] == [(cells[-1] - 1,) * 2]
        again = smallest_eigenpair(A)
        for eig in (first, again):
            assert eig.method == "separable"
        assert first.phi1.tobytes() == again.phi1.tobytes()
        assert (first.lambda1.hex(), first.residual.hex(), first.iterations,
                first.solver_iterations) == (
            again.lambda1.hex(), again.residual.hex(), again.iterations,
            again.solver_iterations)

    @pytest.mark.parametrize("m, k, cells", [
        (1, 1, (9, 8)), (1, 2, (6, 8, 7)), (1, 3, (6, 9, 8, 7)),
        (2, 1, (6, 5, 8))])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_transform_matches_the_tensordot_oracle(self, m, k, cells, order):
        # Each y-axis is swapped last for one 2-D product, where
        # np.tensordot moves it last: with k = 2 the first y-axis is not
        # last, and with k = 3 a swap and a move order the rows apart.  An
        # m = 2 solve hands the transform a transposed, F-ordered array.
        grid, space, A = grushin_setup([(-1.0, 1.0)] * (m + k), cells,
                                       gamma=1.0, m=m)
        U = np.random.default_rng(m + k).standard_normal(grid.shape)
        U = np.asarray(U, order=order)
        got = A.solver._transform(U)
        want = transform_reference(U, A.solver.sines, m)
        assert got.shape == want.shape == grid.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 2])
    def test_kept_factorization_matches_a_fresh_solver(self, m):
        # The last pair is kept; a new pair, or an old one after it, must
        # refactor and give exactly what a solver without history gives.
        grid, space, _ = grushin_setup([(-1.0, 1.0)] * (m + 1), (6,) * (m + 1),
                                       gamma=1.0, m=m)
        b = np.random.default_rng(5).standard_normal(grid.N)
        solver = SeparableSolver(grid, space)
        for c, shift in [(1.25, 1.0), (1.5, 1.0), (1.25, 1.0), (1.0, 0.0)]:
            want = SeparableSolver(grid, space).solve(b, c, shift=shift)
            for _ in range(2):
                got = solver.solve(b, c, shift=shift)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("c, shift", [
        (0.0, 0.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
        (1.0, np.inf), (-1.0, 1.0), (1.0, -1.0), (-1.0, 0.0)])
    def test_rejects_a_bad_pair(self, m, c, shift):
        grid, space, _ = grushin_setup([(0.0, 1.0)] * (m + 1), (4,) * (m + 1),
                                       gamma=1.0, m=m)
        solver = SeparableSolver(grid, space)
        b = np.ones(grid.N)
        want = solver.solve(b, 1.25)
        with pytest.raises(ValueError, match="finite c >= 0"):
            solver.solve(b, c, shift=shift)
        assert solver.solve(b, 1.25).tobytes() == want.tobytes()


def test_march_factors_once_per_step_size(monkeypatch):
    # A cache key that never hits still gives the right answer, only
    # slower; counting the factorizations makes it fail instead.
    cfg = parse_config(config_path("free_sine.json"))
    grid = build_grid(cfg.domain, cfg.cells)
    A = assemble_grushin(grid, cfg.space)
    u0 = build_initial_condition(grid, cfg.initial)
    factored, attempted = [], []
    factor, advance = linalg._factor, integrator._advance

    def counting_factor(*args):
        factored.append(args)
        return factor(*args)

    def recording_advance(u, dt, *args):
        attempted.append(1.0 + dt)
        return advance(u, dt, *args)

    monkeypatch.setattr(linalg, "_factor", counting_factor)
    monkeypatch.setattr(integrator, "_advance", recording_advance)
    final, _ = run(A, cfg.nonlinearity, u0, cfg.sim)
    assert final.status == "completed"
    assert len(attempted) == final.attempts
    assert len(factored) == len(set(attempted)) < final.attempts


def test_batch_kernels_peak_at_their_results_plus_two_rows():
    # The m = 1 step solves factor and substitute a batch of 127 x 127
    # tridiagonal systems, one per y-mode.  Each row is written straight
    # into the results; the back substitution takes one scratch row, and
    # the row views in flight stay under a second.  Gathering new rows in
    # a list and copying it into the result peaks 191 rows over it, and a
    # factorization that makes a temporary per row operation 17 rows over.
    rng = np.random.default_rng(0)
    diag = 4.0 + rng.uniform(0.0, 1.0, (127, 127))
    rhs = rng.standard_normal((127, 127))
    pivot, ratio = linalg._factor(diag, -1.0)
    linalg._substitute(pivot, ratio, -1.0, rhs)   # first-use allocations
    row = rhs[0].nbytes
    for kernel, args, results in (
            (linalg._factor, (diag, -1.0), 2 * diag.nbytes),
            (linalg._substitute, (pivot, ratio, -1.0, rhs), rhs.nbytes)):
        tracemalloc.start()
        try:
            kernel(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= results + 2 * row, (kernel.__name__, peak - results)


def test_pipeline_imports_no_scipy_or_jsonschema():
    # Either would add start-up time and resident memory to every run.
    code = (
        "import sys, grushinlab as gl\n"
        "from grushinlab.runner import parse_config_dict\n"
        "for m in (1, 2):\n"
        "    cfg = parse_config_dict({'space': {'m': m, 'k': 1, 'gamma': 1.0},"
        " 'bounds': [[-1, 1]] * (m + 1), 'cells': [6] * (m + 1),"
        " 'mode': 'blowup', 'sim': {'t_end': 0.01}})\n"
        "    assert gl.run_experiment(cfg).failure is None\n"
        "    grid = gl.build_grid(cfg.domain, cfg.cells)\n"
        "    gl.smallest_eigenpair(gl.assemble_grushin(grid, cfg.space))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'jsonschema')))\n")
    src = os.path.dirname(os.path.dirname(grushinlab.__file__))
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                          capture_output=True, text=True, timeout=120,
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
