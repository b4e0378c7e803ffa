"""Discrete operator assembly, matvec, and the compatible gradient energy."""

import warnings

import numpy as np
import pytest

from grushinlab import (BoxDomain, GrushinSpace, apply, assemble_grushin,
                        build_grid, grushin_energy, l2_norm_sq,
                        smallest_eigenpair)
from grushinlab.operators import BLOCK_ROWS, SparseMatrix

from oracles import csr_matvec, dense_from_csr


def make_identity(n):
    return SparseMatrix(n=n, diagonals={0: np.ones(n)})


def dense(A):
    return dense_from_csr(A.n, A.indptr, A.indices, A.values)


def unit_square(cells, gamma=0.0):
    space = GrushinSpace(1, 1, gamma)
    grid = build_grid(BoxDomain([(0.0, 1.0), (0.0, 1.0)]), cells)
    return grid, space


class TestAssembly:
    def test_five_point_stencil_at_zero_gamma(self):
        grid, space = unit_square((4, 4))
        A = assemble_grushin(grid, space)
        got = dense(A)
        h2 = 16.0  # 1/h^2 with h = 1/4
        expect = np.zeros((9, 9))
        for flat in range(9):
            i, j = np.unravel_index(flat, grid.shape)
            expect[flat, flat] = -4.0 * h2
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < 3 and 0 <= nj < 3:
                    nbr = np.ravel_multi_index((ni, nj), grid.shape)
                    expect[flat, nbr] = h2
        assert np.allclose(got, expect, rtol=0.0, atol=1e-12)

    def test_seven_point_stencil_in_three_dimensions(self):
        space = GrushinSpace(2, 1, 0.0)
        grid = build_grid(BoxDomain([(0.0, 1.0)] * 3), (4, 4, 4))
        A = assemble_grushin(grid, space)
        got = dense(A)
        assert np.allclose(np.diag(got), -6.0 * 16.0)
        # row sums vanish except where a boundary neighbor was eliminated
        interior_flat = np.ravel_multi_index((1, 1, 1), grid.shape)
        assert got[interior_flat].sum() == pytest.approx(0.0, abs=1e-10)

    def test_degenerate_line_keeps_rows_irreducible(self):
        """y-edge weights at x = 0 use the half-spacing station, not zero."""
        space = GrushinSpace(1, 1, 1.0)
        grid = build_grid(BoxDomain([(-1.0, 1.0), (0.0, 1.0)]), (4, 2))
        with pytest.warns(UserWarning):
            A = assemble_grushin(grid, space)
        got = dense(A)
        # x nodes at -0.5, 0, 0.5; single y node at 0.5; h = (0.5, 0.5)
        expect = np.array([
            [-10.0, 4.0, 0.0],
            [4.0, -8.5, 4.0],
            [0.0, 4.0, -10.0],
        ])
        assert np.allclose(got, expect, rtol=0.0, atol=1e-12)

    def test_off_line_y_weight_is_x_station_power(self):
        space = GrushinSpace(1, 1, 1.0)
        grid = build_grid(BoxDomain([(0.25, 1.25), (0.0, 1.0)]), (4, 4))
        A = assemble_grushin(grid, space)
        got = dense(A)
        hx = hy = 0.25
        x0 = grid.axis_coords(0)[0]
        flat = np.ravel_multi_index((0, 1), grid.shape)
        up = np.ravel_multi_index((0, 2), grid.shape)
        assert got[flat, up] == pytest.approx(x0 ** 2 / hy ** 2, rel=1e-14)
        right = np.ravel_multi_index((1, 1), grid.shape)
        assert got[flat, right] == pytest.approx(1.0 / hx ** 2, rel=1e-14)

    def test_straddle_warning_only_for_single_x_axis(self):
        space1 = GrushinSpace(1, 1, 1.0)
        grid1 = build_grid(BoxDomain([(-1.0, 1.0), (0.0, 1.0)]), (4, 4))
        with pytest.warns(UserWarning):
            assemble_grushin(grid1, space1)
        space2 = GrushinSpace(2, 1, 1.0)
        grid2 = build_grid(BoxDomain([(-1.0, 1.0), (-1.0, 1.0), (0.0, 1.0)]),
                           (4, 4, 4))
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assemble_grushin(grid2, space2)

    def test_axis_count_mismatch_rejected(self):
        grid, _ = unit_square((4, 4))
        with pytest.raises(ValueError):
            assemble_grushin(grid, GrushinSpace(2, 1, 0.0))


class TestSparseMatrixStructure:
    def test_symmetry_entrywise(self):
        space = GrushinSpace(1, 1, 1.5)
        grid = build_grid(BoxDomain([(0.1, 1.1), (0.0, 2.0)]), (7, 9))
        A = assemble_grushin(grid, space)
        d = dense(A)
        assert np.array_equal(d, d.T)

    def test_column_indices_sorted_within_rows(self):
        grid, space = unit_square((6, 5))
        A = assemble_grushin(grid, space)
        for i in range(A.n):
            row = A.indices[A.indptr[i]:A.indptr[i + 1]]
            assert np.all(np.diff(row) > 0)

    def test_csr_view_is_kept_read_only_with_int32_indices(self):
        grid, space = unit_square((5, 4))
        A = assemble_grushin(grid, space)
        assert A.indptr is A.indptr and A.nnz == A.values.size
        for arr in (A.indptr, A.indices, A.values):
            assert not arr.flags.writeable
        assert A.indptr.dtype == A.indices.dtype == np.int32

    def test_assembled_operator_keeps_its_solver(self):
        grid, space = unit_square((5, 4))
        A = assemble_grushin(grid, space)
        assert A.solver is A.solver and A.solver.exact
        with pytest.raises(ValueError, match="assemble_grushin"):
            make_identity(3).solver

    def test_diagonal_length_checked(self):
        with pytest.raises(ValueError, match="needs 2 entries"):
            SparseMatrix(n=3, diagonals={0: np.ones(3), 1: np.ones(3)})
        A = make_identity(3)
        assert not A.diagonals[0].flags.writeable

    @pytest.mark.parametrize("kind", [
        "writeable", "int", "read-only", "read-only view of writeable"])
    def test_diagonal_copied_only_when_writeable(self, kind):
        # A diagonal no caller can write to is kept; any other is copied,
        # so the caller's later writes leave the matrix as it was.
        base = np.arange(1, 5) if kind == "int" else np.arange(1.0, 5.0)
        d = base[1:] if kind == "read-only view of writeable" else base
        if kind.startswith("read-only"):
            d.flags.writeable = False
        A = SparseMatrix(n=d.size, diagonals={0: d})
        c = A.diagonals[0]
        assert c.dtype == float and not c.flags.writeable
        assert np.shares_memory(c, base) == (kind == "read-only")
        if base.flags.writeable:
            base[:] = 0
        assert c.tolist() == [float(v) for v in range(5 - c.size, 5)]

    def test_assembled_stride_pairs_share_one_read_only_array(self):
        grid, space = unit_square((5, 4))
        A = assemble_grushin(grid, space)
        for o in (1, 3):   # the strides of the 4 x 3 interior
            assert np.shares_memory(A.diagonals[o], A.diagonals[-o])
        assert not any(c.flags.writeable for c in A.diagonals.values())

    def test_negative_definiteness(self):
        space = GrushinSpace(1, 2, 1.0)
        grid = build_grid(BoxDomain([(-1.0, 1.0), (0.0, 1.0), (0.0, 1.0)]),
                          (6, 4, 4))
        with pytest.warns(UserWarning):
            A = assemble_grushin(grid, space)
        rng = np.random.default_rng(3)
        for _ in range(25):
            u = rng.standard_normal(A.n)
            assert u @ apply(A, u) < 0.0


class TestApply:
    def test_identity(self):
        I3 = make_identity(3)
        u = np.array([1.0, -2.0, 3.5])
        assert np.array_equal(apply(I3, u), u)

    def test_zero_vector(self):
        grid, space = unit_square((4, 4))
        A = assemble_grushin(grid, space)
        assert np.array_equal(apply(A, np.zeros(grid.N)), np.zeros(grid.N))

    def test_two_by_two_hand_arithmetic(self):
        A = SparseMatrix(n=2, diagonals={-1: [1.0], 0: [-2.0, -2.0],
                                         1: [1.0]})
        assert np.array_equal(apply(A, np.array([1.0, 1.0])),
                              np.array([-1.0, -1.0]))

    def test_length_mismatch_rejected(self):
        I3 = make_identity(3)
        with pytest.raises(ValueError):
            apply(I3, np.ones(4))

    @pytest.mark.parametrize("m, cells, offsets", [
        (1, (130, 130), [-129, -1, 0, 1, 129]),
        (2, (27, 27, 27), [-676, -26, -1, 0, 1, 26, 676]),
    ])
    def test_blocked_product_is_the_csr_product(self, m, cells, offsets):
        # More nodes than one block and not a whole number of blocks, so a
        # block boundary cuts every diagonal's rows.
        space = GrushinSpace(m, len(cells) - m, 1.0)
        grid = build_grid(BoxDomain([(-1.0, 1.0)] * len(cells)), cells)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # m = 1 across x = 0 warns
            A = assemble_grushin(grid, space)
        assert list(A.diagonals) == offsets
        assert BLOCK_ROWS < A.n < 2 * BLOCK_ROWS
        assert len(A.plan) == 2 and A.plan is A.plan
        rng = np.random.default_rng(17)
        u = rng.standard_normal(A.n) * 10.0 ** rng.uniform(-5.0, 5.0, A.n)
        want = csr_matvec(A.n, A.indptr, A.indices, A.values, u)
        assert apply(A, u).tobytes() == want.tobytes()

    def test_hand_built_matrix_gets_a_plan(self):
        n = 2 * BLOCK_ROWS + 3
        rng = np.random.default_rng(5)
        A = SparseMatrix(n, {o: rng.standard_normal(n - abs(o))
                             for o in (-BLOCK_ROWS - 1, -2, 0, 5, n - 1)})
        assert [rows for rows, _ in A.plan] == [
            slice(0, BLOCK_ROWS), slice(BLOCK_ROWS, 2 * BLOCK_ROWS),
            slice(2 * BLOCK_ROWS, n)]
        # Offset -BLOCK_ROWS - 1 reaches no row of the first block, 5 no row
        # of the last, and n - 1 row 0 alone.
        assert [len(terms) for _, terms in A.plan] == [4, 4, 3]
        u = rng.standard_normal(n)
        want = csr_matvec(A.n, A.indptr, A.indices, A.values, u)
        assert apply(A, u).tobytes() == want.tobytes()


class TestEnergyAndNorm:
    def test_energy_of_zero(self):
        grid, space = unit_square((8, 8))
        assert grushin_energy(grid, space, np.zeros(grid.N)) == 0.0

    def test_energy_of_product_sine(self):
        grid, space = unit_square((64, 64))
        u = grid.nodal_values(
            lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        assert grushin_energy(grid, space, u) == pytest.approx(
            np.pi ** 2 / 2.0, rel=1e-2)

    def test_energy_of_first_eigenmode_is_lambda1(self):
        grid, space = unit_square((16, 16))
        A = assemble_grushin(grid, space)
        eig = smallest_eigenpair(A, tol=1e-10, cell_volume=grid.cell_volume)
        assert grushin_energy(grid, space, eig.phi1) == pytest.approx(
            eig.lambda1, rel=1e-10)

    def test_l2_norm_examples(self):
        grid, space = unit_square((8, 8))
        assert l2_norm_sq(grid, np.zeros(grid.N)) == 0.0
        assert l2_norm_sq(grid, np.ones(grid.N)) == pytest.approx(49.0 / 64.0)

    def test_length_mismatch_rejected(self):
        grid, space = unit_square((8, 8))
        with pytest.raises(ValueError):
            grushin_energy(grid, space, np.ones(grid.N - 1))
        with pytest.raises(ValueError):
            l2_norm_sq(grid, np.ones(grid.N + 2))


class TestSummationByParts:
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
    def test_quadratic_form_equals_energy(self, gamma):
        space = GrushinSpace(1, 1, gamma)
        grid = build_grid(BoxDomain([(-1.0, 1.0), (-1.0, 1.0)]), (12, 10))
        with pytest.warns(UserWarning):
            A = assemble_grushin(grid, space)
        rng = np.random.default_rng(42)
        vol = grid.cell_volume
        for _ in range(100):
            u = rng.standard_normal(grid.N)
            quad = -(u @ apply(A, u)) * vol
            energy = grushin_energy(grid, space, u)
            assert abs(quad - energy) <= 1e-12 * max(energy, 1.0)

    def test_multi_x_axis_identity(self):
        space = GrushinSpace(2, 1, 1.0)
        grid = build_grid(BoxDomain([(-1.0, 1.0), (0.0, 1.0), (0.0, 1.0)]),
                          (5, 4, 6))
        A = assemble_grushin(grid, space)
        rng = np.random.default_rng(8)
        vol = grid.cell_volume
        for _ in range(25):
            u = rng.standard_normal(grid.N)
            quad = -(u @ apply(A, u)) * vol
            energy = grushin_energy(grid, space, u)
            assert abs(quad - energy) <= 1e-12 * max(energy, 1.0)
