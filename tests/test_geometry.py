"""Anisotropic space, box domains, grids, dilations and nodal quadrature."""

import numpy as np
import pytest

from grushinlab import (BoxDomain, GrushinSpace, build_grid, dilate,
                        geometry, homogeneous_dimension, integral)


class TestGrushinSpace:
    def test_homogeneous_dimension_values(self):
        assert homogeneous_dimension(GrushinSpace(1, 1, 1.0)) == 3.0
        assert homogeneous_dimension(GrushinSpace(2, 3, 0.0)) == 5.0
        assert homogeneous_dimension(GrushinSpace(1, 2, 0.5)) == 4.0

    def test_q_at_least_n_with_equality_only_at_zero_gamma(self):
        for m, k, gamma in [(1, 1, 0.0), (2, 1, 0.3), (1, 4, 2.0), (3, 2, 0.0)]:
            space = GrushinSpace(m, k, gamma)
            assert space.n == m + k
            if gamma == 0.0:
                assert homogeneous_dimension(space) == space.n
            else:
                assert homogeneous_dimension(space) > space.n

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GrushinSpace(0, 1, 1.0)
        with pytest.raises(ValueError):
            GrushinSpace(1, 0, 1.0)
        with pytest.raises(ValueError):
            GrushinSpace(1, 1, -0.5)


class TestDilate:
    def test_identity_dilation(self):
        space = GrushinSpace(2, 1, 0.7)
        z = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(dilate(space, 1.0, z), z)

    def test_anisotropic_scaling(self):
        space = GrushinSpace(1, 1, 1.0)
        assert np.array_equal(dilate(space, 2.0, np.array([1.0, 1.0])),
                              np.array([2.0, 4.0]))

    def test_isotropic_at_zero_gamma(self):
        space = GrushinSpace(1, 1, 0.0)
        assert np.array_equal(dilate(space, 3.0, np.array([1.0, 1.0])),
                              np.array([3.0, 3.0]))

    def test_group_property_dyadic_exact(self):
        space = GrushinSpace(1, 1, 1.0)
        z = np.array([1.5, -0.75])
        for lam1, lam2 in [(2.0, 4.0), (0.5, 2.0), (0.25, 0.5)]:
            left = dilate(space, lam1, dilate(space, lam2, z))
            right = dilate(space, lam1 * lam2, z)
            assert np.array_equal(left, right)

    def test_group_property_general(self):
        space = GrushinSpace(2, 2, 0.3)
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = rng.standard_normal(4)
            lam1, lam2 = rng.uniform(0.1, 3.0, size=2)
            left = dilate(space, lam1, dilate(space, lam2, z))
            right = dilate(space, lam1 * lam2, z)
            assert np.allclose(left, right, rtol=1e-13, atol=0.0)

    def test_rejects_bad_inputs(self):
        space = GrushinSpace(1, 1, 1.0)
        with pytest.raises(ValueError):
            dilate(space, 0.0, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            dilate(space, -2.0, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            dilate(space, 1.0, np.array([1.0, 1.0, 1.0]))


class TestBoxDomain:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            BoxDomain([(0.0, 0.0), (0.0, 1.0)])
        with pytest.raises(ValueError):
            BoxDomain([(1.0, 0.0)])

    def test_straddle_flag(self):
        box = BoxDomain([(-1.0, 1.0), (0.0, 1.0)])
        assert box.straddles_x_zero(1)
        shifted = BoxDomain([(0.5, 1.5), (-3.0, 3.0)])
        assert not shifted.straddles_x_zero(1)
        assert BoxDomain([(0.0, 1.0), (-1.0, 1.0)]).straddles_x_zero(2)


class TestBuildGrid:
    def test_unit_square_counts(self):
        grid = build_grid(BoxDomain([(0.0, 1.0), (0.0, 1.0)]), (8, 8))
        assert grid.N == 49
        assert np.allclose(grid.h, [0.125, 0.125])

    def test_rectangle_counts(self):
        grid = build_grid(BoxDomain([(-1.0, 1.0), (0.0, 1.0)]), (4, 2))
        assert grid.N == 3
        assert np.allclose(grid.h, [0.5, 0.5])

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            build_grid(BoxDomain([(0.0, 1.0), (0.0, 1.0)]), (1, 8))

    def test_axis_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_grid(BoxDomain([(0.0, 1.0), (0.0, 1.0)]), (8, 8, 8))

    @pytest.mark.parametrize("cells", [(10**10, 10**10),
                                       (2**32 + 1, 2**32 + 1)])
    def test_grid_too_large_for_memory_rejected(self, cells):
        # An int64 product of the axes wraps: the second grid would count
        # 0 nodes.  The refusal comes before any array of the grid's size.
        with pytest.raises(ValueError, match=f"^{(cells[0] - 1) ** 2} nodes"):
            build_grid(BoxDomain([(0.0, 1.0), (0.0, 1.0)]), cells)

    def test_memory_ceiling_is_peak_states_of_the_grid(self, monkeypatch):
        # 7 x 7 nodes at 8 bytes each, PEAK_STATES times over.
        need = geometry.PEAK_STATES * 8 * 49
        domain = BoxDomain([(0.0, 1.0), (0.0, 1.0)])
        for memory, fits in ((need, True), (need - 1, False)):
            monkeypatch.setattr(geometry.os, "sysconf", lambda name: {
                "SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}[name])
            if fits:
                assert build_grid(domain, (8, 8)).N == 49
            else:
                with pytest.raises(ValueError, match="^49 nodes"):
                    build_grid(domain, (8, 8))

    def test_node_coordinates(self):
        grid = build_grid(BoxDomain([(-1.0, 1.0), (0.0, 2.0)]), (4, 4))
        assert np.allclose(grid.axis_coords(0), [-0.5, 0.0, 0.5])
        assert np.allclose(grid.axis_coords(1), [0.5, 1.0, 1.5])

    def test_nodal_values_ordering(self):
        grid = build_grid(BoxDomain([(0.0, 1.0), (0.0, 1.0)]), (4, 4))
        vals = grid.nodal_values(lambda x, y: 10.0 * x + y)
        for flat in range(grid.N):
            i, j = np.unravel_index(flat, grid.shape)
            x = grid.axis_coords(0)[i]
            y = grid.axis_coords(1)[j]
            assert vals[flat] == pytest.approx(10.0 * x + y, abs=1e-14)


class TestIntegral:
    def test_constant_one(self):
        grid = build_grid(BoxDomain([(0.0, 1.0), (0.0, 1.0)]), (8, 8))
        assert integral(grid, np.ones(grid.N)) == pytest.approx(49.0 / 64.0)

    def test_zero(self):
        grid = build_grid(BoxDomain([(0.0, 1.0), (0.0, 1.0)]), (8, 8))
        assert integral(grid, np.zeros(grid.N)) == 0.0

    def test_product_sine_against_analytic_value(self):
        grid = build_grid(BoxDomain([(0.0, 1.0), (0.0, 1.0)]), (64, 64))
        vals = grid.nodal_values(
            lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        assert integral(grid, vals) == pytest.approx(4.0 / np.pi ** 2,
                                                     abs=1e-3)

    def test_linearity_and_monotonicity(self):
        grid = build_grid(BoxDomain([(0.0, 1.0), (0.0, 2.0)]), (9, 7))
        rng = np.random.default_rng(11)
        u = rng.standard_normal(grid.N)
        v = rng.standard_normal(grid.N)
        assert integral(grid, u + v) == pytest.approx(
            integral(grid, u) + integral(grid, v), rel=1e-13, abs=1e-13)
        w = u + np.abs(v)
        assert integral(grid, u) <= integral(grid, w) + 1e-15

    def test_length_mismatch_rejected(self):
        grid = build_grid(BoxDomain([(0.0, 1.0), (0.0, 1.0)]), (8, 8))
        with pytest.raises(ValueError):
            integral(grid, np.ones(grid.N + 1))


def bump(s):
    """C^3 compactly supported profile on |s| < 1."""
    return np.where(np.abs(s) < 1.0, (1.0 - np.minimum(s * s, 1.0)) ** 4, 0.0)


class TestMeasureScaling:
    def test_dilation_scales_quadrature_by_lambda_to_minus_q(self):
        space = GrushinSpace(1, 1, 1.0)
        lam = 0.5
        grid = build_grid(BoxDomain([(-1.0, 1.0), (-1.0, 1.0)]), (128, 128))

        def g(x, y):
            return bump(x / 0.4) * bump(y / 0.2)

        def g_dilated(x, y):
            # g applied after the anisotropic dilation (x, y) -> (lam x, lam^2 y)
            return g(lam * x, lam ** (1.0 + space.gamma) * y)

        base = integral(grid, grid.nodal_values(g))
        moved = integral(grid, grid.nodal_values(g_dilated))
        assert moved == pytest.approx(
            lam ** (-homogeneous_dimension(space)) * base, rel=5e-3)
