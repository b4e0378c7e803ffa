"""Property-based checks of the assembled operator, the energy record and
the two solver paths.

Random Grushin spaces (m, k in {1, 2}, gamma in [0, 2]) on boxes of 2 to 6
cells per axis whose bounds may straddle the degenerate plane x = 0.  The
runs are derandomized and keep no example database, so every run draws the
same examples.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grushinlab import (BoxDomain, EnergyTracker, GrushinSpace, Power, apply,
                        assemble_grushin, build_grid, cg_solve,
                        grushin_energy, integral, l2_norm_sq,
                        parse_expression)
from grushinlab.linalg import SeparableSolver, inverse_iteration
from grushinlab.nonlinearity import F_values

from oracles import dense_from_csr

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=100)


@st.composite
def operators(draw, m=None):
    """(grid, space, A, u) with u a nonzero nodal vector; m is drawn unless
    given."""
    if m is None:
        m = draw(st.integers(1, 2))
    k = draw(st.integers(1, 2))
    gamma = draw(st.floats(0.0, 2.0))
    bounds, cells = [], []
    for _ in range(m + k):
        lo = draw(st.floats(-2.0, 1.0))
        width = draw(st.floats(0.25, 3.0))
        bounds.append((lo, lo + width))
        cells.append(draw(st.integers(2, 6)))
    space = GrushinSpace(m, k, gamma)
    grid = build_grid(BoxDomain(bounds), tuple(cells))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m = 1 across x = 0 warns
        A = assemble_grushin(grid, space)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        u = rng.standard_normal(grid.N)
    else:
        u = np.zeros(grid.N)
        u[rng.integers(grid.N)] = rng.choice([-1.0, 1.0]) * rng.random() + 0.5
    return grid, space, A, u


@PROPERTY_SETTINGS
@given(operators())
def test_operator_equals_its_transpose(case):
    _, _, A, _ = case
    dense = dense_from_csr(A.n, A.indptr, A.indices, A.values)
    assert np.array_equal(dense, dense.T)


@PROPERTY_SETTINGS
@given(operators())
def test_summation_by_parts(case):
    grid, space, A, u = case
    lhs = -float(u @ apply(A, u)) * grid.cell_volume
    rhs = grushin_energy(grid, space, u)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@PROPERTY_SETTINGS
@given(operators())
def test_operator_is_negative_definite(case):
    _, _, A, u = case
    assert float(u @ apply(A, u)) < 0.0


@PROPERTY_SETTINGS
@given(operators(), st.sampled_from([Power(3.0, 1.0), Power(1.5, 0.25),
                                     parse_expression("u^3 + 2*u")]),
       st.floats(-1.0, 1.0))
def test_measure_matches_its_definition(case, nl, theta):
    grid, space, _, u = case
    l2, grad, calF = EnergyTracker(grid, space, nl, theta).measure(u)
    want_grad = grushin_energy(grid, space, u)
    assert l2 == l2_norm_sq(grid, u)
    assert grad == want_grad
    assert calF == -0.5 * want_grad + integral(grid, F_values(nl, u) - theta)


@PROPERTY_SETTINGS
@given(operators(m=1), st.floats(1.0, 2.0))
def test_separable_solve_matches_cg(case, c):
    grid, space, A, b = case
    x = SeparableSolver(grid, space).solve(b, c)
    lhs = lambda v: v - c * apply(A, v)
    assert np.linalg.norm(b - lhs(x)) <= 1e-12 * np.linalg.norm(b)
    ref, _ = cg_solve(lhs, b, tol=1e-12)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


@PROPERTY_SETTINGS
@given(operators(m=1))
def test_separable_eigenpair_matches_inverse_iteration(case):
    grid, space, A, _ = case
    eig = SeparableSolver(grid, space).eigenpair(A)
    ref = inverse_iteration(A, tol=1e-10, cell_volume=grid.cell_volume)
    assert abs(eig.lambda1 - ref.lambda1) <= 1e-10 * ref.lambda1
    phi = eig.phi1
    assert np.abs(phi - ref.phi1).max() <= 1e-6 * np.abs(ref.phi1).max()
    assert abs(l2_norm_sq(grid, phi) - 1.0) <= 1e-12
    assert phi[int(np.argmax(np.abs(phi)))] > 0.0
