"""Property-based checks of the assembled operator and its product, the
energy record, the solver paths (exact, preconditioned and their plain-CG
oracles), the config parser, the expression parser and the blocked
antiderivative quadrature.

Random Grushin spaces (m, k in {1, 2}, gamma in [0, 2]) on boxes of 2 to 6
cells per axis whose bounds may straddle the degenerate plane x = 0.  The
runs are derandomized and keep no example database, so every run draws the
same examples.
"""

import copy
import json
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from grushinlab import (BoxDomain, ConfigError, GrushinSpace, Power, apply,
                        assemble_grushin, build_grid, grushin_energy,
                        integral, l2_norm_sq, parse_expression)
from grushinlab.diagnostics import EnergyTracker
from grushinlab.linalg import (NonConvergence, SeparableSolver, _factor,
                               _sine_rows, _substitute, cg_solve,
                               inverse_iteration, smallest_eigenpair)
from grushinlab.nonlinearity import (_BLOCK, Expression, ExpressionError,
                                     F_values, _eval_ast)
from grushinlab.operators import SparseMatrix
from grushinlab.runner import _parameters_block, parse_config_dict

from conftest import config_path
from oracles import (CONFIG_SCHEMA, F_values_reference, csr_matvec,
                     dense_from_csr, grushin_energy_reference,
                     identity, substitute_reference, surrogate_dense,
                     thomas_reference)

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


@st.composite
def gamma_one_operators(draw):
    """(grid, space, A, u) at gamma = 1 with m in {2, 3}.  With ``origin``
    every x-axis is a symmetric interval with an even cell count, which puts
    the origin on a node; otherwise the x-bounds are drawn freely."""
    m = draw(st.integers(2, 3))
    k = draw(st.integers(1, 2)) if m == 2 else 1
    origin = draw(st.booleans())
    bounds, cells = [], []
    for d in range(m + k):
        if d < m and origin:
            half = draw(st.floats(0.25, 1.5))
            bounds.append((-half, half))
            cells.append(2 * draw(st.integers(1, 3)))
            continue
        lo = draw(st.floats(-2.0, 1.0))
        bounds.append((lo, lo + draw(st.floats(0.25, 3.0))))
        cells.append(draw(st.integers(2, 6)))
    space = GrushinSpace(m, k, 1.0)
    grid = build_grid(BoxDomain(bounds), tuple(cells))
    A = assemble_grushin(grid, space)
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        grid.N)
    return grid, space, A, u, origin


@st.composite
def hand_built(draw):
    """(A, u): a SparseMatrix of 1 to 8 rows on random diagonals whose
    entries may be 0, and a vector u."""
    n = draw(st.integers(1, 8))
    entries = st.floats(-1e3, 1e3) | st.just(0.0)
    offsets = draw(st.sets(st.integers(1 - n, n - 1)))
    A = SparseMatrix(n, {o: draw(st.lists(entries, min_size=n - abs(o),
                                          max_size=n - abs(o)))
                         for o in offsets})
    u = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    return A, u


@PROPERTY_SETTINGS
@given(operators().map(lambda case: case[2:]) | hand_built(),
       st.integers(0, 2**32 - 1))
def test_apply_sums_each_row_in_column_order(case, seed):
    A, u = case
    u = u * 10.0 ** np.random.default_rng(seed).uniform(-5.0, 5.0, A.n)
    want = csr_matvec(A.n, A.indptr, A.indices, A.values, u)
    assert apply(A, u).tobytes() == want.tobytes()


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
@given(operators())
def test_energy_equals_the_padded_reference_bit_for_bit(case):
    grid, space, _, u = case
    assert grushin_energy(grid, space, u) == grushin_energy_reference(
        grid, space, u)


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
    ref, _ = cg_solve(lhs, b, identity, tol=1e-12)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


@PROPERTY_SETTINGS
@given(st.integers(1, 40), st.sampled_from([(), (1,), (7,)]),
       st.floats(-10.0, 10.0), st.integers(0, 2**32 - 1))
def test_factor_and_substitute_equal_the_thomas_sweep(n, trailing, off, seed):
    # A diagonally dominant matrix per trailing index, as every step solve
    # and the shifted eigen solve have; () is the 1-D right-hand side.
    rng = np.random.default_rng(seed)
    shape = (n,) + trailing
    diag = 2.0 * abs(off) + rng.uniform(1e-3, 1e3, shape)
    rhs = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
    got = _substitute(*_factor(diag, off), off, rhs)
    assert got.tobytes() == thomas_reference(diag, off, rhs).tobytes()


@PROPERTY_SETTINGS
@given(st.integers(1, 40), st.sampled_from([(), (1,), (7,), (3, 2)]),
       st.floats(-10.0, 10.0), st.integers(0, 2**32 - 1))
def test_substitute_equals_its_row_indexed_reference(n, trailing, off, seed):
    # The loop over lists of rows against the body it replaced; () is the
    # 1-D system of the eigenpair's substitutions.
    rng = np.random.default_rng(seed)
    shape = (n,) + trailing
    diag = 2.0 * abs(off) + rng.uniform(1e-3, 1e3, shape)
    rhs = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
    pivot, ratio = _factor(diag, off)
    got = _substitute(pivot, ratio, off, rhs)
    want = substitute_reference(pivot, ratio, off, rhs)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(st.integers(1, 600))
def test_first_sine_row_equals_row_zero_of_the_matrix(n):
    # The eigenpair reads the first row alone, the solves the whole matrix
    # of a y-axis with n interior nodes; phi1 stays the same bytes only if
    # the two agree bit for bit.
    c = n + 1
    row = np.sqrt(2.0 / c) * np.sin(np.pi * np.arange(1, n + 1) / c)
    assert _sine_rows(n, c, 1)[0].tobytes() == row.tobytes()
    assert _sine_rows(n, c, n)[0].tobytes() == row.tobytes()


@PROPERTY_SETTINGS
@given(operators(m=1))
def test_separable_eigenpair_matches_inverse_iteration(case):
    grid, space, A, _ = case
    eig = SeparableSolver(grid, space).eigenpair(A)
    phi = eig.phi1
    assert eig.residual <= 1e-12 * eig.lambda1
    assert abs(l2_norm_sq(grid, phi) - 1.0) <= 1e-12
    assert phi[int(np.argmax(np.abs(phi)))] > 0.0
    try:
        ref = inverse_iteration(A, identity, tol=1e-10,
                                cell_volume=grid.cell_volume)
    except NonConvergence:
        # Each step shrinks the error by lambda1/lambda2.  One x-node and a
        # y-weight near 0 put the eigenvalues within 4e-5 of each other, a
        # rate that outlasts the 10,000 steps: the oracle cannot decide.
        reject()
    assert abs(eig.lambda1 - ref.lambda1) <= 1e-10 * ref.lambda1
    assert np.abs(phi - ref.phi1).max() <= 1e-6 * np.abs(ref.phi1).max()


@PROPERTY_SETTINGS
@given(operators(m=2), st.floats(0.5, 2.0), st.sampled_from([0.0, 1.0]))
def test_surrogate_solve_matches_dense_oracle(case, c, shift):
    # An exact solver (one x-node, or weights equal but on one node) inverts
    # A itself; the others invert the surrogate.
    grid, space, A, b = case
    solver = SeparableSolver(grid, space)
    x = solver.solve(b, c, shift=shift)
    if solver.exact:
        oracle = -dense_from_csr(A.n, A.indptr, A.indices, A.values)
    else:
        oracle = surrogate_dense(grid, space)
    ref = np.linalg.solve(shift * np.eye(grid.N) + c * oracle, b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@PROPERTY_SETTINGS
@given(gamma_one_operators(), st.floats(0.5, 2.0), st.sampled_from([0.0, 1.0]))
def test_gamma_one_solve_matches_dense_operator(case, c, shift):
    grid, space, A, b, origin = case
    solver = SeparableSolver(grid, space)
    assert solver.exact
    if origin:
        assert solver.q is not None
    x = solver.solve(b, c, shift=shift)
    dense = -dense_from_csr(A.n, A.indptr, A.indices, A.values)
    ref = np.linalg.solve(shift * np.eye(grid.N) + c * dense, b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@PROPERTY_SETTINGS
@given(gamma_one_operators())
def test_secular_eigenpair_matches_inverse_iteration(case):
    grid, space, A, _, _ = case
    eig = SeparableSolver(grid, space).eigenpair(A)
    ref = inverse_iteration(A, identity, tol=1e-10,
                            cell_volume=grid.cell_volume)
    assert eig.method == "separable"
    assert abs(eig.lambda1 - ref.lambda1) <= 1e-10 * ref.lambda1
    assert np.abs(eig.phi1 - ref.phi1).max() <= 1e-6 * np.abs(ref.phi1).max()
    assert eig.residual <= 1e-12 * eig.lambda1


@PROPERTY_SETTINGS
@given(operators(m=2), st.floats(1.0, 2.0))
def test_preconditioned_cg_matches_cg(case, c):
    grid, space, A, b = case
    solver = SeparableSolver(grid, space)
    lhs = lambda v: v - c * apply(A, v)
    x, _ = cg_solve(lhs, b, tol=1e-12, precond=lambda r: solver.solve(r, c))
    ref, _ = cg_solve(lhs, b, identity, tol=1e-12)
    assert np.linalg.norm(b - lhs(x)) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


@PROPERTY_SETTINGS
@given(operators(m=2))
def test_preconditioned_inverse_iteration_matches_oracle(case):
    grid, space, A, _ = case
    eig = smallest_eigenpair(A, tol=1e-10)
    ref = inverse_iteration(A, identity, tol=1e-10)
    assert ref.method == "inverse-iteration"
    assert eig.method == ("separable" if A.solver.exact
                          else "inverse-iteration")
    assert abs(eig.lambda1 - ref.lambda1) <= 1e-10 * ref.lambda1


# --- config parsing ----------------------------------------------------------

FULL_CONFIG = {
    "space": {"m": 2, "k": 1, "gamma": 1.5},
    "bounds": [[-1.0, 1.0], [0.0, 2.0], [-0.5, 0.5]],
    "cells": [6, 8, 10],
    "nonlinearity": {"expr": "u^3 - 0.5*u"},
    "alpha": 3.0, "beta": 0.2, "theta": 0.05,
    "initial": {"kind": "file", "amplitude": 2.0, "path": "u0.txt"},
    "sim": {"t_end": 0.5, "dt_init": 1e-3, "dt_min": 1e-10, "dt_max": 1e-2,
            "blowup_threshold": 1e6, "step_change_high": 0.2,
            "step_change_low": 0.0, "cg_tol": 1e-9, "record_every": 2},
    "eigen": {"tol": 1e-7, "max_iter": 500, "cg_tol": 1e-9},
    "hypothesis": {"samples": 101, "umax_factor": 4.0},
    "mode": "global",
    "output": {"csv": "r.csv", "report": "r.json", "svg": "p.svg",
               "svg_fields": ["calE", "l2", "supnorm"]},
    "notes": "every optional key",
}


def _shipped(name):
    with open(config_path(name)) as fh:
        return json.load(fh)


BASE_CONFIGS = [FULL_CONFIG] + [_shipped(name) for name in (
    "blowup_cubic.json", "free_sine.json", "global_decay.json")]
SCHEMA_ORACLE = Draft202012Validator(CONFIG_SCHEMA)

# Key names the config uses, plus misspellings, for added keys.
CONFIG_KEYS = ["space", "m", "k", "gamma", "bounds", "cells", "nonlinearity",
               "power", "p", "c", "expr", "alpha", "beta", "theta", "initial",
               "kind", "amplitude", "path", "sim", "t_end", "dt_min",
               "record_every", "eigen", "tol", "max_iter", "hypothesis",
               "samples", "mode", "output", "svg_fields", "notes", "gama"]
JSON_NUMBERS = (st.integers(-3, 12) | st.just(10 ** 400) | st.floats()
                | st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 8.0, 8.5,
                                   -1.0, 1e-12, 1e300]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_NUMBERS
    | st.sampled_from(["", "u", "u^3", "1+u", "free", "blowup", "global",
                       "explode", "product_sine", "phi1", "file", "calE",
                       "t", "x.txt"]),
    lambda values: (st.lists(values, max_size=3)
                    | st.dictionaries(st.sampled_from(CONFIG_KEYS), values,
                                      max_size=2)),
    max_leaves=4)

# (where _parameters_block reports a value, where the config gives it)
PARAMETER_PATHS = [(("m",), ("space", "m")), (("k",), ("space", "k")),
                   (("gamma",), ("space", "gamma")),
                   (("bounds",), ("bounds",)), (("cells",), ("cells",)),
                   (("nonlinearity",), ("nonlinearity",)),
                   (("alpha",), ("alpha",)), (("beta",), ("beta",)),
                   (("theta",), ("theta",)),
                   (("initial", "kind"), ("initial", "kind")),
                   (("initial", "amplitude"), ("initial", "amplitude")),
                   (("t_end",), ("sim", "t_end")), (("mode",), ("mode",))]


def _paths(doc, prefix=()):
    yield prefix
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _non_finite(doc):
    return any(_is_number(v) and not abs(v) <= sys.float_info.max
               for v in (_lookup(doc, p) for p in _paths(doc)))


@st.composite
def mutated_configs(draw):
    """A shipped or full config after 1 to 3 edits: drop a key or an array
    entry, add a key or an entry, swap in a value of any JSON type, or swap
    a number for another."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE_CONFIGS)))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["drop", "add", "swap", "number"]))
        paths = list(_paths(doc))
        numbers = [p for p in paths if _is_number(_lookup(doc, p))]
        if edit == "number" and numbers:
            path = draw(st.sampled_from(numbers))
            _lookup(doc, path[:-1])[path[-1]] = draw(JSON_NUMBERS)
            continue
        path = draw(st.sampled_from(paths))
        node = _lookup(doc, path)
        if edit == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(CONFIG_KEYS))] = draw(JSON_VALUES)
        elif edit == "add" and isinstance(node, list):
            node.append(draw(JSON_VALUES))
        elif path and edit == "drop":
            del _lookup(doc, path[:-1])[path[-1]]
        elif path:
            _lookup(doc, path[:-1])[path[-1]] = draw(JSON_VALUES)
    return doc


@settings(PROPERTY_SETTINGS, max_examples=600)
@given(mutated_configs())
def test_config_parser_agrees_with_schema_oracle(data):
    """The parser raises ConfigError and nothing else on a config the schema
    rejects or one with a non-finite number; a config it accepts passes the
    schema, and its report parameters repeat every value the config gave."""
    try:
        cfg = parse_config_dict(data, base_dir="/base")
    except ConfigError:
        return
    assert SCHEMA_ORACLE.is_valid(data)
    assert not _non_finite(data)
    block = _parameters_block(cfg)
    json.dumps(block, allow_nan=False)
    for block_path, data_path in PARAMETER_PATHS:
        try:
            given_value = _lookup(data, data_path)
        except KeyError:
            continue
        assert _lookup(block, block_path) == given_value


def test_base_configs_parse():
    for data in BASE_CONFIGS:
        assert SCHEMA_ORACLE.is_valid(data)
        parse_config_dict(data)


# --- expression parser -------------------------------------------------------

EXPRESSION_TREES = st.recursive(
    st.just(("var",)) | st.floats(0.0, 100.0).map(lambda x: ("num", x)),
    lambda trees: (st.tuples(st.just("neg"), trees)
                   | st.tuples(st.sampled_from("+-*/^"), trees, trees)),
    max_leaves=12)
_LITERAL = re.compile(r"\d[\d.]*(?:e[+-]?\d+)?")


def _render(node):
    """Fully parenthesized text of a tree."""
    if node[0] == "var":
        return "u"
    if node[0] == "num":
        return repr(node[1])
    if node[0] == "neg":
        return f"(-{_render(node[1])})"
    return f"({_render(node[1])} {node[0]} {_render(node[2])})"


def _python_eval(text, u):
    """Evaluate the text as Python with '^' -> '**'.  Each literal becomes an
    array like u, as the package evaluates it; a bare float would take
    Python's scalar rules, or numpy's fast path for ``x ** 2.0``, which is
    ``square`` and rounds differently from ``power``."""
    code = _LITERAL.sub(lambda m: f"N({m.group()})", text.replace("^", "**"))
    with np.errstate(all="ignore"):
        return eval(code, {"__builtins__": {}},
                    {"u": u, "N": lambda x: np.full_like(u, x)})


@PROPERTY_SETTINGS
@given(EXPRESSION_TREES,
       st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5))
def test_expression_evaluates_like_python(tree, points):
    text = _render(("*", ("var",), tree))  # the factor u makes most f(0) = 0
    u = np.array([0.0] + points)
    want = _python_eval(text, u)
    if not (np.isfinite(want[0]) and abs(want[0]) <= 1e-12):
        with pytest.raises(ValueError, match="must vanish"):
            Expression(text)
        return
    assert _eval_ast(Expression(text).ast, u).tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(st.lists(st.sampled_from(["({})", "-{}"]), min_size=63, max_size=64)
       | st.lists(st.sampled_from(["{}+u", "{}-u"]), min_size=63, max_size=64))
def test_expression_nests_at_most_64_levels(wrappers):
    """u is one level, and each wrapper adds one."""
    text = "u"
    for wrapper in wrappers:
        text = wrapper.format(text)
    if len(wrappers) == 63:
        Expression(text)
    else:
        with pytest.raises(ExpressionError, match="nests deeper"):
            Expression(text)


# --- antiderivative quadrature -----------------------------------------------

# Smooth sources settle in one round; u^0.5 near 0 and the square-root edge
# of 100*u^3*(2-u)^0.5 at u = 2 take several, and past 2 it is non-finite.
QUADRATURE_SOURCES = ("u^3", "u", "u/(1+u^2)", "u^0.5", "100*u^3*(2-u)^0.5",
                      "u*(2-u)^0.5")


@st.composite
def quadrature_inputs(draw):
    """(source, u): nodal values around a block boundary in size, drawn
    from a pool of distinct values so that some repeat, with some zeros,
    some of them -0.0, which compares equal to 0.0."""
    nl = parse_expression(draw(st.sampled_from(QUADRATURE_SOURCES)))
    n = draw(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                              3 * _BLOCK + 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = draw(st.sampled_from([0.0, 1.9, -0.5]))
    hi = draw(st.sampled_from([2.0, 2.0 + 1e-3, 1.0]))
    pool = lo + (hi - lo) * rng.random(draw(st.integers(1, n)))
    u = rng.choice(pool, n)
    u[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    u[(u == 0.0) & (rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5])))] = -0.0
    return nl, u


def _outcome(fn, nl, u):
    try:
        return fn(nl, u).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@PROPERTY_SETTINGS
@given(quadrature_inputs())
# A non-finite minimum repeated across a block boundary: the zero-width
# segments at it come first and are never the ones named.
@example((parse_expression("u^0.5"), np.array([-1.0] * 5000 + [0.5])))
# Runs of signed zeros, one longer than a block, before a repeated node past
# the point where f stops being finite: the error names the run's first zero.
@example((parse_expression("u*(2-u)^0.5"),
          np.array([-0.0] * (_BLOCK + 1) + [-1.0, 2.5, 2.5])))
@example((parse_expression("u*(2-u)^0.5"), np.array([-0.0] * 3 + [-1.0, 2.5])))
def test_blocked_quadrature_matches_the_reference_bit_for_bit(case):
    """Values, or the raised error's type and message, are the reference's."""
    nl, u = case
    assert _outcome(F_values, nl, u) == _outcome(F_values_reference, nl, u)
