"""Independent reference computations used to cross-check the package.

Everything here is written from first principles against the mathematical
definitions, deliberately avoiding the code paths under test: the dense
reconstruction and the matrix-vector product walk the raw CSR arrays, the
eigenvalue oracle is a cyclic Jacobi rotation sweep, the surrogate operator
is a dense Kronecker sum of 1D difference matrices, and the constants oracle
uses a different algebraic arrangement of the same formulas.  The config
schema is the JSON Schema the package validated configs with before its
parser stated each rule itself; tests check it with ``jsonschema``.  Other
oracles are the package's earlier implementations, kept to check that the
faster ones reproduce them bit for bit: the one-pass Thomas sweep, which
the separable solver now splits into a kept factorization and a
substitution; that substitution as it indexed the arrays row by row; the
y-axis transform that ran ``np.tensordot`` on every axis; the energy record
built on ``np.pad``; the antiderivative ``F_values`` whose adaptive
Simpson rounds ran over the whole worklist at once, evaluating f separately
at each segment's two ends, between the distinct values that
``distinct_reference`` finds with ``np.unique`` (the package integrates
between the sorted values as they are, repeats included); and the sweep
that ran one whole ``run_experiment`` per value.  Plain CG and
unpreconditioned inverse iteration, the oracles of the separable solver, are
the package's own ``cg_solve`` and ``inverse_iteration`` with the
``identity`` preconditioner.  ``continuum_lambda1`` is the first eigenvalue
of the continuum operator by Chebyshev collocation, which the discrete one
approaches from below.
"""

import math
import os

import numpy as np

from grushinlab.nonlinearity import Power, QuadratureError, _eval_ast
from grushinlab.operators import _degenerate_weight
from grushinlab.runner import _with_axis, run_experiment


def identity(r):
    """The identity preconditioner: with it ``cg_solve`` is plain CG and
    ``inverse_iteration`` is unpreconditioned inverse iteration."""
    return r


def dense_from_csr(n, indptr, indices, values):
    """Reconstruct the dense matrix by walking the raw CSR arrays."""
    dense = np.zeros((n, n))
    for i in range(n):
        for pos in range(int(indptr[i]), int(indptr[i + 1])):
            dense[i, int(indices[pos])] += float(values[pos])
    return dense


def csr_matvec(n, indptr, indices, values, u):
    """A @ u row by row from the raw CSR arrays: each row sums its stored
    entries times u in stored column order, starting from 0."""
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for pos in range(int(indptr[i]), int(indptr[i + 1])):
            acc += float(values[pos]) * float(u[int(indices[pos])])
        out[i] = acc
    return out


def surrogate_dense(grid, space):
    """Dense -A_s for the separable surrogate of the Grushin operator: the
    Kronecker sum of the 1D Dirichlet second differences K_d over the x-axes,
    plus diag(sum_d w_d) times the Kronecker sum over the y-axes, with the
    weights w_d of :class:`SeparableSolver`."""
    eyes = [np.eye(n) for n in grid.shape]

    def kron_sum(axes):
        total = np.zeros((grid.N, grid.N))
        for d in axes:
            n, h = grid.shape[d], float(grid.h[d])
            K = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h ** 2
            term = np.ones((1, 1))
            for e in range(grid.n):
                term = np.kron(term, K if e == d else eyes[e])
            total += term
        return total

    weight = np.zeros(grid.shape)
    for d in range(space.m):
        shape = [1] * grid.n
        shape[d] = grid.shape[d]
        coords = np.abs(grid.axis_coords(d)).reshape(shape)
        if space.gamma == 0.0:   # the weight 1, on x-axis 0 alone
            weight = weight + np.full(coords.shape, float(d == 0))
        else:
            weight = weight + (coords ** (2.0 * space.gamma)
                               / float(space.m) ** (1.0 - space.gamma))
    return (kron_sum(range(space.m))
            + np.diag(weight.ravel()) @ kron_sum(range(space.m, grid.n)))


def thomas_reference(diag, off, rhs):
    """Tridiagonal solve with main diagonal ``diag`` and the constant
    off-diagonal ``off``, along axis 0, in one forward and one backward
    pass.  Trailing axes are independent systems.  No pivoting."""
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


def substitute_reference(pivot, ratio, off, rhs):
    """Forward elimination and back substitution with the factorization
    ``(pivot, ratio)`` of a tridiagonal with constant off-diagonal ``off``,
    indexing the arrays row by row along axis 0."""
    n = pivot.shape[0]
    x = np.empty_like(rhs, dtype=float)
    x[0] = rhs[0] / pivot[0]
    for i in range(1, n):
        x[i] = (rhs[i] - off * x[i - 1]) / pivot[i]
    for i in range(n - 2, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    return x


def transform_reference(U, sines, m):
    """Orthonormal DST-I along every y-axis of a grid-shaped array, one
    ``np.tensordot`` per axis, whose result axis is moved back in place."""
    for d, S in enumerate(sines, start=m):
        U = np.moveaxis(np.tensordot(U, S, axes=([d], [0])), -1, d)
    return U


def grushin_energy_reference(grid, space, u):
    """The discrete Grushin energy summed edge by edge, with the zero
    boundary layer added by ``np.pad`` before differencing."""
    U = np.asarray(u, dtype=float).reshape(grid.shape)
    W = _degenerate_weight(grid, space)
    total = 0.0
    pad = [(0, 0)] * grid.n
    for d in range(grid.n):
        pad[d] = (1, 1)
        D = np.diff(np.pad(U, pad), axis=d)
        pad[d] = (0, 0)
        w = 1.0 if d < space.m else W
        total += float((w * D * D).sum()) / float(grid.h[d]) ** 2
    return total * grid.cell_volume


def _simpson_batch_reference(fun, a, b, tol, max_depth=60):
    """Adaptive Simpson of ``fun`` over many segments at once, each halving
    round over the whole worklist."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    tol = np.broadcast_to(np.asarray(tol, dtype=float), a.shape).ravel().copy()
    out = np.zeros(a.shape)
    mid = 0.5 * (a + b)
    fa, fm, fb = fun(a), fun(mid), fun(b)
    S = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    seg = np.arange(a.size)
    depth = np.zeros(a.size, dtype=np.int64)
    wa, wb, wfa, wfm, wfb, wS, wtol, wseg, wdepth = (
        a, b, fa, fm, fb, S, tol, seg, depth)
    eps = np.finfo(float).eps
    while wa.size:
        if wdepth[0] > 0 and wa.size > 1_000_000:
            raise QuadratureError(
                "adaptive Simpson worklist exceeded 1e6 intervals; the "
                "integrand does not settle at the requested tolerance")
        if not np.all(np.isfinite(wS)):
            i = wseg[np.argmin(np.isfinite(wS))]
            raise QuadratureError("integrand is non-finite inside the segment "
                                  f"[{float(a[i])}, {float(b[i])}]")
        m = 0.5 * (wa + wb)
        lm, rm = 0.5 * (wa + m), 0.5 * (m + wb)
        flm, frm = fun(lm), fun(rm)
        Sl = (m - wa) / 6.0 * (wfa + 4.0 * flm + wfm)
        Sr = (wb - m) / 6.0 * (wfm + 4.0 * frm + wfb)
        S2 = Sl + Sr
        err = S2 - wS
        floor = eps * (np.abs(Sl) + np.abs(Sr))
        width_floor = 4.0 * eps * np.maximum(np.abs(wa), np.abs(wb))
        done = (np.abs(err) <= np.maximum(15.0 * wtol, floor)) \
            | (wb - wa <= width_floor)
        if np.any(~done & (wdepth >= max_depth)):
            raise QuadratureError(
                f"adaptive Simpson exceeded depth {max_depth}")
        np.add.at(out, wseg[done], S2[done] + err[done] / 15.0)
        keep = ~done
        wa = np.concatenate([wa[keep], m[keep]])
        wb = np.concatenate([m[keep], wb[keep]])
        wfa = np.concatenate([wfa[keep], wfm[keep]])
        wfb = np.concatenate([wfm[keep], wfb[keep]])
        wfm = np.concatenate([flm[keep], frm[keep]])
        wS = np.concatenate([Sl[keep], Sr[keep]])
        wtol = np.concatenate([0.5 * wtol[keep], 0.5 * wtol[keep]])
        wseg = np.concatenate([wseg[keep], wseg[keep]])
        wdepth = np.concatenate([wdepth[keep] + 1, wdepth[keep] + 1])
    return out


def distinct_reference(u):
    """The sorted distinct values of 0 and u and the index among them of 0
    and of each entry of u, by ``np.unique``."""
    return np.unique(np.concatenate([[0.0], np.ravel(u)]), return_inverse=True)


def F_values_reference(nl, u):
    """F(u), the integral of f from 0 to u, by adaptive Simpson over the
    segments between the sorted unique values of u and 0, summed in order."""
    u = np.asarray(u, dtype=float)
    if isinstance(nl, Power):
        return nl.c * np.abs(u) ** (nl.p + 1.0) / (nl.p + 1.0)
    vs, node = distinct_reference(u)
    fun = lambda x: _eval_ast(nl.ast, x)
    try:
        pieces = _simpson_batch_reference(fun, vs[:-1], vs[1:], 1e-12)
    except QuadratureError as exc:
        raise QuadratureError(f"F of expression {nl.text!r}: {exc}") from exc
    prefix = np.concatenate([[0.0], np.cumsum(pieces)])
    F_at = prefix - prefix[node[0]]
    return F_at[node[1:]].reshape(np.shape(u))


def jacobi_eigenvalues(mat, tol=1e-13, max_sweeps=60):
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate away every off-diagonal pair (p, q) in row order until the
    off-diagonal Frobenius mass falls below tol of the total.  Returns the
    eigenvalues sorted ascending.
    """
    a = np.array(mat, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("jacobi_eigenvalues needs a square matrix")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise ValueError("jacobi_eigenvalues needs a symmetric matrix")
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0]])
    fro = math.sqrt(float(np.sum(a * a))) or 1.0
    skip = 1e-18 * fro
    for _ in range(max_sweeps):
        # Sum the off-diagonal squares directly; subtracting the diagonal
        # mass from the total cancels catastrophically near convergence.
        strict = a - np.diag(np.diag(a))
        off = math.sqrt(float(np.sum(strict * strict)))
        if off <= tol * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    else:
        raise RuntimeError("jacobi_eigenvalues did not converge")
    return np.sort(np.diag(a))


def _cheb(N):
    """Chebyshev points cos(pi j/N), j = 0..N, on [-1, 1] and their
    differentiation matrix (Trefethen, Spectral Methods in MATLAB, SIAM
    2000, program ``cheb``)."""
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.ones(N + 1)
    c[[0, -1]] = 2.0
    c *= (-1.0) ** np.arange(N + 1)
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(N + 1))
    return x, D - np.diag(D.sum(axis=1))


def continuum_lambda1(cfg, N=40):
    """The first eigenvalue of the continuum operator -Δ_x - |x|^{2γ} Δ_y on
    the config's box with Dirichlet walls, to about 1e-13.

    The first y-mode, a product of half sines, turns it into the smallest
    eigenvalue of -φ'' + μ1 |x|^{2γ} φ on the x-interval with Dirichlet
    ends, where μ1 = Σ_y (π/L_y)².  At γ = 1, |x|² is a sum over the x-axes,
    so for m ≥ 2 the value is the sum of one such 1-D problem per x-axis.
    Each is solved by Chebyshev collocation on N + 1 points (Trefethen,
    ch. 9), which converges spectrally only where |x|^{2γ} is smooth on
    the interval; every other case is refused.
    """
    m, p = cfg.space.m, 2.0 * cfg.space.gamma
    if m > 1 and p != 2.0:
        raise ValueError(f"|x|^{p} does not separate over {m} x-axes")
    bounds = cfg.domain.bounds
    mu1 = sum((math.pi / (b - a)) ** 2 for a, b in bounds[m:])
    t, D = _cheb(N)
    D2 = (D @ D)[1:-1, 1:-1]
    total = 0.0
    for a, b in bounds[:m]:
        if not (p % 2.0 == 0.0 or a * b > 0.0
                or (a * b == 0.0 and p.is_integer())):
            raise ValueError(f"|x|^{p} is not smooth on [{a}, {b}]")
        x = a + 0.5 * (b - a) * (t[1:-1] + 1.0)
        H = -(2.0 / (b - a)) ** 2 * D2 + mu1 * np.diag(np.abs(x) ** p)
        total += float(np.linalg.eigvals(H).real.min())
    return total


def trapezoid_E(t, calE, M):
    """M plus the cumulative trapezoid integral of calE over t, summed with
    one cumsum (the energy tracker adds one increment per record)."""
    t = np.asarray(t, dtype=float)
    calE = np.asarray(calE, dtype=float)
    incs = 0.5 * (calE[1:] + calE[:-1]) * np.diff(t)
    return M + np.concatenate([[0.0], np.cumsum(incs)])


def blowup_constants_reference(alpha, F0, I0):
    """(sigma, M, Tstar) via the arrangement (1+s)(1+1/s) = (1+s)^2/s."""
    s = math.sqrt(alpha / 2.0) - 1.0
    M = (1.0 + s) ** 2 * I0 * I0 / (2.0 * alpha * F0 * s)
    return s, M, M / (s * I0)


def simpson_reference(fun, a, b, panels=4096):
    """Fixed composite Simpson rule with an even number of panels."""
    if panels % 2:
        panels += 1
    xs = np.linspace(a, b, panels + 1)
    ys = np.asarray([fun(x) for x in xs], dtype=float)
    h = (b - a) / panels
    return h / 3.0 * (ys[0] + ys[-1]
                      + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["space", "bounds", "cells"],
    "properties": {
        "space": {
            "type": "object",
            "additionalProperties": False,
            "required": ["m", "k", "gamma"],
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "k": {"type": "integer", "minimum": 1},
                "gamma": {"type": "number", "minimum": 0},
            },
        },
        "bounds": {
            "type": "array", "minItems": 2,
            "items": {"type": "array", "items": _NUM,
                      "minItems": 2, "maxItems": 2},
        },
        "cells": {
            "type": "array", "minItems": 2,
            "items": {"type": "integer", "minimum": 2},
        },
        "nonlinearity": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1, "maxProperties": 1,
            "properties": {
                "power": {
                    "type": "object", "additionalProperties": False,
                    "required": ["p", "c"],
                    "properties": {"p": {"type": "number", "exclusiveMinimum": 1},
                                   "c": _POS},
                },
                "expr": {"type": "string", "minLength": 1},
            },
        },
        "alpha": _NUM,
        "beta": _NUM,
        "theta": _NUM,
        "initial": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["product_sine", "phi1", "file"]},
                "amplitude": _POS,
                "path": {"type": "string"},
            },
        },
        "sim": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_end": _POS, "dt_init": _POS, "dt_min": _POS, "dt_max": _POS,
                "blowup_threshold": _POS, "step_change_high": _POS,
                "step_change_low": {"type": "number", "minimum": 0},
                "cg_tol": _POS,
                "record_every": {"type": "integer", "minimum": 1},
            },
        },
        "eigen": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"tol": _POS,
                           "max_iter": {"type": "integer", "minimum": 1},
                           "cg_tol": _POS},
        },
        "hypothesis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"samples": {"type": "integer", "minimum": 2},
                           "umax_factor": _POS},
        },
        "mode": {"enum": ["blowup", "global", "free"]},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "csv": {"type": "string"},
                "report": {"type": "string"},
                "svg": {"type": "string"},
                "svg_fields": {"type": "array", "minItems": 1,
                               "items": {"type": "string"}},
            },
        },
        "notes": {"type": "string"},
    },
}


def sweep_rows_reference(cfg, axis, values, out_dir=None,
                         csv_name="sweep.csv"):
    """``run_sweep`` as one whole ``run_experiment`` per value, each building
    its own grid, operator, eigenpair, initial data and march: the rows, and
    the summary CSV in ``out_dir`` when given."""
    rows = []
    for value in values:
        row = {"value": float(value), "lambda1": None, "F0": None,
               "verdict": None, "outcome": None}
        try:
            rpt = run_experiment(_with_axis(cfg, axis, value), out_dir=None)
            row["lambda1"] = rpt.lambda1
            row["F0"] = rpt.F0
            if rpt.failure is not None:
                row["verdict"] = f"Failed[{rpt.failure['stage']}]"
            else:
                row["verdict"] = rpt.verdict
                if rpt.sim["status"] == "blowup":
                    row["outcome"] = rpt.sim["t_blow"]
                else:
                    row["outcome"] = rpt.margins["decay"]
        except Exception as exc:
            row["verdict"] = f"Failed[{type(exc).__name__}]"
        rows.append(row)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        lines = ["value,lambda1,F0,verdict,outcome"]
        for row in rows:
            lines.append(",".join(
                "" if row[c] is None
                else (format(row[c], ".17g") if isinstance(row[c], float)
                      else str(row[c]))
                for c in ("value", "lambda1", "F0", "verdict", "outcome")))
        with open(os.path.join(out_dir, csv_name), "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    return rows
