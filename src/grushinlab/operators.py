"""Flux-form finite-difference assembly of the degenerate diffusion operator.

The operator Delta_x + |x|^(2*gamma) Delta_y is discretized on the interior
nodes of a tensor grid with homogeneous Dirichlet data eliminated.  Each grid
edge carries a weight (1 on x-direction edges, the degenerate coefficient on
y-direction edges) and the assembled matrix satisfies, exactly in exact
arithmetic,

    -u^T (A u) * prod(h)  ==  grushin_energy(u)

for every nodal vector u, which is the discrete summation-by-parts identity
the rest of the package leans on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import Grid, GrushinSpace, integral


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Symmetric sparse matrix in CSR form.

    ``indptr``/``indices``/``values`` are the usual CSR arrays; column
    indices are sorted within each row and duplicates are merged.  The
    arrays are frozen read-only after construction.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    symmetric: bool = False

    def __post_init__(self) -> None:
        csr = sp.csr_matrix(
            (np.asarray(self.values, dtype=float),
             np.asarray(self.indices, dtype=np.int64),
             np.asarray(self.indptr, dtype=np.int64)),
            shape=(self.n, self.n), copy=False)
        csr.sort_indices()
        object.__setattr__(self, "indptr", csr.indptr)
        object.__setattr__(self, "indices", csr.indices)
        object.__setattr__(self, "values", csr.data)
        for arr in (self.indptr, self.indices, self.values):
            arr.flags.writeable = False
        object.__setattr__(self, "_csr", csr)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def apply(self, u: np.ndarray) -> np.ndarray:
        return apply(self, u)

    def negated(self) -> "SparseMatrix":
        return SparseMatrix(self.n, self.indptr.copy(), self.indices.copy(),
                            -self.values, symmetric=self.symmetric)


def apply(A: SparseMatrix, u: np.ndarray) -> np.ndarray:
    """Matrix-vector product A @ u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (A.n,):
        raise ValueError(f"expected vector of length {A.n}, got shape {u.shape}")
    return A._csr @ u


def _degenerate_weight(grid: Grid, space: GrushinSpace) -> np.ndarray:
    """Coefficient |x|^(2*gamma) per node line, broadcastable to grid.shape.

    Exactly on the plane x = 0 the coefficient is taken at the nearest
    x-staggered midpoint (half the smallest x-spacing off the plane) so the
    y-direction couplings there stay positive instead of collapsing to 0.
    """
    m = space.m
    x_sq = np.zeros((1,) * grid.n)
    for d in range(m):
        shape = [1] * grid.n
        shape[d] = grid.shape[d]
        x_sq = x_sq + (grid.axis_coords(d) ** 2).reshape(shape)
    h_min = float(grid.h[:m].min())
    on_plane = x_sq < (1e-9 * h_min) ** 2
    x_sq = np.where(on_plane, (0.5 * h_min) ** 2, x_sq)
    return x_sq ** space.gamma


def assemble_grushin(grid: Grid, space: GrushinSpace) -> SparseMatrix:
    """Assemble the Dirichlet finite-difference operator (negative definite).

    Off-diagonal entries are +w_e/h_d^2 for each interior edge, the diagonal
    collects -sum(w_e/h_d^2) over all incident edges including those to
    eliminated boundary nodes.  y-direction edge weights depend only on the
    x-part of the node line; see :func:`_degenerate_weight`.
    """
    if grid.n != space.n:
        raise ValueError(f"grid has {grid.n} axes, space expects {space.n}")
    if space.m == 1 and grid.domain.straddles_x_zero(space.m):
        warnings.warn(
            "m == 1 with a domain straddling x = 0: the region off the "
            "degenerate line is disconnected, so continuum lower bounds for "
            "the first eigenvalue may not transfer; the discrete Rayleigh "
            "minimum is reported as-is.",
            UserWarning, stacklevel=2)

    shape, n, N = grid.shape, grid.n, grid.N
    W = _degenerate_weight(grid, space)
    idx = np.arange(N).reshape(shape)

    rows, cols, vals = [], [], []
    diag = np.zeros(shape)
    for d in range(n):
        h2 = float(grid.h[d]) ** 2
        w = 1.0 if d < space.m else W
        # Both edges incident along axis d share the weight (it does not vary
        # along the edge axis), including edges into the boundary layer.
        diag -= 2.0 * w / h2
        lo = [slice(None)] * n
        hi = [slice(None)] * n
        lo[d] = slice(None, -1)
        hi[d] = slice(1, None)
        i = idx[tuple(lo)].ravel()
        j = idx[tuple(hi)].ravel()
        w_edge = np.broadcast_to(w / h2, shape)[tuple(lo)].ravel()
        rows.extend((i, j))
        cols.extend((j, i))
        vals.extend((w_edge, w_edge))
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(diag.ravel())

    csr = sp.csr_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(N, N))
    return SparseMatrix(N, csr.indptr, csr.indices, csr.data, symmetric=True)


def grushin_energy(grid: Grid, space: GrushinSpace, u: np.ndarray) -> float:
    """Discrete anisotropic Dirichlet energy, summed edge by edge.

    sum over edges of w_e * (difference/h_d)^2 * prod(h), with the zero
    boundary layer included, so it matches -u^T(Au)*prod(h) from
    :func:`assemble_grushin` exactly.
    """
    if grid.n != space.n:
        raise ValueError(f"grid has {grid.n} axes, space expects {space.n}")
    u = np.asarray(u, dtype=float)
    if u.size != grid.N:
        raise ValueError(f"expected {grid.N} nodal values, got {u.size}")
    U = u.reshape(grid.shape)
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


def l2_norm_sq(grid: Grid, u: np.ndarray) -> float:
    """Squared L2 norm under the rectangle rule: sum(u^2) * prod(h)."""
    u = np.asarray(u, dtype=float)
    return integral(grid, u * u)
