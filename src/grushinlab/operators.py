"""Flux-form finite-difference assembly of the degenerate diffusion operator.

The operator Delta_x + |x|^(2*gamma) Delta_y is discretized on the interior
nodes of a tensor grid with homogeneous Dirichlet data eliminated.  Each grid
edge carries a weight (1 on x-direction edges, the degenerate coefficient on
y-direction edges) and the assembled matrix satisfies, exactly in exact
arithmetic,

    -u^T (A u) * prod(h)  ==  grushin_energy(u)

for every nodal vector u, which is the discrete summation-by-parts identity
the rest of the package leans on.

The matrix is stored by its diagonals (the DIA format; Saad, Iterative
Methods for Sparse Linear Systems, 2nd ed., SIAM 2003, sec. 3.4): the main
diagonal and, for each axis, the pair at plus and minus that axis's stride.
The product adds the diagonals in ascending offset order, which is each
row's column order, so it rounds exactly as a CSR product does.

The product walks the rows in blocks of :data:`BLOCK_ROWS` rows, by a plan
of slices that each matrix builds once and keeps (``SparseMatrix.plan``).
Taken whole, each diagonal's products are a new full-size array, 520 KB on
a 256 x 256 grid, which the process maps and faults in page by page and
which passes through the cache once per diagonal; a block's products are
at most 128 KB, in memory the allocator reuses from one diagonal to the
next, and still cached when they are added (cache blocking: Lam, Rothberg
and Wolf, ASPLOS 1991).
Each block adds a few numpy calls per diagonal, which a small grid feels:
on a 128 x 128 grid blocks of 4,096 rows were slower than none.  16,384
rows keeps every grid of that many nodes or fewer, 128 x 128 included, one
block whose slices are the unblocked product's, and on a 256 x 256 grid
larger blocks gained little more.

A matrix keeps every diagonal read-only and copies one only when its
caller could still write to it; the assembly freezes the arrays it builds
and hands them over, so the pair of diagonals at plus and minus a stride is
one array.  numpy only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Grid, GrushinSpace, integral

# Rows per block of the product plan, 128 KB of floats; see the module
# docstring.
BLOCK_ROWS = 16_384


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Square sparse matrix stored by its diagonals.

    ``diagonals`` maps each offset o to the entries A[i, i+o] in row order,
    n - |o| of them; it is kept in ascending offset order, which is each
    row's column order, and every diagonal is frozen read-only.  A float
    diagonal is copied only when it, or the array that owns its memory, is
    writeable; one no caller can write to is kept as it is.
    ``indptr``/``indices``/``values`` (and ``nnz``) are a read-only CSR view
    of the nonzero entries, built on first access.  ``plan`` is the
    product's walk in blocks of :data:`BLOCK_ROWS` (16,384) rows, so that a
    128 x 128 grid is one block (see the module docstring); it is built on
    the first product and kept.  Only
    :func:`assemble_grushin` sets ``grid`` and ``space``, and so gives the
    matrix a ``solver``.
    """

    n: int
    diagonals: dict[int, np.ndarray]
    grid: Grid | None = None
    space: GrushinSpace | None = None

    def __post_init__(self) -> None:
        diagonals = {}
        for o in sorted(self.diagonals):
            c = _read_only(self.diagonals[o])
            if c.shape != (self.n - abs(o),):
                raise ValueError(f"diagonal {o} of a {self.n}x{self.n} matrix "
                                 f"needs {self.n - abs(o)} entries, got "
                                 f"shape {c.shape}")
            diagonals[int(o)] = c
        object.__setattr__(self, "diagonals", diagonals)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, values) of the nonzero entries, columns
        ascending within each row, with int32 index arrays while they fit."""
        offsets = np.array(list(self.diagonals), dtype=np.int64)
        band = np.zeros((self.n, offsets.size))
        for k, (o, c) in enumerate(self.diagonals.items()):
            band[max(-o, 0):self.n - max(o, 0), k] = c
        stored = band != 0.0
        nnz = int(stored.sum())
        index = np.int32 if max(self.n, nnz) < 2 ** 31 else np.int64
        indptr = np.zeros(self.n + 1, dtype=index)
        np.cumsum(stored.sum(axis=1), out=indptr[1:])
        indices = (np.arange(self.n)[:, None] + offsets)[stored].astype(index)
        values = band[stored]
        for arr in (indptr, indices, values):
            arr.flags.writeable = False
        return indptr, indices, values

    @cached_property
    def solver(self):
        """The :class:`~grushinlab.linalg.SeparableSolver` of an assembled
        operator (exact when it has one x-axis, or when its weight and the
        separable surrogate's differ on at most one x-node, as at gamma = 1),
        built on first access and kept.  A matrix not built by
        :func:`assemble_grushin` has none: ValueError."""
        from .linalg import SeparableSolver   # linalg imports this module
        if self.space is None:
            raise ValueError("only an operator built by assemble_grushin has "
                             "a solver")
        return SeparableSolver(self.grid, self.space)

    @cached_property
    def plan(self) -> list:
        """The product's walk: per block of :data:`BLOCK_ROWS` rows, its row
        slice and, in ascending offset order, each diagonal that reaches the
        block: the slice of the block's rows it reaches, the view of its
        entries on those rows and the slice of the columns of u they
        multiply."""
        n, plan = self.n, []
        for start in range(0, n, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n)
            terms = []
            for o, c in self.diagonals.items():
                # Rows i with a column i + o; entry i - max(-o, 0) of c.
                lo, hi = max(start, -o), min(stop, n - o)
                if lo < hi:
                    first = lo - max(-o, 0)
                    terms.append((slice(lo - start, hi - start),
                                  c[first:first + hi - lo],
                                  slice(lo + o, hi + o)))
            plan.append((slice(start, stop), terms))
        return plan

    indptr = property(lambda self: self.csr[0])
    indices = property(lambda self: self.csr[1])
    values = property(lambda self: self.csr[2])

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def apply(self, u: np.ndarray) -> np.ndarray:
        return apply(self, u)


def _read_only(a) -> np.ndarray:
    """``a`` as a read-only float array: ``a`` itself when neither it nor
    the array that owns its memory is writeable, else a frozen copy."""
    c = np.asarray(a, dtype=float)
    owner = c
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    if c.flags.writeable or owner.flags.writeable:
        c = c.copy()
        c.flags.writeable = False
    return c


def apply(A: SparseMatrix, u: np.ndarray) -> np.ndarray:
    """Matrix-vector product A @ u.

    Block by block of ``A.plan``, the diagonals are added in ascending
    offset order, so each row sums its products in column order starting
    from 0, exactly as a CSR product does.
    """
    u = np.asarray(u, dtype=float)
    n = A.n
    if u.shape != (n,):
        raise ValueError(f"expected vector of length {n}, got shape {u.shape}")
    out = np.zeros(n)
    for rows, terms in A.plan:
        block = out[rows]
        for r, c, cols in terms:
            block[r] += c * u[cols]
    return out


def _degenerate_weight(grid: Grid, space: GrushinSpace) -> np.ndarray:
    """Coefficient |x|^(2*gamma) per node line, broadcastable to grid.shape.

    Exactly on the plane x = 0 the coefficient is taken at the nearest
    x-staggered midpoint (half the smallest x-spacing off the plane) so the
    y-direction couplings there stay positive instead of collapsing to 0.
    This is the one check that the grid has the space's m + k axes; the
    assembly and the separable solver call it before anything else.
    """
    if grid.n != space.n:
        raise ValueError(f"grid has {grid.n} axes, space expects {space.n}")
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
    x-part of the node line; see :func:`_degenerate_weight`.  The arrays
    built here are frozen and handed to the matrix uncopied.
    """
    W = _degenerate_weight(grid, space)
    if space.m == 1 and grid.domain.straddles_x_zero(space.m):
        warnings.warn(
            "m == 1 with a domain straddling x = 0: the region off the "
            "degenerate line is disconnected, so continuum lower bounds for "
            "the first eigenvalue may not transfer; the discrete Rayleigh "
            "minimum is reported as-is.",
            UserWarning, stacklevel=2)

    shape, N = grid.shape, grid.N
    # The main diagonal varies with the x-nodes only, as W does: it is
    # summed on W's broadcast shape and written out in full once.
    diag = np.zeros(W.shape)
    diagonals = {}
    for d in range(grid.n):
        h2 = float(grid.h[d]) ** 2
        w = 1.0 if d < space.m else W
        # Both edges incident along axis d share the weight (it does not vary
        # along the edge axis), including edges into the boundary layer.
        diag -= 2.0 * w / h2
        if shape[d] == 1:
            # No interior edge, and the axis shares its stride with the next.
            continue
        edge = np.array(np.broadcast_to(w / h2, shape))
        edge[(slice(None),) * d + (-1,)] = 0.0   # the last layer has no edge
        edge.flags.writeable = False
        stride = int(np.prod(shape[d + 1:]))
        diagonals[-stride] = diagonals[stride] = edge.ravel()[:N - stride]
    diag = np.array(np.broadcast_to(diag, shape))
    diag.flags.writeable = False
    diagonals[0] = diag.ravel()
    return SparseMatrix(N, diagonals, grid=grid, space=space)


def grushin_energy(grid: Grid, space: GrushinSpace, u: np.ndarray) -> float:
    """Discrete anisotropic Dirichlet energy, summed edge by edge.

    sum over edges of w_e * (difference/h_d)^2 * prod(h), with the zero
    boundary layer included, so it matches -u^T(Au)*prod(h) from
    :func:`assemble_grushin` exactly.
    """
    return _weighted_energy(grid, space.m, _degenerate_weight(grid, space), u)


def _weighted_energy(grid: Grid, m: int, W: np.ndarray,
                     u: np.ndarray) -> float:
    """:func:`grushin_energy` with the y-edge weight ``W`` of
    :func:`_degenerate_weight` built by the caller, once per grid."""
    u = np.asarray(u, dtype=float)
    if u.size != grid.N:
        raise ValueError(f"expected {grid.N} nodal values, got {u.size}")
    U = u.reshape(grid.shape)
    total = 0.0
    for d in range(grid.n):
        D = _edge_differences(U, d)
        wDD = D if d < m else W * D   # w = 1 on x-edges, and 1 * D == D
        wDD *= D
        total += float(wDD.sum()) / float(grid.h[d]) ** 2
    return total * grid.cell_volume


def _edge_differences(U: np.ndarray, d: int) -> np.ndarray:
    """The differences of U along axis d with a zero layer on either side,
    ``np.diff(U, axis=d, prepend=0.0, append=0.0)`` without its padded
    copy: first layer U[0], then U[1:] - U[:-1], then -U[-1]."""
    shape = list(U.shape)
    shape[d] += 1
    D = np.empty(shape)
    at = lambda i: (slice(None),) * d + (i,)   # layer(s) i along axis d
    D[at(0)] = U[at(0)]
    np.subtract(U[at(slice(1, None))], U[at(slice(None, -1))],
                out=D[at(slice(1, -1))])
    np.negative(U[at(-1)], out=D[at(-1)])
    return D


def l2_norm_sq(grid: Grid, u: np.ndarray) -> float:
    """Squared L2 norm under the rectangle rule: sum(u^2) * prod(h)."""
    u = np.asarray(u, dtype=float)
    return integral(grid, u * u)
