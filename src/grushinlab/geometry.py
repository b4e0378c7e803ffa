"""Anisotropic coordinate spaces, box domains, tensor grids and nodal quadrature.

Coordinates split into m non-degenerate x-axes followed by k y-axes whose
diffusion carries the weight |x|^(2*gamma).  Everything downstream (operator
assembly, energies, quadrature) is built on the uniform interior-node grids
defined here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The most states of N floats a run holds at once: assembly plus the
# eigensolve peak at about 6.1, and the quadrature of F at about 8.4.
PEAK_STATES = 9


@dataclass(frozen=True)
class GrushinSpace:
    """Anisotropy parameters of the degenerate geometry.

    Parameters
    ----------
    m : int
        Number of x-axes (non-degenerate directions), at least 1.
    k : int
        Number of y-axes (directions weighted by ``|x|**(2*gamma)``), at least 1.
    gamma : float
        Degeneracy exponent, ``gamma >= 0``.  ``gamma == 0`` recovers the
        ordinary Laplacian.
    """

    m: int
    k: int
    gamma: float

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")

    @property
    def n(self) -> int:
        """Ambient dimension m + k."""
        return self.m + self.k


def homogeneous_dimension(space: GrushinSpace) -> float:
    """Scaling exponent of Lebesgue measure under the anisotropic dilation.

    Along the dilation (x, y) -> (lam*x, lam**(1+gamma)*y) the measure scales
    as lam**Q with Q = m + (1+gamma)*k.
    """
    return space.m + (1.0 + space.gamma) * space.k


def dilate(space: GrushinSpace, lam: float, z: np.ndarray) -> np.ndarray:
    """Apply the anisotropic dilation (x, y) -> (lam*x, lam**(1+gamma)*y).

    ``lam`` must be positive; ``z`` is a point with ``space.n`` coordinates.
    """
    if not np.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    z = np.asarray(z, dtype=float)
    if z.shape != (space.n,):
        raise ValueError(f"point must have {space.n} coordinates, got shape {z.shape}")
    out = z.copy()
    out[: space.m] *= lam
    out[space.m :] *= lam ** (1.0 + space.gamma)
    return out


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned open box, one (a_i, b_i) pair per axis with a_i < b_i."""

    bounds: tuple[tuple[float, float], ...]

    def __init__(self, bounds) -> None:
        bounds = tuple(tuple(map(float, pair)) for pair in bounds)
        for i, pair in enumerate(bounds):
            if (len(pair) != 2 or not np.all(np.isfinite(pair))
                    or pair[0] >= pair[1]):
                raise ValueError(f"axis {i}: bounds must be a pair (a, b) "
                                 f"with a < b, got {pair}")
        object.__setattr__(self, "bounds", bounds)

    @property
    def n(self) -> int:
        return len(self.bounds)

    def straddles_x_zero(self, m: int) -> bool:
        """True when some x-axis interval contains 0 strictly inside."""
        return any(a < 0.0 < b for a, b in self.bounds[:m])


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor grid of interior nodes over a box.

    Interior nodes on axis i sit at ``a_i + j*h_i`` for ``j = 1..cells_i-1``
    with ``h_i = (b_i - a_i)/cells_i``; boundary nodes carry the Dirichlet
    value 0 and are eliminated.  Flat indices are lexicographic with the last
    axis fastest (C order), so ``values.reshape(grid.shape)`` recovers the
    tensor layout.
    """

    domain: BoxDomain
    cells: tuple[int, ...]
    h: np.ndarray
    shape: tuple[int, ...]
    N: int

    @property
    def n(self) -> int:
        return len(self.cells)

    @cached_property
    def cell_volume(self) -> float:
        """Quadrature weight of one node, the product of the spacings."""
        return float(np.prod(self.h))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Interior node coordinates along one axis."""
        a, _ = self.domain.bounds[axis]
        return a + self.h[axis] * np.arange(1, self.cells[axis])

    def meshgrid(self) -> list[np.ndarray]:
        """Sparse broadcastable coordinate arrays, one per axis."""
        return list(np.meshgrid(*(self.axis_coords(d) for d in range(self.n)),
                                indexing="ij", sparse=True))

    def nodal_values(self, fn) -> np.ndarray:
        """Sample ``fn(*coords)`` at every interior node, flattened."""
        return np.asarray(fn(*self.meshgrid()), dtype=float).ravel()


def build_grid(domain: BoxDomain, cells_per_axis) -> Grid:
    """Construct the interior-node grid for a box.

    Each axis needs at least 2 cells (at least one interior node), and
    ``PEAK_STATES`` states of the grid must fit in the machine's memory.
    """
    cells = tuple(int(c) for c in cells_per_axis)
    if len(cells) != domain.n:
        raise ValueError(
            f"cells_per_axis has {len(cells)} entries for a {domain.n}-axis domain")
    for i, c in enumerate(cells):
        if c < 2:
            raise ValueError(f"axis {i}: need at least 2 cells, got {c}")
    h = np.array([(b - a) / c for (a, b), c in zip(domain.bounds, cells)])
    shape = tuple(c - 1 for c in cells)
    N = math.prod(shape)
    peak = PEAK_STATES * 8 * N
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if peak > memory:
        raise ValueError(
            f"{N} nodes need about {peak / 2**30:.3g} GiB at peak "
            f"({PEAK_STATES} states of 8 bytes a node), more than the "
            f"machine's {memory / 2**30:.3g} GiB")
    return Grid(domain=domain, cells=cells, h=h, shape=shape, N=N)


def integral(grid: Grid, values: np.ndarray) -> float:
    """Rectangle-rule integral of nodal values: sum(values) * prod(h).

    Exact companion of the discrete norms and energies: for u vanishing on
    the boundary this quadrature makes summation by parts an identity.
    """
    values = np.asarray(values, dtype=float)
    if values.size != grid.N:
        raise ValueError(f"expected {grid.N} nodal values, got {values.size}")
    return float(values.sum() * grid.cell_volume)
