"""First-eigenvalue convergence study.

At gamma = 0 the operator is the ordinary Laplacian, whose discrete first
Dirichlet eigenvalue on the unit square has the closed form
(8/h^2) sin^2(pi h / 2); that gives an exact yardstick for
``smallest_eigenpair``, which with one x-axis takes the exact separable path
(a sine transform in y, then Sturm bisection on one tridiagonal x-problem).
For gamma > 0 no closed form exists, so the script reports the computed
values and their Richardson-style convergence order.
"""

import math

from grushinlab import (BoxDomain, GrushinSpace, assemble_grushin, build_grid,
                        smallest_eigenpair)


def lambda1(gamma, cells):
    space = GrushinSpace(1, 1, gamma)
    grid = build_grid(BoxDomain([(0.0, 1.0), (0.0, 1.0)]), (cells, cells))
    A = assemble_grushin(grid, space)
    eig = smallest_eigenpair(A, tol=1e-10, cell_volume=grid.cell_volume)
    return eig.lambda1


def main():
    print("gamma = 0: checking against the exact discrete eigenvalue")
    print(f"{'cells':>6} {'lambda1':>18} {'closed form':>18} {'rel err':>10}")
    for n in (8, 16, 32, 64):
        lam = lambda1(0.0, n)
        h = 1.0 / n
        closed = (8.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
        print(f"{n:>6} {lam:>18.12f} {closed:>18.12f} "
              f"{abs(lam - closed) / closed:>10.2e}")
    print(f"continuum limit 2*pi^2 = {2 * math.pi**2:.12f}")

    for gamma in (0.5, 1.0):
        print(f"\ngamma = {gamma}: grid refinement (no closed form; "
              "differences shrink at second order)")
        values = {n: lambda1(gamma, n) for n in (16, 32, 64, 128)}
        print(f"{'cells':>6} {'lambda1':>18} {'diff to next':>14}")
        ns = sorted(values)
        for a, b in zip(ns, ns[1:]):
            print(f"{a:>6} {values[a]:>18.12f} {values[b] - values[a]:>14.2e}")
        print(f"{ns[-1]:>6} {values[ns[-1]]:>18.12f}")


if __name__ == "__main__":
    main()
