"""Exponential decay envelope for the source-free flow.

With f = 0 the first eigenmode decays exactly like e^{-lam t/(1+lam)} in
amplitude, so the energy calE = l2 + grad decays at rate 2 lam/(1+lam).
The script marches that mode, then scans candidate decay rates through
decay_margin: a rate is certified when the margin stays at or below 1, and
the first over-claimed rate fails.  This is the same machinery the verify
pipeline applies to decay-mode experiments at rate 2 - alpha.
"""

from grushinlab import (BoxDomain, GrushinSpace, SimConfig, assemble_grushin,
                        build_grid, decay_margin, parse_expression, run,
                        smallest_eigenpair)


def main():
    space = GrushinSpace(1, 1, 0.5)
    grid = build_grid(BoxDomain([(0.0, 1.0), (0.0, 1.0)]), (32, 32))
    A = assemble_grushin(grid, space)
    eig = smallest_eigenpair(A, tol=1e-10, cell_volume=grid.cell_volume)
    lam = eig.lambda1
    exact_rate = 2.0 * lam / (1.0 + lam)
    print(f"lambda1 = {lam:.8f}, exact semi-discrete decay rate "
          f"2*lam/(1+lam) = {exact_rate:.8f}")

    cfg = SimConfig(t_end=1.0, dt_init=2e-4, dt_min=2e-4, dt_max=2e-4)
    final, records = run(A, parse_expression("0*u"), eig.phi1.copy(), cfg)
    print(f"marched {final.steps} steps to t = {final.t:.3f}; "
          f"calE dropped {records[0].calE:.4f} -> {records[-1].calE:.4e}")

    print(f"\n{'claimed rate':>14} {'decay margin':>14} {'certified':>10}")
    for factor in (0.5, 0.9, 1.0, 1.01, 1.5):
        rate = factor * exact_rate
        margin = decay_margin(records, rate)
        print(f"{rate:>14.6f} {margin:>14.6f} {str(margin <= 1.001):>10}")
    print("\nthe envelope is sharp: claims at the exact rate pass, anything "
          "faster fails")


if __name__ == "__main__":
    main()
