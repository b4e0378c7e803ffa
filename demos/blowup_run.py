"""End-to-end blow-up experiment with the full theorem scorecard.

Runs the shipped cubic blow-up configuration: anisotropy gamma = 1 on the
square (-1,1)^2, f(u) = u^3, and an amplitude chosen so the potential
functional starts positive.  The pipeline checks the structural sign
condition, derives the blow-up constants (sigma, M, T*), marches until the
step controller collapses, and certifies the monotonicity and concavity
margins that the finite-time-escape argument rests on.

Artifacts (records CSV, SVG plot, report JSON) land in demos/out/blowup/.
"""

import os

from grushinlab import parse_config, run_experiment

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(HERE, "..", "configs", "blowup_cubic.json")
OUT = os.path.join(HERE, "out", "blowup")


def main():
    cfg = parse_config(CONFIG)
    rpt = run_experiment(cfg, out_dir=OUT)

    print(f"lambda1            = {rpt.lambda1:.6f}")
    print(f"F0 (must be > 0)   = {rpt.F0:.6f}")
    print(f"I0                 = {rpt.I0:.6f}")
    print(f"sigma              = {rpt.sigma:.6f}")
    print(f"M                  = {rpt.M:.6f}")
    print(f"T* upper bound     = {rpt.Tstar_bound:.6f}")
    print(f"hypothesis holds   = {rpt.hypothesis_initial['holds']}"
          f" (worst margin {rpt.hypothesis_initial['worst_margin']:.3e})")
    for c in rpt.constraints:
        print(f"constraint ok      = {c['ok']}  [{c['name']}: {c['detail']}]")
    print(f"simulation status  = {rpt.sim['status']} ({rpt.sim['reason']})")
    slack = rpt.consistency["blowup_time_slack"]
    print(f"t_blow             = {rpt.sim['t_blow']:.6f}"
          f"  (bound x{slack:g} = {slack * rpt.Tstar_bound:.6f})")
    m = rpt.margins
    print(f"monotonicity margin= {m['monotonicity']:.6e}"
          f"  ok={m['monotonicity_ok']}")
    print(f"concavity margin   = {m['concavity']:.6e}  ok={m['concavity_ok']}")
    print(f"verdict            = {rpt.verdict}")
    print(f"artifacts in       {OUT}")


if __name__ == "__main__":
    main()
