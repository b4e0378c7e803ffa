"""grushinlab: a finite-difference laboratory for pseudo-parabolic dynamics
driven by the degenerate Baouendi-Grushin diffusion on box domains.

The package assembles the anisotropic operator, finds its first eigenpair,
marches u_t - L u_t = L u + f(u) semi-implicitly, tracks the energy and
potential functionals along the trajectory, and certifies the observed
behavior (finite-time blow-up within a computable bound, or exponential
decay under an envelope) against the structural sign conditions on f.
"""

from .geometry import (BoxDomain, Grid, GrushinSpace, build_grid, dilate,
                       homogeneous_dimension, integral)
from .operators import (SparseMatrix, apply, assemble_grushin, grushin_energy,
                        l2_norm_sq)
from .linalg import (EigenResult, NonConvergence, NumericalBreakdown,
                     SolveReport, SolverError, cg_solve, smallest_eigenpair)
from .nonlinearity import (DomainError, Expression, ExpressionError,
                           HypothesisReport, Nonlinearity, Power,
                           check_blowup_hypothesis, check_f_positive,
                           check_global_hypothesis, eval_F, eval_f,
                           parse_expression)
from .integrator import (InitialCondition, SimConfig, SimState,
                         build_initial_condition, run, step)
from .diagnostics import (EnergyRecord, EnergyTracker, certified_records,
                          concavity_margin, decay_margin, emit_svg_plot,
                          monotonicity_margin, read_csv, write_csv)
from .runner import (ConfigError, ExperimentConfig, TheoremReport,
                     compute_blowup_constants, decide_verdict, parse_config,
                     parse_config_dict, run_experiment, run_sweep)

__version__ = "0.1.0"

__all__ = [
    "BoxDomain", "Grid", "GrushinSpace", "build_grid", "dilate",
    "homogeneous_dimension", "integral",
    "SparseMatrix", "apply", "assemble_grushin", "grushin_energy",
    "l2_norm_sq",
    "EigenResult", "NonConvergence", "NumericalBreakdown", "SolveReport",
    "SolverError", "cg_solve", "smallest_eigenpair",
    "DomainError", "Expression", "ExpressionError", "HypothesisReport",
    "Nonlinearity", "Power", "check_blowup_hypothesis", "check_f_positive",
    "check_global_hypothesis", "eval_F", "eval_f", "parse_expression",
    "InitialCondition", "SimConfig", "SimState", "build_initial_condition",
    "run", "step",
    "EnergyRecord", "EnergyTracker", "certified_records", "concavity_margin",
    "decay_margin", "emit_svg_plot", "monotonicity_margin", "read_csv",
    "write_csv",
    "ConfigError", "ExperimentConfig", "TheoremReport",
    "compute_blowup_constants", "decide_verdict", "parse_config",
    "parse_config_dict", "run_experiment", "run_sweep",
]
