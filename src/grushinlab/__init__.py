"""grushinlab: a finite-difference laboratory for pseudo-parabolic dynamics
driven by the degenerate Baouendi-Grushin diffusion on box domains.

The package assembles the anisotropic operator, finds its first eigenpair,
marches u_t - L u_t = L u + f(u) semi-implicitly, tracks the energy and
potential functionals along the trajectory, and certifies the observed
behavior (finite-time blow-up within a computable bound, or exponential
decay under an envelope) against the structural sign conditions on f.
"""

from .geometry import (BoxDomain, GrushinSpace, build_grid, dilate,
                       homogeneous_dimension, integral)
from .operators import apply, assemble_grushin, grushin_energy, l2_norm_sq
from .linalg import SolverError, smallest_eigenpair
from .nonlinearity import Power, check_f_positive, eval_F, parse_expression
from .theorems import (check_blowup_hypothesis, check_global_hypothesis,
                       compute_blowup_constants)
from .integrator import SimConfig, build_initial_condition, run
from .diagnostics import (EnergyRecord, concavity_margin, decay_margin,
                          read_csv)
from .runner import ConfigError, parse_config, run_experiment, run_sweep

__version__ = "0.1.0"
