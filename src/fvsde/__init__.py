"""Cell-centered two-point flux finite volumes with semi-implicit Euler time
stepping for stochastic nonlinear convection-diffusion under homogeneous
Neumann boundary conditions, plus the Monte Carlo machinery to measure strong
convergence rates."""

__version__ = "0.1.0"

from .errors import (CompatibilityWarning, ConfigError, CouplingError,
                     FvsdeError, MeshError, SolverError, StabilityWarning,
                     StepFailure)
from .fields import CellField
from .mesh import (AdmissibilityReport, TensorMesh, build_tensor_mesh,
                   cell_average, inject, injection_map, refine,
                   validate_admissibility)
from .discrete_ops import (EdgeVelocity, TpfaOperator, dibp_gap,
                           discrete_h1_seminorm, discrete_l2_norm,
                           edge_velocity, l2_error_vs_function, mass,
                           poincare_constant_estimate, upwind_cells)
from .noise import NoisePath, TimeGrid, coarsen, sample_path
from .scheme import ProblemSpec, StepperParams, Trajectory, run_path
from .projections import (SmoothFunctionSpec, centered_projection,
                          elliptic_projection, projection_error_report)
from .presets import PRESETS, closed_form_heat_reference, get_preset
from .stats import fit_rate, mc_mean_ci
from .study import RateReport, StudyConfig, default_config, run_rate_study
from .properties import PropertyReport, run_property_suite
