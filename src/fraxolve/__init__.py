"""Solvers for semilinear parabolic problems with a Caputo time derivative.

The time discretization is the L1 scheme on (quasi-)graded meshes; space is
handled by monotone finite differences on tensor-product grids.

Importing the package loads numpy only.  scipy loads with the first spatial
operator (``spatial.assemble``, ``spatial.fast_inverse``, the solvers of
``pde``) and in the negative-axis quadrature of ``special.mittag_leffler``,
so a run on the time axis alone (``solve_scalar``, ``solve_resolvent``,
``long_time_check``, ``mittag_leffler``) never imports it.
"""

__version__ = "0.1.0"

from .caputo import CaputoWeights, apply_delta, history_load, l1_weights
from .harness import (
    TableSpec,
    allen_cahn_problem,
    exact_error,
    rate,
    rows_to_csv,
    table_run,
    two_mesh_error,
)
from .mesh import (
    FracParams,
    TemporalMesh,
    build_graded,
    check_step_restriction,
    verify_quasi_graded,
)
from .nonlinearity import Nonlinearity, builtin, truncate
from .pde import Problem, SolutionHistory, range_check_pde, solve_pde
from .scalar import (
    NonconvergenceError,
    ScalarTrajectory,
    SolverConfig,
    StepRestrictionWarning,
    error_envelope,
    range_check,
    solve_scalar,
)
from .spatial import (
    BoundaryCondition,
    BoundarySpec,
    CoefficientField,
    Grid,
    MaxPrincipleError,
    assemble,
    check_max_principle,
)
from .special import gamma, mittag_leffler
from .stability import (
    envelope_ratio,
    envelope_values,
    long_time_check,
    solve_resolvent,
)

__all__ = [
    "__version__",
    "CaputoWeights", "apply_delta", "history_load", "l1_weights",
    "TableSpec", "allen_cahn_problem", "exact_error", "rate", "rows_to_csv",
    "table_run", "two_mesh_error",
    "FracParams", "TemporalMesh", "build_graded", "check_step_restriction",
    "verify_quasi_graded",
    "Nonlinearity", "builtin", "truncate",
    "Problem", "SolutionHistory", "range_check_pde", "solve_pde",
    "NonconvergenceError", "ScalarTrajectory", "SolverConfig",
    "StepRestrictionWarning", "error_envelope", "range_check", "solve_scalar",
    "BoundaryCondition", "BoundarySpec", "CoefficientField", "Grid",
    "MaxPrincipleError", "assemble", "check_max_principle",
    "gamma", "mittag_leffler",
    "envelope_ratio", "envelope_values", "long_time_check",
    "solve_resolvent",
]
