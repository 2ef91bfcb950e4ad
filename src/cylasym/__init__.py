"""cylasym: a numerical laboratory for elliptic problems on expanding cylinders.

Discretizes Dirichlet problems of order 2m on finite cylinders (-l, l)^p x omega
and on the cross-section omega, and measures how fast the cylinder solution
approaches the cross-section solution as l grows.
"""

__version__ = "0.1.0"

from .analysis import (
    ConvergenceReport,
    ErrorRecord,
    error_Hm,
    fit_rate,
    galerkin_interior_residual,
    lemma19_check,
    localized_energy,
    norm_Hm,
)
from .assembly import AssembledSystem, assemble_cylinder, assemble_limit
from .fdcalc import (
    GridSample,
    delta_alpha,
    delta_k,
    interior_derivative_error,
    leibniz_defect,
    mean_value_check,
    summation_by_parts_defect,
)
from .harness import SweepPlan, run_refinement, run_sweep
from .linalg import SolveResult, cg_jacobi, gmres_jacobi
from .problem import (
    ProblemSpec,
    builtin_names,
    builtin_problem,
    load_problem,
    parse_problem_config,
    validate_hypotheses,
)
from .splines import DiscreteField, SplineBasis1D, TensorBasis, build_basis

__all__ = [
    "__version__",
    "AssembledSystem",
    "ConvergenceReport",
    "DiscreteField",
    "ErrorRecord",
    "GridSample",
    "ProblemSpec",
    "SolveResult",
    "SplineBasis1D",
    "SweepPlan",
    "TensorBasis",
    "assemble_cylinder",
    "assemble_limit",
    "build_basis",
    "builtin_names",
    "builtin_problem",
    "cg_jacobi",
    "delta_alpha",
    "delta_k",
    "error_Hm",
    "fit_rate",
    "galerkin_interior_residual",
    "gmres_jacobi",
    "interior_derivative_error",
    "leibniz_defect",
    "lemma19_check",
    "load_problem",
    "localized_energy",
    "mean_value_check",
    "norm_Hm",
    "parse_problem_config",
    "run_refinement",
    "run_sweep",
    "summation_by_parts_defect",
    "validate_hypotheses",
]
