"""cylasym: a numerical laboratory for elliptic problems on expanding cylinders.

Discretizes Dirichlet problems of order 2m on finite cylinders (-l, l)^p x omega
and on the cross-section omega, and measures how fast the cylinder solution
approaches the cross-section solution as l grows.
"""

__version__ = "0.1.0"

from .analysis import (
    ConvergenceReport,
    ErrorRecord,
    difference_field,
    error_Hm,
    fit_rate,
    lemma19_check,
    localized_energy,
    norm_Hm,
)
from .assembly import AssembledSystem, CrossSection, assemble_cylinder, assemble_limit
from .fdcalc import interior_derivative_error
from .harness import SweepPlan, run_refinement, run_sweep
from .linalg import (
    SolveResult,
    cholesky_solve,
    kronecker_solve,
    lu_solve,
    pencil_eigenbasis,
)
from .problem import (
    ProblemSpec,
    builtin_names,
    builtin_problem,
    load_problem,
    parse_problem_config,
    validate_hypotheses,
)
from .splines import DiscreteField, SplineBasis1D, TensorBasis

__all__ = [
    "__version__",
    "AssembledSystem",
    "ConvergenceReport",
    "CrossSection",
    "DiscreteField",
    "ErrorRecord",
    "ProblemSpec",
    "SolveResult",
    "SplineBasis1D",
    "SweepPlan",
    "TensorBasis",
    "assemble_cylinder",
    "assemble_limit",
    "builtin_names",
    "builtin_problem",
    "cholesky_solve",
    "difference_field",
    "error_Hm",
    "fit_rate",
    "interior_derivative_error",
    "kronecker_solve",
    "lemma19_check",
    "load_problem",
    "localized_energy",
    "lu_solve",
    "norm_Hm",
    "parse_problem_config",
    "pencil_eigenbasis",
    "run_refinement",
    "run_sweep",
    "validate_hypotheses",
]
