"""Monotone finite-difference engine for doubly reflected backward
systems under volatility uncertainty.

The package solves the double-obstacle parabolic problem

    max(u - upper, min(-du/dt - F(t, x, u, Du, D2u), u - lower)) = 0

with F built from a sublinear envelope over a volatility band, and
exposes the penalization family whose limit constructs the solution:
fixed-intensity penalized solves, exact-reflection companions, the
scheduled limit driver, process reconstruction (gradient, compensators,
scenario defects), closed-form oracles for the classical subfamily, and
structural property suites for one problem and for an ordered pair.
"""

from .model import (
    CoefficientSet,
    EvaluationError,
    FnSpec,
    GeneratorSpec,
    GParams,
    ObstaclePair,
    ProblemSpec,
    SpecError,
    ValidationReport,
    Violation,
    ZERO,
    validate,
)
from .gcalculus import g_eval
from .scheme import (
    Field,
    Grid,
    GridError,
    PenaltyParams,
    StepFailure,
    build_grid,
)
from .solvers import (
    ConvergenceTrace,
    DEFAULT_INTENSITIES,
    DEFAULT_STOP_TOL,
    PenaltySchedule,
    SolveReport,
    StageRecord,
    solve_double_projection,
    solve_limit,
    solve_penalized,
    solve_penalized_batch,
)
from .decomposition import (
    ProcessBundle,
    bmo_diagnostic,
    one_step_residuals,
    reconstruct,
)
from .diagnostics import (
    CheckResult,
    ORDER_SLACK,
    SuiteResult,
    classical_oracle,
    inner_mask,
    run_comparison_suite,
    run_property_suite,
    sup_diff,
)
from .presets import Preset, PRESETS, get_preset, list_presets

__version__ = "0.1.0"

__all__ = [
    "CoefficientSet", "EvaluationError", "FnSpec", "GeneratorSpec",
    "GParams", "ObstaclePair", "ProblemSpec", "SpecError",
    "ValidationReport", "Violation", "ZERO", "validate",
    "g_eval",
    "Field", "Grid", "GridError", "PenaltyParams", "StepFailure",
    "build_grid",
    "ConvergenceTrace", "DEFAULT_INTENSITIES", "DEFAULT_STOP_TOL",
    "PenaltySchedule", "SolveReport", "StageRecord",
    "solve_double_projection", "solve_limit", "solve_penalized",
    "solve_penalized_batch",
    "ProcessBundle", "bmo_diagnostic", "one_step_residuals", "reconstruct",
    "CheckResult", "ORDER_SLACK", "SuiteResult", "classical_oracle",
    "inner_mask", "run_comparison_suite", "run_property_suite", "sup_diff",
    "Preset", "PRESETS", "get_preset", "list_presets",
    "__version__",
]
