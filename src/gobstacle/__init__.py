"""Monotone finite-difference engine for doubly reflected backward
systems under volatility uncertainty.

The package solves the double-obstacle parabolic problem

    max(u - upper, min(-du/dt - F(t, x, u, Du, D2u), u - lower)) = 0

with F built from a sublinear envelope over a volatility band, and
exposes the penalization family whose limit constructs the solution:
fixed-intensity penalized solves, exact-reflection companions, the
scheduled limit driver, process reconstruction (gradient, compensators,
scenario defects), closed-form oracles for the classical subfamily, a
comparison harness, and a structural property suite.
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
from .gcalculus import g_eval, worst_case_vol
from .scheme import (
    Field,
    Grid,
    GridError,
    MODES,
    PenaltyParams,
    StepFailure,
    StepOperator,
    build_grid,
    explicit_step,
    layer_rhs_parts,
    resolve_penalties,
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
    solve_lower_reflected_upper_penalized,
    solve_penalized,
)
from .decomposition import (
    ProcessBundle,
    bmo_diagnostic,
    one_step_residuals,
    reconstruct,
    skorohod_residuals,
)
from .diagnostics import (
    CheckResult,
    ORDER_SLACK,
    OrderReport,
    RateFit,
    SuiteResult,
    classical_oracle,
    comparison_harness,
    inner_mask,
    rate_fit,
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
    "g_eval", "worst_case_vol",
    "Field", "Grid", "GridError", "MODES", "PenaltyParams", "StepFailure",
    "StepOperator", "build_grid", "explicit_step", "layer_rhs_parts",
    "resolve_penalties",
    "ConvergenceTrace", "DEFAULT_INTENSITIES", "DEFAULT_STOP_TOL",
    "PenaltySchedule", "SolveReport", "StageRecord",
    "solve_double_projection", "solve_limit",
    "solve_lower_reflected_upper_penalized", "solve_penalized",
    "ProcessBundle", "bmo_diagnostic", "one_step_residuals", "reconstruct",
    "skorohod_residuals",
    "CheckResult", "ORDER_SLACK", "OrderReport", "RateFit", "SuiteResult",
    "classical_oracle", "comparison_harness", "inner_mask", "rate_fit",
    "run_comparison_suite", "run_property_suite", "sup_diff",
    "Preset", "PRESETS", "get_preset", "list_presets",
    "__version__",
]
