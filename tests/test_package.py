"""The public surface, frozen: a name joins or leaves it on purpose."""

import gobstacle

SURFACE = [
    "CheckResult", "CoefficientSet", "ConvergenceTrace",
    "DEFAULT_INTENSITIES", "DEFAULT_STOP_TOL", "EvaluationError", "Field",
    "FnSpec", "GParams", "GeneratorSpec", "Grid", "GridError",
    "ORDER_SLACK", "ObstaclePair", "OrderReport", "PRESETS",
    "PenaltyParams", "PenaltySchedule", "Preset", "ProblemSpec",
    "ProcessBundle", "RateFit", "SolveReport", "SpecError", "StageRecord",
    "StepFailure", "StepOperator", "SuiteResult", "ValidationReport",
    "Violation", "ZERO", "__version__", "bmo_diagnostic", "build_grid",
    "classical_oracle", "comparison_harness", "explicit_step", "g_eval",
    "get_preset", "inner_mask", "list_presets", "one_step_residuals",
    "rate_fit", "reconstruct", "run_comparison_suite", "run_property_suite",
    "skorohod_residuals", "solve_double_projection", "solve_limit",
    "solve_penalized", "solve_penalized_batch", "sup_diff", "validate",
]


def test_the_public_surface_is_frozen_and_every_name_resolves():
    assert sorted(gobstacle.__all__) == SURFACE
    for name in SURFACE:
        assert getattr(gobstacle, name) is not None
