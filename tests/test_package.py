"""The public surface, frozen: a name or keyword joins or leaves it on
purpose."""

import dataclasses
import inspect

import gobstacle

SURFACE = [
    "CheckResult", "CoefficientSet", "ConvergenceTrace", "DEFAULT_INTENSITIES",
    "DEFAULT_STOP_TOL", "EvaluationError", "Field", "FnSpec", "GParams",
    "GeneratorSpec", "Grid", "GridError", "ORDER_SLACK", "ObstaclePair",
    "PRESETS", "PenaltyParams", "PenaltySchedule", "Preset", "ProblemSpec",
    "ProcessBundle", "SolveReport", "SpecError", "StageRecord", "StepFailure",
    "SuiteResult", "ValidationReport", "Violation", "ZERO", "__version__",
    "bmo_diagnostic", "build_grid", "classical_oracle", "g_eval", "get_preset",
    "inner_mask", "list_presets", "one_step_residuals", "reconstruct",
    "run_comparison_suite", "run_property_suite", "solve_double_projection",
    "solve_limit", "solve_penalized", "solve_penalized_batch", "sup_diff",
    "validate",
]


def test_the_public_surface_is_frozen_and_every_name_resolves():
    assert sorted(gobstacle.__all__) == SURFACE
    for name in SURFACE:
        assert getattr(gobstacle, name) is not None


# the settable fields of the public config dataclasses, in order
FIELDS = {
    "GParams": ("vol_low_sq", "vol_high_sq"),
    "CoefficientSet": ("drift", "cross", "sigma", "vol_floor", "vol_cap"),
    "GeneratorSpec": ("f", "g", "lipschitz_y", "lipschitz_z", "zero_bound"),
    "ObstaclePair": ("lower", "upper", "level_bound"),
    "ProblemSpec": ("gparams", "coeffs", "gen", "obstacles", "terminal",
                    "horizon"),
    "PenaltyParams": ("m_lower", "n_upper"),
    "PenaltySchedule": ("steps", "stop_tol"),
    "Grid": ("x_min", "x_max", "nx", "nt", "horizon", "x_nodes", "t_nodes"),
}


def test_the_config_fields_are_frozen():
    for name, want in FIELDS.items():
        got = tuple(f.name for f in dataclasses.fields(getattr(gobstacle,
                                                               name)))
        assert got == want, name


# the parameters of every public function, defaults included
SIGNATURES = {
    "bmo_diagnostic": "(bundle)",
    "build_grid": "(spec, x_min=-10.0, x_max=10.0, nx=400, cfl_safety=0.9)",
    "classical_oracle": "(spec, grid)",
    "g_eval": "(a, gp)",
    "get_preset": "(name)",
    "inner_mask": "(grid)",
    "list_presets": "()",
    "one_step_residuals": "(bundle)",
    "reconstruct": "(report)",
    "run_comparison_suite": "(spec_hi, spec_lo, grid)",
    "run_property_suite": "(spec, grid, schedule=None)",
    "solve_double_projection": "(spec, grid)",
    "solve_limit": "(spec, grid, schedule=None, keep_reports=False)",
    "solve_penalized": "(spec, grid, pen)",
    "solve_penalized_batch": "(spec, grid, pens)",
    "sup_diff": "(a, b, inner=False)",
    "validate": "(spec, probe)",
}


def _unannotated(fn):
    sig = inspect.signature(fn)
    return str(sig.replace(
        parameters=[p.replace(annotation=p.empty)
                    for p in sig.parameters.values()],
        return_annotation=sig.empty))


def test_the_public_signatures_are_frozen():
    functions = {name: getattr(gobstacle, name) for name in gobstacle.__all__
                 if inspect.isfunction(getattr(gobstacle, name))}
    assert sorted(functions) == sorted(SIGNATURES)
    for name, fn in functions.items():
        assert _unannotated(fn) == SIGNATURES[name], name
