"""Oracles, the comparison of an ordered pair, and the check batteries."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from gobstacle import diagnostics, scheme, solvers
from gobstacle.diagnostics import (
    classical_oracle,
    inner_mask,
    run_comparison_suite,
    run_property_suite,
    sup_diff,
)
from gobstacle.model import FnSpec, GParams
from gobstacle.presets import get_preset
from gobstacle.scheme import Field, Grid, GridError, PenaltyParams, build_grid
from gobstacle.solvers import PenaltySchedule, solve_penalized


# ---------------------------------------------------------------------------
# masks, norms, rate fits
# ---------------------------------------------------------------------------

def test_inner_mask_selects_middle_half():
    g = Grid(-10.0, 10.0, 400, 10, 1.0)
    m = inner_mask(g)
    assert int(m.sum()) == 201
    assert g.x_nodes[m][0] == -5.0 and g.x_nodes[m][-1] == 5.0


def test_sup_diff_full_and_inner():
    g = Grid(-10.0, 10.0, 8, 2, 1.0)
    a = Field(values=np.zeros((3, 9)), grid=g)
    bvals = np.zeros((3, 9))
    bvals[1, 0] = 7.0   # boundary column only
    bvals[1, 4] = 1.0   # dead center
    b = Field(values=bvals, grid=g)
    assert sup_diff(a, b) == 7.0
    assert sup_diff(a, b, inner=True) == 1.0


def test_sup_diff_refuses_fields_on_different_grids():
    a = Field(values=np.zeros((3, 9)), grid=Grid(-10.0, 10.0, 8, 2, 1.0))
    same = Field(values=np.ones((3, 9)), grid=Grid(-10.0, 10.0, 8, 2, 1.0))
    assert sup_diff(a, same) == 1.0  # an equal grid built apart
    for grid in (Grid(-10.0, 10.0, 8, 2, 2.0), Grid(-10.0, 9.0, 8, 2, 1.0)):
        with pytest.raises(ValueError, match="incompatible grids"):
            sup_diff(a, Field(values=np.zeros((3, 9)), grid=grid))


# 101 nodes a slice: blocks of 81 slices, which do not divide the 201
# slices, so the last block is short
BLOCKED = Grid(-10.0, 10.0, 100, 200, 1.0)


def _random_fields(seed):
    rng = np.random.default_rng(seed)
    return [Field(values=rng.standard_normal((201, 101)), grid=BLOCKED)
            for _ in range(2)]


@pytest.mark.parametrize("inner", [False, True])
def test_sup_diff_read_in_blocks_equals_the_whole_array_formula(inner):
    assert (BLOCKED.nt + 1) % (scheme._BLOCK_ELEMENTS // 101) != 0
    m = inner_mask(BLOCKED) if inner else slice(None)
    for seed in range(5):
        a, b = _random_fields(seed)
        whole = float(np.max(np.abs(a.values[:, m] - b.values[:, m])))
        assert sup_diff(a, b, inner=inner) == whole


@pytest.mark.parametrize("k", [0, 80, 81, 200])
def test_sup_diff_is_nan_when_any_node_is(k):
    a, b = _random_fields(k)
    a.values[k, 50] = np.nan  # an inner column
    assert math.isnan(sup_diff(a, b))
    assert math.isnan(sup_diff(b, a, inner=True))


AT = "worst nodewise u_hi - u_lo at "  # the comparison-order detail


def test_comparison_names_the_first_minimum_across_blocks(monkeypatch):
    hi, lo = get_preset("comparison-pair")
    grid = build_grid(hi, nx=200)
    size = scheme._BLOCK_ELEMENTS // 201
    assert grid.nt + 1 > 3 * size
    rng = np.random.default_rng(0)
    lo_vals = np.zeros((grid.nt + 1, 201))
    hi_vals = rng.uniform(1.0, 2.0, lo_vals.shape)
    # ties: the last slice of the first block, an earlier column of the
    # next block's first slice, and the row after
    for k, i in [(size - 1, 60), (size, 3), (size + 1, 0)]:
        hi_vals[k, i] = -0.5
    fields = iter([hi_vals, lo_vals] * 2)
    monkeypatch.setattr(diagnostics, "solve_penalized", lambda *_: (
        SimpleNamespace(field=Field(values=next(fields), grid=grid))))

    def whole(values):
        k, i = np.unravel_index(int(np.argmin(values)), values.shape)
        return f"(t={grid.t_nodes[k]:g}, x={grid.x_nodes[i]:g})"

    order = run_comparison_suite(hi, lo, grid).checks[1]
    assert order.value == -0.5 and not order.passed
    assert order.detail == AT + whole(hi_vals) == \
        AT + f"(t={grid.t_nodes[size - 1]:g}, x={grid.x_nodes[60]:g})"

    # the first NaN wins over any number, as in np.argmin
    hi_vals[size + 2, 7] = hi_vals[3 * size, 1] = np.nan
    order = run_comparison_suite(hi, lo, grid).checks[1]
    assert math.isnan(order.value) and not order.passed
    assert order.detail == AT + whole(hi_vals) == \
        AT + f"(t={grid.t_nodes[size + 2]:g}, x={grid.x_nodes[7]:g})"


def test_sup_diff_refuses_incompatible_grids():
    a = Field(values=np.zeros((3, 9)), grid=Grid(-10.0, 10.0, 8, 2, 1.0))
    b = Field(values=np.zeros((3, 9)), grid=Grid(-10.0, 10.0, 8, 2, 2.0))
    with pytest.raises(ValueError, match="incompatible grids"):
        sup_diff(a, b)


# ---------------------------------------------------------------------------
# classical oracle
# ---------------------------------------------------------------------------

def test_oracle_matches_the_scheme_on_the_reducible_family():
    spec = get_preset("quadratic-gen-colehopf")
    grid = build_grid(spec, nx=100)
    rep = solve_penalized(spec, grid, PenaltyParams())
    oracle = classical_oracle(spec, grid)
    assert sup_diff(rep.field, oracle, inner=True) <= 5e-3


def test_oracle_terminal_row_is_exact():
    spec = get_preset("quadratic-gen-colehopf")
    grid = build_grid(spec, nx=50)
    oracle = classical_oracle(spec, grid)
    want = np.asarray(spec.terminal(spec.horizon, grid.x_nodes), dtype=float)
    assert np.array_equal(oracle.values[-1], want)


def test_oracle_small_gamma_approaches_the_linear_case():
    spec = get_preset("quadratic-gen-colehopf")
    grid = build_grid(spec, nx=50)
    linear = classical_oracle(
        replace(spec, gen=replace(spec.gen, g=FnSpec.constant(0.0),
                                  lipschitz_z=0.0)), grid)
    tiny = classical_oracle(
        replace(spec, gen=replace(spec.gen, g=FnSpec.quadratic_in_z(1e-6),
                                  lipschitz_z=1e-6)), grid)
    assert float(np.max(np.abs(linear.values - tiny.values))) <= 1e-6


def test_oracle_preconditions():
    spec = get_preset("quadratic-gen-colehopf")
    grid = build_grid(spec, nx=50)
    from gobstacle.model import CoefficientSet, ObstaclePair
    cases = [
        (replace(spec, gparams=GParams(1.0, 2.0)), "degenerate"),
        (replace(spec, coeffs=CoefficientSet(
            sigma=FnSpec.affine(0.01, 1.0), vol_floor=0.8, vol_cap=1.3)),
         "constant sigma"),
        (replace(spec, coeffs=CoefficientSet(drift=FnSpec.constant(0.1))),
         "zero drift"),
        (replace(spec, gen=replace(spec.gen, f=FnSpec.constant(0.1))),
         "f == 0"),
        (replace(spec, gen=replace(spec.gen, g=FnSpec.affine(1.0, 0.0))),
         "quadratic_in_z"),
        (replace(spec, obstacles=ObstaclePair(
            lower=FnSpec.constant(-5.0), level_bound=5.0)),
         "inactive obstacles"),
    ]
    for bad, msg in cases:
        with pytest.raises(ValueError, match=msg):
            classical_oracle(bad, grid)


# ---------------------------------------------------------------------------
# comparison of an ordered pair
# ---------------------------------------------------------------------------

def _refusal(hi, lo, grid):
    """The detail of a pair's failed ordering-preconditions check, the
    suite's only check then."""
    (check,) = run_comparison_suite(hi, lo, grid).checks
    assert check.name == "ordering-preconditions" and not check.passed
    return check.detail


def test_ordered_pair_orders_the_outputs():
    hi, lo = get_preset("comparison-pair")
    grid = build_grid(hi, nx=100)
    pre, order = run_comparison_suite(hi, lo, grid).checks
    assert pre.passed and order.passed
    assert order.value >= -1e-10
    assert order.value == pytest.approx(0.1, abs=1e-12)  # terminal gap


def test_swapped_pair_is_refused_with_the_offending_channel():
    hi, lo = get_preset("comparison-pair")
    grid = build_grid(hi, nx=100)
    assert "ordering precondition" in _refusal(lo, hi, grid)


def test_comparison_requires_matching_structure():
    hi, lo = get_preset("comparison-pair")
    grid = build_grid(hi, nx=50)
    assert "volatility bands" in _refusal(
        replace(hi, gparams=GParams(1.0, 3.0)), lo, grid)
    assert "horizons" in _refusal(replace(hi, horizon=2.0), lo, grid)
    drifting = replace(hi, coeffs=replace(hi.coeffs,
                                          drift=FnSpec.constant(0.1)))
    assert "dynamics coefficients" in _refusal(drifting, lo, grid)
    from gobstacle.model import ObstaclePair
    stripped = replace(hi, obstacles=ObstaclePair())
    assert "activity flags" in _refusal(stripped, lo, grid)


# ---------------------------------------------------------------------------
# check batteries
# ---------------------------------------------------------------------------

def test_property_suite_full_battery_on_double_obstacles():
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=100)
    res = run_property_suite(spec, grid, PenaltySchedule.diagonal())
    assert len(res.checks) == 17
    failed = [c.name for c in res.checks if not c.passed]
    assert failed == []
    assert res.final_report is not None
    assert res.trace.stages  # the walk is exposed for reporting
    assert res.trace.reports is None  # its stage fields are not kept


def test_property_suite_steps_in_three_batches(monkeypatch):
    # the limit ladder, the determinism re-solve (a true second run), and
    # one batch of the fixed-intensity, reflected and projected solves
    batches = []
    real = solvers._solve_rows

    def counting(spec, grid, pens, *whole):
        batches.append(tuple(pens))
        return real(spec, grid, pens, *whole)

    monkeypatch.setattr(solvers, "_solve_rows", counting)
    spec = get_preset("double-active")
    res = run_property_suite(spec, build_grid(spec, nx=48))
    assert res.ok
    assert [len(b) for b in batches] == [5, 1, 5]
    assert batches[1] == (res.final_report.pen,)
    assert PenaltyParams(math.inf, 256.0) in batches[2]
    assert PenaltyParams(math.inf, math.inf) in batches[2]


def test_property_suite_skips_inapplicable_checks():
    free = get_preset("gheat-quadratic")
    grid = build_grid(free, nx=64)
    res = run_property_suite(free, grid, PenaltySchedule.diagonal())
    names = {c.name for c in res.checks}
    assert len(res.checks) == 9
    assert "upper-penalty-boundedness" not in names
    assert "construction-agreement" not in names

    upper = get_preset("upper-active")
    grid = build_grid(upper, nx=64)
    res = run_property_suite(upper, grid, PenaltySchedule.diagonal())
    names = {c.name for c in res.checks}
    assert len(res.checks) == 14
    assert "upper-penalty-boundedness" in names
    assert "construction-agreement" not in names  # needs the lower side


def test_comparison_suite_reports_both_checks():
    hi, lo = get_preset("comparison-pair")
    grid = build_grid(hi, nx=100)
    res = run_comparison_suite(hi, lo, grid)
    assert [c.name for c in res.checks] \
        == ["ordering-preconditions", "comparison-order"]
    assert all(c.passed for c in res.checks)
    assert res.final_report is None and res.trace is None


def test_comparison_suite_fails_a_swapped_pair_without_solving(
        monkeypatch):
    def refuse(*_):
        raise AssertionError("a solve ran on a refused pair")

    monkeypatch.setattr(diagnostics, "solve_penalized", refuse)
    hi, lo = get_preset("comparison-pair")
    res = run_comparison_suite(lo, hi, build_grid(hi, nx=100))
    assert [(c.name, c.passed) for c in res.checks] \
        == [("ordering-preconditions", False)]
    assert "ordering precondition" in res.checks[0].detail
    assert res.final_report is None and res.trace is None


def test_comparison_suite_raises_a_grid_error():
    # a lo member with larger generator moduli needs more steps than hi's
    # grid has: that is a grid the caller built wrong, not a failed
    # ordering precondition
    hi, lo = get_preset("comparison-pair")
    lo = replace(lo, gen=replace(lo.gen, lipschitz_z=5.0))
    grid = build_grid(hi, nx=100)
    assert build_grid(lo, nx=100).nt > grid.nt
    with pytest.raises(GridError, match="CFL bound"):
        run_comparison_suite(hi, lo, grid)
    res = run_comparison_suite(hi, lo, build_grid(lo, nx=100))
    assert all(c.passed for c in res.checks)
