"""Backward solvers, penalty schedules, and the limit driver."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from gobstacle import cli
from gobstacle.model import GParams, SpecError
from gobstacle.presets import get_preset
from gobstacle.scheme import GridError, PenaltyParams, build_grid
from gobstacle.solvers import (
    DEFAULT_INTENSITIES,
    PenaltySchedule,
    solve_double_projection,
    solve_limit,
    solve_penalized,
    solve_penalized_batch,
)


# ---------------------------------------------------------------------------
# exact cases
# ---------------------------------------------------------------------------

def test_constant_sandwich_is_exact_for_every_solver():
    """Constant data strictly inside a constant band: nothing moves."""
    spec = get_preset("constant-sandwich")
    grid = build_grid(spec, nx=64)
    runs = [solve_penalized(spec, grid, PenaltyParams(64.0, 64.0)),
            solve_penalized(spec, grid, PenaltyParams(math.inf, 64.0)),
            solve_double_projection(spec, grid)]
    for rep in runs:
        assert float(np.max(np.abs(rep.field.values - 0.5))) == 0.0
        assert rep.sup_upper_violation == 0.0
        assert rep.sup_lower_violation == 0.0
        assert rep.field.grid.nt == grid.nt


def test_convex_quadratic_origin_value():
    # centered differences are exact on x^2, so the origin value carries
    # the band's upper variance: u(0,0) = 0 + vol_high_sq * horizon
    spec = get_preset("gheat-quadratic")
    grid = build_grid(spec, nx=200)
    rep = solve_penalized(spec, grid, PenaltyParams())
    i0 = grid.nx // 2
    assert grid.x_nodes[i0] == 0.0
    assert rep.field.values[0, i0] == pytest.approx(2.0, abs=1e-10)


def test_concave_quadratic_origin_value():
    # concavity flips the envelope onto the lower variance
    spec = get_preset("gheat-concave")
    grid = build_grid(spec, nx=200)
    rep = solve_penalized(spec, grid, PenaltyParams())
    i0 = grid.nx // 2
    assert rep.field.values[0, i0] == pytest.approx(-1.0, abs=1e-10)


def test_solver_is_deterministic():
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    a = solve_penalized(spec, grid, PenaltyParams(16.0, 16.0))
    b = solve_penalized(spec, grid, PenaltyParams(16.0, 16.0))
    assert np.array_equal(a.field.values, b.field.values)


def test_terminal_row_matches_terminal_condition():
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    rep = solve_penalized(spec, grid, PenaltyParams(16.0, 16.0))
    want = np.broadcast_to(
        np.asarray(spec.terminal(spec.horizon, grid.x_nodes), dtype=float),
        (grid.nx + 1,))
    assert np.array_equal(rep.field.values[-1], want)


# ---------------------------------------------------------------------------
# construction relations
# ---------------------------------------------------------------------------

def test_upper_penalty_monotone_in_intensity():
    # raising the push-down intensity can only lower the solution
    spec = get_preset("upper-active")
    grid = build_grid(spec, nx=100)
    prev = None
    for n in (4.0, 16.0, 64.0, 256.0):
        rep = solve_penalized(spec, grid, PenaltyParams(0.0, n))
        if prev is not None:
            assert float(np.max(rep.field.values - prev)) <= 1e-10
        prev = rep.field.values


def test_reflected_solve_enforces_lower_obstacle_exactly():
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    rep = solve_penalized(spec, grid, PenaltyParams(math.inf, 64.0))
    assert rep.sup_lower_violation == 0.0
    assert rep.sup_upper_violation > 0.0  # upper side only penalized


def test_violations_shrink_with_intensity():
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    lo = solve_penalized(spec, grid, PenaltyParams(4.0, 4.0))
    hi = solve_penalized(spec, grid, PenaltyParams(64.0, 64.0))
    assert hi.sup_upper_violation < lo.sup_upper_violation
    assert hi.sup_lower_violation < lo.sup_lower_violation


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

def test_solver_preconditions(tmp_path, capsys):
    free = get_preset("gheat-quadratic")  # no obstacles
    grid = build_grid(free, nx=32)
    with pytest.raises(SpecError, match="at least one active obstacle"):
        solve_double_projection(free, grid)
    # the CLI's lower-reflected mode keeps its refusal
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "gheat-quadratic",
                               "grid": {"nx": 32},
                               "mode": "reflected_lower_pen_upper"}))
    assert cli.main(["solve", "-c", str(cfg)]) == 2
    assert "lower-reflected solve needs an active lower obstacle" \
        in capsys.readouterr().err


def test_solvers_refuse_misordered_band():
    spec = get_preset("gheat-quadratic")
    grid = build_grid(spec, nx=32)
    with pytest.raises(SpecError, match="well ordered"):
        solve_penalized(replace(spec, gparams=replace(spec.gparams,
                                                      vol_low_sq=4.0)),
                        grid, PenaltyParams())


# every solver, on a grid built for another problem
SOLVES = {
    "penalized": lambda spec, grid: solve_penalized(spec, grid,
                                                    PenaltyParams()),
    "batch": lambda spec, grid: solve_penalized_batch(
        spec, grid, (PenaltyParams(), PenaltyParams(4.0, 4.0))),
    "limit": lambda spec, grid: solve_limit(spec, grid),
}


@pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES.keys())
def test_solvers_refuse_a_grid_of_another_horizon(solve):
    # stepped on the T=1 grid, the T=2 problem read u(0, 0) = 2.0 where
    # the closed form x^2 + vol_high_sq*(T-t) gives 4.0
    spec = get_preset("gheat-quadratic")
    longer = replace(spec, horizon=2.0)
    with pytest.raises(GridError, match=r"the grid spans \[0, 1\], "
                       r"the problem \[0, 2\]"):
        solve(longer, build_grid(spec, nx=200))


@pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES.keys())
def test_solvers_refuse_a_grid_above_the_cfl_bound(solve):
    # band [1, 8] on the grid of band [1, 2]: nt=223 where the bound
    # needs 800 at cfl_safety = 1, and the solve reached sup|u| = 1.8e102
    # without a StepFailure
    spec = get_preset("gheat-quadratic")
    wide = replace(spec, gparams=GParams(1.0, 8.0))
    with pytest.raises(GridError, match=r"dt=0\.0044843 is above the "
                       r"problem's CFL bound \(nt=223, needs 800\)"):
        solve(wide, build_grid(spec, nx=200))


def test_a_grid_built_for_the_problem_passes_at_cfl_safety_one():
    spec = replace(get_preset("gheat-quadratic"), horizon=2.0)
    grid = build_grid(spec, nx=200, cfl_safety=1.0)
    u = solve_penalized(spec, grid, PenaltyParams()).field.values
    assert u[0, 100] == pytest.approx(4.0, rel=1e-3)  # x = 0, t = 0


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_diagonal_schedule_constructor():
    sch = PenaltySchedule.diagonal((4.0, 16.0))
    assert [(p.m_lower, p.n_upper) for p in sch.steps] \
        == [(4.0, 4.0), (16.0, 16.0)]


def test_fixed_leg_schedule_constructors():
    sch = PenaltySchedule.fixed_n(64.0, (4.0, 8.0))
    assert [(p.m_lower, p.n_upper) for p in sch.steps] \
        == [(4.0, 64.0), (8.0, 64.0)]
    sch = PenaltySchedule.fixed_m(2.0, (4.0, 8.0))
    assert [(p.m_lower, p.n_upper) for p in sch.steps] \
        == [(2.0, 4.0), (2.0, 8.0)]


def test_default_intensity_ladder():
    sch = PenaltySchedule.diagonal()
    assert tuple(p.n_upper for p in sch.steps) == DEFAULT_INTENSITIES


@pytest.mark.parametrize("bad", [
    dict(steps=()),
    dict(steps=(PenaltyParams(4.0, 4.0),), stop_tol=0.0),
    dict(steps=("x",)),
    dict(steps=(PenaltyParams(8.0, 8.0), PenaltyParams(4.0, 4.0))),
    dict(steps=(PenaltyParams(4.0, 8.0), PenaltyParams(2.0, 8.0))),
    dict(steps=(PenaltyParams(8.0, 4.0), PenaltyParams(8.0, 4.0))),
    dict(steps=(PenaltyParams(4.0, 4.0), PenaltyParams(8.0, 5.0))),
    dict(steps=(PenaltyParams(4.0, 4.0), PenaltyParams(5.0, 8.0))),
])
def test_schedule_rejections(bad):
    with pytest.raises(SpecError):
        PenaltySchedule(**bad)


def _old_pairings_accept(steps):
    """Whether a 'diagonal', 'fixed_n' or 'fixed_m' schedule, as each
    was once declared by name, accepted `steps`."""
    m = [p.m_lower for p in steps]
    n = [p.n_upper for p in steps]
    rising = lambda seq: all(b > a for a, b in zip(seq, seq[1:]))
    return ((m == n and rising(n))
            or (len(set(n)) == 1 and rising(m))
            or (len(set(m)) == 1 and rising(n)))


def test_the_steps_decide_the_pairing():
    # every ladder of up to three steps over a small intensity set,
    # infinite intensities included
    values = (0.0, 4.0, 8.0, math.inf)
    pens = [PenaltyParams(m, n) for m in values for n in values]
    ladders = [(p,) for p in pens] + [(p, q) for p in pens for q in pens]
    ladders += [(p, q, r) for p in pens[::3] for q in pens for r in pens]
    accepted = 0
    for steps in ladders:
        try:
            PenaltySchedule(steps)
            ok = True
        except SpecError:
            ok = False
        assert ok == _old_pairings_accept(steps), steps
        accepted += ok
    assert 0 < accepted < len(ladders)


# ---------------------------------------------------------------------------
# the limit driver
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def limit_run():
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=100)
    sch = PenaltySchedule.diagonal((4.0, 16.0, 64.0))
    rep, trace = solve_limit(spec, grid, sch, keep_reports=True)
    return spec, grid, rep, trace


def test_limit_stage_records(limit_run):
    _, _, rep, trace = limit_run
    assert [s.stage for s in trace.stages] == [0, 1, 2]
    assert trace.stages[0].sup_diff == float("inf")
    assert [(s.m_lower, s.n_upper) for s in trace.stages] \
        == [(4.0, 4.0), (16.0, 16.0), (64.0, 64.0)]


def test_limit_stage_quantities_decrease(limit_run):
    _, _, _, trace = limit_run
    diffs = [s.sup_diff for s in trace.stages]
    assert diffs[1] > diffs[2]
    for seq in ([s.upper_violation for s in trace.stages],
                [s.lower_violation for s in trace.stages],
                [s.r_plus for s in trace.stages],
                [s.r_minus for s in trace.stages]):
        assert all(b < a for a, b in zip(seq, seq[1:]))


def test_limit_reports_kept_and_final_matches(limit_run):
    _, _, rep, trace = limit_run
    assert len(trace.reports) == len(trace.stages)
    assert np.array_equal(rep.field.values, trace.reports[-1].field.values)


def test_limit_convergence_flag(limit_run):
    spec, grid, _, trace = limit_run
    # the short ladder ends above the default tolerance: flagged, not fatal
    assert not trace.converged
    loose = PenaltySchedule.diagonal((4.0, 16.0, 64.0), stop_tol=1.0)
    _, tr2 = solve_limit(spec, grid, loose)
    assert tr2.converged
    assert len(tr2.stages) == 2  # early stop after the first small diff
    assert tr2.reports is None


# ---------------------------------------------------------------------------
# what a report records of its solve
# ---------------------------------------------------------------------------

def _made_by(report, spec, pen):
    return report.spec is spec and report.pen == pen


def test_each_report_carries_its_spec_and_pen():
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=48)
    pen = PenaltyParams(16.0, 64.0)
    assert _made_by(solve_penalized(spec, grid, pen), spec, pen)
    reflected = PenaltyParams(math.inf, 32.0)
    assert _made_by(solve_penalized(spec, grid, reflected), spec, reflected)
    assert _made_by(solve_double_projection(spec, grid), spec,
                    PenaltyParams(math.inf, math.inf))
    pens = (PenaltyParams(4.0, 4.0), PenaltyParams(0.0, 64.0), pen,
            reflected)
    for p, rep in zip(pens, solve_penalized_batch(spec, grid, pens)):
        assert _made_by(rep, spec, p)


@pytest.mark.parametrize("name", ["double-active", "quadratic-drift"])
def test_limit_reports_carry_their_stage_pen(name):
    spec = get_preset(name)
    schedule = PenaltySchedule.diagonal()
    final, trace = solve_limit(spec, build_grid(spec, nx=48), schedule,
                               keep_reports=True)
    stop = len(trace.stages) - 1
    if name == "quadratic-drift":
        assert stop == 1  # stops early: the final report is stage 1's
    assert _made_by(final, spec, schedule.steps[stop])
    for step, rep in zip(schedule.steps, trace.reports):
        assert _made_by(rep, spec, step)
