"""Backward solvers: penalized, reflected/projected, and the limit driver.

Every solver compiles the problem onto its grid once (`StepOperator`),
walks the explicit scheme backward from the terminal slice through it,
and differs only in how obstacles are enforced per step:

    solve_penalized                      implicit two-sided penalties
    solve_lower_reflected_upper_penalized  lower projection + upper penalty
    solve_double_projection              projection on the active sides
    solve_limit                          penalized family along a schedule

The limit driver records a per-stage trace (sup difference between
consecutive stages, obstacle violations, contact residuals read from the
stage field's penalty increments) and flags, never raises, when the
schedule ends above its stopping tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decomposition import _contact_residuals
from .model import ProblemSpec, SpecError
from .scheme import Field, Grid, PenaltyParams, StepFailure, StepOperator, \
    _penalty_increments, explicit_step

DEFAULT_INTENSITIES = (4.0, 16.0, 64.0, 256.0, 1024.0)
DEFAULT_STOP_TOL = 1.0e-4


@dataclass(eq=False)
class SolveReport:
    """One finished backward solve.

    sup_upper_violation / sup_lower_violation are the worst obstacle
    crossings max (u - upper)^+ and max (lower - u)^+ over every node of
    every slice, 0.0 on inactive sides.  iterations counts time steps.
    """

    field: Field
    sup_upper_violation: float
    sup_lower_violation: float
    iterations: int
    wall_time: float


def _layer_violations(layer, op: StepOperator):
    low, up = op.lower, op.upper
    lo = 0.0 if low is None else float((low - layer).max(initial=0.0))
    hi = 0.0 if up is None else float((layer - up).max(initial=0.0))
    return lo, hi


def _backward_solve(spec: ProblemSpec, grid: Grid, pen: PenaltyParams,
                    mode) -> SolveReport:
    if not spec.gparams.well_ordered:
        raise SpecError("volatility band is not well ordered; "
                        "run validate() for details")
    start = time.perf_counter()
    op = StepOperator(spec, grid)
    values = np.empty((grid.nt + 1, grid.nx + 1))
    values[grid.nt] = np.broadcast_to(
        np.asarray(spec.terminal(spec.horizon, grid.x_nodes), dtype=float),
        (grid.nx + 1,))

    lo_viol, up_viol = _layer_violations(values[grid.nt],
                                         op.at(grid.horizon))
    for k in range(grid.nt - 1, -1, -1):
        t = grid.t_nodes[k]
        op_t = op.at(t)
        try:
            values[k] = explicit_step(values[k + 1], t, op_t, pen, mode=mode)
        except StepFailure as err:
            raise StepFailure(
                f"step to slice {k} of {grid.nt}: {err}; the last finite layer"
                f" has sup|u| = {np.max(np.abs(values[k + 1])):.6g}") from None
        lo, up = _layer_violations(values[k], op_t)
        lo_viol = max(lo_viol, lo)
        up_viol = max(up_viol, up)

    return SolveReport(field=Field(values=values, grid=grid),
                       sup_upper_violation=up_viol,
                       sup_lower_violation=lo_viol,
                       iterations=grid.nt,
                       wall_time=time.perf_counter() - start)


def solve_penalized(spec: ProblemSpec, grid: Grid,
                    pen: PenaltyParams) -> SolveReport:
    """Two-sided penalized solve at fixed intensities."""
    return _backward_solve(spec, grid, pen, "penalized")


def solve_lower_reflected_upper_penalized(spec: ProblemSpec, grid: Grid,
                                          n_upper) -> SolveReport:
    """Exact lower reflection (projection) with an upper penalty.

    The companion construction to the two-sided penalized family: the
    lower obstacle is enforced exactly each step, the upper one only
    through its intensity.  Requires an active lower obstacle; the
    output satisfies u >= lower at every node by construction.
    """
    if not spec.obstacles.lower_active:
        raise SpecError("lower-reflected solve needs an active lower obstacle")
    pen = PenaltyParams(m_lower=0.0, n_upper=float(n_upper))
    return _backward_solve(spec, grid, pen, "project_lower")


def solve_double_projection(spec: ProblemSpec, grid: Grid) -> SolveReport:
    """Projection onto the obstacle band each step (active sides).

    With one side inactive this degenerates, on the same code path, to
    the single-sided reflected solve.
    """
    ob = spec.obstacles
    if not (ob.lower_active or ob.upper_active):
        raise SpecError("projection solve needs at least one active obstacle")
    return _backward_solve(spec, grid, PenaltyParams(), "project_both")


# ---------------------------------------------------------------------------
# penalty schedules and the limit driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenaltySchedule:
    """A finite family of penalty intensities walked in order.

    pairing 'diagonal' moves both intensities together, 'fixed_n' sweeps
    the lower intensity at a constant upper one, 'fixed_m' the reverse.
    The varying intensity must increase strictly along the list.
    """

    steps: tuple
    stop_tol: float = DEFAULT_STOP_TOL
    pairing: str = "diagonal"

    def __post_init__(self):
        if not self.steps:
            raise SpecError("empty penalty schedule")
        if not all(isinstance(p, PenaltyParams) for p in self.steps):
            raise SpecError("schedule steps must be PenaltyParams")
        if not self.stop_tol > 0.0:
            raise SpecError("stop_tol must be positive")
        if self.pairing == "diagonal":
            seq = [p.n_upper for p in self.steps]
            if any(p.m_lower != p.n_upper for p in self.steps):
                raise SpecError("diagonal schedule needs m_lower == n_upper")
        elif self.pairing == "fixed_n":
            seq = [p.m_lower for p in self.steps]
            if len({p.n_upper for p in self.steps}) != 1:
                raise SpecError("fixed_n schedule must hold n_upper constant")
        elif self.pairing == "fixed_m":
            seq = [p.n_upper for p in self.steps]
            if len({p.m_lower for p in self.steps}) != 1:
                raise SpecError("fixed_m schedule must hold m_lower constant")
        else:
            raise SpecError(f"unknown pairing {self.pairing!r}")
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise SpecError("schedule intensities must increase strictly")

    @classmethod
    def diagonal(cls, intensities=DEFAULT_INTENSITIES,
                 stop_tol=DEFAULT_STOP_TOL):
        return cls(steps=tuple(PenaltyParams(float(v), float(v))
                               for v in intensities),
                   stop_tol=stop_tol, pairing="diagonal")

    @classmethod
    def fixed_n(cls, n_upper, m_values, stop_tol=DEFAULT_STOP_TOL):
        return cls(steps=tuple(PenaltyParams(float(m), float(n_upper))
                               for m in m_values),
                   stop_tol=stop_tol, pairing="fixed_n")

    @classmethod
    def fixed_m(cls, m_lower, n_values, stop_tol=DEFAULT_STOP_TOL):
        return cls(steps=tuple(PenaltyParams(float(m_lower), float(n))
                               for n in n_values),
                   stop_tol=stop_tol, pairing="fixed_m")


@dataclass(frozen=True)
class StageRecord:
    """One schedule stage: intensities, sup difference to the previous
    stage (inf for the first), worst obstacle violations, and the two
    contact residuals of the stage's penalty compensators."""

    stage: int
    m_lower: float
    n_upper: float
    sup_diff: float
    upper_violation: float
    lower_violation: float
    r_plus: float
    r_minus: float


@dataclass(eq=False)
class ConvergenceTrace:
    stages: tuple
    converged: bool
    stop_tol: float
    reports: Optional[tuple] = None  # per-stage SolveReports when kept


def solve_limit(spec: ProblemSpec, grid: Grid,
                schedule: Optional[PenaltySchedule] = None,
                keep_reports=False):
    """Walk the penalized family along a schedule toward its limit.

    Runs solve_penalized per stage, stops early once the sup-norm
    difference between consecutive stage fields drops below the
    schedule's stop_tol.  A stage's contact residuals come from the
    penalty increments dt*m*(lower - Y)^+ and dt*n*(Y - upper)^+ of its
    field, which are its compensators; no reconstruction runs.  Returns
    (final SolveReport, ConvergenceTrace); a schedule that ends above
    tolerance only clears the converged flag.
    """
    if schedule is None:
        schedule = PenaltySchedule.diagonal()

    op = StepOperator(spec, grid)
    stages = []
    reports = []
    prev = None
    converged = False
    report = None
    for idx, pen in enumerate(schedule.steps):
        report = solve_penalized(spec, grid, pen)
        r_plus, r_minus = _contact_residuals(
            report.field, op,
            lambda k, y, low, up: _penalty_increments(y, low, up, pen,
                                                      grid.dt))
        if prev is None:
            diff = float("inf")
        else:
            diff = float(np.max(np.abs(report.field.values - prev)))
        stages.append(StageRecord(
            stage=idx, m_lower=pen.m_lower, n_upper=pen.n_upper,
            sup_diff=diff, upper_violation=report.sup_upper_violation,
            lower_violation=report.sup_lower_violation,
            r_plus=r_plus, r_minus=r_minus))
        if keep_reports:
            reports.append(report)
        prev = report.field.values
        if diff < schedule.stop_tol:
            converged = True
            break

    trace = ConvergenceTrace(stages=tuple(stages), converged=converged,
                             stop_tol=schedule.stop_tol,
                             reports=tuple(reports) if keep_reports else None)
    return report, trace
