"""Backward solvers: penalized, reflected/projected, and the limit driver.

Every solver compiles the problem onto its grid once (`StepOperator`)
and walks the explicit scheme backward from the terminal slice through
it, enforcing the obstacles per step at the intensities of a
`PenaltyParams`; an infinite one projects onto its obstacle:

    solve_penalized          one solve; (inf, n) reflects at the lower
                             obstacle and penalizes the upper one
    solve_penalized_batch    S intensities of one problem
    solve_double_projection  solve_penalized at (inf, inf)
    solve_limit              penalized family along a schedule

All of them step S solves of one problem as one (S, nx+1) layer per
time step (one nx+1 layer for a single solve), with the intensities
given per row, and only step; each row's report is then
read from its stored field in one pass over blocks of slices, which
names the first step that left the finite range or scans the obstacle
violations.  A `SolveReport.wall_time` is the stepping time of the
whole batch.

The limit driver steps its whole schedule as one batch, then walks the
stages in order and records a per-stage trace (sup difference between
consecutive stages, obstacle violations, contact residuals read from the
stage field's penalty increments), stopping at the first stage whose
difference drops below the schedule's tolerance, exactly as a walk that
solved one stage at a time.  Stages past the stop are never read, so a
stage that left the finite range raises only if the walk reaches it.
The driver flags, never raises, when the schedule ends above its
stopping tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decomposition import _contact_residuals
from .model import ProblemSpec, SpecError
from .scheme import Field, Grid, PenaltyParams, StepFailure, StepOperator, \
    _advance, _check_field_budget, _check_grid, _Kernel, _nonfinite, \
    _penalty_increments, _penalty_rows

DEFAULT_INTENSITIES = (4.0, 16.0, 64.0, 256.0, 1024.0)
DEFAULT_STOP_TOL = 1.0e-4


@dataclass(eq=False)
class SolveReport:
    """One finished backward solve and what made it.

    sup_upper_violation / sup_lower_violation are the worst obstacle
    crossings max (u - upper)^+ and max (lower - u)^+ over every node of
    every slice, 0.0 on inactive sides; the step count is
    `field.grid.nt`.  wall_time is the stepping time of the batch the
    field was stepped in.  spec and pen are the problem and intensities
    (inf where a side was projected) the field was stepped with, so that
    `reconstruct(report)` replays the solve.
    """

    field: Field
    sup_upper_violation: float
    sup_lower_violation: float
    wall_time: float
    spec: ProblemSpec
    pen: PenaltyParams


def _layer_violations(layers, low, up):
    """Worst (lower - u)^+ and (u - upper)^+ over a block of layers
    against obstacle rows; 0.0 on an absent side (None)."""
    lo = 0.0 if low is None else float((low - layers).max(initial=0.0))
    hi = 0.0 if up is None else float((layers - up).max(initial=0.0))
    return lo, hi


def _solve_rows(spec: ProblemSpec, grid: Grid, pens):
    """Step one solve per PenaltyParams in `pens` (at least one) as one
    (S, nx+1) layer per time step, through one `_Kernel` and one
    `_advance` call per step, which steps the kernel's two layers in
    turn; each new layer's rows are copied into their own fields, so
    every field owns its memory.  A single solve steps one nx+1 layer.

    Returns (the compiled StepOperator, one stored field per row, the
    stepping wall time).  A grid not built for the problem (another
    horizon, or a dt above its CFL bound) raises GridError before any
    step.  Nothing else is checked here: a row that left the finite range
    keeps stepping on non-finite values, and `_report` names its failure
    when a caller reads that row.  numpy's overflow
    and invalid-value warnings are silenced while stepping.
    """
    if not pens:
        raise SpecError("a batch needs at least one PenaltyParams")
    if not spec.gparams.well_ordered:
        raise SpecError("volatility band is not well ordered; "
                        "run validate() for details")
    _check_grid(spec, grid)
    _check_field_budget(grid, len(pens))
    start = time.perf_counter()
    op = StepOperator(spec, grid)
    nt = grid.nt
    fields = [np.empty((nt + 1, grid.nx + 1)) for _ in pens]
    terminal = np.asarray(spec.terminal(spec.horizon, grid.x_nodes),
                          dtype=float)
    single = len(pens) == 1  # one layer: 1-D steps cost less per call
    shape = (grid.nx + 1,) if single else (len(pens), grid.nx + 1)
    kernel = _Kernel(op, _penalty_rows(pens), shape)
    layer = kernel.layer
    layer[:] = terminal
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nt, -1, -1):
            if k < nt:
                layer = _advance(kernel, grid.t_nodes[k])
            if single:
                fields[0][k] = layer
            else:
                for values, row in zip(fields, layer):
                    values[k] = row
    return op, fields, time.perf_counter() - start


def _report(values, op: StepOperator, pen, wall) -> SolveReport:
    """The SolveReport of one stepped field, read in one pass over
    blocks of slices from the top; raises the StepFailure of the first
    step that made a non-finite value.  The terminal slice is data, not
    a step, so only slices 0..nt-1 are checked for finiteness: a block's
    min and max are both finite exactly when all its values are, and only
    a block that fails that is searched for its slice."""
    grid = op.grid
    lo_viol = up_viol = 0.0
    for k0, k1 in reversed(op.blocks(grid.nt + 1)):
        block = values[k0:min(k1, grid.nt)]
        if not (math.isfinite(block.min(initial=0.0))
                and math.isfinite(block.max(initial=0.0))):
            bad = np.flatnonzero(~np.isfinite(block).all(axis=-1))
            k = k0 + int(bad[-1])
            raise StepFailure(
                f"step to slice {k} of {grid.nt}: "
                f"{_nonfinite(values[k], grid.t_nodes[k], grid)}; the last "
                f"finite layer has sup|u| = "
                f"{np.max(np.abs(values[k + 1])):.6g}")
        lo, up = _layer_violations(values[k0:k1],
                                   *op.obstacles(grid.t_nodes[k0]))
        lo_viol = max(lo_viol, lo)
        up_viol = max(up_viol, up)
    return SolveReport(field=Field(values=values, grid=grid),
                       sup_upper_violation=up_viol,
                       sup_lower_violation=lo_viol, wall_time=wall,
                       spec=op.spec, pen=pen)


def solve_penalized(spec: ProblemSpec, grid: Grid,
                    pen: PenaltyParams) -> SolveReport:
    """Two-sided penalized solve at fixed intensities; an infinite one
    projects onto its obstacle each step (exact reflection)."""
    op, (values,), wall = _solve_rows(spec, grid, (pen,))
    return _report(values, op, pen, wall)


def solve_penalized_batch(spec: ProblemSpec, grid: Grid, pens) -> tuple:
    """Penalized solves of one problem at each PenaltyParams in `pens`,
    stepped together; the reports come in the order of `pens`, each
    with the batch's wall time.  The first row that left the finite
    range raises its StepFailure; an empty `pens` raises SpecError."""
    pens = tuple(pens)
    op, fields, wall = _solve_rows(spec, grid, pens)
    return tuple(_report(values, op, pen, wall)
                 for values, pen in zip(fields, pens))


def solve_double_projection(spec: ProblemSpec, grid: Grid) -> SolveReport:
    """Projection onto the obstacle band each step: `solve_penalized`
    at infinite intensities, refused when no side is active.  With one
    side inactive it is the single-sided reflected solve."""
    ob = spec.obstacles
    if not (ob.lower_active or ob.upper_active):
        raise SpecError("projection solve needs at least one active obstacle")
    return solve_penalized(spec, grid, PenaltyParams(math.inf, math.inf))


# ---------------------------------------------------------------------------
# penalty schedules and the limit driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenaltySchedule:
    """A finite family of penalty intensities walked in order.

    pairing 'diagonal' moves both intensities together, 'fixed_n' sweeps
    the lower intensity at a constant upper one, 'fixed_m' the reverse.
    The varying intensity must increase strictly along the list, and
    every intensity is finite: the contact residuals of a stage are
    read from its penalty increments, which an infinite one lacks.
    """

    steps: tuple
    stop_tol: float = DEFAULT_STOP_TOL
    pairing: str = "diagonal"

    def __post_init__(self):
        if not self.steps:
            raise SpecError("empty penalty schedule")
        if not all(isinstance(p, PenaltyParams) for p in self.steps):
            raise SpecError("schedule steps must be PenaltyParams")
        if not all(math.isfinite(p.m_lower) and math.isfinite(p.n_upper)
                   for p in self.steps):
            raise SpecError("schedule intensities must be finite")
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

    Steps every stage of the schedule as one batch, then walks the
    stages in order and stops early once the sup-norm difference between
    consecutive stage fields drops below the schedule's stop_tol; stages
    past the stop are never read, and a stage's StepFailure is raised
    only if the walk reaches it.  A stage's contact residuals come from the
    penalty increments dt*m*(lower - Y)^+ and dt*n*(Y - upper)^+ of its
    field, which are its compensators; no reconstruction runs.  Returns
    (the SolveReport of the last stage walked, with that stage's pen,
    ConvergenceTrace); a schedule that ends above tolerance only clears
    the converged flag.  The batch holds one field per stage
    (`GridError` above the memory cap).
    """
    if schedule is None:
        schedule = PenaltySchedule.diagonal()

    op, fields, wall = _solve_rows(spec, grid, schedule.steps)
    stages = []
    reports = []
    prev = None
    converged = False
    for idx, (pen, values) in enumerate(zip(schedule.steps, fields)):
        report = _report(values, op, pen, wall)
        r_plus, r_minus = _contact_residuals(
            report.field, op,
            lambda k0, k1, y, low, up: _penalty_increments(y, low, up, pen,
                                                           grid.dt))
        if prev is None:
            diff = float("inf")
        else:
            diff = max(float(np.max(np.abs(values[k0:k1] - prev[k0:k1])))
                       for k0, k1 in op.blocks(grid.nt + 1))
        stages.append(StageRecord(
            stage=idx, m_lower=pen.m_lower, n_upper=pen.n_upper,
            sup_diff=diff, upper_violation=report.sup_upper_violation,
            lower_violation=report.sup_lower_violation,
            r_plus=r_plus, r_minus=r_minus))
        if keep_reports:
            reports.append(report)
        prev = values
        if diff < schedule.stop_tol:
            converged = True
            break

    trace = ConvergenceTrace(stages=tuple(stages), converged=converged,
                             stop_tol=schedule.stop_tol,
                             reports=tuple(reports) if keep_reports else None)
    return report, trace
