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

All of them step S solves of one problem, one kernel call per time
step, and only step.  The S rows step as one nx+1 layer into one field
as long as the penalties act alike on all of them, that is until a step
reaches an obstacle on a side whose intensity differs between rows (a
single solve, or rows of equal intensities, have no such side).  That
step is taken again, and the rest, through one kernel of S layers laid
end to end in one flat array of S*(nx+1) nodes, with the intensities
given per row, each row into its own field.  Rows that never separate
share one read-only field.  Each row's report is then read from its
stored field in one pass over blocks of slices, which names the first
step that left the finite range or scans the obstacle violations, once
per field.  A `SolveReport.wall_time` is the stepping time of the whole
batch.

The limit driver steps its whole schedule as one batch, then walks the
stages in order and records a per-stage trace (sup difference between
consecutive stages, obstacle violations, contact residuals read from the
stage field's penalty increments), stopping at the first stage whose
difference drops below the schedule's tolerance, exactly as a walk that
solved one stage at a time; two stages that share a field differ by
0.0.  Stages past the stop are never read, so a stage that left the
finite range raises only if the walk reaches it.
The driver flags, never raises, when the schedule ends above its
stopping tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import ProblemSpec, SpecError
from .scheme import Field, Grid, PenaltyParams, StepFailure, StepOperator, \
    _advance, _block_max, _check_field_budget, _check_grid, _Kernel, \
    _nonfinite, _penalty_rows

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
    `reconstruct(report)` replays the solve.  The rows of a batch that
    never separated share one read-only field; every other field owns
    its memory.
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


def _separating(op: StepOperator, rows):
    """The tests that keep a batch stepping as one layer: per present
    side whose intensity differs between rows (`_PenaltyRows`), the
    explicit values v against the interior obstacle row where the finite
    rates differ, and the new layer where the projected rows do, each as
    (on the new layer, row, test): v or the layer must lie strictly above
    the lower row (`np.greater`) or below the upper one (`np.less`).
    Where every test holds, each row's resolution and projection on that
    side is the identity, so every row steps as the merged one.  The rows
    are views, so a `timed` operator's re-read reaches them."""
    checks = []
    for row, rate, projected, test in (
            (op.lower, rows.m_lower, rows.lift, np.greater),
            (op.upper, rows.n_upper, rows.clamp, np.less)):
        if row is not None:
            checks += [(on_layer, row[1:-1], test) for on_layer, differs in
                       ((False, rate), (True, projected))
                       if isinstance(differs, np.ndarray)]
    return checks


def _crossed(checks, v, u, hit):
    """Whether the values v or the new layer's interior u fail one of the
    `_separating` tests, written into the bool array `hit`; a NaN fails
    every test, so it counts as crossed."""
    return not all(test(u if on_layer else v, row, out=hit).all()
                   for on_layer, row, test in checks)


def _solve_rows(spec: ProblemSpec, grid: Grid, pens):
    """Step one solve per PenaltyParams in `pens` (at least one), one
    `_advance` call per time step.

    The rows step as one layer, a one-layer `_Kernel` at `pens[0]` into
    one field, until a step reaches an obstacle on a side whose intensity
    differs between rows (`_separating`; a single solve or rows of equal
    intensities have no such side and are never tested).  Until then the
    penalties act alike on every row, so that step is every row's step
    bit for bit.  At the first crossing each row gets its own field
    holding the merged slices, and that step and the rest run in an
    S-row kernel, which steps its two flat layers in turn and returns the
    new one as an (S, nx+1) view whose rows are copied into their fields;
    a batch whose terminal slice already fails a test starts there.  Rows
    that never separate share one read-only field (a single solve's is
    writable); rows that separated each own their memory.

    Returns (the compiled StepOperator, one stored field per row, the
    stepping wall time).  A grid not built for the problem (another
    horizon, or a dt above its CFL bound) raises GridError before any
    step, and S fields are checked against the memory cap before any is
    allocated.  Nothing else is checked here: a row that left the finite
    range keeps stepping on non-finite values, and `_report` names its
    failure when a caller reads that row.  numpy's overflow and
    invalid-value warnings are silenced while stepping.
    """
    if not pens:
        raise SpecError("a batch needs at least one PenaltyParams")
    _check_grid(spec, grid)
    _check_field_budget(grid, len(pens))
    start = time.perf_counter()
    op = StepOperator(spec, grid)
    nt, ts = grid.nt, grid.t_nodes
    rows = _penalty_rows(pens)
    checks = _separating(op.at(ts[nt]), rows)
    merged = np.empty((nt + 1, grid.nx + 1))
    merged[nt] = spec.terminal(spec.horizon, grid.x_nodes)
    hit = np.empty(grid.nx - 1, dtype=bool)
    k = nt  # slices k..nt are stepped as one layer
    with np.errstate(over="ignore", invalid="ignore"):
        if not _crossed(checks, merged[nt, 1:-1], merged[nt, 1:-1], hit):
            kernel = _Kernel(op, _penalty_rows(pens[:1]), merged[nt].shape)
            kernel.layer[:] = merged[nt]
            v = kernel.v[1:-1]
            while k:
                layer = _advance(kernel, ts[k - 1])
                if checks and _crossed(checks, v, layer[1:-1], hit):
                    break
                k -= 1
                merged[k] = layer
        if not k:
            if len(pens) > 1:
                merged.setflags(write=False)  # every row reads it
            return op, [merged] * len(pens), time.perf_counter() - start
        fields = [merged] + [np.empty(merged.shape) for _ in pens[1:]]
        for values in fields[1:]:
            values[k:] = merged[k:]
        kernel = _Kernel(op, rows, (len(pens), grid.nx + 1))
        layer = kernel.layer
        layer[:] = merged[k]
        for k in range(k - 1, -1, -1):
            layer = _advance(kernel, ts[k])
            for values, row in zip(fields, layer):
                values[k] = row
    return op, fields, time.perf_counter() - start


def _report(values, op: StepOperator, pen, wall) -> SolveReport:
    """The SolveReport of one stepped field; raises the StepFailure of
    the first step that made a non-finite value (the terminal slice is
    data, not a step, so it is not checked).  An operator that is not
    `timed` is read from three rows: the steps' column min and max, all
    finite exactly when the steps are, and the terminal slice; as
    fl(lower - u) falls and fl(u - upper) rises with u, their violations
    are the worst of every node's.  Else, or past a non-finite step, one
    pass over blocks of slices from the top reads each block against the
    obstacle rows at its t; only a block whose min or max is not finite
    is searched for its slice."""
    grid, nt = op.grid, op.grid.nt
    lo_viol = up_viol = 0.0
    blocks = reversed(op.blocks(nt + 1))
    if not op.timed:
        steps = values[:nt]
        cols = np.stack((steps.min(axis=0), steps.max(axis=0), values[nt]))
        if np.isfinite(cols[:2]).all():
            blocks = ()
            lo, up = _layer_violations(cols, op.lower, op.upper)
            lo_viol, up_viol = max(lo_viol, lo), max(up_viol, up)
    for k0, k1 in blocks:
        block = values[k0:min(k1, nt)]
        if not (math.isfinite(block.min(initial=0.0))
                and math.isfinite(block.max(initial=0.0))):
            bad = np.flatnonzero(~np.isfinite(block).all(axis=-1))
            k = k0 + int(bad[-1])
            raise StepFailure(
                f"step to slice {k} of {grid.nt}: "
                f"{_nonfinite(values[k], grid.t_nodes[k], grid)}; the last "
                f"finite layer has sup|u| = "
                f"{np.max(np.abs(values[k + 1])):.6g}")
        op.at(grid.t_nodes[k0])
        lo, up = _layer_violations(values[k0:k1], op.lower, op.upper)
        lo_viol = max(lo_viol, lo)
        up_viol = max(up_viol, up)
    return SolveReport(field=Field(values=values, grid=grid),
                       sup_upper_violation=up_viol,
                       sup_lower_violation=lo_viol, wall_time=wall,
                       spec=op.spec, pen=pen)


def _reports(op: StepOperator, fields, pens, wall):
    """The SolveReport of each row in turn, read as it is asked for: a
    row that shares the previous row's field shares its scan, with its
    own pen."""
    report = None
    for values, pen in zip(fields, pens):
        report = replace(report, pen=pen) \
            if report is not None and values is report.field.values \
            else _report(values, op, pen, wall)
        yield report


def solve_penalized(spec: ProblemSpec, grid: Grid,
                    pen: PenaltyParams) -> SolveReport:
    """Two-sided penalized solve at fixed intensities; an infinite one
    projects onto its obstacle each step (exact reflection)."""
    op, (values,), wall = _solve_rows(spec, grid, (pen,))
    return _report(values, op, pen, wall)


def solve_penalized_batch(spec: ProblemSpec, grid: Grid, pens) -> tuple:
    """Penalized solves of one problem at each PenaltyParams in `pens`,
    stepped together; the reports come in the order of `pens`, each
    with the batch's wall time.  Rows that never separated (see
    `_solve_rows`) share one read-only field; every other row's field
    owns its memory.  The first row that left the finite range raises
    its StepFailure; an empty `pens` raises SpecError."""
    pens = tuple(pens)
    op, fields, wall = _solve_rows(spec, grid, pens)
    return tuple(_reports(op, fields, pens, wall))


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

    The steps decide the pairing: a diagonal list (`diagonal`) or one
    holding n_upper constant (`fixed_n`) sweeps m_lower, else one holding
    m_lower constant (`fixed_m`) sweeps n_upper, which must increase
    strictly; any other list is refused.  An infinite intensity projects
    its side, whose contact residual is 0: a projected side pushes
    nothing, and (lower - Y)^+ or (Y - upper)^+ is 0 on its interior
    nodes.  So `fixed_m(inf, ...)` walks the family reflected at the
    lower obstacle and penalized at the upper.
    """

    steps: tuple
    stop_tol: float = DEFAULT_STOP_TOL

    def __post_init__(self):
        if not self.steps:
            raise SpecError("empty penalty schedule")
        if not all(isinstance(p, PenaltyParams) for p in self.steps):
            raise SpecError("schedule steps must be PenaltyParams")
        if not self.stop_tol > 0.0:
            raise SpecError("stop_tol must be positive")
        m = [p.m_lower for p in self.steps]
        n = [p.n_upper for p in self.steps]
        if m == n or len(set(n)) == 1:
            seq = m
        elif len(set(m)) == 1:
            seq = n
        else:
            raise SpecError("a schedule moves m_lower and n_upper together "
                            "or holds one of them constant")
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise SpecError("schedule intensities must increase strictly")

    @classmethod
    def diagonal(cls, intensities=DEFAULT_INTENSITIES,
                 stop_tol=DEFAULT_STOP_TOL):
        return cls(tuple(PenaltyParams(float(v), float(v))
                         for v in intensities), stop_tol)

    @classmethod
    def fixed_n(cls, n_upper, m_values, stop_tol=DEFAULT_STOP_TOL):
        return cls(tuple(PenaltyParams(float(m), float(n_upper))
                         for m in m_values), stop_tol)

    @classmethod
    def fixed_m(cls, m_lower, n_values, stop_tol=DEFAULT_STOP_TOL):
        return cls(tuple(PenaltyParams(float(m_lower), float(n))
                         for n in n_values), stop_tol)


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


def _contact_residuals(field: Field, op: StepOperator, rates):
    """(r_plus, r_minus) of a field: per side, the max over interior
    columns of sum_k gap_k*dA_k, with gap the (lower - Y)^+ or
    (Y - upper)^+ of slice k against the operator's obstacle row, which
    a `timed` one re-reads at each block's t, and dA = c*gap the push
    of the side's rate c, each column summed in slice order.

    `rates` holds one value per side (lower, upper): the float c, or
    None for a side that adds nothing, whose residual is 0.0 (with both
    None, no block is walked).  Per block shape one buffer holds the
    block's interior values, one the sum so far and the block's terms
    per side, and one a push."""
    grid = field.grid
    m = grid.nx - 1
    acc = np.zeros((2, m))
    sides = [i for i in (0, 1) if rates[i] is not None]
    size = None
    for k0, k1 in op.blocks(grid.nt) if sides else ():
        op.at(grid.t_nodes[k0])
        if k1 - k0 != size:
            size = k1 - k0
            y, push = np.empty((size, m)), np.empty((size, m))
            block = np.empty((2, size + 1, m))
        np.copyto(y, field.values[k0:k1, 1:-1])
        for i in sides:
            gap = block[i, 1:]
            if i:
                np.subtract(y, op.upper[1:-1], out=gap)
            else:
                np.subtract(op.lower[1:-1], y, out=gap)
            np.maximum(gap, 0.0, out=gap)
            np.multiply(rates[i], gap, out=push)
            np.multiply(gap, push, out=gap)
            block[i, 0] = acc[i]
            np.add.reduce(block[i], axis=0, out=acc[i])
    return float(np.max(acc[0])), float(np.max(acc[1]))


def solve_limit(spec: ProblemSpec, grid: Grid,
                schedule: Optional[PenaltySchedule] = None,
                keep_reports=False):
    """Walk the penalized family along a schedule toward its limit.

    Steps every stage of the schedule as one batch, then walks the
    stages in order and stops early once the sup-norm difference between
    consecutive stage fields drops below the schedule's stop_tol; stages
    past the stop are never read, and a stage's StepFailure is raised
    only if the walk reaches it.  Stages that never separated share one
    field (`_solve_rows`), which is read once: their difference is 0.0,
    and each stage's report carries its own pen.  A stage's contact
    residuals come from the penalty increments dt*m*(lower - Y)^+ and
    dt*n*(Y - upper)^+ of its field, which are its compensators (none on
    a projected side): `_contact_residuals` takes the rate dt*m or dt*n
    and forms them block by block, so no reconstruction runs.  A side
    whose stage violation is 0.0 has no gap, so its residual is 0.0
    unscanned.
    Returns (the SolveReport of the last stage walked, with that stage's
    pen, ConvergenceTrace); a schedule that ends above tolerance only
    clears the converged flag.
    The batch may hold one field per stage, and is checked for that
    before any step (`GridError` above the memory cap); stages that never
    separate hold one.
    """
    if schedule is None:
        schedule = PenaltySchedule.diagonal()

    op, fields, wall = _solve_rows(spec, grid, schedule.steps)
    stages = []
    reports = []
    prev = None
    converged = False
    for idx, report in enumerate(_reports(op, fields, schedule.steps,
                                          wall)):
        pen, values = report.pen, report.field.values
        # a side's compensator is its push dt*rate*gap; a side the stage
        # never crossed, or pushes at no finite positive rate, adds 0.0
        r_plus, r_minus = _contact_residuals(report.field, op, [
            grid.dt * rate if viol and 0.0 < rate < math.inf else None
            for viol, rate in ((report.sup_lower_violation, pen.m_lower),
                               (report.sup_upper_violation, pen.n_upper))])
        if prev is None:
            diff = float("inf")
        elif values is prev:  # one field, which `_report` found finite
            diff = 0.0
        else:
            diff = _block_max(lambda a, b: np.abs(a - b), values, prev)
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
