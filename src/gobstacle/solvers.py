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
given per row.  One row keeps the merged field (the first; the last in
the limit driver); every other row gets a field of its own holding a
copy of the merged slices, or, in the limit driver, only the slices it
stepped apart.  Rows that never
separate share one read-only field.  Each row's report is then read from
its stored slices, from their column extremes or in one pass over
blocks of slices, which names the first step that left the finite range
or scans the obstacle violations, once per field.  A
`SolveReport.wall_time` is the stepping time of the whole batch.

The limit driver steps its whole schedule as one batch, then walks the
stages in order and records a per-stage trace (sup difference between
consecutive stages, obstacle violations, contact residuals read from the
stage's penalty increments), stopping at the first stage whose
difference drops below the schedule's tolerance, exactly as a walk that
solved one stage at a time; two stages that share a field differ by
0.0.  Unless it keeps every report, the driver holds the slices its
stages stepped as one layer once, in the last stage's field, reads their
column extremes once, and builds a whole field only for the stage it
returns, if that is not the last.  Stages past the stop are never read,
so a stage that left the finite range raises only if the walk reaches
it.
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
    _advance, _block_max, _blocks, _check_field_budget, _check_grid, \
    _Kernel, _nonfinite, _penalty_rows

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
    its memory, the whole field that `solve_limit` builds for a stage it
    held as its own and shared slices included.
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


def _solve_rows(spec: ProblemSpec, grid: Grid, pens, whole=True):
    """Step one solve per PenaltyParams in `pens` (at least one), one
    `_advance` call per time step.

    The rows step as one layer, a one-layer `_Kernel` at `pens[0]` into
    one field, until a step reaches an obstacle on a side whose intensity
    differs between rows (`_separating`; a single solve or rows of equal
    intensities have no such side and are never tested).  Until then the
    penalties act alike on every row, so that step is every row's step
    bit for bit.  At the first crossing, the step to slice k-1, every
    row but one gets its own array.  With `whole` the first row keeps the
    merged field and every other row gets a field holding a copy of the
    merged slices k..nt; with the merged field last instead,
    `run_property_suite` on `upper-active` at nx=400 took twice the
    minor page faults per run (8488 against 4064).  Else the last row
    keeps the merged field and every other row stores only its slices
    0..k-1, a (k, nx+1) array that reads slices k..nt from the last
    row's field, so that a walk over every stage returns the last one's
    field as it is.  That step and the rest run in an S-row kernel,
    which steps its two flat layers in turn and returns the new one as
    an (S, nx+1) view whose rows are copied into the rows' arrays; a
    batch whose terminal slice already fails a test starts there.  Rows
    that never separate share one read-only field (a single solve's is
    writable); rows that separated each own their memory.

    Returns (the compiled StepOperator, one stored array per row, the
    stepping wall time).  A grid not built for the problem (another
    horizon, or a dt above its CFL bound) raises GridError before any
    step, and S fields are checked against the memory cap before any is
    allocated, since k is unknown before stepping.  Nothing else is
    checked here: a row that left the finite range keeps stepping on
    non-finite values, and `_scan` names its failure when a caller reads
    that row.  numpy's overflow and invalid-value warnings are silenced
    while stepping.
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
        own = [np.empty((nt + 1 if whole else k, grid.nx + 1))
               for _ in pens[1:]]
        if whole:
            for values in own:
                values[k:] = merged[k:]
            fields = [merged] + own
        else:
            fields = own + [merged]
        kernel = _Kernel(op, rows, (len(pens), grid.nx + 1))
        layer = kernel.layer
        layer[:] = merged[k]
        for k in range(k - 1, -1, -1):
            layer = _advance(kernel, ts[k])
            for values, row in zip(fields, layer):
                values[k] = row
    return op, fields, time.perf_counter() - start


def _stage_blocks(op: StepOperator, stage, stop, width=None):
    """(k0, the slices k0..k1-1) over slices 0..stop-1 of a stage, in
    slice order.  A stage is a pair (own, shared): its slices are own's,
    then shared's from len(own) on (a whole field is (values, values)),
    and no block straddles the two.  The ranges come from `op.blocks`,
    or, for rows of `width` elements, from `_blocks`."""
    own, shared = stage
    cut = min(len(own), stop)
    ranges = op.blocks if width is None else (lambda n: _blocks(n, width))
    return [(k0, own[k0:k1]) for k0, k1 in ranges(cut)] + \
        [(cut + k0, shared[cut + k0:cut + k1])
         for k0, k1 in ranges(stop - cut)]


def _extremes(slices):
    """The column min and max of a block of slices, as two rows; +inf
    and -inf for a block of none."""
    return np.stack((slices.min(axis=0, initial=math.inf),
                     slices.max(axis=0, initial=-math.inf)))


def _scan(op: StepOperator, stage, tail=None):
    """(lower violation, upper violation, cols) of a stage
    (`_stage_blocks`); raises the StepFailure of the first step that made
    a non-finite value (the terminal slice is data, not a step, so it is
    not checked).

    An operator that is not `timed` is read from three rows: cols, the
    steps' column min and max, all finite exactly when the steps are, and
    the terminal slice; as fl(lower - u) falls and fl(u - upper) rises
    with u, their violations are the worst of every node's.  `tail` holds
    the extremes of the shared steps len(own)..nt-1 when the stage has
    any, so stages that share them read them once.  Else, or past a
    non-finite step, one pass over blocks of slices from the top reads
    each block against the obstacle rows at its t; only a block whose min
    or max is not finite is searched for its slice.  cols is None for a
    `timed` operator."""
    grid, nt = op.grid, op.grid.nt
    own, shared = stage
    cols = None
    if not op.timed:
        cols = _extremes(own[:nt])
        if tail is not None:
            np.minimum(cols[0], tail[0], out=cols[0])
            np.maximum(cols[1], tail[1], out=cols[1])
        if np.isfinite(cols).all():
            last = own[nt] if len(own) > nt else shared[nt]
            lo, up = _layer_violations(np.vstack((cols, last)), op.lower,
                                       op.upper)
            return max(0.0, lo), max(0.0, up), cols
    lo_viol = up_viol = 0.0
    for k0, block in reversed(_stage_blocks(op, stage, nt + 1)):
        steps = block[:nt - k0]
        if not (math.isfinite(steps.min(initial=0.0))
                and math.isfinite(steps.max(initial=0.0))):
            bad = np.flatnonzero(~np.isfinite(steps).all(axis=-1))
            k = k0 + int(bad[-1])
            after = own[k + 1] if k + 1 < len(own) else shared[k + 1]
            raise StepFailure(
                f"step to slice {k} of {grid.nt}: "
                f"{_nonfinite(block[k - k0], grid.t_nodes[k], grid)}; the "
                f"last finite layer has sup|u| = "
                f"{np.max(np.abs(after)):.6g}")
        op.at(grid.t_nodes[k0])
        lo, up = _layer_violations(block, op.lower, op.upper)
        lo_viol = max(lo_viol, lo)
        up_viol = max(up_viol, up)
    return lo_viol, up_viol, cols


def _report(values, op: StepOperator, pen, wall) -> SolveReport:
    """The SolveReport of one stored field (`_scan`), which raises the
    StepFailure of its first non-finite step."""
    lo_viol, up_viol, _ = _scan(op, (values, values))
    return SolveReport(field=Field(values=values, grid=op.grid),
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
    with the batch's wall time.  Rows that never separated (see
    `_solve_rows`) share one read-only field, read once; every other
    row's field owns its memory.  The first row that left the finite
    range raises its StepFailure; an empty `pens` raises SpecError."""
    pens = tuple(pens)
    op, fields, wall = _solve_rows(spec, grid, pens)
    reports = []
    for values, pen in zip(fields, pens):
        reports.append(replace(reports[-1], pen=pen)
                       if reports and values is reports[-1].field.values
                       else _report(values, op, pen, wall))
    return tuple(reports)


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


def _contact_residuals(op: StepOperator, stage, rates, cols):
    """(r_plus, r_minus) of a stage (`_stage_blocks`): per side, the max
    over interior columns of sum_k gap_k*dA_k, with gap the (lower - Y)^+
    or (Y - upper)^+ of slice k against the operator's obstacle row, and
    dA = c*gap the push of the side's rate c, each column summed in slice
    order.

    `rates` holds one value per side (lower, upper): the float c, or
    None for a side that adds nothing, whose residual is 0.0.  `cols` is
    the stage's column min and max over its steps (`_scan`): a column
    whose min is not below the lower row, or whose max is not above the
    upper one, has no gap on any step and sums to exactly 0.0, so a side
    reads only the span of columns from its first crossing one to its
    last (two at least: numpy sums a lone column pairwise, not row by
    row), in blocks of slices sized for it.  A `timed` operator (cols
    None) reads every interior column per `op.blocks`, at each block's
    t.  With no column to read, no block is walked.  Per block and side
    one buffer holds the sum so far and the block's terms, and one a
    push."""
    nx = op.grid.nx
    sides = []
    for i, rate in enumerate(rates):
        if rate is None:
            continue
        if cols is None:
            a, b = 1, nx
        else:
            crossed = np.flatnonzero(cols[1, 1:-1] > op.upper[1:-1] if i
                                     else cols[0, 1:-1] < op.lower[1:-1])
            if not crossed.size:
                continue
            a = min(1 + crossed[0], nx - 2)
            b = max(2 + crossed[-1], a + 2)
        sides.append((i, rate, slice(a, b), np.zeros(b - a)))
    blocks = _stage_blocks(op, stage, op.grid.nt, None if cols is None
                           else max(acc.size for *_, acc in sides)) \
        if sides else ()
    for k0, block in blocks:
        op.at(op.grid.t_nodes[k0])
        for i, rate, span, acc in sides:
            terms = np.empty((len(block) + 1, acc.size))
            push, gap = np.empty(terms[1:].shape), terms[1:]
            if i:
                np.subtract(block[:, span], op.upper[span], out=gap)
            else:
                np.subtract(op.lower[span], block[:, span], out=gap)
            np.maximum(gap, 0.0, out=gap)
            np.multiply(rate, gap, out=push)
            np.multiply(gap, push, out=gap)
            terms[0] = acc
            np.add.reduce(terms, axis=0, out=acc)
    residuals = [0.0, 0.0]
    for i, *_, acc in sides:
        residuals[i] = float(np.max(acc))
    return tuple(residuals)


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
    and each stage's report carries its own pen.  Once the stages
    separate, at slice k, each stage is held as its own slices 0..k-1
    followed by the slices k..nt that every stage shares, held once, in
    the last stage's field; the walk reads the shared slices' column
    extremes once, and two stages differ only in their own slices.  The
    report of a stage other than the last builds that stage's whole
    field; with keep_reports every stage holds its whole field.
    A stage's contact residuals come from the penalty increments
    dt*m*(lower - Y)^+ and dt*n*(Y - upper)^+ of its slices, which are
    its compensators (none on a projected side): `_contact_residuals`
    takes the rate dt*m or dt*n and forms them block by block, so no
    reconstruction runs.  A side whose stage violation is 0.0 has no
    gap, so its residual is 0.0 unscanned.
    Returns (the SolveReport of the last stage walked, with that stage's
    pen, ConvergenceTrace); a schedule that ends above tolerance only
    clears the converged flag.
    The batch may hold one field per stage, and is checked for that
    before any step (`GridError` above the memory cap); stages that never
    separate hold one.
    """
    if schedule is None:
        schedule = PenaltySchedule.diagonal()

    op, fields, wall = _solve_rows(spec, grid, schedule.steps, keep_reports)
    nt, merged = grid.nt, fields[-1]
    k = len(fields[0])  # a stage's own slices; merged holds k..nt
    tail = _extremes(merged[k:nt]) if k <= nt and not op.timed else None
    stages = []
    reports = []
    prev = None
    converged = False
    for idx, (pen, values) in enumerate(zip(schedule.steps, fields)):
        stage = (values[:k], merged)
        if values is not prev:  # a shared field is read once
            lo_viol, up_viol, cols = _scan(op, stage, tail)
        # a side's compensator is its push dt*rate*gap; a side the stage
        # never crossed, or pushes at no finite positive rate, adds 0.0
        r_plus, r_minus = _contact_residuals(op, stage, [
            grid.dt * rate if viol and 0.0 < rate < math.inf else None
            for viol, rate in ((lo_viol, pen.m_lower),
                               (up_viol, pen.n_upper))], cols)
        if prev is None:
            diff = float("inf")
        elif values is prev:  # one field, which `_scan` found finite
            diff = 0.0
        else:  # the shared slices differ by 0.0
            diff = _block_max(lambda a, b: np.abs(a - b), values[:k],
                              prev[:k])
        stages.append(StageRecord(
            stage=idx, m_lower=pen.m_lower, n_upper=pen.n_upper,
            sup_diff=diff, upper_violation=up_viol,
            lower_violation=lo_viol, r_plus=r_plus, r_minus=r_minus))
        if keep_reports:
            reports.append(
                replace(reports[-1], pen=pen) if values is prev
                else SolveReport(Field(values=values, grid=grid), up_viol,
                                 lo_viol, wall, op.spec, pen))
        prev = values
        if diff < schedule.stop_tol:
            converged = True
            break

    trace = ConvergenceTrace(stages=tuple(stages), converged=converged,
                             stop_tol=schedule.stop_tol,
                             reports=tuple(reports) if keep_reports else None)
    if not keep_reports:
        if len(values) <= nt:
            values = np.concatenate((values, merged[k:]))
        reports.append(SolveReport(Field(values=values, grid=grid), up_viol,
                                   lo_viol, wall, op.spec, pen))
    return reports[-1], trace
