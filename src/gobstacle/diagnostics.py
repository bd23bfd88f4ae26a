"""Oracles, error measures, rate fits, ordering checks, property suite.

Oracle comparisons are restricted to the inner half of the spatial
domain: the outer quarters absorb the artificial-boundary error of the
extrapolation closure, the inner half is where statements about the
continuous problem are tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .decomposition import ProcessBundle, bmo_diagnostic, \
    one_step_residuals, reconstruct
from .model import ProblemSpec, validate
from .scheme import _BLOCK_ELEMENTS, Field, Grid, GridError, \
    PenaltyParams, StepOperator, _block_max, _check_field_budget
from .solvers import PenaltySchedule, SolveReport, solve_limit, \
    solve_penalized, solve_penalized_batch

ORDER_SLACK = 1.0e-10
_N_QUAD = 64  # Gauss-Hermite nodes of `classical_oracle`


def inner_mask(grid: Grid):
    """Boolean column mask selecting the middle half of the x-domain."""
    span = grid.x_max - grid.x_min
    lo = grid.x_min + 0.25 * span
    hi = grid.x_max - 0.25 * span
    return (grid.x_nodes >= lo) & (grid.x_nodes <= hi)


def sup_diff(a: Field, b: Field, inner=False) -> float:
    """Sup-norm difference of two fields on the same grid.

    Refuses fields on incompatible grids; `inner=True` restricts to the
    inner half of the spatial domain.
    """
    if a.grid != b.grid:
        raise ValueError("fields live on incompatible grids "
                         f"({a.grid} vs {b.grid})")
    m = inner_mask(a.grid) if inner else slice(None)
    return _block_max(lambda x, y: np.abs(x[:, m] - y[:, m]),
                      a.values, b.values)


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(value) against log(intensity)."""

    slope: float
    intercept: float
    r_squared: float
    count: int


def rate_fit(pairs) -> RateFit:
    """Fit value ~ C * intensity^slope through (intensity, value) pairs.

    Refuses fewer than three pairs, entries that are not positive and
    finite (the fit lives in log-log space), and fewer than two distinct
    intensities, which leave the slope undetermined.
    """
    pairs = [(float(n), float(v)) for n, v in pairs]
    if len(pairs) < 3:
        raise ValueError("rate_fit needs at least three pairs")
    if not all(0.0 < a < math.inf for pair in pairs for a in pair):
        raise ValueError("rate_fit needs positive finite intensities and "
                         "values")
    ln = np.log([n for n, _ in pairs])
    lv = np.log([v for _, v in pairs])
    if np.all(ln == ln[0]):
        raise ValueError("rate_fit needs at least two distinct intensities")
    slope, intercept = np.polyfit(ln, lv, 1)
    fit = slope * ln + intercept
    ss_res = float(np.sum((lv - fit) ** 2))
    ss_tot = float(np.sum((lv - np.mean(lv)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r2, count=len(pairs))


# ---------------------------------------------------------------------------
# classical closed-form oracle
# ---------------------------------------------------------------------------

def _is_zero(fs):
    return fs.kind == "constant" and fs.value == 0.0


def classical_oracle(spec: ProblemSpec, grid: Grid) -> Field:
    """Exact solution field for the classical reducible subfamily.

    Preconditions: degenerate volatility band, constant sigma, zero
    drift/cross/f, no obstacles, and a driver g that is zero or of kind
    quadratic_in_z.  In that family the equation linearizes under an
    exponential change of variable, and the linear heat semigroup is
    evaluated by 64-node Gauss-Hermite quadrature, independently of the
    stepping scheme:

        g = 0:          u(t,x) = (heat_{s(T-t)} terminal)(x)
        g = gamma*z^2:  u(t,x) = log(heat_{s(T-t)} exp(2*gamma*terminal))
                                 / (2*gamma)

    with s = vol_low_sq * sigma^2 the effective diffusivity (the kernel
    variance at time t is s*(T-t)).
    """
    gp = spec.gparams
    if not gp.degenerate:
        raise ValueError("classical oracle needs a degenerate volatility "
                         "band (vol_low_sq == vol_high_sq)")
    if spec.coeffs.sigma.kind != "constant":
        raise ValueError("classical oracle needs constant sigma")
    if not (_is_zero(spec.coeffs.drift) and _is_zero(spec.coeffs.cross)):
        raise ValueError("classical oracle needs zero drift and cross terms")
    if not _is_zero(spec.gen.f):
        raise ValueError("classical oracle needs f == 0")
    g = spec.gen.g
    if not (_is_zero(g) or g.kind == "quadratic_in_z"):
        raise ValueError("classical oracle needs g == 0 or quadratic_in_z")
    ob = spec.obstacles
    if ob.lower_active or ob.upper_active:
        raise ValueError("classical oracle needs inactive obstacles")

    gamma = g.gamma if g.kind == "quadratic_in_z" else 0.0
    s_eff = gp.vol_low_sq * float(spec.coeffs.sigma(0.0, 0.0)) ** 2
    nodes, weights = np.polynomial.hermite.hermgauss(_N_QUAD)
    weights = weights / math.sqrt(math.pi)

    xs = grid.x_nodes
    out = np.empty((grid.nt + 1, grid.nx + 1))
    phi_here = np.broadcast_to(
        np.asarray(spec.terminal(spec.horizon, xs), dtype=float), xs.shape)
    for k in range(grid.nt + 1):
        tau2 = s_eff * (spec.horizon - grid.t_nodes[k])
        if tau2 <= 0.0:
            out[k] = phi_here
            continue
        pts = xs[:, None] + math.sqrt(2.0 * tau2) * nodes[None, :]
        phi = np.asarray(spec.terminal(spec.horizon, pts), dtype=float)
        phi = np.broadcast_to(phi, pts.shape)
        if gamma == 0.0:
            out[k] = phi @ weights
        else:
            out[k] = np.log(np.exp(2.0 * gamma * phi) @ weights) \
                / (2.0 * gamma)
    return Field(values=out, grid=grid)


# ---------------------------------------------------------------------------
# comparison harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderReport:
    min_diff: float
    passed: bool
    where: str


_YZ_PROBES = ((0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))


def comparison_harness(spec_hi: ProblemSpec, spec_lo: ProblemSpec,
                       grid: Grid) -> OrderReport:
    """Solve an ordered pair of problems and check the output ordering.

    The data ordering (terminal, f, g, obstacles, all hi >= lo, with
    identical dynamics and band) is verified first on sampled grid nodes
    and a fixed (y, z) probe set; a violated precondition raises with
    the offending node.  Both problems are then solved at intensities
    (64, 64), and the report carries the worst nodewise difference
    u_hi - u_lo (PASS when >= -1e-10).
    """
    if spec_hi.gparams != spec_lo.gparams:
        raise ValueError("comparison needs identical volatility bands")
    if spec_hi.coeffs != spec_lo.coeffs:
        raise ValueError("comparison needs identical dynamics coefficients")
    if spec_hi.horizon != spec_lo.horizon:
        raise ValueError("comparison needs identical horizons")
    ob_hi, ob_lo = spec_hi.obstacles, spec_lo.obstacles
    if (ob_hi.lower_active != ob_lo.lower_active
            or ob_hi.upper_active != ob_lo.upper_active):
        raise ValueError("comparison needs matching obstacle activity flags")

    xs = grid.x_nodes
    step = max(1, grid.nt // 8)
    ts = list(grid.t_nodes[::step])
    if ts[-1] != grid.horizon:
        ts.append(grid.horizon)

    def expect_ge(name, hi_vals, lo_vals, t):
        gap = np.broadcast_to(np.asarray(lo_vals - hi_vals, dtype=float),
                              xs.shape)
        i = int(np.argmax(gap))
        if gap[i] > 0.0:
            raise ValueError(
                f"ordering precondition {name} fails at t={t:g}, "
                f"x={xs[i]:g} by {gap[i]:.3g}")

    expect_ge("terminal", spec_hi.terminal(spec_hi.horizon, xs),
              spec_lo.terminal(spec_lo.horizon, xs), spec_hi.horizon)
    for t in ts:
        for y, z in _YZ_PROBES:
            expect_ge("driver f", spec_hi.gen.f(t, xs, y, z),
                      spec_lo.gen.f(t, xs, y, z), t)
            expect_ge("driver g", spec_hi.gen.g(t, xs, y, z),
                      spec_lo.gen.g(t, xs, y, z), t)
        if ob_hi.lower_active:
            expect_ge("lower obstacle", ob_hi.lower(t, xs),
                      ob_lo.lower(t, xs), t)
        if ob_hi.upper_active:
            expect_ge("upper obstacle", ob_hi.upper(t, xs),
                      ob_lo.upper(t, xs), t)

    pen = PenaltyParams(64.0, 64.0)
    hi = solve_penalized(spec_hi, grid, pen)
    lo = solve_penalized(spec_lo, grid, pen)
    # the first minimum in row-major order, a block of slices at a time;
    # the first NaN wins, as in np.argmin
    size = max(1, _BLOCK_ELEMENTS // (grid.nx + 1))
    min_diff = None
    for k0 in range(0, grid.nt + 1, size):
        diff = hi.field.values[k0:k0 + size] - lo.field.values[k0:k0 + size]
        j, i = np.unravel_index(int(np.argmin(diff)), diff.shape)
        if min_diff is None or not (math.isnan(min_diff)
                                    or diff[j, i] >= min_diff):
            min_diff, k, col = float(diff[j, i]), k0 + j, i
    where = f"(t={grid.t_nodes[k]:g}, x={grid.x_nodes[col]:g})"
    return OrderReport(min_diff=min_diff, passed=min_diff >= -ORDER_SLACK,
                       where=where)


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str


@dataclass(eq=False)
class SuiteResult:
    """Checks of one suite run; a single-problem run also carries its
    final solve, schedule trace (its stages, with `reports=None`: the
    stage fields are not kept), and the process bundle reconstructed
    from the final field."""

    checks: tuple
    final_report: Optional[SolveReport]
    trace: object
    bundle: Optional[ProcessBundle] = None

    @property
    def ok(self):
        return all(c.passed for c in self.checks)


def _chk(checks, name, passed, value, threshold, detail):
    checks.append(CheckResult(name=name, passed=bool(passed),
                              value=float(value), threshold=float(threshold),
                              detail=detail))


def run_property_suite(spec: ProblemSpec, grid: Grid,
                       schedule: Optional[PenaltySchedule] = None
                       ) -> SuiteResult:
    """Run the structural property battery on one problem.

    Checks are conditional on obstacle activity; every emitted check
    carries the measured value and its threshold.  The battery covers
    validation, determinism, the monotone penalty family, uniform
    boundedness, penalty-residual boundedness and decay, agreement of
    the two penalization constructions, the projection sandwich,
    contact (Skorohod-type) residual decay, the worst-case scenario
    defect, the one-step identity of the reconstruction, and
    compensator sign/disjointness.

    Each field is dropped after the last check that reads it and the
    comparisons read blocks of slices; the most field-size arrays held
    at once are checked against the memory cap (`GridError`) before any
    step.  The returned trace carries the stages, with `reports=None`.
    """
    if schedule is None:
        schedule = PenaltySchedule.diagonal()
    ob = spec.obstacles
    # the most fields held at once: the stages and a re-solve, the first
    # and final stages and the fixed rows, or the final one and the bundle
    rows = ob.upper_active + 3 * ob.lower_active \
        + (ob.lower_active or ob.upper_active)
    _check_field_budget(grid, max(len(schedule.steps) + 1, 2 + rows, 6))
    checks = []

    report = validate(spec, grid)
    _chk(checks, "validation-clean", report.ok, len(report.violations), 0,
         str(report))

    final, trace = solve_limit(spec, grid, schedule, keep_reports=True)

    again = solve_penalized(spec, grid, final.pen)
    unequal = _block_max(np.not_equal, again.field.values, final.field.values)
    del again
    _chk(checks, "determinism", unequal == 0.0, unequal, 0.0,
         "two identical solves produce byte-identical fields")

    term = np.broadcast_to(
        np.asarray(spec.terminal(spec.horizon, grid.x_nodes), dtype=float),
        (grid.nx + 1,))
    tdiff = float(np.max(np.abs(final.field.values[-1] - term)))
    _chk(checks, "terminal-slice", tdiff == 0.0, tdiff, 0.0,
         "terminal slice equals the sampled terminal condition")

    diffs = [s.sup_diff for s in trace.stages[1:]]
    contracting = all(b < a for a, b in zip(diffs, diffs[1:]))
    _chk(checks, "stagewise-contraction", contracting,
         diffs[-1] if diffs else 0.0, diffs[0] if diffs else 0.0,
         "consecutive stage sup-differences decrease strictly: "
         + ", ".join(f"{d:.3g}" for d in diffs))

    sups = [_block_max(np.abs, r.field.values) for r in trace.reports]
    bound = 1.1 * sups[0] + 1e-6
    _chk(checks, "uniform-bound", max(sups) <= bound, max(sups), bound,
         "stage sup-norms do not grow with intensity: "
         + ", ".join(f"{s:.4g}" for s in sups))
    # from here on only the first stage (m0, n0) and the final one are read
    first = trace.reports[0].field.values
    trace = replace(trace, reports=None)

    # the fixed-intensity solves, stepped as one batch: the far ends of
    # both monotonicity checks, both sides of the construction
    # agreement, and the projection
    m0, m1 = schedule.steps[0].m_lower, schedule.steps[-1].m_lower
    n0, n1 = schedule.steps[0].n_upper, schedule.steps[-1].n_upper
    n_star = 256.0
    if not any(s.n_upper == n_star for s in trace.stages):
        n_star = trace.stages[-1].n_upper
    fixed = {}
    if ob.upper_active:
        fixed["hi_n"] = PenaltyParams(m0, n1)
    if ob.lower_active:
        fixed["hi_m"] = PenaltyParams(m1, n0)
        fixed["diag"] = PenaltyParams(n_star, n_star)
        fixed["bar"] = PenaltyParams(math.inf, n_star)
    if ob.lower_active or ob.upper_active:
        fixed["proj"] = PenaltyParams(math.inf, math.inf)
    solved = dict(zip(fixed, solve_penalized_batch(spec, grid,
                                                   fixed.values()))) \
        if fixed else {}

    # interior columns: the boundary closure is not order-preserving
    def interior_excess(a, b):
        return a[:, 1:-1] - b[:, 1:-1]
    if ob.upper_active:
        worst = _block_max(interior_excess, solved["hi_n"].field.values,
                           first)
        _chk(checks, "monotone-in-upper-intensity", worst <= ORDER_SLACK,
             worst, ORDER_SLACK,
             f"pointwise u(n={n1:g}) <= u(n={n0:g}) at fixed m={m0:g} "
             "on interior nodes")

        seq = [(s.n_upper, s.n_upper * s.upper_violation)
               for s in trace.stages if s.upper_violation > 0]
        ok = True
        for (_, a), (_, b) in zip(seq, seq[1:]):
            ok = ok and (b <= 3.0 * a and a <= 3.0 * b)
        for j in range(2, len(seq)):
            ok = ok and seq[j][1] <= 1.1 * seq[j - 1][1]
        msg = ", ".join(f"n={n:g}:{v:.4g}" for n, v in seq)
        _chk(checks, "upper-penalty-boundedness", ok,
             seq[-1][1] if seq else 0.0, 3.0,
             "n * sup(u-upper)+ stays bounded along the schedule: " + msg)

        _chk(checks, "upper-violation-vanishing",
             trace.stages[-1].upper_violation <= 1e-3,
             trace.stages[-1].upper_violation, 1e-3,
             "final-stage sup(u-upper)+")

    if ob.lower_active:
        worst = _block_max(interior_excess, first,
                           solved["hi_m"].field.values)
        _chk(checks, "monotone-in-lower-intensity", worst <= ORDER_SLACK,
             worst, ORDER_SLACK,
             f"pointwise u(m={m0:g}) <= u(m={m1:g}) at fixed n={n0:g} "
             "on interior nodes")

        _chk(checks, "lower-violation-vanishing",
             trace.stages[-1].lower_violation <= 1e-3,
             trace.stages[-1].lower_violation, 1e-3,
             "final-stage sup(lower-u)+")

        gap = sup_diff(solved["bar"].field, solved["diag"].field)
        _chk(checks, "construction-agreement", gap <= 2e-3, gap, 2e-3,
             f"reflected-vs-penalized gap at intensity {n_star:g}")

    if ob.lower_active or ob.upper_active:
        gap = sup_diff(final.field, solved["proj"].field, inner=True)
        _chk(checks, "projection-sandwich", gap <= 5e-3, gap, 5e-3,
             "limit field vs projection field on the inner half-domain")

        rp = [s.r_plus for s in trace.stages]
        rm = [s.r_minus for s in trace.stages]
        ok = all(b <= a * (1.0 + 1e-9) + 1e-15 for a, b in zip(rp, rp[1:]))
        ok = ok and all(b <= a * (1.0 + 1e-9) + 1e-15
                        for a, b in zip(rm, rm[1:]))
        ok = ok and rp[-1] <= 1e-3 and rm[-1] <= 1e-3
        _chk(checks, "skorohod-residual-decay", ok,
             max(rp[-1], rm[-1]), 1e-3,
             "contact residuals shrink along the schedule, final r+="
             f"{rp[-1]:.3g}, r-={rm[-1]:.3g}")

    del solved, first
    bundle = reconstruct(final)
    defect = float(np.max(bundle.defect.values[:-1, 1:-1]))
    _chk(checks, "martingale-defect", defect <= 1e-10, defect, 1e-10,
         "no fixed-variance scenario beats the envelope step")

    resid = _block_max(np.abs, one_step_residuals(bundle))
    _chk(checks, "one-step-identity", resid <= 1e-10, resid, 1e-10,
         "Y_k = Y_{k+1} + dt*rhs + dA+ - dA- at interior nodes")

    neg = min(float(np.min(bundle.da_plus)), float(np.min(bundle.da_minus)))
    overlap = _block_max(np.minimum, bundle.da_plus, bundle.da_minus)
    signs_ok = neg >= 0.0 and overlap == 0.0
    act = 0.0
    op = StepOperator(spec, grid)
    for k0, k1 in op.blocks(grid.nt + 1):
        op.at(grid.t_nodes[k0])
        low, up = op.lower, op.upper
        y = bundle.y.values[k0:k1]
        if low is not None:
            act = max(act, float(np.max(
                (y - low) * (bundle.da_plus[k0:k1] > 0))))
        if up is not None:
            act = max(act, float(np.max(
                (up - y) * (bundle.da_minus[k0:k1] > 0))))
    _chk(checks, "compensator-signs", signs_ok and act <= 1e-12,
         max(-neg, overlap, act), 1e-12,
         "increments nonnegative, mutually exclusive, and act only on "
         "their contact sets")

    bmo = bmo_diagnostic(bundle)
    _chk(checks, "gradient-energy-finite", math.isfinite(bmo), bmo,
         float("inf"), "worst-case tail energy of z (diagnostic only)")

    return SuiteResult(checks=tuple(checks), final_report=final, trace=trace,
                       bundle=bundle)


def run_comparison_suite(spec_hi: ProblemSpec, spec_lo: ProblemSpec,
                         grid: Grid) -> SuiteResult:
    """Property battery for an ordered pair: preconditions + ordering.

    A grid that one member cannot step on raises its `GridError`; it is
    not a failed precondition of the pair."""
    checks = []
    try:
        order = comparison_harness(spec_hi, spec_lo, grid)
    except GridError:
        raise
    except ValueError as err:
        _chk(checks, "ordering-preconditions", False, 1.0, 0.0, str(err))
        return SuiteResult(checks=tuple(checks), final_report=None,
                           trace=None)
    _chk(checks, "ordering-preconditions", True, 0.0, 0.0,
         "data ordering verified on sampled nodes")
    _chk(checks, "comparison-order", order.passed, order.min_diff,
         -ORDER_SLACK,
         f"worst nodewise u_hi - u_lo at {order.where}")
    return SuiteResult(checks=tuple(checks), final_report=None, trace=None)
