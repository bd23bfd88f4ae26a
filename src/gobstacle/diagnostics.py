"""Oracles, error measures, rate fits, ordering checks, property suite.

Oracle comparisons are restricted to the inner half of the spatial
domain: the outer quarters absorb the artificial-boundary error of the
extrapolation closure, the inner half is where statements about the
continuous problem are tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decomposition import ProcessBundle, bmo_diagnostic, \
    one_step_residuals, reconstruct
from .model import ProblemSpec, validate
from .scheme import Field, Grid, PenaltyParams, StepOperator
from .solvers import PenaltySchedule, SolveReport, solve_double_projection, \
    solve_limit, solve_lower_reflected_upper_penalized, solve_penalized

ORDER_SLACK = 1.0e-10


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
    if not a.grid.compatible_with(b.grid):
        raise ValueError("fields live on incompatible grids "
                         f"({a.grid} vs {b.grid})")
    if inner:
        m = inner_mask(a.grid)
        return float(np.max(np.abs(a.values[:, m] - b.values[:, m])))
    return float(np.max(np.abs(a.values - b.values)))


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(value) against log(intensity)."""

    slope: float
    intercept: float
    r_squared: float
    count: int


def rate_fit(pairs) -> RateFit:
    """Fit value ~ C * intensity^slope through (intensity, value) pairs.

    Refuses fewer than three pairs and nonpositive entries (the fit
    lives in log-log space).
    """
    pairs = [(float(n), float(v)) for n, v in pairs]
    if len(pairs) < 3:
        raise ValueError("rate_fit needs at least three pairs")
    if any(n <= 0 or v <= 0 for n, v in pairs):
        raise ValueError("rate_fit needs positive intensities and values")
    ln = np.log([n for n, _ in pairs])
    lv = np.log([v for _, v in pairs])
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


def classical_oracle(spec: ProblemSpec, grid: Grid, n_quad=64) -> Field:
    """Exact solution field for the classical reducible subfamily.

    Preconditions: degenerate volatility band, constant sigma, zero
    drift/cross/f, no obstacles, and a driver g that is zero or of kind
    quadratic_in_z.  In that family the equation linearizes under an
    exponential change of variable, and the linear heat semigroup is
    evaluated by Gauss-Hermite quadrature, independently of the stepping
    scheme:

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
    nodes, weights = np.polynomial.hermite.hermgauss(n_quad)
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
                       grid: Grid, pen: Optional[PenaltyParams] = None,
                       mode="penalized") -> OrderReport:
    """Solve an ordered pair of problems and check the output ordering.

    The data ordering (terminal, f, g, obstacles, all hi >= lo, with
    identical dynamics and band) is verified first on sampled grid nodes
    and a fixed (y, z) probe set; a violated precondition raises with
    the offending node.  Both problems are then solved with the same
    penalties and mode, and the report carries the worst nodewise
    difference u_hi - u_lo (PASS when >= -1e-10).
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

    if pen is None:
        pen = PenaltyParams(64.0, 64.0)
    hi = solve_penalized(spec_hi, grid, pen) if mode == "penalized" \
        else solve_double_projection(spec_hi, grid)
    lo = solve_penalized(spec_lo, grid, pen) if mode == "penalized" \
        else solve_double_projection(spec_lo, grid)
    diff = hi.field.values - lo.field.values
    k, i = np.unravel_index(int(np.argmin(diff)), diff.shape)
    min_diff = float(diff[k, i])
    where = f"(t={grid.t_nodes[k]:g}, x={grid.x_nodes[i]:g})"
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
    final solve, schedule trace, and the process bundle reconstructed
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
    """
    if schedule is None:
        schedule = PenaltySchedule.diagonal()
    ob = spec.obstacles
    checks = []

    report = validate(spec, grid)
    _chk(checks, "validation-clean", report.ok, len(report.violations), 0,
         str(report))

    final, trace = solve_limit(spec, grid, schedule, keep_reports=True)
    pen_final = PenaltyParams(trace.stages[-1].m_lower,
                              trace.stages[-1].n_upper)

    again = solve_penalized(spec, grid, pen_final)
    identical = np.array_equal(again.field.values, final.field.values)
    _chk(checks, "determinism", identical, 0.0 if identical else 1.0, 0.0,
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

    sups = [float(np.max(np.abs(r.field.values))) for r in trace.reports]
    bound = 1.1 * sups[0] + 1e-6
    _chk(checks, "uniform-bound", max(sups) <= bound, max(sups), bound,
         "stage sup-norms do not grow with intensity: "
         + ", ".join(f"{s:.4g}" for s in sups))

    # the first stage solved at (m0, n0), the baseline of both
    # monotonicity checks
    first = trace.reports[0].field.values
    if ob.upper_active:
        n0, n1 = schedule.steps[0].n_upper, schedule.steps[-1].n_upper
        m_hold = schedule.steps[0].m_lower
        hi_n = solve_penalized(spec, grid, PenaltyParams(m_hold, n1))
        # interior columns: the boundary closure is not order-preserving
        worst = float(np.max(hi_n.field.values[:, 1:-1] - first[:, 1:-1]))
        _chk(checks, "monotone-in-upper-intensity", worst <= ORDER_SLACK,
             worst, ORDER_SLACK,
             f"pointwise u(n={n1:g}) <= u(n={n0:g}) at fixed m={m_hold:g} "
             "on interior nodes")

        seq = [(s.n_upper, s.n_upper * s.upper_violation)
               for s in trace.stages if s.upper_violation > 0]
        ok = True
        msg = []
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
        m0, m1 = schedule.steps[0].m_lower, schedule.steps[-1].m_lower
        n_hold = schedule.steps[0].n_upper
        hi_m = solve_penalized(spec, grid, PenaltyParams(m1, n_hold))
        worst = float(np.max(first[:, 1:-1] - hi_m.field.values[:, 1:-1]))
        _chk(checks, "monotone-in-lower-intensity", worst <= ORDER_SLACK,
             worst, ORDER_SLACK,
             f"pointwise u(m={m0:g}) <= u(m={m1:g}) at fixed n={n_hold:g} "
             "on interior nodes")

        _chk(checks, "lower-violation-vanishing",
             trace.stages[-1].lower_violation <= 1e-3,
             trace.stages[-1].lower_violation, 1e-3,
             "final-stage sup(lower-u)+")

        n_star = 256.0
        if not any(s.n_upper == n_star for s in trace.stages):
            n_star = trace.stages[-1].n_upper
        bar = solve_lower_reflected_upper_penalized(spec, grid, n_star)
        diag = solve_penalized(spec, grid, PenaltyParams(n_star, n_star))
        gap = sup_diff(bar.field, diag.field)
        _chk(checks, "construction-agreement", gap <= 2e-3, gap, 2e-3,
             f"reflected-vs-penalized gap at intensity {n_star:g}")

    if ob.lower_active or ob.upper_active:
        proj = solve_double_projection(spec, grid)
        gap = sup_diff(final.field, proj.field, inner=True)
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

    bundle = reconstruct(final.field, spec, pen_final)
    defect = float(np.max(bundle.defect.values[:-1, 1:-1]))
    _chk(checks, "martingale-defect", defect <= 1e-10, defect, 1e-10,
         "no fixed-variance scenario beats the envelope step")

    resid = float(np.max(np.abs(one_step_residuals(bundle, spec))))
    _chk(checks, "one-step-identity", resid <= 1e-10, resid, 1e-10,
         "Y_k = Y_{k+1} + dt*rhs + dA+ - dA- at interior nodes")

    neg = min(float(np.min(bundle.da_plus)), float(np.min(bundle.da_minus)))
    overlap = float(np.max(np.minimum(bundle.da_plus, bundle.da_minus)))
    signs_ok = neg >= 0.0 and overlap == 0.0
    act = 0.0
    op = StepOperator(spec, grid)
    for k, t in enumerate(grid.t_nodes):
        op_t = op.at(t)
        low, up = op_t.lower, op_t.upper
        y = bundle.y.values[k]
        if low is not None:
            act = max(act, float(np.max((y - low) * (bundle.da_plus[k] > 0))))
        if up is not None:
            act = max(act, float(np.max((up - y) * (bundle.da_minus[k] > 0))))
    _chk(checks, "compensator-signs", signs_ok and act <= 1e-12,
         max(-neg, overlap, act), 1e-12,
         "increments nonnegative, mutually exclusive, and act only on "
         "their contact sets")

    bmo = bmo_diagnostic(bundle, spec)
    _chk(checks, "gradient-energy-finite", math.isfinite(bmo), bmo,
         float("inf"), "worst-case tail energy of z (diagnostic only)")

    return SuiteResult(checks=tuple(checks), final_report=final, trace=trace,
                       bundle=bundle)


def run_comparison_suite(spec_hi: ProblemSpec, spec_lo: ProblemSpec,
                         grid: Grid) -> SuiteResult:
    """Property battery for an ordered pair: preconditions + ordering."""
    checks = []
    try:
        order = comparison_harness(spec_hi, spec_lo, grid)
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
