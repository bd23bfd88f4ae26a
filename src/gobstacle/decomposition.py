"""Reconstruction of the process bundle behind a solved field.

A solved field is re-read as the value process of a backward system:
per slice, the gradient process z = sigma * Du, the nondecreasing
compensator increments dA+ (pushing up at the lower obstacle) and dA-
(pushing down at the upper one), and a scenario-defect field certifying
the worst-case volatility property: stepping with any fixed variance
v in the band can never beat the envelope step, so the defect

    (step value under fixed v) - (actual step value)

is <= 0 at every interior node, with equality exactly at maximizing
scenarios.  The orthogonal-decrement part of the decomposition vanishes
along the worst-case scenario by construction and is never materialized.

Each step is replayed through the step kernel of the scheme, reading
the rows of the problem compiled onto the field's grid (`StepOperator`)
like the solve did; the kernel reports the increments its penalty
resolution, projection and boundary clamp applied, so the one-step
identity

    Y_k = Y_{k+1} + dt*rhs + dA+_k - dA-_k

holds at interior nodes to rounding, for every solver mode: projection
lifts/clamps land in the increments, not in a residual.  A replay that
does not reproduce the stored layer is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gcalculus import g_eval, worst_case_vol
from .model import ProblemSpec, SpecError
from .scheme import Field, PenaltyParams, StepOperator, _enforce, \
    layer_rhs_parts


@dataclass(eq=False)
class ProcessBundle:
    """Value, gradient, compensator increments and scenario defects.

    Arrays are slice-aligned with the field: da_plus[k], da_minus[k] are
    the increments created by the step that produced slice k (zero on
    the terminal row); defect[k, i] is the worst fixed-scenario defect
    at that node (zero on boundary columns and the terminal row).
    first_order is the first-order scheme of the solve it was built from.
    """

    y: Field
    z: Field
    da_plus: np.ndarray
    da_minus: np.ndarray
    defect: Field
    first_order: str = "central"


def _check_v_grid(v_grid, spec):
    gp = spec.gparams
    if v_grid is None:
        v_grid = np.linspace(gp.vol_low_sq, gp.vol_high_sq, 5)
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    if v_grid.size == 0:
        raise SpecError("empty scenario grid")
    if (v_grid < gp.vol_low_sq).any() or (v_grid > gp.vol_high_sq).any():
        raise SpecError("scenario variances must lie inside the declared band")
    return v_grid


def reconstruct(field: Field, spec: ProblemSpec, pen: PenaltyParams,
                mode="penalized", v_grid=None,
                first_order="central") -> ProcessBundle:
    """Rebuild the process bundle from a solved field.

    Compiles the problem onto the field's grid once and replays every
    step through the step kernel, with the right-hand side computed once
    per step: the replay yields the increments dA+/dA-, and the same
    step under each fixed scenario of v_grid the defect.
    The field must come from a solver run with the same (spec, pen,
    mode, first_order); a replayed layer that differs from the stored
    one raises SpecError.
    """
    grid = field.grid
    vals = field.values
    dt = grid.dt
    dx = grid.dx
    v_grid = _check_v_grid(v_grid, spec)
    op = StepOperator(spec, grid, first_order)

    z = np.empty_like(vals)
    da_plus = np.zeros_like(vals)
    da_minus = np.zeros_like(vals)
    defect = np.zeros_like(vals)

    for k in range(grid.nt + 1):
        sig = op.at(grid.t_nodes[k]).sigma
        z[k, 1:-1] = sig[1:-1] * (vals[k, 2:] - vals[k, :-2]) / (2.0 * dx)
        z[k, 0] = sig[0] * (vals[k, 1] - vals[k, 0]) / dx
        z[k, -1] = sig[-1] * (vals[k, -1] - vals[k, -2]) / dx

    for k in range(grid.nt - 1, -1, -1):
        t = grid.t_nodes[k]
        op_t = op.at(t)
        qv, rest = layer_rhs_parts(vals[k + 1], t, op_t)
        rows = op_t.lower, op_t.upper
        w = vals[k + 1, 1:-1] + dt * (g_eval(qv, spec.gparams) + rest)
        layer, da_plus[k], da_minus[k] = _enforce(w, *rows, pen, dt, mode,
                                                  increments=True)
        if not np.array_equal(layer, vals[k]):
            raise SpecError(
                f"replaying the step at t={t:.6g} does not reproduce the "
                "stored layer; reconstruct with the pen, mode and "
                "first_order of the solve")

        worst = None
        for v in v_grid:
            w_v = vals[k + 1, 1:-1] + dt * (0.5 * (v * qv) + rest)
            d = _enforce(w_v, *rows, pen, dt, mode)[1:-1] - vals[k, 1:-1]
            worst = d if worst is None else np.maximum(worst, d)
        defect[k, 1:-1] = worst

    return ProcessBundle(y=field, z=Field(values=z, grid=grid),
                         da_plus=da_plus, da_minus=da_minus,
                         defect=Field(values=defect, grid=grid),
                         first_order=first_order)


def one_step_residuals(bundle: ProcessBundle, spec: ProblemSpec):
    """Interior residual of Y_k - (Y_{k+1} + dt*rhs + dA+ - dA-) per step.

    The right-hand side uses the bundle's first-order scheme.  Returns an
    (nt, nx-1) array; its sup is the identity defect of the
    reconstruction and should sit at rounding level.
    """
    grid = bundle.y.grid
    vals = bundle.y.values
    op = StepOperator(spec, grid, bundle.first_order)
    out = np.empty((grid.nt, grid.nx - 1))
    for k in range(grid.nt):
        qv, rest = layer_rhs_parts(vals[k + 1], grid.t_nodes[k], op)
        w = vals[k + 1, 1:-1] + grid.dt * (g_eval(qv, spec.gparams) + rest)
        out[k] = vals[k, 1:-1] - (w + bundle.da_plus[k, 1:-1]
                                  - bundle.da_minus[k, 1:-1])
    return out


def _contact_residuals(field: Field, op: StepOperator, increments):
    """(r_plus, r_minus) of a field whose interior increments at slice k
    are increments(k, y_k, lower_k, upper_k) -> (dA+_k, dA-_k), with the
    obstacle rows read from the operator."""
    grid = field.grid
    acc_plus = np.zeros(grid.nx - 1)
    acc_minus = np.zeros(grid.nx - 1)
    for k in range(grid.nt):
        y = field.values[k, 1:-1]
        op_t = op.at(grid.t_nodes[k])
        low, up = (None if row is None else row[1:-1]
                   for row in (op_t.lower, op_t.upper))
        da_plus, da_minus = increments(k, y, low, up)
        if low is not None:
            acc_plus += np.maximum(low - y, 0.0) * da_plus
        if up is not None:
            acc_minus += np.maximum(y - up, 0.0) * da_minus
    ob = op.spec.obstacles
    return (float(np.max(acc_plus)) if ob.lower_active else 0.0,
            float(np.max(acc_minus)) if ob.upper_active else 0.0)


def skorohod_residuals(bundle: ProcessBundle, spec: ProblemSpec):
    """Contact residuals of the compensators along grid paths.

    r_plus  = max over interior columns of sum_k (lower - Y)^+ * dA+
    r_minus = max over interior columns of sum_k (Y - upper)^+ * dA-

    Each summand is a product of nonnegative factors measuring how far
    from its contact set an increment acted, so both residuals are >= 0;
    they shrink like the inverse intensity along a penalty schedule and
    vanish (to step-size slack) for projection solves.  Inactive sides
    report 0.
    """
    return _contact_residuals(
        bundle.y, StepOperator(spec, bundle.y.grid, bundle.first_order),
        lambda k, *_: (bundle.da_plus[k, 1:-1], bundle.da_minus[k, 1:-1]))


def martingale_defect_scan(field: Field, spec: ProblemSpec,
                           pen: PenaltyParams, v_grid=None, mode="penalized",
                           first_order="central") -> float:
    """Worst fixed-scenario defect over all interior nodes and scenarios.

    Certifies the envelope property of the scheme: a nonpositive return
    value (up to rounding) means no constant-variance step beats the
    actual step anywhere; values near zero are attained where the
    scanned grid contains the bang-bang maximizer.
    """
    bundle = reconstruct(field, spec, pen, mode=mode, v_grid=v_grid,
                         first_order=first_order)
    d = bundle.defect.values
    return float(np.max(d[:-1, 1:-1]))


def bmo_diagnostic(bundle: ProcessBundle, spec: ProblemSpec,
                   return_profile=False):
    """Worst tail energy of the gradient process along worst scenarios.

    For each interior column and each start slice tau, accumulates
    sum_{k >= tau} z_k^2 * v*_k * dt with v* the bang-bang scenario of
    the step at slice k (under the bundle's first-order scheme), and
    returns the maximum (attained at tau = 0 since summands are
    nonnegative; tails decrease as tau grows).  Diagnostic only:
    reported, never asserted against model constants.
    """
    grid = bundle.y.grid
    vals = bundle.y.values
    op = StepOperator(spec, grid, bundle.first_order)
    energy = np.empty((grid.nt, grid.nx - 1))
    for k in range(grid.nt):
        qv, _ = layer_rhs_parts(vals[k + 1], grid.t_nodes[k], op)
        v_star = worst_case_vol(qv, spec.gparams)
        zk = bundle.z.values[k, 1:-1]
        energy[k] = zk * zk * v_star * grid.dt
    tails = np.cumsum(energy[::-1], axis=0)[::-1]
    worst = float(np.max(tails)) if tails.size else 0.0
    if return_profile:
        return worst, tails
    return worst
