"""Reconstruction of the process bundle behind a solve.

A solve's field is re-read as the value process of a backward system:
per slice, the gradient process z = sigma * Du, the nondecreasing
compensator increments dA+ (pushing up at the lower obstacle) and dA-
(pushing down at the upper one), and a scenario-defect field certifying
the worst-case volatility property: stepping with any fixed variance
v in the band can never beat the envelope step, so the defect

    (step value under fixed v) - (actual step value)

is <= 0 at every interior node, with equality exactly at maximizing
scenarios.  The orthogonal-decrement part of the decomposition vanishes
along the worst-case scenario by construction and is never materialized.

Each step is replayed through the solvers' own step kernel
(`scheme._Kernel`) with the problem and intensities the `SolveReport`
records, compiled onto the field's grid (`StepOperator`) as the solve
did; its obstacle enforcement reports the increments its penalty
resolution, projection (an infinite intensity) and boundary clamp
applied, so the one-step identity

    Y_k = Y_{k+1} + dt*rhs + dA+_k - dA-_k

holds at interior nodes to rounding, at every intensity: projection
lifts/clamps land in the increments, not in a residual.  A replay that
does not reproduce the stored layer (a report edited by hand) is
refused.  The bundle keeps the problem, so the residuals and the
tail-energy diagnostic read it from there.

Replays read only stored slices, so a kernel call takes a block of
consecutive slices (`StepOperator.blocks`; one slice when a custom
field or driver may depend on t), copied into the kernel's input layer;
one kernel serves every block of its shape, and the scenarios of the
defect go in as one (V, B, nx-1) stack.
Sums over slices (the contact residuals) still add in slice order.

The replay always covers every stored step and compares it with the
stored layer; the outputs (gradient, increments, scenario map, defect)
are built only for the blocks holding a slice asked for.  `reconstruct`
asks for all of them and gets each block written in place; the CLI's
field CSV asks for the slices it writes, so it holds a few rows instead
of four more field-size arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec, SpecError
from .scheme import _BLOCK_ELEMENTS, Field, StepOperator, \
    _check_field_budget, _Kernel, _Obstacles, _penalty_rows


@dataclass(eq=False)
class ProcessBundle:
    """Value, gradient, compensator increments and scenario defects.

    Arrays are slice-aligned with the field: da_plus[k], da_minus[k] are
    the increments created by the step that produced slice k (zero on
    the terminal row); defect[k, i] is the worst fixed-scenario defect
    at that node (zero on boundary columns and the terminal row).
    scenario_high[k] is the bang-bang scenario map of the step that
    produced slice k on interior nodes, (nt, nx-1): True where the
    envelope took the high variance (ties included, as in
    `gcalculus.worst_case_vol`), False where it took the low one.
    spec is the problem of the solve.
    """

    spec: ProblemSpec
    y: Field
    z: Field
    da_plus: np.ndarray
    da_minus: np.ndarray
    defect: Field
    scenario_high: np.ndarray


def _check_v_grid(v_grid, spec):
    gp = spec.gparams
    if v_grid is None:
        v_grid = np.linspace(gp.vol_low_sq, gp.vol_high_sq, 5)
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    if v_grid.size == 0:
        raise SpecError("empty scenario grid")
    if v_grid.ndim != 1 or not ((v_grid >= gp.vol_low_sq)
                                & (v_grid <= gp.vol_high_sq)).all():
        raise SpecError("scenario variances must be a 1-D grid of finite "
                        "values inside the declared band")
    return v_grid


def reconstruct(report, v_grid=None) -> ProcessBundle:
    """Rebuild the process bundle from a `SolveReport`.

    Replays the steps through the solvers' kernel a block of slices at
    a time: its right-hand side gives the scenario map, its obstacle
    enforcement the increments dA+/dA-, and the same step under each
    fixed scenario of v_grid the defect.  The report's (spec, pen) are
    those of its field, as every solver records them; a replayed layer
    that differs from the stored one (a report edited by hand) raises
    SpecError.  The bundle adds four arrays of the field's size
    (`GridError` when they and the field exceed the memory cap) and the
    scenario map, one byte per node.
    """
    grid = report.field.grid
    _check_field_budget(grid, 5)
    z, da_plus, da_minus, defect, scenario_high = _bundle_rows(
        report, None, v_grid)
    return ProcessBundle(spec=report.spec, y=report.field,
                         z=Field(values=z, grid=grid),
                         da_plus=da_plus, da_minus=da_minus,
                         defect=Field(values=defect, grid=grid),
                         scenario_high=scenario_high)


def _bundle_rows(report, ks, v_grid=None):
    """The bundle's rows at the distinct slices ks of a report's field.

    Every stored step is replayed and compared with its layer, whatever
    ks holds, so an edited report is refused as by `reconstruct`; only a
    block holding a slice of ks goes on to the gradient, the increments,
    the scenario map and the defect.  Returns (z, da_plus, da_minus,
    defect, scenario_high), one row per slice of ks in that order; the
    terminal slice has zero increments and defect and an all-False
    scenario row.  ks None asks for every slice: the bundle's arrays,
    written in place block by block, scenario_high of shape (nt, nx-1).
    """
    spec, pen = report.spec, _penalty_rows((report.pen,))
    grid = report.field.grid
    vals = report.field.values
    dt = grid.dt
    dx = grid.dx
    v_grid = _check_v_grid(v_grid, spec)
    op = StepOperator(spec, grid)
    if ks is None:
        n, where = grid.nt + 1, None
        z = np.empty(vals.shape)
        scenario_high = np.empty((grid.nt, grid.nx - 1), dtype=bool)
    else:
        # slice k's row; a slice not asked for lands in a last scratch row
        n = len(ks)
        where = np.full(grid.nt + 1, n)
        where[ks] = np.arange(n)
        z = np.empty((n + 1, grid.nx + 1))
        scenario_high = np.zeros((n + 1, grid.nx - 1), dtype=bool)
    da_plus, da_minus, defect = (np.zeros(z.shape) for _ in range(3))

    def dest(k0, k1):
        """The rows slices k0..k1-1 go to; None when none is asked for."""
        if where is None:
            return slice(k0, k1)
        rows = where[k0:k1]
        return rows if rows.min() < n else None

    for k0, k1 in op.blocks(grid.nt + 1):
        rows, y = dest(k0, k1), vals[k0:k1]
        if rows is not None:
            sig = op.at(grid.t_nodes[k0]).sigma
            z[rows, 1:-1] = sig[1:-1] * (y[:, 2:] - y[:, :-2]) / (2.0 * dx)
            z[rows, 0] = sig[0] * (y[:, 1] - y[:, 0]) / dx
            z[rows, -1] = sig[-1] * (y[:, -1] - y[:, -2]) / dx

    # a block holding an asked slice holds the scenario stack too
    blocks = op.blocks(grid.nt, rows=v_grid.size)
    kernel = None
    # latest blocks first, as the solve stepped: a refusal names the
    # first step that differs; only the first block can be short
    for k0, k1 in reversed(blocks):
        nxt = vals[k0 + 1:k1 + 1]
        if kernel is None or kernel.v.shape[0] != k1 - k0:
            kernel = _Kernel(op, pen, nxt.shape)
            w = np.empty((v_grid.size,) + kernel.v.shape)
            layers = np.empty((v_grid.size,) + nxt.shape)
            if where is not None:
                high = np.empty(kernel.v.shape, dtype=bool)
                worst = np.empty(kernel.v.shape)
        np.copyto(kernel.layer, nxt)
        v, qv, rest = kernel.explicit(grid.t_nodes[k0])
        rows = dest(k0, k1)
        if rows is None:  # compare only
            layer = kernel.apply()
        else:
            if where is None:  # every slice: the block's rows in place
                high, worst = scenario_high[rows], defect[rows, 1:-1]
            np.greater_equal(qv, 0.0, out=high)
            # u + dt*(0.5*v*qv + rest) per scenario v, in buffers that cap
            # the peak
            np.multiply(v_grid[:, None, None], qv, out=w)
            np.multiply(0.5, w, out=w)
            np.add(w, rest, out=w)
            np.multiply(dt, w, out=w)
            np.add(nxt[:, 1:-1], w, out=w)
            _Obstacles(kernel.op.lower, kernel.op.upper, pen, dt,
                       w.shape).apply(w, layers)
            np.subtract(layers[..., 1:-1], vals[k0:k1, 1:-1], out=w)
            np.max(w, axis=0, out=worst)
            layer, da_plus[rows], da_minus[rows] = kernel.apply(
                increments=True)
            if where is not None:
                scenario_high[rows], defect[rows, 1:-1] = high, worst
        differs = np.flatnonzero((layer != vals[k0:k1]).any(axis=-1))
        if differs.size:
            raise SpecError(
                f"replaying the step at t={grid.t_nodes[k0 + differs[-1]]:.6g}"
                " does not reproduce the stored layer; the report's spec "
                "and pen are not those of its field")
    if where is None:
        return z, da_plus, da_minus, defect, scenario_high
    return z[:n], da_plus[:n], da_minus[:n], defect[:n], scenario_high[:n]


def one_step_residuals(bundle: ProcessBundle):
    """Interior residual of Y_k - (Y_{k+1} + dt*rhs + dA+ - dA-) per step.

    The right-hand side is the solve's, per-node differences included.
    Returns an (nt, nx-1) array; its sup is the identity defect of the
    reconstruction and should sit at rounding level.
    """
    grid = bundle.y.grid
    vals = bundle.y.values
    op = StepOperator(bundle.spec, grid)
    out = np.empty((grid.nt, grid.nx - 1))
    kernel = None
    for k0, k1 in op.blocks(grid.nt):  # only the last block can be short
        nxt = vals[k0 + 1:k1 + 1]
        if kernel is None or kernel.v.shape[0] != k1 - k0:
            kernel = _Kernel(op, None, nxt.shape)
        np.copyto(kernel.layer, nxt)
        v, _, _ = kernel.explicit(grid.t_nodes[k0])
        out[k0:k1] = vals[k0:k1, 1:-1] - (v + bundle.da_plus[k0:k1, 1:-1]
                                          - bundle.da_minus[k0:k1, 1:-1])
    return out


def _add_in_order(acc, terms):
    """acc + terms[0] + terms[1] + ... per column, added in row order as
    a loop over the rows would; overwrites terms."""
    terms[0] += acc
    return np.add.accumulate(terms, axis=0, out=terms)[-1]


def _contact_residuals(field: Field, op: StepOperator, increments):
    """(r_plus, r_minus) of a field whose interior increments over a
    block of slices k0..k1-1 are increments(k0, k1, y, lower, upper) ->
    (dA+, dA-), with y the block's interior values and the obstacle rows
    read from the operator; each column sums in slice order."""
    grid = field.grid
    acc_plus = np.zeros(grid.nx - 1)
    acc_minus = np.zeros(grid.nx - 1)
    for k0, k1 in op.blocks(grid.nt):
        y = field.values[k0:k1, 1:-1]
        low, up = (None if row is None else row[1:-1]
                   for row in op.obstacles(grid.t_nodes[k0]))
        da_plus, da_minus = increments(k0, k1, y, low, up)
        if low is not None:
            acc_plus = _add_in_order(acc_plus,
                                     np.maximum(low - y, 0.0) * da_plus)
        if up is not None:
            acc_minus = _add_in_order(acc_minus,
                                      np.maximum(y - up, 0.0) * da_minus)
    ob = op.spec.obstacles
    return (float(np.max(acc_plus)) if ob.lower_active else 0.0,
            float(np.max(acc_minus)) if ob.upper_active else 0.0)


def skorohod_residuals(bundle: ProcessBundle):
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
        bundle.y, StepOperator(bundle.spec, bundle.y.grid),
        lambda k0, k1, *_: (bundle.da_plus[k0:k1, 1:-1],
                            bundle.da_minus[k0:k1, 1:-1]))


def bmo_diagnostic(bundle: ProcessBundle, return_profile=False):
    """Worst tail energy of the gradient process along worst scenarios.

    For each interior column and each start slice tau, accumulates
    sum_{k >= tau} z_k^2 * v*_k * dt, from the terminal end and a block
    of slices at a time, with v* the step's bang-bang scenario read from
    `bundle.scenario_high`, and returns the maximum (attained at tau = 0
    since summands are nonnegative).  Diagnostic only: reported, never
    asserted against model constants.
    """
    grid = bundle.y.grid
    gp = bundle.spec.gparams
    tails = np.empty((grid.nt, grid.nx - 1)) if return_profile else None
    acc = np.zeros(grid.nx - 1)
    size = max(1, _BLOCK_ELEMENTS // (grid.nx - 1))
    for k1 in range(grid.nt, 0, -size):
        k0 = max(0, k1 - size)
        zk = bundle.z.values[k0:k1, 1:-1]
        v_star = np.where(bundle.scenario_high[k0:k1], gp.vol_high_sq,
                          gp.vol_low_sq)
        energy = (zk * zk * v_star * grid.dt)[::-1]
        acc = _add_in_order(acc, energy)
        if return_profile:
            tails[k0:k1] = energy[::-1]
    worst = float(np.max(acc))
    if return_profile:
        return worst, tails
    return worst
