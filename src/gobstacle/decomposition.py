"""Reconstruction of the process bundle behind a solve.

A solve's field is re-read as the value process of a backward system:
per slice, the gradient process z = sigma * Du, the nondecreasing
compensator increments dA+ (pushing up at the lower obstacle) and dA-
(pushing down at the upper one), and a scenario-defect field certifying
the worst-case volatility property: stepping with any fixed variance
v in the band can never beat the envelope step, so the defect

    (step value under fixed v) - (actual step value)

is <= 0 at every interior node, with equality exactly at maximizing
scenarios.  The fixed-scenario step u + dt*(0.5*v*qv + rest) is affine
in v and its obstacle enforcement is monotone, so, as the envelope
G(a) = 0.5*sup_v v*a does, it takes its largest value over the band
at an endpoint: the defect steps the two endpoint variances
(vol_low_sq, vol_high_sq) and no interior one.  The orthogonal-decrement
part of the decomposition vanishes along the worst-case scenario by
construction and is never materialized.

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
refused.  The bundle keeps the problem, so `one_step_residuals` and
the tail-energy diagnostic read it from there.

Replays read only stored slices, so a kernel call takes a block of
consecutive slices (`StepOperator.blocks`; one slice when a custom
field or driver may depend on t), copied into the kernel's input layer,
which lays them end to end as it lays out the solves of a batch; one
kernel serves every block of its shape, and the two endpoint scenarios
of the defect step one after the other over the same flat layout,
through the kernel's own obstacle enforcement.  The tail energy still
adds its slices in order, from the terminal end.

The replay always covers every stored step and compares it with the
stored layer.  `reconstruct` builds the outputs (gradient, increments,
scenario map, defect) in that same replay, each block written in place.
The CLI's field CSV only verifies every step, in blocks of one layer
per slice, then replays the slices it writes, one at a time, so it
holds a few rows instead of four more field-size arrays and runs the
scenario scans on those slices alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec, SpecError, _bound_call
from .scheme import Field, StepOperator, _blocks, _check_field_budget, \
    _Kernel, _penalty_rows

# a full replay's blocks take a fifth of the element budget: the kernel
# and the scenario scans hold some twenty arrays of a block's size
_REPLAY_SHARE = 5


@dataclass(eq=False)
class ProcessBundle:
    """Value, gradient, compensator increments and scenario defects.

    Arrays are slice-aligned with the field: da_plus[k], da_minus[k] are
    the increments created by the step that produced slice k (zero on
    the terminal row); defect[k, i] is the worst fixed-scenario defect
    at that node, the larger of the band's two endpoint variances' (zero
    on boundary columns and the terminal row).
    scenario_high[k] is the bang-bang scenario map of the step that
    produced slice k on interior nodes, (nt, nx-1): True where the
    envelope took the high variance (qv >= 0, ties included), False
    where it took the low one.
    spec is the problem of the solve.
    """

    spec: ProblemSpec
    y: Field
    z: Field
    da_plus: np.ndarray
    da_minus: np.ndarray
    defect: Field
    scenario_high: np.ndarray


def reconstruct(report) -> ProcessBundle:
    """Rebuild the process bundle from a `SolveReport`.

    Replays the steps through the solvers' kernel a block of slices at
    a time: its right-hand side gives the scenario map, its obstacle
    enforcement the increments dA+/dA-, and the same step under each
    endpoint variance of the band the defect.  The report's (spec, pen)
    are those of its field, as every solver records them; a replayed
    layer that differs from the stored one (a report edited by hand)
    raises SpecError.  The bundle adds four arrays of the field's size
    (`GridError` when they and the field exceed the memory cap) and the
    scenario map, one byte per node.
    """
    grid = report.field.grid
    _check_field_budget(grid, 5)
    z, da_plus, da_minus, defect, scenario_high = _bundle_rows(report, None)
    return ProcessBundle(spec=report.spec, y=report.field,
                         z=Field(values=z, grid=grid),
                         da_plus=da_plus, da_minus=da_minus,
                         defect=Field(values=defect, grid=grid),
                         scenario_high=scenario_high)


def _bundle_rows(report, ks):
    """The bundle's rows at the distinct slices ks of a report's field.

    Every stored step is replayed and compared with its layer first,
    whatever ks holds, in blocks of one layer per slice, so an edited
    report is refused as by `reconstruct`; then the slices of ks are
    replayed one at a time for the gradient, the increments, the
    scenario map and the defect.  Returns (z, da_plus, da_minus, defect,
    scenario_high), one row per slice of ks in that order; the terminal
    slice has zero increments and defect and an all-False scenario row.
    ks None asks for every slice: the bundle's arrays, written in place
    block by block in the one replay, scenario_high of shape (nt, nx-1),
    in blocks of a `_REPLAY_SHARE`-th of the element budget.
    """
    spec, pen = report.spec, _penalty_rows((report.pen,))
    grid = report.field.grid
    vals = report.field.values
    dx = grid.dx
    op = StepOperator(spec, grid)
    # (k0, k1, r0): slices k0..k1-1 to output rows r0.., or compare only
    if ks is None:
        z = np.empty(vals.shape)
        scenario_high = np.empty((grid.nt, grid.nx - 1), dtype=bool)
        slices = [(k0, k1, k0) for k0, k1 in op.blocks(grid.nt + 1)]
        steps = [(k0, k1, k0)
                 for k0, k1 in op.blocks(grid.nt, rows=_REPLAY_SHARE)]
    else:
        z = np.empty((len(ks), grid.nx + 1))
        scenario_high = np.zeros((len(ks), grid.nx - 1), dtype=bool)
        slices = [(k, k + 1, j) for j, k in enumerate(ks)]
        # compare every step first, in blocks of one layer per slice
        steps = [s for s in slices if s[0] < grid.nt] + [
            (k0, k1, None) for k0, k1 in op.blocks(grid.nt)]
    da_plus, da_minus, defect = (np.zeros(z.shape) for _ in range(3))
    for k0, k1, r0 in slices:
        y, out = vals[k0:k1], z[r0:r0 + k1 - k0]
        sig = op.at(grid.t_nodes[k0]).sigma
        out[:, 1:-1] = sig[1:-1] * (y[:, 2:] - y[:, :-2]) / (2.0 * dx)
        out[:, 0] = sig[0] * (y[:, 1] - y[:, 0]) / dx
        out[:, -1] = sig[-1] * (y[:, -1] - y[:, -2]) / dx

    kernel = None
    # latest first, as the solve stepped: a refusal names the first
    # step that differs
    for k0, k1, r0 in reversed(steps):
        nxt = vals[k0 + 1:k1 + 1]
        if kernel is None or kernel.shape[0] != k1 - k0:
            # free the last shape's arrays first
            kernel = scans = scenario = worst = None
            kernel = _Kernel(op, pen, nxt.shape)
        np.copyto(kernel.layer, nxt)
        _, qv, _ = kernel.explicit(grid.t_nodes[k0])
        if r0 is None:  # compare only
            layer = kernel.apply()
        else:
            rows = slice(r0, r0 + k1 - k0)
            if scans is None:
                scans, scenario, worst = _scenario_scans(kernel)
            np.greater_equal(qv, 0.0, out=scenario_high[rows])
            # the worst scenario step less the stored one, on the nodes
            # the scans write
            stored = vals[k0:k1].reshape(-1)[1:-1]
            worst.fill(-np.inf)
            for calls in scans:
                for call in calls:
                    call()
                np.subtract(scenario, stored, out=scenario)
                np.maximum(worst[1:-1], scenario, out=worst[1:-1])
            defect[rows, 1:-1] = kernel.rows(worst)
            layer, da_plus[rows], da_minus[rows] = kernel.apply(
                increments=True)
        differs = np.flatnonzero((layer != vals[k0:k1]).any(axis=-1))
        if differs.size:
            raise SpecError(
                f"replaying the step at t={grid.t_nodes[k0 + differs[-1]]:.6g}"
                " does not reproduce the stored layer; the report's spec "
                "and pen are not those of its field")
    return z, da_plus, da_minus, defect, scenario_high


def _scenario_scans(kernel):
    """The fixed-scenario steps of a replay kernel's block, one scenario
    at a time over the kernel's flat layout: per endpoint v of the
    kernel's band, vol_low_sq then vol_high_sq, the calls that write
    u + dt*(0.5*v*qv + rest) from the kernel's input layer, qv and rest,
    enforced on its obstacle rows short of the boundary closure
    (`_Obstacles.interior_calls`: the defect reads interior nodes only),
    into `scenario`, the nodes of the flat layout but its two ends.
    Returns (those call lists, scenario, a flat work
    array of the kernel's size).  They hold for the kernel's life: a
    `timed` operator is re-read into the kernel's rows in place, and the
    structure of its step is fixed per solve."""
    dt, gp = kernel.dt, kernel.op.spec.gparams
    w, scenario, worst = (np.empty(kernel.v.size) for _ in range(3))
    step, qv, rest = (a[1:-1] for a in (w, kernel.qv, kernel.rest_out))
    scenario = scenario[1:-1]
    enforce = kernel.obstacles.interior_calls(step, scenario)
    scans = [[_bound_call(np.multiply, v, qv, step),
              _bound_call(np.multiply, 0.5, step, step),
              _bound_call(np.add, step, rest, step),
              _bound_call(np.multiply, dt, step, step),
              _bound_call(np.add, kernel.layers[kernel.p][1:-1], step,
                          step)] + enforce
             for v in (gp.vol_low_sq, gp.vol_high_sq)]
    return scans, scenario, worst


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
        if kernel is None or kernel.shape[0] != k1 - k0:
            kernel = _Kernel(op, None, nxt.shape)
        np.copyto(kernel.layer, nxt)
        v, _, _ = kernel.explicit(grid.t_nodes[k0])
        out[k0:k1] = vals[k0:k1, 1:-1] - (v + bundle.da_plus[k0:k1, 1:-1]
                                          - bundle.da_minus[k0:k1, 1:-1])
    return out


def bmo_diagnostic(bundle: ProcessBundle):
    """Worst tail energy of the gradient process along worst scenarios.

    For each interior column and each start slice tau, adds up
    sum_{k >= tau} z_k^2 * v*_k * dt in slice order from the terminal
    end, a block of slices at a time, with v* the step's bang-bang
    scenario read from `bundle.scenario_high`, and returns the maximum
    (attained at tau = 0 since summands are nonnegative).  Diagnostic
    only: reported, never asserted against model constants.
    """
    grid = bundle.y.grid
    gp = bundle.spec.gparams
    acc = np.zeros(grid.nx - 1)
    for k0, k1 in reversed(_blocks(grid.nt, grid.nx - 1)):
        zk = bundle.z.values[k0:k1, 1:-1]
        v_star = np.where(bundle.scenario_high[k0:k1], gp.vol_high_sq,
                          gp.vol_low_sq)
        energy = (zk * zk * v_star * grid.dt)[::-1]
        energy[0] += acc
        acc = np.add.reduce(energy, axis=0)
    return float(np.max(acc))
