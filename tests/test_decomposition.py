"""Process reconstruction: gradient, compensators, scenario defects."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gobstacle import decomposition
from gobstacle.decomposition import (
    bmo_diagnostic,
    one_step_residuals,
    reconstruct,
)
from gobstacle.diagnostics import inner_mask
from gobstacle.model import FnSpec, GParams, SpecError
from gobstacle.presets import get_preset
from gobstacle.scheme import PenaltyParams, StepOperator, build_grid
from gobstacle.solvers import PenaltySchedule, solve_double_projection, \
    solve_limit, solve_penalized
from node_oracle import layer_rhs_parts, tail_energies, worst_case_vol


@pytest.fixture(scope="module")
def mode_runs():
    """One solve per way of meeting the obstacles: penalized, lower
    reflection with an upper penalty, projection, and none."""
    out = []
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)

    out.append(solve_penalized(spec, grid, PenaltyParams(64.0, 64.0)))
    out.append(solve_penalized(spec, grid, PenaltyParams(math.inf, 64.0)))
    out.append(solve_double_projection(spec, grid))

    free = get_preset("gheat-quadratic")
    out.append(solve_penalized(free, build_grid(free, nx=64),
                               PenaltyParams()))
    return out


def test_gradient_process_tracks_the_space_derivative():
    # terminal x^2 keeps du = 2x exactly under centered differences; the
    # boundary closure contaminates only a thin layer near the walls, so
    # compare on the inner half-domain
    spec = get_preset("gheat-quadratic")
    grid = build_grid(spec, nx=200)
    rep = solve_penalized(spec, grid, PenaltyParams())
    bundle = reconstruct(rep)
    m = inner_mask(grid)
    err = np.max(np.abs(bundle.z.values[0, m] - 2.0 * grid.x_nodes[m]))
    assert err <= 1e-3


def test_gradient_uses_one_sided_differences_at_walls():
    spec = get_preset("gheat-quadratic")
    grid = build_grid(spec, nx=64)
    rep = solve_penalized(spec, grid, PenaltyParams())
    bundle = reconstruct(rep)
    vals = rep.field.values
    want_left = (vals[0, 1] - vals[0, 0]) / grid.dx
    want_right = (vals[0, -1] - vals[0, -2]) / grid.dx
    assert bundle.z.values[0, 0] == want_left
    assert bundle.z.values[0, -1] == want_right


def test_one_step_identity_holds_to_rounding(mode_runs):
    for rep in mode_runs:
        res = one_step_residuals(reconstruct(rep))
        assert float(np.max(np.abs(res))) <= 1e-10, rep.pen


def test_compensators_are_nonnegative_and_disjoint(mode_runs):
    for rep in mode_runs:
        bundle = reconstruct(rep)
        assert float(bundle.da_plus.min()) >= 0.0
        assert float(bundle.da_minus.min()) >= 0.0
        assert float(np.max(bundle.da_plus * bundle.da_minus)) == 0.0


def test_no_obstacles_means_no_increments():
    spec = get_preset("gheat-quadratic")
    grid = build_grid(spec, nx=64)
    rep = solve_penalized(spec, grid, PenaltyParams())
    bundle = reconstruct(rep)
    assert float(np.max(bundle.da_plus)) == 0.0
    assert float(np.max(bundle.da_minus)) == 0.0


def test_projection_increments_act_only_on_contact():
    # with exact projection, a push-up increment can exist only at nodes
    # sitting exactly on the lower obstacle
    spec = get_preset("lower-active")
    grid = build_grid(spec, nx=64)
    rep = solve_double_projection(spec, grid)
    bundle = reconstruct(rep)
    hit = bundle.da_plus[:-1, 1:-1] > 0.0
    assert hit.any()  # the preset is built to reach the barrier
    low = -1.6
    gaps = np.abs(rep.field.values[:-1, 1:-1][hit] - low)
    assert float(np.max(gaps)) == 0.0


def test_terminal_row_carries_no_increments(mode_runs):
    for rep in mode_runs:
        bundle = reconstruct(rep)
        assert float(np.max(np.abs(bundle.da_plus[-1]))) == 0.0
        assert float(np.max(np.abs(bundle.da_minus[-1]))) == 0.0
        assert float(np.max(np.abs(bundle.defect.values[-1]))) == 0.0


# ---------------------------------------------------------------------------
# contact residuals, read from the limit trace of a one-step schedule
# ---------------------------------------------------------------------------

def _residuals(spec, grid, pen):
    (stage,) = solve_limit(spec, grid, PenaltySchedule((pen,)))[1].stages
    return stage.r_plus, stage.r_minus


def test_skorohod_residuals_shrink_with_intensity():
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    seq = []
    for n in (4.0, 16.0, 64.0, 256.0):
        seq.append(_residuals(spec, grid, PenaltyParams(n, n)))
    r_plus = [a for a, _ in seq]
    r_minus = [b for _, b in seq]
    assert all(b < a for a, b in zip(r_plus, r_plus[1:]))
    assert all(b < a for a, b in zip(r_minus, r_minus[1:]))
    assert r_plus[-1] < 1e-3 and r_minus[-1] < 1e-3


def test_residuals_are_zero_without_obstacles():
    spec = get_preset("gheat-quadratic")
    grid = build_grid(spec, nx=64)
    # at positive rates, so the zeros come from the absent sides
    assert _residuals(spec, grid, PenaltyParams(64.0, 64.0)) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# scenario defect scan
# ---------------------------------------------------------------------------

def _worst_defect(rep):
    # worst fixed-scenario defect over interior nodes and solved slices
    bundle = reconstruct(rep)
    return float(np.max(bundle.defect.values[:-1, 1:-1]))


def test_no_scenario_beats_the_envelope_step(mode_runs):
    for rep in mode_runs:
        assert _worst_defect(rep) <= 1e-10, rep.pen


def test_interior_scenario_defect_is_strictly_behind():
    # where the quadratic-variation channel is signed, a mid-band
    # scenario must lose to the bang-bang extreme; it can only tie (at
    # zero) in the thin wall layer where the channel changes sign.  No
    # obstacle: the 1.5-scenario step is its explicit value
    spec = get_preset("gheat-quadratic")
    grid = build_grid(spec, nx=64)
    rep = solve_penalized(spec, grid, PenaltyParams())
    vals, dt = rep.field.values, grid.dt
    op = StepOperator(spec, grid)
    behind = np.empty((grid.nt, grid.nx - 1))
    for k in range(grid.nt):
        qv, rest = layer_rhs_parts(vals[k + 1], grid.t_nodes[k], op)
        behind[k] = vals[k + 1, 1:-1] + dt * (0.5 * (1.5 * qv) + rest) \
            - vals[k, 1:-1]
    assert float(np.max(behind)) <= 0.0
    assert (behind <= reconstruct(rep).defect.values[:-1, 1:-1]).all()
    # dead center: qv = 2 exactly, so the 1.5-scenario trails the
    # envelope by dt*(0.5*1.5*2 - 2) = -0.5*dt
    i0 = grid.nx // 2
    assert behind[0, i0 - 1] == pytest.approx(-0.5 * dt, rel=1e-10)


# ---------------------------------------------------------------------------
# gradient tail energy
# ---------------------------------------------------------------------------

def test_tail_energy_profile_shape_and_monotonicity():
    spec = get_preset("lower-active")
    grid = build_grid(spec, nx=64)
    rep = solve_double_projection(spec, grid)
    bundle = reconstruct(rep)
    worst, tails = bmo_diagnostic(bundle), tail_energies(bundle)
    assert worst >= 0.0
    assert tails.shape == (grid.nt, grid.nx - 1)
    assert float(np.max(tails[0])) == worst  # tails peak at the start
    assert np.all(tails[:-1] >= tails[1:] - 1e-15)
    assert bmo_diagnostic(bundle) == worst


def test_scenario_map_is_the_bang_bang_choice_of_each_step(mode_runs):
    for rep in mode_runs:
        spec, grid = rep.spec, rep.field.grid
        bundle = reconstruct(rep)
        assert bundle.scenario_high.shape == (grid.nt, grid.nx - 1)
        op = StepOperator(spec, grid)
        for k in range(grid.nt):
            qv, _ = layer_rhs_parts(rep.field.values[k + 1],
                                    grid.t_nodes[k], op)
            np.testing.assert_array_equal(
                bundle.scenario_high[k],
                worst_case_vol(qv, spec.gparams) == spec.gparams.vol_high_sq)


def test_scenario_map_ties_take_the_high_variance():
    # constant data: the curvature channel is exactly 0 on every node
    spec = get_preset("constant-sandwich")
    grid = build_grid(spec, nx=64)
    rep = solve_double_projection(spec, grid)
    assert reconstruct(rep).scenario_high.all()


def test_bmo_reads_the_scenario_map_without_a_replay(mode_runs, monkeypatch):
    bundle = reconstruct(mode_runs[0])
    worst = bmo_diagnostic(bundle)

    def refuse(*args, **kwargs):
        raise AssertionError("bmo_diagnostic replayed a step")
    monkeypatch.setattr(decomposition, "_Kernel", refuse)
    monkeypatch.setattr(decomposition, "StepOperator", refuse)
    again = bmo_diagnostic(bundle)
    assert again == worst == float(np.max(tail_energies(bundle)[0]))
    # an all-low map weighs every step like a band pinned at the low end
    bundle.scenario_high[:] = False
    pinned = replace(bundle.spec, gparams=GParams(1.0, 1.0))
    assert bmo_diagnostic(bundle) == bmo_diagnostic(
        replace(bundle, spec=pinned)) < worst


def test_reconstruct_refuses_a_mismatched_field():
    # a penalized field replayed at infinite intensities (projection)
    # does not reproduce its stored layers; the difference must not land
    # in dA+/dA-
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    rep = solve_penalized(spec, grid, PenaltyParams(64.0, 64.0))
    with pytest.raises(SpecError, match="does not reproduce"):
        reconstruct(replace(rep, pen=PenaltyParams(math.inf, math.inf)))
    with pytest.raises(SpecError, match="does not reproduce"):
        reconstruct(replace(rep, pen=PenaltyParams(16.0, 16.0)))


@pytest.mark.parametrize("pen", [PenaltyParams(math.inf, 64.0),
                                 PenaltyParams(64.0, math.inf),
                                 PenaltyParams(math.inf, math.inf)])
def test_reconstruct_at_infinite_intensity_raises_no_warning(pen):
    # the replay runs without errstate: an infinite rate must never meet
    # a zero (inf*0) or itself (inf/inf) in the kernel's arithmetic
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=32)
    rep = solve_penalized(spec, grid, pen)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bundle = reconstruct(rep)
        resid = one_step_residuals(bundle)
        r_plus, r_minus = _residuals(spec, grid, pen)
    for arr in (bundle.da_plus, bundle.da_minus, bundle.defect.values,
                resid):
        assert np.isfinite(arr).all()
    assert float(np.max(np.abs(resid))) <= 1e-10
    assert math.isfinite(r_plus) and math.isfinite(r_minus)
    # a projected side pushes nothing
    assert (pen.m_lower < math.inf or r_plus == 0.0) \
        and (pen.n_upper < math.inf or r_minus == 0.0)


def test_diagnostics_follow_the_scheme_of_the_solve():
    # quadratic-drift with a steeper drift: the outer nodes fail the
    # cell-Peclet condition and take the cross term (cross > 0) from the
    # forward side, the inner ones keep centred differences, so the
    # quadratic-variation channel differs from an all-central one
    base = get_preset("quadratic-drift")
    spec = replace(base, coeffs=replace(base.coeffs,
                                        drift=FnSpec.affine(2.0, 0.05)))
    grid = build_grid(spec, nx=64)
    upwind = StepOperator(spec, grid).upwind
    assert 0 < int(upwind.sum()) < grid.nx - 1
    rep = solve_penalized(spec, grid, PenaltyParams(64.0, 64.0))
    bundle = reconstruct(rep)
    assert float(np.max(np.abs(one_step_residuals(bundle)))) <= 1e-10

    vals, dx, x = rep.field.values, grid.dx, grid.x_nodes[1:-1]
    gp = spec.gparams
    energy = np.empty((grid.nt, grid.nx - 1))
    for k in range(grid.nt):
        t, u = grid.t_nodes[k], vals[k + 1]
        sig = spec.coeffs.sigma(t, x)
        z = sig * (u[2:] - u[:-2]) / (2.0 * dx)
        d2u = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        fwd = (u[2:] - u[1:-1]) / dx  # upwind side for cross >= 0
        du = np.where(upwind, fwd, (u[2:] - u[:-2]) / (2.0 * dx))
        qv = sig * sig * d2u + 2.0 * spec.coeffs.cross(t, x) * du \
            + 2.0 * spec.gen.g(t, x, u[1:-1], z)
        v_star = np.where(qv >= 0.0, gp.vol_high_sq, gp.vol_low_sq)
        zk = bundle.z.values[k, 1:-1]
        energy[k] = zk * zk * v_star * grid.dt
    want = np.cumsum(energy[::-1], axis=0)[::-1]
    worst, tails = bmo_diagnostic(bundle), tail_energies(bundle)
    np.testing.assert_allclose(tails, want, rtol=1e-12, atol=0.0)
    assert worst == pytest.approx(float(np.max(want)), rel=1e-12)
