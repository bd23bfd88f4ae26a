"""Process reconstruction: gradient, compensators, scenario defects."""

from dataclasses import replace

import numpy as np
import pytest

from gobstacle.decomposition import (
    bmo_diagnostic,
    one_step_residuals,
    reconstruct,
    skorohod_residuals,
)
from gobstacle.diagnostics import inner_mask
from gobstacle.model import FnSpec, SpecError
from gobstacle.presets import get_preset
from gobstacle.scheme import PenaltyParams, StepOperator, build_grid
from gobstacle.solvers import (
    solve_double_projection,
    solve_lower_reflected_upper_penalized,
    solve_penalized,
)


@pytest.fixture(scope="module")
def mode_runs():
    """One solved-and-reconstructed bundle per persisted solver mode."""
    out = []
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)

    pen = PenaltyParams(64.0, 64.0)
    rep = solve_penalized(spec, grid, pen)
    out.append((spec, rep, pen, "penalized"))

    pen = PenaltyParams(0.0, 64.0)
    rep = solve_lower_reflected_upper_penalized(spec, grid, 64.0)
    out.append((spec, rep, pen, "project_lower"))

    pen = PenaltyParams()
    rep = solve_double_projection(spec, grid)
    out.append((spec, rep, pen, "project_both"))

    free = get_preset("gheat-quadratic")
    gfree = build_grid(free, nx=64)
    pen = PenaltyParams()
    rep = solve_penalized(free, gfree, pen)
    out.append((free, rep, pen, "penalized"))
    return out


def test_gradient_process_tracks_the_space_derivative():
    # terminal x^2 keeps du = 2x exactly under centered differences; the
    # boundary closure contaminates only a thin layer near the walls, so
    # compare on the inner half-domain
    spec = get_preset("gheat-quadratic")
    grid = build_grid(spec, nx=200)
    rep = solve_penalized(spec, grid, PenaltyParams())
    bundle = reconstruct(rep.field, spec, PenaltyParams())
    m = inner_mask(grid)
    err = np.max(np.abs(bundle.z.values[0, m] - 2.0 * grid.x_nodes[m]))
    assert err <= 1e-3


def test_gradient_uses_one_sided_differences_at_walls():
    spec = get_preset("gheat-quadratic")
    grid = build_grid(spec, nx=64)
    rep = solve_penalized(spec, grid, PenaltyParams())
    bundle = reconstruct(rep.field, spec, PenaltyParams())
    vals = rep.field.values
    want_left = (vals[0, 1] - vals[0, 0]) / grid.dx
    want_right = (vals[0, -1] - vals[0, -2]) / grid.dx
    assert bundle.z.values[0, 0] == want_left
    assert bundle.z.values[0, -1] == want_right


def test_one_step_identity_holds_to_rounding(mode_runs):
    for spec, rep, pen, mode in mode_runs:
        bundle = reconstruct(rep.field, spec, pen, mode=mode)
        res = one_step_residuals(bundle, spec)
        assert float(np.max(np.abs(res))) <= 1e-10, mode


def test_compensators_are_nonnegative_and_disjoint(mode_runs):
    for spec, rep, pen, mode in mode_runs:
        bundle = reconstruct(rep.field, spec, pen, mode=mode)
        assert float(bundle.da_plus.min()) >= 0.0
        assert float(bundle.da_minus.min()) >= 0.0
        assert float(np.max(bundle.da_plus * bundle.da_minus)) == 0.0


def test_no_obstacles_means_no_increments():
    spec = get_preset("gheat-quadratic")
    grid = build_grid(spec, nx=64)
    rep = solve_penalized(spec, grid, PenaltyParams())
    bundle = reconstruct(rep.field, spec, PenaltyParams())
    assert float(np.max(bundle.da_plus)) == 0.0
    assert float(np.max(bundle.da_minus)) == 0.0


def test_projection_increments_act_only_on_contact():
    # with exact projection, a push-up increment can exist only at nodes
    # sitting exactly on the lower obstacle
    spec = get_preset("lower-active")
    grid = build_grid(spec, nx=64)
    rep = solve_double_projection(spec, grid)
    bundle = reconstruct(rep.field, spec, PenaltyParams(),
                         mode="project_both")
    hit = bundle.da_plus[:-1, 1:-1] > 0.0
    assert hit.any()  # the preset is built to reach the barrier
    low = -1.6
    gaps = np.abs(rep.field.values[:-1, 1:-1][hit] - low)
    assert float(np.max(gaps)) == 0.0


def test_terminal_row_carries_no_increments(mode_runs):
    for spec, rep, pen, mode in mode_runs:
        bundle = reconstruct(rep.field, spec, pen, mode=mode)
        assert float(np.max(np.abs(bundle.da_plus[-1]))) == 0.0
        assert float(np.max(np.abs(bundle.da_minus[-1]))) == 0.0
        assert float(np.max(np.abs(bundle.defect.values[-1]))) == 0.0


# ---------------------------------------------------------------------------
# contact residuals
# ---------------------------------------------------------------------------

def test_skorohod_residuals_shrink_with_intensity():
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    seq = []
    for n in (4.0, 16.0, 64.0, 256.0):
        pen = PenaltyParams(n, n)
        rep = solve_penalized(spec, grid, pen)
        seq.append(skorohod_residuals(reconstruct(rep.field, spec, pen),
                                      spec))
    r_plus = [a for a, _ in seq]
    r_minus = [b for _, b in seq]
    assert all(b < a for a, b in zip(r_plus, r_plus[1:]))
    assert all(b < a for a, b in zip(r_minus, r_minus[1:]))
    assert r_plus[-1] < 1e-3 and r_minus[-1] < 1e-3


def test_residuals_are_zero_without_obstacles():
    spec = get_preset("gheat-quadratic")
    grid = build_grid(spec, nx=64)
    rep = solve_penalized(spec, grid, PenaltyParams())
    assert skorohod_residuals(reconstruct(rep.field, spec, PenaltyParams()),
                              spec) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# scenario defect scan
# ---------------------------------------------------------------------------

def _worst_defect(field, spec, pen, **kwargs):
    # worst fixed-scenario defect over interior nodes and solved slices
    bundle = reconstruct(field, spec, pen, **kwargs)
    return float(np.max(bundle.defect.values[:-1, 1:-1]))


def test_no_scenario_beats_the_envelope_step(mode_runs):
    for spec, rep, pen, mode in mode_runs:
        assert _worst_defect(rep.field, spec, pen, mode=mode) <= 1e-10, mode


def test_defect_scan_accepts_a_custom_scenario_grid():
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    pen = PenaltyParams(64.0, 64.0)
    rep = solve_penalized(spec, grid, pen)
    d = _worst_defect(rep.field, spec, pen, v_grid=[1.0, 1.3, 1.7, 2.0])
    assert d <= 1e-10


def test_scenarios_outside_the_band_are_refused():
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    pen = PenaltyParams(64.0, 64.0)
    rep = solve_penalized(spec, grid, pen)
    with pytest.raises(SpecError, match="inside the declared band"):
        reconstruct(rep.field, spec, pen, v_grid=[0.5])
    with pytest.raises(SpecError, match="inside the declared band"):
        reconstruct(rep.field, spec, pen, v_grid=[1.0, 2.5])
    with pytest.raises(SpecError, match="empty"):
        reconstruct(rep.field, spec, pen, v_grid=[])


def test_interior_scenario_defect_is_strictly_behind():
    # where the quadratic-variation channel is signed, a mid-band
    # scenario must lose to the bang-bang extreme; it can only tie (at
    # zero) in the thin wall layer where the channel changes sign
    spec = get_preset("gheat-quadratic")
    grid = build_grid(spec, nx=64)
    rep = solve_penalized(spec, grid, PenaltyParams())
    bundle = reconstruct(rep.field, spec, PenaltyParams(), v_grid=[1.5])
    assert float(np.max(bundle.defect.values[:-1, 1:-1])) <= 0.0
    # dead center: qv = 2 exactly, so the 1.5-scenario trails the
    # envelope by dt*(0.5*1.5*2 - 2) = -0.5*dt
    i0 = grid.nx // 2
    assert bundle.defect.values[0, i0] == pytest.approx(-0.5 * grid.dt,
                                                        rel=1e-10)


# ---------------------------------------------------------------------------
# gradient tail energy
# ---------------------------------------------------------------------------

def test_tail_energy_profile_shape_and_monotonicity():
    spec = get_preset("lower-active")
    grid = build_grid(spec, nx=64)
    rep = solve_double_projection(spec, grid)
    bundle = reconstruct(rep.field, spec, PenaltyParams(),
                         mode="project_both")
    worst, tails = bmo_diagnostic(bundle, spec, return_profile=True)
    assert worst >= 0.0
    assert tails.shape == (grid.nt, grid.nx - 1)
    assert float(np.max(tails[0])) == worst  # tails peak at the start
    assert np.all(tails[:-1] >= tails[1:] - 1e-15)
    assert bmo_diagnostic(bundle, spec) == worst


def test_reconstruct_refuses_a_mismatched_field():
    # a penalized field replayed as a projection solve does not reproduce
    # its stored layers; the difference must not land in dA+/dA-
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    pen = PenaltyParams(64.0, 64.0)
    rep = solve_penalized(spec, grid, pen)
    with pytest.raises(SpecError, match="does not reproduce"):
        reconstruct(rep.field, spec, pen, mode="project_both")
    with pytest.raises(SpecError, match="does not reproduce"):
        reconstruct(rep.field, spec, PenaltyParams(16.0, 16.0))


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
    pen = PenaltyParams(64.0, 64.0)
    rep = solve_penalized(spec, grid, pen)
    bundle = reconstruct(rep.field, spec, pen)
    assert float(np.max(np.abs(one_step_residuals(bundle, spec)))) <= 1e-10

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
    worst, tails = bmo_diagnostic(bundle, spec, return_profile=True)
    np.testing.assert_allclose(tails, want, rtol=1e-12, atol=0.0)
    assert worst == pytest.approx(float(np.max(want)), rel=1e-12)
