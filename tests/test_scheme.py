"""Grid construction, the explicit step, and its closure pieces."""

import numpy as np
import pytest

from gobstacle.model import (
    CoefficientSet,
    FnSpec,
    GeneratorSpec,
    GParams,
    ObstaclePair,
    ProblemSpec,
    SpecError,
)
from gobstacle.scheme import (
    Field,
    Grid,
    GridError,
    PenaltyParams,
    StepFailure,
    StepOperator,
    _enforce,
    build_grid,
    explicit_step,
    layer_rhs_parts,
    resolve_penalties,
)

BAND = GParams(1.0, 2.0)
NO_PEN = PenaltyParams()


def _spec(**over):
    base = dict(gparams=BAND, coeffs=CoefficientSet(),
                gen=GeneratorSpec(zero_bound=100.0),
                obstacles=ObstaclePair.none(),
                terminal=FnSpec.polynomial([0.0, 0.0, 1.0], clip=100.0),
                horizon=1.0)
    base.update(over)
    return ProblemSpec(**base)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def test_grid_node_arithmetic():
    g = Grid(x_min=-1.0, x_max=1.0, nx=8, nt=4, horizon=2.0)
    assert g.dx == 0.25 and g.dt == 0.5
    assert g.x_nodes.shape == (9,) and g.t_nodes.shape == (5,)
    assert g.x_nodes[0] == -1.0 and g.x_nodes[-1] == 1.0
    assert g.t_nodes[-1] == 2.0
    with pytest.raises(ValueError):
        g.x_nodes[0] = 99.0  # materialized arrays are read-only


def test_grid_compatibility():
    a = Grid(-1.0, 1.0, 8, 4, 1.0)
    assert a.compatible_with(Grid(-1.0, 1.0, 8, 4, 1.0))
    assert not a.compatible_with(Grid(-1.0, 1.0, 8, 5, 1.0))


def test_time_step_count_frozen_default_grid():
    # dx = 20/400 = 0.05; diffusion budget vol_high_sq*vol_cap = 2;
    # no drift/cross/z-modulus, lipschitz_y = 0, so
    # dt_max = 0.9*0.0025/2 = 1.125e-3 and nt = ceil(1/1.125e-3) = 889.
    g = build_grid(_spec())
    assert (g.nx, g.nt) == (400, 889)
    assert g.dt <= 0.9 * g.dx ** 2 / 2.0


def test_time_step_count_frozen_small_grid():
    # unit band on [0,1] with nx=8: dx = 0.125,
    # dt_max = 0.9*0.015625/1 = 1.40625e-2, nt = ceil(71.1) = 72.
    g = build_grid(_spec(gparams=GParams(1.0, 1.0)),
                   x_min=0.0, x_max=1.0, nx=8)
    assert g.nt == 72


def test_cfl_includes_first_order_and_zero_order_budgets():
    spec = _spec(coeffs=CoefficientSet(drift=FnSpec.constant(0.5)),
                 gen=GeneratorSpec(lipschitz_y=1.0, zero_bound=100.0))
    plain = build_grid(_spec())
    loaded = build_grid(spec)
    assert loaded.nt > plain.nt  # extra terms shrink the step


@pytest.mark.parametrize("kwargs,msg", [
    (dict(x_min=1.0, x_max=1.0), "degenerate"),
    (dict(nx=3), "nx >= 4"),
    (dict(cfl_safety=0.0), "cfl_safety"),
    (dict(cfl_safety=1.5), "cfl_safety"),
])
def test_build_grid_rejections(kwargs, msg):
    with pytest.raises(GridError, match=msg):
        build_grid(_spec(), **kwargs)


def test_build_grid_refuses_misordered_band():
    with pytest.raises(GridError, match="not well ordered"):
        build_grid(_spec(gparams=GParams(2.0, 1.0)))


def test_build_grid_enforces_step_cap():
    with pytest.raises(GridError, match="above the cap"):
        build_grid(_spec(), nx=200_000)


def test_build_grid_refuses_a_field_above_the_memory_cap():
    # nx=4000 needs nt=88,889 on this band: (nt+1)*(nx+1) doubles are
    # 2713 MiB; only the grid is built, the field is never allocated
    with pytest.raises(GridError, match="2713 MiB"):
        build_grid(_spec(), nx=4000)


# ---------------------------------------------------------------------------
# penalty resolution (closed form)
# ---------------------------------------------------------------------------

def _penalty_equation_residual(u, v, low, up, pen, dt):
    # the implicit relation the closed form must invert
    return u - (v + dt * pen.m_lower * max(low - u, 0.0)
                - dt * pen.n_upper * max(u - up, 0.0))


@pytest.mark.parametrize("v", [-2.0, -0.50001, 0.3, 0.50001, 2.0])
def test_resolve_penalties_satisfies_implicit_relation(v):
    pen = PenaltyParams(m_lower=30.0, n_upper=50.0)
    dt = 0.01
    u = float(resolve_penalties(np.array([v]), np.array([-0.5]),
                                np.array([0.5]), pen, dt)[0])
    res = _penalty_equation_residual(u, v, -0.5, 0.5, pen, dt)
    assert abs(res) < 1e-15


def test_resolve_penalties_inside_band_is_identity():
    v = np.array([-0.4, 0.0, 0.49])
    out = resolve_penalties(v, np.full(3, -0.5), np.full(3, 0.5),
                            PenaltyParams(100.0, 100.0), 0.01)
    np.testing.assert_array_equal(out, v)


def test_resolve_penalties_hand_value():
    # v below the obstacle: u = (v + dt*m*low) / (1 + dt*m)
    out = resolve_penalties(np.array([-1.0]), np.array([0.0]), None,
                            PenaltyParams(m_lower=100.0), 0.01)
    assert out[0] == pytest.approx((-1.0 + 0.0) / 2.0, rel=1e-15)


def test_resolve_penalties_respects_activity_flags():
    v = np.array([-1.0, 1.0])
    out = resolve_penalties(v, None, None, PenaltyParams(1e6, 1e6), 0.01)
    np.testing.assert_array_equal(out, v)


def test_zero_intensity_is_a_no_op():
    v = np.array([-1.0, 1.0])
    out = resolve_penalties(v, np.zeros(2), np.zeros(2), PenaltyParams(),
                            0.01)
    np.testing.assert_array_equal(out, v)


def test_large_intensity_pins_to_the_obstacle():
    out = resolve_penalties(np.array([-5.0]), np.array([-0.5]), None,
                            PenaltyParams(m_lower=1e12), 0.01)
    assert out[0] == pytest.approx(-0.5, abs=1e-8)


# ---------------------------------------------------------------------------
# boundary closure
# ---------------------------------------------------------------------------

def _close(interior, low=None, up=None):
    # the step kernel with no penalty or projection: only the closure acts
    return _enforce(np.asarray(interior, dtype=float), low, up, NO_PEN, 0.1,
                    "penalized")


def test_boundary_closure_extrapolates_zero_curvature():
    layer = _close([1.0, 2.0, 4.0])
    np.testing.assert_array_equal(layer[1:-1], [1.0, 2.0, 4.0])
    assert layer[0] == 0.0   # 2*1 - 2
    assert layer[-1] == 6.0  # 2*4 - 2


def test_boundary_closure_is_exact_on_affine_data():
    exact = 3.0 * np.linspace(0.0, 1.0, 5) - 1.0
    np.testing.assert_allclose(_close(exact[1:-1]), exact, rtol=0.0,
                               atol=1e-12)


def test_boundary_closure_clamps_into_active_band():
    layer = _close([1.0, 2.0, 4.0], low=np.full(5, 0.5), up=np.full(5, 5.0))
    assert layer[0] == 0.5   # extrapolation gave 0, lower obstacle wins
    assert layer[-1] == 5.0  # extrapolation gave 6, upper obstacle wins


# ---------------------------------------------------------------------------
# the explicit step
# ---------------------------------------------------------------------------

def test_step_is_exact_on_quadratic_interior():
    spec = _spec()
    g = build_grid(spec, nx=64)
    layer = g.x_nodes ** 2
    out = explicit_step(layer, g.t_nodes[-2], StepOperator(spec, g), NO_PEN)
    # centered second difference of x^2 is exactly 2; envelope(2) = 2
    want = g.x_nodes[1:-1] ** 2 + 2.0 * g.dt
    np.testing.assert_allclose(out[1:-1], want, rtol=0.0, atol=1e-13)


def test_step_boundary_deficit_on_quadratic():
    # the zero-curvature closure drops exactly 2*dx^2 at each wall when
    # the data keeps curvature there
    spec = _spec()
    g = build_grid(spec, nx=64)
    layer = g.x_nodes ** 2
    out = explicit_step(layer, g.t_nodes[-2], StepOperator(spec, g), NO_PEN)
    want_wall = g.x_nodes[0] ** 2 + 2.0 * g.dt - 2.0 * g.dx ** 2
    assert out[0] == pytest.approx(want_wall, rel=1e-12)


def test_step_shifts_with_added_constant():
    spec = _spec()
    g = build_grid(spec, nx=64)
    layer = np.sin(g.x_nodes)
    a = explicit_step(layer, 0.5, StepOperator(spec, g), NO_PEN)
    b = explicit_step(layer + 3.0, 0.5, StepOperator(spec, g), NO_PEN)
    np.testing.assert_allclose(b - a, 3.0, rtol=0.0, atol=1e-12)


def test_step_preserves_order_on_interior():
    spec = _spec()
    g = build_grid(spec, nx=64)
    lo = np.sin(g.x_nodes)
    hi = lo + 0.1 * (1.2 + np.cos(3.0 * g.x_nodes))
    a = explicit_step(lo, 0.5, StepOperator(spec, g), NO_PEN)
    b = explicit_step(hi, 0.5, StepOperator(spec, g), NO_PEN)
    assert float(np.min(b[1:-1] - a[1:-1])) >= -1e-12


def test_step_applies_projection_modes():
    ob = ObstaclePair.both(FnSpec.constant(-0.1), FnSpec.constant(0.1))
    spec = _spec(obstacles=ob, terminal=FnSpec.constant(0.0),
                 gen=GeneratorSpec(zero_bound=100.0))
    g = build_grid(spec, nx=32)
    layer = np.sin(g.x_nodes)  # wanders far outside the band
    out = explicit_step(layer, 0.5, StepOperator(spec, g), NO_PEN,
                        mode="project_both")
    assert float(np.max(out)) <= 0.1 + 1e-15
    assert float(np.min(out)) >= -0.1 - 1e-15
    out_lo = explicit_step(layer, 0.5, StepOperator(spec, g), NO_PEN,
                           mode="project_lower")
    assert float(np.min(out_lo)) >= -0.1 - 1e-15
    assert float(np.max(out_lo)) > 0.1  # upper side untouched


def test_step_rejects_bad_inputs():
    spec = _spec()
    g = build_grid(spec, nx=32)
    layer = g.x_nodes ** 2
    with pytest.raises(SpecError, match="unknown step mode"):
        explicit_step(layer, 0.0, StepOperator(spec, g), NO_PEN, mode="nope")
    with pytest.raises(SpecError, match="shape"):
        explicit_step(layer[:-1], 0.0, StepOperator(spec, g), NO_PEN)


def test_step_flags_non_finite_values():
    spec = _spec()
    g = build_grid(spec, nx=32)
    layer = g.x_nodes ** 2
    layer[5] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(StepFailure, match="non-finite"):
            explicit_step(layer, 0.0, StepOperator(spec, g), NO_PEN)


@pytest.mark.parametrize("drift", [1.0, 2.0, -2.0])
def test_drift_past_the_cell_peclet_bound_is_upwinded(drift):
    # dx = 0.625, so |drift|*dx > vol_low_sq*sigma^2 = 1 only for |drift|
    # = 2.  On u = x^2 the centred difference is 2x and the one-sided
    # difference on the side of the drift's sign is 2x + sign*dx.
    spec = _spec(coeffs=CoefficientSet(drift=FnSpec.constant(drift)))
    g = build_grid(spec, nx=32)
    x = g.x_nodes[1:-1]
    op = StepOperator(spec, g)
    shift = 0.0 if abs(drift) * g.dx <= 1.0 else np.sign(drift) * g.dx
    assert (op.upwind is None) == (shift == 0.0)
    out = explicit_step(g.x_nodes ** 2, 0.5, op, NO_PEN)
    want = x * x + g.dt * (2.0 + drift * (2.0 * x + shift))
    np.testing.assert_allclose(out[1:-1], want, rtol=1e-12)


def test_layer_rhs_parts_split_is_consistent():
    # envelope(qv) + rest must reproduce what the step integrates
    spec = _spec(coeffs=CoefficientSet(drift=FnSpec.constant(0.3)),
                 gen=GeneratorSpec(f=FnSpec.constant(0.1), zero_bound=100.0))
    g = build_grid(spec, nx=32)
    layer = np.cos(g.x_nodes)
    qv, rest = layer_rhs_parts(layer, 0.5, StepOperator(spec, g))
    from gobstacle.gcalculus import g_eval
    out = explicit_step(layer, 0.5, StepOperator(spec, g), NO_PEN)
    want = layer[1:-1] + g.dt * (g_eval(qv, spec.gparams) + rest)
    np.testing.assert_allclose(out[1:-1], want, rtol=0.0, atol=1e-15)


def test_field_rows_are_time_slices():
    g = Grid(0.0, 1.0, 4, 3, 1.0)
    vals = np.zeros((4, 5))
    f = Field(values=vals, grid=g)
    assert f.values.shape == (g.nt + 1, g.nx + 1)


def test_penalty_params_validation():
    with pytest.raises(SpecError):
        PenaltyParams(m_lower=-1.0)
    with pytest.raises(SpecError):
        PenaltyParams(n_upper=float("inf"))
