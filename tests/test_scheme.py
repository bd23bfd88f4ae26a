"""Grid construction, the explicit step, and its closure pieces."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gobstacle import scheme
from gobstacle.model import (
    CoefficientSet,
    FnSpec,
    GeneratorSpec,
    GParams,
    ObstaclePair,
    ProblemSpec,
    SpecError,
)
from gobstacle.presets import get_preset, list_presets
from gobstacle.scheme import (
    Field,
    Grid,
    GridError,
    PenaltyParams,
    StepFailure,
    StepOperator,
    _Obstacles,
    build_grid,
    explicit_step,
)
from gobstacle.solvers import solve_penalized
from node_oracle import NodeDerivs, layer_rhs_parts, pde_rhs, \
    resolve_penalties

BAND = GParams(1.0, 2.0)
NO_PEN = PenaltyParams()


def _spec(**over):
    base = dict(gparams=BAND, coeffs=CoefficientSet(),
                gen=GeneratorSpec(zero_bound=100.0),
                obstacles=ObstaclePair(),
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
    # grids compare as values; the node arrays are not compared
    a = Grid(-1.0, 1.0, 8, 4, 1.0)
    assert a == Grid(-1.0, 1.0, 8, 4, 1.0)
    assert hash(a) == hash(Grid(-1.0, 1.0, 8, 4, 1.0))
    assert a != Grid(-1.0, 1.0, 8, 5, 1.0)
    assert a != Grid(-1.0, 2.0, 8, 4, 1.0)


@pytest.mark.parametrize("nx,nt", [(64, 0), (64, -3), (2, 10), (3, 10)])
def test_a_degenerate_grid_is_refused_when_built(nx, nt):
    # a hand-built grid too coarse to step on is refused before any
    # solve reads its dt or slices its layers
    with pytest.raises(GridError, match=f"got nx={nx}, nt={nt}"):
        Grid(-10.0, 10.0, nx, nt, 1.0)
    small = Grid(-10.0, 10.0, 4, 1, 1.0)
    assert small.x_nodes.shape == (5,) and small.t_nodes.shape == (2,)


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
    (dict(x_max=math.inf), "must be finite"),
    (dict(x_min=-math.inf), "must be finite"),
    (dict(x_min=-math.inf, x_max=math.inf), "must be finite"),
    (dict(x_max=math.nan), "must be finite"),
    (dict(x_min=-1e308, x_max=1e308), "span must be finite"),
    (dict(x_min=0.0, x_max=1e-300), "above the cap 10000000"),  # dx*dx is 0
    (dict(nx=64.0), "nx must be an integer, got 64.0"),
])
def test_build_grid_rejections(kwargs, msg):
    with pytest.raises(GridError, match=msg):
        build_grid(_spec(), **kwargs)


def test_build_grid_refuses_misordered_band():
    # refused when the band is built, before build_grid is reached
    with pytest.raises(SpecError, match="well ordered"):
        build_grid(_spec(gparams=GParams(2.0, 1.0)))


def test_build_grid_enforces_step_cap():
    with pytest.raises(GridError, match="above the cap"):
        build_grid(_spec(), nx=200_000)


@pytest.mark.parametrize("spec", [
    _spec(coeffs=CoefficientSet(drift=FnSpec.affine(1e308, 0.0))),
    _spec(gen=GeneratorSpec(lipschitz_y=1e308)),
    _spec(horizon=1e300),
], ids=["drift-overflows", "lipschitz-y-overflows", "horizon-1e300"])
def test_build_grid_refuses_an_infinite_step_count(spec):
    # an overflowing bound makes dt_max 0; the message names the cap,
    # not the count
    with np.errstate(over="ignore"):
        with pytest.raises(GridError, match="above the cap 10000000;"):
            build_grid(spec, nx=64)


def test_build_grid_refuses_a_field_above_the_memory_cap():
    # nx=4000 needs nt=88,889 on this band: (nt+1)*(nx+1) doubles are
    # 2713 MiB; only the grid is built, the field is never allocated
    with pytest.raises(GridError, match="2713 MiB"):
        build_grid(_spec(), nx=4000)


@pytest.mark.parametrize("name", [p.name for p in list_presets()
                                  if p.kind == "single"])
def test_the_solvers_grid_check_shares_the_bound_of_build_grid(name):
    # build_grid's nt at cfl_safety = 1 is the fewest steps the check
    # accepts
    spec = get_preset(name)
    for nx in (32, 200):
        grid = build_grid(spec, nx=nx, cfl_safety=1.0)
        scheme._check_grid(spec, grid)
        fewer = Grid(x_min=grid.x_min, x_max=grid.x_max, nx=nx,
                     nt=grid.nt - 1, horizon=grid.horizon)
        with pytest.raises(GridError, match=f"needs {grid.nt}\\)"):
            scheme._check_grid(spec, fewer)


def test_build_grid_refuses_an_nx_above_the_cap_before_allocating(
        monkeypatch):
    # every grid has two slices at least: nx = 1e9 would need 15 GiB for
    # them, so neither the node array nor the CFL probe is allocated
    def refuse(*_):
        raise AssertionError("build_grid allocated before its memory check")

    monkeypatch.setattr(scheme.np, "linspace", refuse)
    monkeypatch.setattr(scheme, "_gradient_bound", refuse)
    with pytest.raises(GridError, match=r"solution field needs 15259 MiB "
                       r"\(nt=1, nx=1000000000\), above the 512 MiB"):
        build_grid(_spec(), nx=1_000_000_000)


@pytest.mark.parametrize("x_min,x_max,nx,nt,horizon,msg", [
    (10.0, -10.0, 64, 10, 1.0, r"degenerate domain \[10.0, -10.0\]"),
    (-10.0, -10.0, 64, 10, 1.0, "degenerate domain"),
    (math.nan, 10.0, 64, 10, 1.0, "must be finite"),
    (-10.0, math.nan, 64, 10, 1.0, "must be finite"),
    (-math.inf, 10.0, 64, 10, 1.0, "must be finite"),
    (-10.0, math.inf, 64, 10, 1.0, "must be finite"),
    (-math.inf, math.inf, 64, 10, 1.0, "must be finite"),
    (-1e308, 1e308, 64, 10, 1.0, "span must be finite"),
    (1e308, -1e308, 64, 10, 1.0, "span must be finite"),
    (-10.0, 10.0, 64, 10, math.inf, "horizon must be finite and positive"),
    (-10.0, 10.0, 64, 10, math.nan, "horizon must be finite and positive"),
    (-10.0, 10.0, 64, 10, 0.0, "horizon must be finite and positive"),
    (-10.0, 10.0, 64, 10, -1.0, "horizon must be finite and positive"),
    (-10.0, 10.0, 3, 10, 1.0, "got nx=3, nt=10"),
    (-10.0, 10.0, 64, 0, 1.0, "got nx=64, nt=0"),
    (-10.0, 10.0, 10 ** 9, 1, 1.0, r"\(nt=1, nx=1000000000\), above the 512"),
    (-10.0, 10.0, 64, 10 ** 9, 1.0, r"\(nt=1000000000, nx=64\), above the"),
    (-10.0, 10.0, 64.0, 10, 1.0, "nx must be an integer, got 64.0"),
    (-10.0, 10.0, 64, 10.5, 1.0, "nt must be an integer, got 10.5"),
    (-10.0, 10.0, True, 10, 1.0, "nx must be an integer, got True"),
    (-10.0, 10.0, 64, np.True_, 1.0, "nt must be an integer, got "),
    (-10.0, 10.0, "64", 10, 1.0, "nx must be an integer, got '64'"),
    # as numpy int64s, (nt+1)*(nx+1)*8 would wrap to below the cap
    (-10.0, 10.0, np.int64(2 ** 33), np.int64(3 * 2 ** 27), 1.0,
     r"\(nt=402653184, nx=8589934592\), above the 512"),
], ids=["reversed", "degenerate", "nan-min", "nan-max", "inf-min", "inf-max",
        "inf-both", "span-overflows", "reversed-span-overflows",
        "horizon-inf", "horizon-nan", "horizon-0", "horizon-negative",
        "nx-3", "nt-0", "nx-1e9", "nt-1e9", "nx-float", "nt-fractional",
        "nx-bool", "nt-numpy-bool", "nx-string", "numpy-sizes-overflow"])
def test_a_hand_built_grid_refuses_itself_before_allocating(
        monkeypatch, x_min, x_max, nx, nt, horizon, msg):
    # every refusal comes from Grid itself, before a node array exists
    # (a broken gate fails here instead of allocating gigabytes) and
    # with no numpy warning (pytest turns one into an error)
    def refuse(*_):
        raise AssertionError("Grid allocated before its checks")

    monkeypatch.setattr(scheme.np, "linspace", refuse)
    with pytest.raises(GridError, match=msg):
        Grid(x_min, x_max, nx, nt, horizon)


def test_a_grid_takes_numpy_integer_sizes_as_python_ints():
    grid = Grid(-10.0, 10.0, np.int64(64), np.int32(10), 1.0)
    assert (type(grid.nx), type(grid.nt)) == (int, int)
    assert grid == Grid(-10.0, 10.0, 64, 10, 1.0)


def test_a_reversed_domain_never_reaches_a_solve():
    # dx < 0 would make every cell-Peclet excess negative, so the drift
    # 8x of this problem would never upwind: the solve differed by 1.39
    # from its mirror on [-10, 10]
    spec = get_preset("double-active")
    spec = replace(spec, coeffs=replace(spec.coeffs,
                                        drift=FnSpec.affine(8.0, 0.0)))
    solve_penalized(spec, build_grid(spec, nx=48), PenaltyParams(64.0, 64.0))
    with pytest.raises(GridError, match=r"degenerate domain \[10, -10\]"):
        solve_penalized(spec, Grid(10, -10, 48, 227, 1.0),
                        PenaltyParams(64.0, 64.0))


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
    v = np.asarray(interior, dtype=float)
    layer = np.empty(v.size + 2)
    for call in _Obstacles(low, up, scheme._penalty_rows((NO_PEN,)), 0.1,
                           v.shape).calls(v, layer):
        call()
    return layer


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


def test_step_projects_at_infinite_intensity():
    ob = ObstaclePair(FnSpec.constant(-0.1), FnSpec.constant(0.1))
    spec = _spec(obstacles=ob, terminal=FnSpec.constant(0.0),
                 gen=GeneratorSpec(zero_bound=100.0))
    g = build_grid(spec, nx=32)
    layer = np.sin(g.x_nodes)  # wanders far outside the band
    out = explicit_step(layer, 0.5, StepOperator(spec, g),
                        PenaltyParams(math.inf, math.inf))
    assert float(np.max(out)) <= 0.1 + 1e-15
    assert float(np.min(out)) >= -0.1 - 1e-15
    out_lo = explicit_step(layer, 0.5, StepOperator(spec, g),
                           PenaltyParams(math.inf, 0.0))
    assert float(np.min(out_lo)) >= -0.1 - 1e-15
    assert float(np.max(out_lo)) > 0.1  # upper side untouched


@pytest.mark.parametrize("f,adds", [(-0.0, True), (0.0, False)])
def test_the_envelope_add_of_zero_stays_where_rest_may_be_negative_zero(
        f, adds):
    # dx = 1 and a unit sigma: at node 4, -0 with a right neighbour of
    # -5e-324, qv = -5e-324, (0.5*low)*qv rounds to -0 and the envelope's
    # max is -0.  Its add of 0.0 makes that +0, and so does the add of
    # rest unless rest is -0 too: with f == -0 the kernel must keep the
    # add for the node to step to +0, with f == +0 it may drop it
    spec = _spec(gen=GeneratorSpec(f=FnSpec.constant(f), zero_bound=100.0))
    g = build_grid(spec, x_min=-4.0, x_max=4.0, nx=8)
    assert g.dx == 1.0
    layer = np.zeros(g.nx + 1)
    layer[4], layer[5] = -0.0, -5e-324
    t = g.t_nodes[-2]
    op = StepOperator(spec, g)
    out = explicit_step(layer, t, op, NO_PEN)
    u, right, left = layer[1:-1], layer[2:], layer[:-2]
    d = NodeDerivs(u=u, du=(right - left) / (2.0 * g.dx),
                   d2u=((right - 2.0 * u) + left) / (g.dx * g.dx),
                   x=g.x_nodes[1:-1], t=t)
    want = u + g.dt * pde_rhs(d, spec)
    assert out[4] == 0.0 and not np.signbit(out[4])
    assert out[1:-1].tobytes() == want.tobytes()
    kernel = scheme._Kernel(op, None, layer.shape)
    # the envelope's four calls, or three, then rest, dt and u
    assert len(kernel._calls("explicit")) == 4 + (4 if adds else 3) + 3


def test_penalty_resolution_is_the_plain_quotient_on_the_nodes_it_pushes():
    rng = np.random.default_rng(3)
    v = rng.normal(size=50)
    low, up = np.full(50, -0.5), np.full(50, 0.5)
    pen, dt = PenaltyParams(30.0, 50.0), 0.01
    a, b = dt * pen.m_lower, dt * pen.n_upper
    want = np.where(v < low, (v + a * low) / (1.0 + a),
                    np.where(v > up, (v + b * up) / (1.0 + b), v))
    assert resolve_penalties(v, low, up, pen, dt).tobytes() == want.tobytes()


def test_step_rejects_bad_inputs():
    spec = _spec()
    g = build_grid(spec, nx=32)
    layer = g.x_nodes ** 2
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
        PenaltyParams(n_upper=float("nan"))
    with pytest.raises(SpecError):
        PenaltyParams(m_lower=-math.inf)
    assert PenaltyParams(math.inf, math.inf).m_lower == math.inf
