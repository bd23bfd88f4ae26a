"""The problem compiled onto the grid (`StepOperator`) against per-step
evaluation: identical fields, violations and reports, bounded function
evaluation counts, t-dependent custom fields, and the per-node oracle."""

import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from gobstacle import cli
from gobstacle.decomposition import bmo_diagnostic, one_step_residuals, \
    reconstruct
from gobstacle.gcalculus import g_eval
from gobstacle.model import CoefficientSet, FnSpec, GeneratorSpec, GParams, \
    ObstaclePair, ProblemSpec, validate
from gobstacle.presets import get_preset, list_presets
from gobstacle.scheme import GridError, PenaltyParams, StepFailure, \
    StepOperator, _Kernel, _penalty_rows, build_grid
from gobstacle.solvers import PenaltySchedule, solve_double_projection, \
    solve_limit, solve_penalized, solve_penalized_batch

from node_oracle import NodeDerivs, all_custom, as_custom, layer_rhs_parts, \
    pde_rhs, qv_rhs, tail_energies

PEN = PenaltyParams(64.0, 64.0)


def _all_specs():
    out = []
    for p in list_presets():
        built = p.build()
        if isinstance(built, tuple):
            out += [(f"{p.name}[{i}]", s) for i, s in enumerate(built)]
        else:
            out.append((p.name, built))
    return out


SPECS = _all_specs()


def _modes(spec):
    ob = spec.obstacles
    modes = ["penalized"]
    if ob.lower_active:
        modes.append("project_lower")
    if ob.lower_active or ob.upper_active:
        modes.append("project_both")
    return modes


def _solve(spec, grid, mode):
    if mode == "penalized":
        return solve_penalized(spec, grid, PEN)
    if mode == "project_lower":
        return solve_penalized(spec, grid, PenaltyParams(math.inf, 64.0))
    return solve_double_projection(spec, grid)


def _steep(spec):
    # the same problem with a drift that fails the cell-Peclet condition
    # on its outer nodes at nx=48, so those take one-sided differences
    return replace(spec, coeffs=replace(spec.coeffs,
                                        drift=FnSpec.affine(2.0, 0.0)))


CASES = [(name, drift, mode) for name, spec in SPECS
         for drift in ("preset", "steep") for mode in _modes(spec)]


@pytest.mark.parametrize("name,drift,mode", CASES)
def test_compiled_solve_equals_per_step_evaluation(name, drift, mode):
    spec = dict(SPECS)[name]
    if drift == "steep":
        spec = _steep(spec)
    grid = build_grid(spec, nx=48)
    upwind = StepOperator(spec, grid).upwind
    assert (upwind is None) == (drift == "preset")
    compiled = _solve(spec, grid, mode)
    per_step = _solve(all_custom(spec), grid, mode)
    assert compiled.field.values.tobytes() == per_step.field.values.tobytes()
    assert compiled.sup_lower_violation == per_step.sup_lower_violation
    assert compiled.sup_upper_violation == per_step.sup_upper_violation


@pytest.mark.parametrize("name", ["double-active", "quadratic-drift"])
def test_compiled_reconstruction_equals_per_step_evaluation(name):
    spec = get_preset(name)
    custom = all_custom(spec)
    grid = build_grid(spec, nx=48)
    report = solve_penalized(spec, grid, PEN)
    a = reconstruct(report)
    b = reconstruct(replace(report, spec=custom))
    for x, y in ((a.z.values, b.z.values), (a.da_plus, b.da_plus),
                 (a.da_minus, b.da_minus),
                 (a.defect.values, b.defect.values),
                 (one_step_residuals(a), one_step_residuals(b)),
                 (tail_energies(a), tail_energies(b))):
        assert x.tobytes() == y.tobytes()
    assert bmo_diagnostic(a) == bmo_diagnostic(b)
    (s,), (t,) = (solve_limit(problem, grid, PenaltySchedule((PEN,)))[1]
                  .stages for problem in (spec, custom))
    assert (s.r_plus, s.r_minus) == (t.r_plus, t.r_minus)


def _plain(f, **over):
    base = dict(gparams=GParams(1.0, 2.0), coeffs=CoefficientSet(),
                gen=GeneratorSpec(f=f, zero_bound=100.0),
                obstacles=ObstaclePair(),
                terminal=FnSpec.polynomial([0.0, 0.0, -0.05], clip=10.0))
    base.update(over)
    return ProblemSpec(**base)


def test_t_dependent_custom_driver_is_evaluated_at_each_step():
    def drive(t):
        return np.cos(2.0 * np.pi * t)

    spec = _plain(FnSpec.custom(lambda t, x, y, z: drive(t)))
    grid = build_grid(spec, nx=32)
    got = solve_penalized(spec, grid, PenaltyParams()).field.values

    # the same scheme written out by hand, one step at a time
    dx, dt = grid.dx, grid.dt
    want = np.empty_like(got)
    want[-1] = spec.terminal(spec.horizon, grid.x_nodes)
    for k in range(grid.nt - 1, -1, -1):
        nl = want[k + 1]
        u = nl[1:-1]
        du = (nl[2:] - nl[:-2]) / (2.0 * dx)
        d2u = (nl[2:] - 2.0 * u + nl[:-2]) / (dx * dx)
        qv = 1.0 * d2u + 0.0 * du + 0.0
        rest = 0.0 * du + drive(grid.t_nodes[k])
        v = u + dt * (g_eval(qv, spec.gparams) + rest)
        want[k, 1:-1] = v
        want[k, 0] = 2.0 * v[0] - v[1]
        want[k, -1] = 2.0 * v[-1] - v[-2]
    assert got.tobytes() == want.tobytes()

    frozen = solve_penalized(_plain(FnSpec.constant(drive(0.0))), grid,
                             PenaltyParams()).field.values
    assert not np.array_equal(got[0], frozen[0])


def _count_fn_evals(monkeypatch):
    calls = [0]
    original = FnSpec.__call__

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FnSpec, "__call__", counting)
    return calls


def _solve_counts(monkeypatch, name):
    spec = get_preset(name)
    grids = [build_grid(spec, nx=nx) for nx in (64, 128)]
    calls = _count_fn_evals(monkeypatch)
    counts = []
    for grid in grids:
        calls[0] = 0
        solve_penalized(spec, grid, PEN)
        counts.append(calls[0])
    return counts, [g.nt for g in grids]


SINGLE = [name for name, spec in SPECS if "[" not in name]

# numpy calls of one step at PEN (the explicit values, then the obstacle
# enforcement; the row copy into the field is not counted): 13 without
# obstacles (the envelope's add of 0.0 is dropped, as every preset's f
# row is compiled and holds no -0), 4 more per penalized side (test,
# add, masked divide) and a wall clamp; a quadratic_in_z driver adds du
# (2), z, its own 4 calls, x2 and the add; quadratic-drift has every term
STEP_CALLS = {"constant-sandwich": 21, "gheat-quadratic": 13,
              "gheat-concave": 13, "upper-active": 17, "lower-active": 17,
              "double-active": 21, "quadratic-gen-colehopf": 22,
              "quadratic-drift": 35}


@pytest.mark.parametrize("name", SINGLE)
def test_catalog_fields_are_evaluated_once_per_solve(name, monkeypatch):
    # a quadratic_in_z driver too: the step runs its compiled calls
    (c64, c128), (nt64, nt128) = _solve_counts(monkeypatch, name)
    assert nt128 > nt64
    assert c64 == c128


@pytest.mark.parametrize("name", SINGLE)
def test_a_step_is_a_sequence_bound_once_per_solve(name, monkeypatch):
    spec = get_preset(name)
    op = StepOperator(spec, build_grid(spec, nx=64))
    kernel = _Kernel(op, _penalty_rows((PEN,)), (op.grid.nx + 1,))
    steps = kernel._calls("explicit") + kernel._calls("apply")
    assert len(steps) == STEP_CALLS[name]
    assert kernel._calls("step") == steps  # what _advance runs
    compiled = [0]
    real = _Kernel._compile

    def compile_(self, stage):
        compiled[0] += 1
        return real(self, stage)

    monkeypatch.setattr(_Kernel, "_compile", compile_)
    for nx in (64, 128):
        compiled[0] = 0
        solve_penalized(spec, build_grid(spec, nx=nx), PEN)
        assert compiled[0] == 4  # explicit and apply, from either layer


def _integer_slopes(grid):
    # integer multiples of a power of two: the second difference is
    # exactly 0, so qv is the driver row 2*g; at 2**600, gamma*z*z
    # overflows to inf and the clip bounds it
    steps = np.array([[0.0], [2.0 ** -3], [-3.0], [2.0 ** 600],
                      [-(2.0 ** 600)]])
    return steps * np.arange(grid.nx + 1)


def test_compiled_quadratic_driver_is_the_catalog_call_bit_for_bit():
    spec = get_preset("quadratic-gen-colehopf")
    grid = build_grid(spec, nx=32)
    op = StepOperator(spec, grid)
    assert op.g2 is None and {"sig2", "cross2"} <= op.absent
    gen, x, t = spec.gen, grid.x_nodes[1:-1], 0.3
    layers = _integer_slopes(grid)
    with np.errstate(over="ignore"):
        qv, _ = layer_rhs_parts(layers, t, op)
        du = (layers[:, 2:] - layers[:, :-2]) / (2.0 * grid.dx)
        want = 2.0 * gen.g(t, x, layers[:, 1:-1], op.sigma[1:-1] * du)
    assert qv.tobytes() == want.tobytes()
    assert (qv[-2:] == 2.0 * gen.g.clip).all()


@pytest.mark.parametrize("name", ["quadratic-gen-colehopf",
                                  "quadratic-drift"])
def test_compiled_quadratic_driver_equals_the_per_step_call(name):
    # NaN and overflowing layers give the bits of the driver called per
    # step, as a custom one is; quadratic-drift has sigma != 1.  Only the
    # drivers are custom: a custom coefficient is a present term, whose
    # zero times an overflowing du is NaN
    spec = get_preset(name)
    grid = build_grid(spec, nx=32)
    nan = np.sin(grid.x_nodes) + np.zeros((3, 1))
    nan[0, 5] = nan[1, 0] = nan[2, [9, 10]] = np.nan
    layers = np.concatenate([_integer_slopes(grid), nan])
    compiled = StepOperator(spec, grid)
    gen = spec.gen
    custom = StepOperator(replace(spec, gen=replace(
        gen, f=as_custom(gen.f), g=as_custom(gen.g))), grid)
    with np.errstate(over="ignore", invalid="ignore"):
        got = layer_rhs_parts(layers, 0.3, compiled)
        ref = layer_rhs_parts(layers, 0.3, custom)
    assert np.isnan(got[0]).any()
    for a, b in zip(got, ref):
        assert a.tobytes() == b.tobytes()


def test_custom_driver_is_called_once_per_step_at_its_t():
    seen = []

    def drive(t, x, y, z):
        seen.append(t)
        return 0.0 * np.asarray(x) + np.cos(2.0 * np.pi * t)

    spec = _plain(FnSpec.custom(drive))
    grid = build_grid(spec, nx=32)
    steps = list(grid.t_nodes[grid.nt - 1::-1])
    solve_penalized(spec, grid, PenaltyParams())
    assert seen == steps
    seen.clear()
    solve_penalized_batch(spec, grid, (PenaltyParams(), PEN))
    assert seen == steps


# ---------------------------------------------------------------------------
# validation scans one probe slice unless a field is custom
# ---------------------------------------------------------------------------

def _step_terminal(drift):
    # a 0-to-1 step of width 0.05 carried by the given drift
    return _plain(FnSpec.constant(0.0), coeffs=CoefficientSet(drift=drift),
                  terminal=FnSpec.tabulated([-0.025, 0.025], [0.0, 1.0]))


def _probe_cases():
    cases = [(name, spec, build_grid(spec, nx=64)) for name, spec in SPECS]
    drift60 = _step_terminal(FnSpec.constant(60.0))
    cases.append(("drift-60", drift60, build_grid(drift60, nx=400)))
    crossed = _plain(FnSpec.constant(0.0), obstacles=ObstaclePair(
        FnSpec.affine(0.5, 0.0), FnSpec.constant(1.0), level_bound=10.0),
        terminal=FnSpec.constant(0.0))
    cases.append(("obstacle-order", crossed, build_grid(crossed, nx=64)))
    return cases


@pytest.mark.parametrize("name,spec,probe", _probe_cases(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_one_slice_validation_equals_the_full_scan(name, spec, probe):
    one = validate(spec, probe)
    full = validate(all_custom(spec), probe)  # custom: every slice walked
    assert one == full
    assert str(one) == str(full)
    if name == "drift-60":
        assert [v.constraint for v in one.violations] == ["cell-peclet"]
    if name == "obstacle-order":
        assert "obstacle-order" in {v.constraint for v in one.violations}


def test_custom_obstacles_crossing_late_are_flagged():
    late = FnSpec.custom(lambda t, x, y, z: np.where(
        (t > 0.7) & (t < 0.9), 0.5, -0.5) + 0.0 * np.asarray(x))
    spec = _plain(FnSpec.constant(0.0), obstacles=ObstaclePair(
        late, FnSpec.constant(0.25), level_bound=1.0),
        terminal=FnSpec.constant(0.0))
    rep = validate(spec, build_grid(spec, nx=64))
    hits = [v for v in rep.violations if v.constraint == "obstacle-order"]
    assert len(hits) == 1
    t = float(re.match(r"\(t=([^,]+),", hits[0].where).group(1))
    assert 0.7 < t < 0.9
    assert hits[0].worst == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# step failures name where they happened
# ---------------------------------------------------------------------------

def _blow_up_halfway():
    # u grows like 40*(T - t) from a zero terminal; the driver turns
    # non-finite once |u| reaches 20, at about t = T/2
    blow = FnSpec.custom(lambda t, x, y, z: np.where(np.abs(y) < 20.0,
                                                     40.0, np.nan))
    return _plain(blow, terminal=FnSpec.constant(0.0))


def test_step_failure_names_the_step_and_the_last_finite_sup():
    spec = _blow_up_halfway()
    grid = build_grid(spec, nx=64)
    with np.errstate(invalid="ignore"):
        with pytest.raises(StepFailure) as info:
            solve_penalized(spec, grid, PenaltyParams())
    msg = str(info.value)
    k, nt = map(int, re.search(r"step to slice (\d+) of (\d+)", msg).groups())
    assert nt == grid.nt
    assert abs(k - nt / 2) <= 2
    sup = float(re.search(r"sup\|u\| = (\S+)$", msg).group(1))
    assert 20.0 <= sup < 20.0 + 40.0 * grid.dt + 1e-9
    assert "non-finite value" in msg


def test_a_non_finite_terminal_fails_the_first_step():
    # the terminal row is data: the step to slice nt-1 is the first to
    # carry its NaN, and the message reads the terminal as the last layer
    nan_core = FnSpec.custom(lambda t, x, y, z: np.where(
        np.abs(np.asarray(x)) < 0.1, np.nan, 0.0))
    spec = replace(get_preset("double-active"), terminal=nan_core)
    grid = build_grid(spec, nx=48)
    assert grid.nt == 13
    for solve in (lambda: solve_penalized(spec, grid, PEN),
                  lambda: solve_limit(spec, grid)):
        with pytest.raises(StepFailure, match="step to slice 12 of 13: "
                           "non-finite value at t="):
            solve()


def test_cli_step_failure_still_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "get_preset", lambda name: _blow_up_halfway())
    path = tmp_path / "cfg.json"
    path.write_text('{"preset": "constant-sandwich", "grid": {"nx": 64}}')
    with np.errstate(invalid="ignore"):
        assert cli.main(["solve", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert "solver failure: step to slice" in err and "sup|u|" in err


# ---------------------------------------------------------------------------
# the compiled right-hand side against the per-node oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", [name for name, _ in SPECS])
def test_compiled_rhs_matches_the_node_oracle(name):
    spec = dict(SPECS)[name]
    grid = build_grid(spec, nx=32)
    rng = np.random.default_rng(7)
    x, dx, t = grid.x_nodes, grid.dx, 0.3
    op = StepOperator(spec, grid)
    for _ in range(3):
        layer = 0.05 * x * x + rng.normal(scale=0.5, size=x.size)
        qv, rest = layer_rhs_parts(layer, t, op)
        rhs = g_eval(qv, spec.gparams) + rest
        for i in range(1, grid.nx):
            d = NodeDerivs(u=layer[i],
                           du=(layer[i + 1] - layer[i - 1]) / (2.0 * dx),
                           d2u=(layer[i + 1] - 2.0 * layer[i]
                                + layer[i - 1]) / (dx * dx),
                           x=x[i], t=t)
            assert qv[i - 1] == qv_rhs(d, spec)
            assert rhs[i - 1] == pytest.approx(pde_rhs(d, spec), rel=1e-13,
                                               abs=1e-12)


# ---------------------------------------------------------------------------
# central or upwind differences, chosen per node
# ---------------------------------------------------------------------------

# sha256 of the drift-60 field with one-sided differences at every node
DRIFT60_UPWIND_SHA256 = \
    "9fc133f29047bf0bec9de8d94b41ccc4bde872936bb217cb02d6464da6da586a"


def _in_unit_range(vals):
    return float(np.min(vals)) >= -1e-10 and float(np.max(vals)) <= 1 + 1e-10


def test_presets_stay_central():
    for _, spec in SPECS:
        for nx in (64, 200, 400, 800):
            assert StepOperator(spec, build_grid(spec, nx=nx)).upwind is None


def test_drift_60_probe_upwinds_every_node():
    spec = _step_terminal(FnSpec.constant(60.0))
    grid = build_grid(spec, nx=400)
    assert int(StepOperator(spec, grid).upwind.sum()) == 399
    vals = solve_penalized(spec, grid, PenaltyParams()).field.values
    assert hashlib.sha256(vals.tobytes()).hexdigest() == DRIFT60_UPWIND_SHA256
    assert _in_unit_range(vals)


def test_affine_drift_upwinds_only_where_the_rows_ask():
    # |8x|*dx > 1 exactly where |x| > 2.5: 149 nodes on each side
    spec = _step_terminal(FnSpec.affine(8.0, 0.0))
    grid = build_grid(spec, nx=400)
    op = StepOperator(spec, grid)
    assert int(op.upwind.sum()) == 298
    np.testing.assert_array_equal(op.upwind,
                                  np.abs(grid.x_nodes[1:-1]) > 2.5 + 1e-9)
    report = solve_penalized(spec, grid, PenaltyParams())
    field = report.field
    custom = all_custom(spec)
    per_step = solve_penalized(custom, grid, PenaltyParams()).field
    assert field.values.tobytes() == per_step.values.tobytes()
    assert _in_unit_range(field.values)
    bundle = reconstruct(report)
    assert float(np.max(bundle.defect.values[:-1, 1:-1])) <= 1e-10
    assert float(np.max(np.abs(one_step_residuals(bundle)))) <= 1e-10
    other = reconstruct(replace(report, spec=custom))
    assert bundle.defect.values.tobytes() == other.defect.values.tobytes()


def test_steep_affine_drift_stays_in_the_terminal_range():
    # a centred step raised StepFailure here
    spec = _step_terminal(FnSpec.affine(30.0, 0.0))
    grid = build_grid(spec, nx=400)
    assert _in_unit_range(
        solve_penalized(spec, grid, PenaltyParams()).field.values)


def test_custom_drift_is_bounded_on_every_step():
    # drift 60 only for 0.6 < t < 0.9, between the catalog probe times
    window = FnSpec.custom(lambda t, x, y, z: np.where(
        (t > 0.6) & (t < 0.9), 60.0, 0.0) + 0.0 * np.asarray(x))
    spec = _step_terminal(window)
    grid = build_grid(spec, nx=200)
    steady = build_grid(_step_terminal(FnSpec.constant(60.0)), nx=200)
    assert grid.nt >= steady.nt == 889
    vals = solve_penalized(spec, grid, PenaltyParams()).field.values
    assert np.isfinite(vals).all()
    # the solvers' grid check probes the custom drift on every step too:
    # the grid of the steady drift 0 misses the window
    flat = build_grid(_step_terminal(FnSpec.constant(0.0)), nx=200)
    with pytest.raises(GridError, match="above the problem's CFL bound"):
        solve_penalized(spec, flat, PenaltyParams())
    # the drift carries the step onto the left wall, where the non-convex
    # boundary closure may dip below 0 (by 2.8e-7 here); interior nodes
    # keep the terminal range
    assert _in_unit_range(vals[:, 1:-1])


# ---------------------------------------------------------------------------
# the kernel skips the terms a problem does not have
# ---------------------------------------------------------------------------

ALL_TERMS = frozenset(("sig2", "cross2", "drift", "g2"))

LEAN_CASES = SPECS + [
    ("affine-drift-upwind", _step_terminal(FnSpec.affine(8.0, 0.0))),
    ("custom-t-driver",
     _plain(FnSpec.custom(lambda t, x, y, z: np.cos(2.0 * np.pi * t)))),
]


def _every_term_present(monkeypatch):
    """Compile every operator with no term recorded absent, so the
    kernel runs each ufunc of the full step."""
    init = StepOperator.__init__

    def present(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.absent = frozenset()

    monkeypatch.setattr(StepOperator, "__init__", present)


def test_absent_terms_are_the_rows_that_add_or_scale_by_nothing():
    absent = {name: StepOperator(spec, build_grid(spec, nx=64)).absent
              for name, spec in LEAN_CASES}
    assert absent.pop("quadratic-drift") == frozenset()
    assert absent.pop("quadratic-gen-colehopf") == ALL_TERMS - {"g2"}
    # one-sided nodes read du through drift and cross, zero or not
    assert absent.pop("affine-drift-upwind") == {"sig2", "g2"}
    assert absent.pop("comparison-pair[0]") == ALL_TERMS - {"g2"}  # g=0.05
    # the rest, the custom f driver included, compile g2 to zeros
    assert all(terms == ALL_TERMS for terms in absent.values())


@pytest.mark.parametrize("name", [name for name, _ in LEAN_CASES])
def test_skipping_absent_terms_changes_no_bit(name, monkeypatch):
    spec = dict(LEAN_CASES)[name]
    grid = build_grid(spec, nx=64)
    pens = (PEN, PenaltyParams(math.inf, 64.0),
            PenaltyParams(4.0, math.inf))

    def outputs():
        single = solve_penalized(spec, grid, PEN)
        batch = solve_penalized_batch(spec, grid, pens)
        out = [single.field.values] + [r.field.values for r in batch]
        for report in (single, batch[1]):
            bundle = reconstruct(report)
            out += [bundle.z.values, bundle.da_plus, bundle.da_minus,
                    bundle.defect.values, bundle.scenario_high,
                    one_step_residuals(bundle)]
        return out

    lean = outputs()
    _every_term_present(monkeypatch)
    assert StepOperator(spec, grid).absent == frozenset()
    full = outputs()
    assert len(lean) == len(full) == 16
    for a, b in zip(lean, full):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["double-active", "quadratic-drift",
                                  "quadratic-gen-colehopf",
                                  "custom-t-driver"])
def test_layer_rhs_parts_returns_arrays_of_its_own(name):
    spec = dict(LEAN_CASES)[name]
    grid = build_grid(spec, nx=32)
    op = StepOperator(spec, grid)
    names = ("sigma", "sig2", "cross2", "drift", "g2", "f", "lower",
             "upper")
    rows = {k: getattr(op, k).copy() for k in names
            if getattr(op, k) is not None}
    layers = 0.05 * grid.x_nodes ** 2 + np.array([[0.0], [0.5]])
    first = layer_rhs_parts(layers, 0.3, op)
    want = [a.copy() for a in first]
    for a in first:
        assert a.shape == (2, grid.nx - 1)
        a[...] = np.nan
    for k, row in rows.items():
        assert getattr(op, k).tobytes() == row.tobytes()
    second = layer_rhs_parts(layers, 0.3, op)
    for a, b in zip(second, want):
        assert a.tobytes() == b.tobytes()
