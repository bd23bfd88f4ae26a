"""The problem compiled onto the grid (`StepOperator`) against per-step
evaluation: identical fields, violations and reports, bounded function
evaluation counts, t-dependent custom fields, and the per-node oracle."""

import re

import numpy as np
import pytest

from gobstacle import cli
from gobstacle.decomposition import bmo_diagnostic, one_step_residuals, \
    reconstruct, skorohod_residuals
from gobstacle.gcalculus import g_eval
from gobstacle.model import CoefficientSet, FnSpec, GeneratorSpec, GParams, \
    ObstaclePair, ProblemSpec, validate
from gobstacle.presets import get_preset, list_presets
from gobstacle.scheme import PenaltyParams, StepFailure, StepOperator, \
    build_grid, layer_rhs_parts
from gobstacle.solvers import solve_double_projection, \
    solve_lower_reflected_upper_penalized, solve_penalized

from node_oracle import NodeDerivs, all_custom, pde_rhs, qv_rhs

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


def _solve(spec, grid, mode, first_order):
    if mode == "penalized":
        return solve_penalized(spec, grid, PEN, first_order)
    if mode == "project_lower":
        return solve_lower_reflected_upper_penalized(spec, grid, 64.0,
                                                     first_order)
    return solve_double_projection(spec, grid, first_order)


CASES = [(name, fo, mode) for name, spec in SPECS
         for fo in ("central", "upwind") for mode in _modes(spec)]


@pytest.mark.parametrize("name,first_order,mode", CASES)
def test_compiled_solve_equals_per_step_evaluation(name, first_order, mode):
    spec = dict(SPECS)[name]
    grid = build_grid(spec, nx=48)
    compiled = _solve(spec, grid, mode, first_order)
    per_step = _solve(all_custom(spec), grid, mode, first_order)
    assert compiled.field.values.tobytes() == per_step.field.values.tobytes()
    assert compiled.sup_lower_violation == per_step.sup_lower_violation
    assert compiled.sup_upper_violation == per_step.sup_upper_violation


@pytest.mark.parametrize("name", ["double-active", "quadratic-drift"])
def test_compiled_reconstruction_equals_per_step_evaluation(name):
    spec = get_preset(name)
    custom = all_custom(spec)
    grid = build_grid(spec, nx=48)
    field = solve_penalized(spec, grid, PEN).field
    a = reconstruct(field, spec, PEN)
    b = reconstruct(field, custom, PEN)
    for x, y in ((a.z.values, b.z.values), (a.da_plus, b.da_plus),
                 (a.da_minus, b.da_minus),
                 (a.defect.values, b.defect.values),
                 (one_step_residuals(a, spec), one_step_residuals(b, custom)),
                 (bmo_diagnostic(a, spec, return_profile=True)[1],
                  bmo_diagnostic(b, custom, return_profile=True)[1])):
        assert x.tobytes() == y.tobytes()
    assert skorohod_residuals(a, spec) == skorohod_residuals(b, custom)


def _plain(f, **over):
    base = dict(gparams=GParams(1.0, 2.0), coeffs=CoefficientSet(),
                gen=GeneratorSpec(f=f, zero_bound=100.0),
                obstacles=ObstaclePair.none(),
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


def test_catalog_fields_are_evaluated_once_per_solve(monkeypatch):
    (c64, c128), (nt64, nt128) = _solve_counts(monkeypatch, "double-active")
    assert nt128 > nt64
    assert c64 == c128


def test_quadratic_driver_is_evaluated_once_per_step(monkeypatch):
    (c64, c128), (nt64, nt128) = _solve_counts(monkeypatch,
                                               "quadratic-gen-colehopf")
    assert c128 - c64 == nt128 - nt64


# ---------------------------------------------------------------------------
# validation scans one probe slice unless a field is custom
# ---------------------------------------------------------------------------

def _probe_cases():
    cases = [(name, spec, build_grid(spec, nx=64)) for name, spec in SPECS]
    step = FnSpec.tabulated([-0.025, 0.025], [0.0, 1.0])
    drift60 = _plain(FnSpec.constant(0.0),
                     coeffs=CoefficientSet(drift=FnSpec.constant(60.0)),
                     terminal=step)
    cases.append(("drift-60", drift60, build_grid(drift60, nx=400)))
    crossed = _plain(FnSpec.constant(0.0), obstacles=ObstaclePair.both(
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
    spec = _plain(FnSpec.constant(0.0), obstacles=ObstaclePair.both(
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
