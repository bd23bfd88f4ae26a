"""Batched stepping and blocked replays: S solves of one problem stepped
as one layer until an obstacle separates them, then as S layers laid
end to end, equal S single solves bit for bit, the limit driver reports
exactly the stage-by-stage walk, replays take blocks of slices except
where a field or driver may depend on t, and each call checks what it
will hold against the memory cap before allocating."""

import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gobstacle import cli, decomposition, scheme, solvers
from gobstacle.decomposition import one_step_residuals, reconstruct
from gobstacle.diagnostics import ORDER_SLACK, run_property_suite
from gobstacle.model import FnSpec, ObstaclePair, SpecError
from gobstacle.presets import get_preset, list_presets
from gobstacle.scheme import Field, GridError, PenaltyParams, StepFailure, \
    StepOperator, build_grid
from gobstacle.solvers import PenaltySchedule, SolveReport, solve_limit, \
    solve_penalized, solve_penalized_batch
from node_oracle import all_custom, contact_sums, layer_rhs_parts, \
    resolve_penalties

# rows with zero and positive intensities on either side
MIXED = (PenaltyParams(0.0, 0.0), PenaltyParams(4.0, 0.0),
         PenaltyParams(0.0, 64.0), PenaltyParams(64.0, 64.0),
         PenaltyParams(1024.0, 16.0))
# infinite (projected) and finite rows on either side, then rows that
# all project the lower side
INF = math.inf
MIXED_INF = (PenaltyParams(INF, 64.0), PenaltyParams(INF, INF),
             PenaltyParams(64.0, 64.0), PenaltyParams(0.0, INF),
             PenaltyParams(16.0, 0.0))
REFLECTED = (PenaltyParams(INF, 256.0), PenaltyParams(INF, INF))
BATCH_NAMES = ["double-active", "lower-active", "upper-active",
               "quadratic-drift"]
SINGLES = [p.name for p in list_presets() if p.kind == "single"]


def _upwinding():
    # double-active under an affine drift 8x: one-sided differences on
    # the nodes that fail cell-Peclet
    spec = get_preset("double-active")
    return replace(spec, coeffs=replace(spec.coeffs,
                                        drift=FnSpec.affine(8.0, 0.0)))


def _t_dependent():
    # a custom drift and a custom lower obstacle that move with t, so
    # the kernel re-reads its rows on every step
    spec = get_preset("double-active")
    low = spec.obstacles.lower
    drift = FnSpec.custom(
        lambda t, x, y=0.0, z=0.0: 0.4 + 0.3 * np.sin(2.0 * np.pi * t)
        + 0.0 * np.asarray(x))
    lower = FnSpec.custom(lambda t, x, y=0.0, z=0.0: low(t, x) - 0.1 * t)
    return replace(spec, coeffs=replace(spec.coeffs, drift=drift),
                   obstacles=replace(spec.obstacles, lower=lower))


def _per_step_driver(seen=None):
    # a custom driver, called once per step on every layer of the
    # batch; records the shapes of the (y, z) it gets in `seen`.  Its
    # moduli in y and z are declared on the generator, where the CFL
    # reads them
    spec = get_preset("double-active")
    base = spec.gen.f

    def f(t, x, y, z):
        if seen is not None:
            seen.add((np.shape(y), np.shape(z)))
        return base(t, x) + 0.1 * np.tanh(z) * np.cos(t) - 0.05 * y

    return replace(spec, gen=replace(spec.gen, f=FnSpec.custom(f),
                                     lipschitz_y=0.05, lipschitz_z=0.1))


PROBLEMS = {"upwinding": _upwinding, "t-dependent": _t_dependent,
            "per-step-driver": _per_step_driver,
            "all-custom": lambda: all_custom(get_preset("double-active"))}


def _problem(name):
    return PROBLEMS[name]() if name in PROBLEMS else get_preset(name)


@pytest.mark.parametrize(
    "name,pens",
    [(n, MIXED) for n in BATCH_NAMES]
    + [(n, MIXED_INF) for n in BATCH_NAMES]
    + [(n, REFLECTED) for n in BATCH_NAMES]
    + [(n, MIXED_INF) for n in PROBLEMS]
    + [(n, MIXED) for n in PROBLEMS]
    + [(n, REFLECTED) for n in PROBLEMS],
    ids=BATCH_NAMES + [f"{n}-infinite" for n in BATCH_NAMES]
    + [f"{n}-reflected" for n in BATCH_NAMES] + list(PROBLEMS)
    + [f"{n}-mixed" for n in PROBLEMS] + [f"{n}-reflected" for n in PROBLEMS])
def test_batch_rows_equal_single_solves(name, pens):
    # the merged slices, the step that separates the rows and the rest
    spec = _problem(name)
    grid = build_grid(spec, nx=48)
    batch = solve_penalized_batch(spec, grid, pens)
    assert len(batch) == len(pens)
    for pen, got in zip(pens, batch):
        want = solve_penalized(spec, grid, pen)
        assert got.field.values.tobytes() == want.field.values.tobytes()
        assert got.sup_lower_violation == want.sup_lower_violation
        assert got.sup_upper_violation == want.sup_upper_violation
        assert got.field.grid.nt == want.field.grid.nt == grid.nt
    assert len({r.wall_time for r in batch}) == 1


def test_the_extra_problems_exercise_what_they_name():
    grid = build_grid(_upwinding(), nx=48)
    assert StepOperator(_upwinding(), grid).upwind is not None
    for name in ("t-dependent", "all-custom"):
        spec = _problem(name)
        assert StepOperator(spec, build_grid(spec, nx=48)).timed


def test_a_custom_driver_gets_the_shape_of_its_solve():
    # (nx-1,) arrays for a single solve and for a batch of S while its
    # rows step as one, (S, nx-1) once they separate
    seen = set()
    spec = _per_step_driver(seen)
    grid = build_grid(spec, nx=48)
    solve_penalized_batch(spec, grid, MIXED)
    assert seen == {((len(MIXED), grid.nx - 1), (len(MIXED), grid.nx - 1)),
                    ((grid.nx - 1,), (grid.nx - 1,))}
    seen.clear()
    solve_penalized(spec, grid, MIXED[0])
    assert seen == {((grid.nx - 1,), (grid.nx - 1,))}


def _step_raising(spec, grid, pens):
    """Step the solves of `pens` through one kernel, as `_solve_rows`
    does, with every floating-point warning raised."""
    op = StepOperator(spec, grid)
    shape = (grid.nx + 1,) if len(pens) == 1 else (len(pens), grid.nx + 1)
    kernel = scheme._Kernel(op, scheme._penalty_rows(pens), shape)
    kernel.layer[:] = spec.terminal(spec.horizon, grid.x_nodes)
    with np.errstate(all="raise"):
        for k in range(grid.nt - 1, -1, -1):
            scheme._advance(kernel, grid.t_nodes[k])


@pytest.mark.parametrize("name", BATCH_NAMES + list(PROBLEMS))
def test_seam_nodes_raise_no_warning_of_their_own(name):
    # each row stepped alone raises none, so neither may the batch,
    # whose seam nodes step on the wall columns between its rows
    spec = _problem(name)
    grid = build_grid(spec, nx=48)
    for pen in MIXED_INF:
        _step_raising(spec, grid, (pen,))
    _step_raising(spec, grid, MIXED_INF)


@pytest.mark.parametrize("pens", [MIXED[:1], MIXED], ids=["single", "batch"])
@pytest.mark.parametrize("name", ["t-dependent", "all-custom"])
def test_a_timed_operator_binds_its_step_once_per_solve(name, pens,
                                                        monkeypatch):
    # the rows re-read at each t are copied into the kernel's own; the
    # structure of the step is fixed per solve, so each kernel binds its
    # calls once: one kernel for a single solve, and for a batch the
    # merged one and the one its rows separate into
    spec = _problem(name)
    grid = build_grid(spec, nx=48)
    compiled = _count(monkeypatch, scheme._Kernel, "_compile")
    built = _count(monkeypatch, solvers, "_Kernel")
    solve_penalized_batch(spec, grid, pens)
    assert built[0] == (1 if len(pens) == 1 else 2)
    assert compiled[0] == 4 * built[0]  # explicit and apply, either layer


@pytest.mark.parametrize("name", ["t-dependent", "all-custom"])
def test_a_timed_operator_is_one_object_per_solve(name, monkeypatch):
    # re-read in place at each step's t, by the solve, its report and
    # the replay alike
    spec = _problem(name)
    grid = build_grid(spec, nx=48)
    built = _count(monkeypatch, StepOperator, "__init__")
    report = solve_penalized(spec, grid, PenaltyParams(64.0, 64.0))
    assert built[0] == 1
    built[0] = 0
    reconstruct(report)
    assert built[0] == 1


def _structure_change():
    # a drift (t - 0.45)^+ is absent from every step to t < 0.45
    spec = _t_dependent()
    drift = FnSpec.custom(lambda t, x, y=0.0, z=0.0: max(t - 0.45, 0.0)
                          + 0.0 * np.asarray(x))
    return replace(spec, coeffs=replace(spec.coeffs, drift=drift))


def test_a_change_of_structure_binds_the_step_again(monkeypatch):
    spec = _structure_change()
    grid = build_grid(spec, nx=48)
    compiled = _count(monkeypatch, scheme._Kernel, "_compile")
    built = _count(monkeypatch, solvers, "_Kernel")
    batch = solve_penalized_batch(spec, grid, MIXED)
    # explicit and apply from either layer of the merged kernel and of
    # the separated one: a custom drift is a present term at every step,
    # zero or not
    assert (built[0], compiled[0]) == (2, 8)
    for pen, got in zip(MIXED, batch):
        want = solve_penalized(spec, grid, pen)
        assert got.field.values.tobytes() == want.field.values.tobytes()


def _scenario_defect(report, variances):
    """The worst defect over `variances` of each step, (nt, nx-1): the
    step u + dt*(0.5*(v*qv) + rest) under each fixed variance v,
    penalty-resolved and projected (the lower side first) as the kernel
    enforces it, less the stored layer."""
    spec, pen = report.spec, report.pen
    vals, grid = report.field.values, report.field.grid
    dt, variances = grid.dt, np.asarray(variances)[:, None]
    op = StepOperator(spec, grid)
    out = np.empty((grid.nt, grid.nx - 1))
    for k in range(grid.nt):
        t = grid.t_nodes[k]
        qv, rest = layer_rhs_parts(vals[k + 1], t, op.at(t))
        low, up = (None if row is None else row[1:-1]
                   for row in (op.lower, op.upper))
        u = resolve_penalties(
            vals[k + 1, 1:-1] + dt * (0.5 * (variances * qv) + rest),
            low, up, pen, dt)
        if low is not None and pen.m_lower == INF:
            u = np.maximum(u, low)
        if up is not None and pen.n_upper == INF:
            u = np.minimum(u, up)
        out[k] = np.max(u - vals[k, 1:-1], axis=0)
    return out


def _assert_the_endpoints_cover_the_band(report):
    # the defect steps the band's two endpoints; 5 and 17 variances
    # across the band, endpoints included, give the same bytes
    defect = reconstruct(report).defect.values[:-1, 1:-1]
    gp = report.spec.gparams
    for count in (5, 17):
        want = _scenario_defect(
            report, np.linspace(gp.vol_low_sq, gp.vol_high_sq, count))
        assert defect.tobytes() == want.tobytes(), count


def test_a_change_of_structure_rebinds_the_scenario_steps():
    # each fixed-scenario step of the defect takes the rest of its own
    # step: drift*du + f once the drift is present, f before
    spec = _structure_change()
    grid = build_grid(spec, nx=48)
    _assert_the_endpoints_cover_the_band(
        solve_penalized(spec, grid, PenaltyParams(64.0, 64.0)))


@pytest.mark.parametrize("pen", [PenaltyParams(64.0, 64.0),
                                 PenaltyParams(INF, 64.0),
                                 PenaltyParams(INF, INF)],
                         ids=["penalized", "reflected", "projected"])
@pytest.mark.parametrize("name", SINGLES)
def test_no_interior_variance_beats_the_band_endpoints(name, pen):
    # the fixed-scenario step is affine in v and its enforcement
    # monotone, so no variance inside the band beats both endpoints
    spec = get_preset(name)
    _assert_the_endpoints_cover_the_band(
        solve_penalized(spec, build_grid(spec, nx=48), pen))


def _push(gap, rate, dt):
    """dt*rate*gap; 0 on a projected side (inf), which has no gap."""
    assert rate < INF or not gap.any()
    return 0.0 if rate == INF else dt * rate * gap


def _walk(spec, grid, schedule):
    """The limit driver as a stage-by-stage walk of single solves, with
    the contact residuals summed slice by slice against the obstacle
    rows at each slice's t."""
    dt = grid.dt
    lower, upper = spec.obstacles.lower, spec.obstacles.upper
    stages, prev = [], None
    for pen in schedule.steps:
        rep = solve_penalized(spec, grid, pen)
        y = rep.field.values[:, 1:-1]
        x = grid.x_nodes[1:-1]
        acc = [np.zeros(grid.nx - 1), np.zeros(grid.nx - 1)]
        for k, t in enumerate(grid.t_nodes[:-1]):
            if lower is not None:
                gap = np.maximum(lower(t, x) - y[k], 0.0)
                acc[0] += gap * _push(gap, pen.m_lower, dt)
            if upper is not None:
                gap = np.maximum(y[k] - upper(t, x), 0.0)
                acc[1] += gap * _push(gap, pen.n_upper, dt)
        diff = float("inf") if prev is None \
            else float(np.max(np.abs(rep.field.values - prev)))
        stages.append((rep.field.values.tobytes(), diff,
                       rep.sup_upper_violation, rep.sup_lower_violation,
                       float(np.max(acc[0])) if lower is not None else 0.0,
                       float(np.max(acc[1])) if upper is not None else 0.0))
        prev = rep.field.values
        if diff < schedule.stop_tol:
            break
    return stages


def test_an_empty_batch_is_refused():
    spec = get_preset("double-active")
    with pytest.raises(SpecError, match="at least one PenaltyParams"):
        solve_penalized_batch(spec, build_grid(spec, nx=16), [])


def test_zero_intensity_rows_are_left_untouched():
    # a row at zero intensity keeps v exactly, as a single solve skips
    # the resolution; the formula would turn -0.0 into +0.0
    v = np.array([[-0.0, -1.0], [-0.0, -1.0]])
    rows = scheme._penalty_rows((PenaltyParams(0.0, 0.0),
                                 PenaltyParams(4.0, 0.0)))
    out = resolve_penalties(v, np.array([0.5, 0.5]), None, rows, 0.1)
    assert out[0].tobytes() == v[0].tobytes()
    assert out[1].tobytes() == resolve_penalties(
        v[1], np.array([0.5, 0.5]), None, PenaltyParams(4.0, 0.0),
        0.1).tobytes()


# the limit driver's stage walks: every pairing, a projected side, a
# timed lower obstacle, and nx=200, where a contact scan spans several
# blocks of slices
STAGE_WALKS = [
    (200, "double-active", PenaltySchedule.diagonal((4.0, 16.0, 64.0))),
    (48, "double-active", PenaltySchedule.fixed_m(16.0, (0.0, 4.0, 64.0))),
    (48, "lower-active", PenaltySchedule.fixed_n(0.0, (0.0, 16.0, 256.0))),
    (48, "upper-active", PenaltySchedule.diagonal((4.0, 16.0, 64.0, 256.0),
                                                  stop_tol=0.02)),
    # the paper's family: reflected below, penalized above
    (200, "double-active",
     PenaltySchedule.fixed_m(INF, (4.0, 16.0, 64.0, 256.0))),
    # a timed lower obstacle, re-read at each slice's t
    (48, "t-dependent", PenaltySchedule.diagonal((4.0, 16.0, 64.0))),
    (200, "t-dependent", PenaltySchedule.diagonal((4.0, 16.0, 64.0))),
    (48, "t-dependent", PenaltySchedule.fixed_m(INF, (4.0, 16.0, 64.0))),
    (200, "t-dependent", PenaltySchedule.fixed_m(INF, (4.0, 16.0, 64.0))),
]


@pytest.mark.parametrize("nx,name,schedule", STAGE_WALKS)
def test_limit_driver_equals_the_stage_walk(nx, name, schedule):
    spec = _problem(name)
    grid = build_grid(spec, nx=nx)
    _, trace = solve_limit(spec, grid, schedule, keep_reports=True)
    got = [(r.field.values.tobytes(), s.sup_diff, s.upper_violation,
            s.lower_violation, s.r_plus, s.r_minus)
           for s, r in zip(trace.stages, trace.reports)]
    assert got == _walk(spec, grid, schedule)


def test_skorohod_residuals_of_a_timed_obstacle_sum_slice_by_slice():
    # the lower obstacle moves with t: each slice's gap reads the rows at
    # that slice's t, and each column adds in slice order
    spec = _t_dependent()
    grid = build_grid(spec, nx=48)
    report, trace = solve_limit(spec, grid, PenaltySchedule(
        (PenaltyParams(16.0, 16.0),)))
    want = contact_sums(reconstruct(report))
    assert min(want) > 0.0  # both sides are really scanned
    (stage,) = trace.stages
    assert (stage.r_plus, stage.r_minus) == want
    # the trace forms each stage's dA from its pushes dt*rate*gap (none
    # on a projected side); the bundle's dA+/dA- give the same sums on
    # every stage of the stage walks
    for nx, name, schedule in STAGE_WALKS:
        spec = _problem(name)
        grid = build_grid(spec, nx=nx)
        _, trace = solve_limit(spec, grid, schedule, keep_reports=True)
        for s, report in zip(trace.stages, trace.reports):
            assert (s.r_plus, s.r_minus) == \
                contact_sums(reconstruct(report)), (nx, name, s.stage)


@pytest.mark.parametrize("name", ["double-active", "upper-active",
                                  "quadratic-drift"])
def test_reflected_family_decreases_in_the_upper_intensity(name):
    # u_n, reflected below and penalized above at n, decreases in n
    spec = get_preset(name)
    grid = build_grid(spec, nx=64)
    family = solve_penalized_batch(spec, grid, [
        PenaltyParams(INF, n) for n in (4.0, 16.0, 64.0, 256.0, 1024.0)])
    for low_n, high_n in zip(family, family[1:]):
        rise = high_n.field.values[:, 1:-1] - low_n.field.values[:, 1:-1]
        assert rise.max() <= ORDER_SLACK


def _poison_row(monkeypatch, row, slice_k):
    """Make the kernel overflow row `row` at the step to slice k, or the
    merged layer when `row` is None; returns the count of layers it
    poisoned, in a list."""
    real = solvers._advance
    poisoned = [0]

    def advance(kernel, t):
        out = real(kernel, t)
        if out.ndim == (1 if row is None else 2) \
                and t == kernel.grid.t_nodes[slice_k]:
            out[(3,) if row is None else (row, 3)] = \
                np.float64(1e308) * 10.0  # warns unless silenced
            poisoned[0] += 1
        return out

    monkeypatch.setattr(solvers, "_advance", advance)
    return poisoned


# double-active at nx=48 (nt=13): the diagonal ladder and MIXED step as
# one layer down to slice 5 and separate at the step to slice 4
SEPARATED = 4


def test_failure_past_the_stop_never_escapes(monkeypatch):
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=48)
    schedule = PenaltySchedule.diagonal(stop_tol=0.05)
    _, want = solve_limit(spec, grid, schedule)
    assert len(want.stages) == 2
    poisoned = _poison_row(monkeypatch, 3, SEPARATED - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final, trace = solve_limit(spec, grid, schedule)
    assert poisoned == [1]
    assert trace.stages == want.stages and trace.converged
    assert np.isfinite(final.field.values).all()


@pytest.mark.parametrize("row", [0, 1])
def test_failure_of_a_reported_stage_raises(monkeypatch, row):
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=48)
    poisoned = _poison_row(monkeypatch, row, SEPARATED - 1)
    with pytest.raises(StepFailure, match=f"step to slice {SEPARATED - 1} "
                       f"of {grid.nt}: non-finite value at t="):
        solve_limit(spec, grid)
    assert poisoned == [1]


def test_a_failed_batch_row_raises_its_own_failure(monkeypatch):
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=48)
    poisoned = _poison_row(monkeypatch, 1, SEPARATED - 2)
    with pytest.raises(StepFailure, match=f"step to slice {SEPARATED - 2} "
                       f"of {grid.nt}: non-finite value at t="):
        solve_penalized_batch(spec, grid, MIXED[:3])
    assert poisoned == [1]


@pytest.mark.parametrize("pens", [MIXED, (PenaltyParams(64.0, 64.0),) * 3],
                         ids=["separating", "equal"])
def test_a_non_finite_merged_layer_fails_every_row(monkeypatch, pens):
    # a NaN counts as crossed, so the rows of MIXED separate at the next
    # step; rows of equal intensities step on as one
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=48)
    poisoned = _poison_row(monkeypatch, None, 7)
    op, fields, wall = solvers._solve_rows(spec, grid, pens)
    assert poisoned == [1]
    for values, pen in zip(fields, pens):
        with pytest.raises(StepFailure, match=f"step to slice 7 of {grid.nt}: "
                           "non-finite value at t="):
            solvers._report(values, op, pen, wall)


# ---------------------------------------------------------------------------
# the kernel's work arrays stay inside it; each field owns its memory
# ---------------------------------------------------------------------------

def test_kernel_buffers_never_leak_out(monkeypatch):
    # no field or bundle array the package returns is a buffer of a step
    # kernel that made it: the solvers' one-layer and batch kernels, and
    # the replay kernels of a reconstruction and of the CSV's slice rows
    kernels = []

    class Recorded(scheme._Kernel):
        def __init__(self, *args):
            super().__init__(*args)
            kernels.append(self)

    monkeypatch.setattr(solvers, "_Kernel", Recorded)
    monkeypatch.setattr(decomposition, "_Kernel", Recorded)
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=48)
    reports = solve_penalized_batch(spec, grid, MIXED)
    single = solve_penalized(spec, grid, PenaltyParams(64.0, 64.0))
    bundle = reconstruct(single)
    rows = decomposition._bundle_rows(single, [0, grid.nt // 2, grid.nt])
    kept = [r.field.values for r in reports] + [
        single.field.values, bundle.z.values, bundle.da_plus,
        bundle.da_minus, bundle.defect.values, bundle.scenario_high, *rows]
    buffers = [a for k in kernels
               for a in (*k.layers, k.v, k.qv, k.rest, k.env)]
    # one layer, the batch's rows, a replay block (every step of this
    # grid) and a slice row
    assert {k.shape[:-1] for k in kernels} \
        == {(), (len(MIXED),), (grid.nt,), (1,)}
    assert not any(np.shares_memory(a, b) for a in kept for b in buffers)

    reports = solve_penalized_batch(spec, grid, MIXED)
    others = [r.field.values.tobytes() for r in reports[1:]]
    reports[0].field.values[...] = np.nan
    assert [r.field.values.tobytes() for r in reports[1:]] == others


@pytest.mark.parametrize("pens", [MIXED[:1], MIXED], ids=["single", "batch"])
def test_each_stored_field_owns_its_memory(pens):
    # views into one (S, nt+1, nx+1) block would keep every row's field
    # alive as long as any one report is kept; the rows of MIXED separate
    spec = get_preset("double-active")
    _, fields, _ = solvers._solve_rows(spec, build_grid(spec, nx=48), pens)
    assert len(fields) == len(pens)
    assert all(values.base is None for values in fields)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(fields)
                   for b in fields[i + 1:])
    assert all(values.flags.writeable for values in fields)


def test_rows_that_never_separate_share_one_read_only_field():
    # quadratic-drift never reaches its obstacles: the ladder's rows are
    # one layer from the terminal slice to t = 0
    spec = get_preset("quadratic-drift")
    grid = build_grid(spec, nx=48)
    steps = PenaltySchedule.diagonal().steps
    _, fields, _ = solvers._solve_rows(spec, grid, steps)
    assert len(fields) == len(steps)
    assert all(values is fields[0] for values in fields)
    assert fields[0].base is None and not fields[0].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        fields[0][0, 0] = 0.0
    reports = solve_penalized_batch(spec, grid, steps)
    assert [r.pen for r in reports] == list(steps)
    assert all(r.field.values is reports[0].field.values for r in reports)


# ---------------------------------------------------------------------------
# where a batch separates: only the sides whose intensities differ
# ---------------------------------------------------------------------------

def _steps(monkeypatch):
    """Record (slice, layers) of every `_advance` call: 1 while the rows
    step as one layer, 2 once they are an (S, nx+1) batch."""
    real = solvers._advance
    steps = []

    def advance(kernel, t):
        out = real(kernel, t)
        steps.append((int(np.searchsorted(kernel.grid.t_nodes, t)), out.ndim))
        return out

    monkeypatch.setattr(solvers, "_advance", advance)
    return steps


def _separation(steps, nt):
    """The slice of the step that separated the rows: nt where they
    started separated, None where they never did.  Checks that every
    step ran once, and the separating one once more, in the batch."""
    merged = [k for k, layers in steps if layers == 1]
    split = [k for k, layers in steps if layers == 2]
    assert steps == [(k, 1) for k in merged] + [(k, 2) for k in split]
    if not split:
        assert merged == list(range(nt - 1, -1, -1))
        return None
    k = split[0] if merged else nt
    assert merged == list(range(nt - 1, k - 1, -1))
    assert split == list(range(min(k, nt - 1), -1, -1))
    return k


@pytest.mark.parametrize("name,where", [("double-active", "inside"),
                                        ("quadratic-drift", "never"),
                                        ("upper-active", "terminal")])
def test_where_a_ladder_separates(name, where, monkeypatch):
    spec = get_preset(name)
    grid = build_grid(spec, nx=48)
    steps = _steps(monkeypatch)
    solvers._solve_rows(spec, grid, PenaltySchedule.diagonal().steps)
    k = _separation(steps, grid.nt)
    if where == "inside":
        assert 0 < k < grid.nt and k == SEPARATED
        assert len(steps) == grid.nt + 1
    elif where == "never":
        assert k is None and len(steps) == grid.nt
    else:
        assert k == grid.nt and len(steps) == grid.nt


def test_only_the_sides_whose_intensities_differ_are_tested():
    spec = get_preset("double-active")
    op = StepOperator(spec, build_grid(spec, nx=48))

    def tested(pens):
        checks = solvers._separating(op, scheme._penalty_rows(pens))
        for _, row, test in checks:  # views of the operator's own rows
            assert np.shares_memory(
                row, op.lower if test is np.greater else op.upper)
        return [(on_layer, test) for on_layer, _, test in checks]

    # the reflected family: every row projects the lower side alike
    family = PenaltySchedule.fixed_m(INF, (4.0, 16.0, 64.0, 256.0)).steps
    assert tested(family) == [(False, np.less)]
    assert tested((PenaltyParams(64.0, 16.0),) * 3) == []
    assert tested(MIXED[:1]) == []
    # finite rates differ on both sides: v; projected rows too: the layer
    assert tested(MIXED) == [(False, np.greater), (False, np.less)]
    assert tested(MIXED_INF) == [(False, np.greater), (True, np.greater),
                                 (False, np.less), (True, np.less)]


def test_a_projection_is_tested_on_the_resolved_layer():
    # obstacles touching at 0.3: the upper resolution of a v just above
    # them can round below 0.3, where the rows that project the lower
    # side lift it and the others do not, though v never crosses
    spec = replace(get_preset("upper-active"),
                   obstacles=ObstaclePair(FnSpec.constant(0.3),
                                          FnSpec.constant(0.3),
                                          level_bound=1.6),
                   terminal=FnSpec.constant(0.35))
    grid = build_grid(spec, nx=32)
    pens = (PenaltyParams(INF, 2.9e16), PenaltyParams(0.0, 2.9e16))
    free = solve_penalized(spec, grid, pens[1]).field.values
    assert (free[:, 1:-1] < 0.3).any()
    for pen, got in zip(pens, solve_penalized_batch(spec, grid, pens)):
        want = solve_penalized(spec, grid, pen)
        assert got.field.values.tobytes() == want.field.values.tobytes()


def test_a_timed_obstacle_separates_where_it_meets_the_solution(
        monkeypatch):
    # quadratic-drift's solution stays in (-2, 2); a lower obstacle that
    # jumps from -2 to 0.9, above the terminal's peak of 0.8, meets it at
    # the first step to a t at or below the jump
    spec = get_preset("quadratic-drift")
    grid = build_grid(spec, nx=48)
    meet = grid.nt // 2
    jump = 0.5 * (grid.t_nodes[meet] + grid.t_nodes[meet + 1])
    lower = FnSpec.custom(
        lambda t, x, y=0.0, z=0.0: np.full(np.shape(x),
                                           -2.0 if t > jump else 0.9))
    spec = replace(spec, obstacles=replace(spec.obstacles, lower=lower))
    pens = PenaltySchedule.diagonal((4.0, 16.0, 64.0)).steps
    steps = _steps(monkeypatch)
    batch = solve_penalized_batch(spec, grid, pens)
    assert _separation(steps, grid.nt) == meet
    monkeypatch.undo()
    for pen, got in zip(pens, batch):
        want = solve_penalized(spec, grid, pen)
        assert got.field.values.tobytes() == want.field.values.tobytes()


# ---------------------------------------------------------------------------
# kernel calls: one per time step for a batch, one per block for a replay
# ---------------------------------------------------------------------------

def _count(monkeypatch, module, name):
    calls = [0]
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_the_ladder_makes_one_kernel_call_per_step(monkeypatch):
    # and one more for the step that separates the rows, which the batch
    # takes again
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    calls = _count(monkeypatch, solvers, "_advance")
    _, trace = solve_limit(spec, grid)
    assert len(trace.stages) == 5 and calls[0] == grid.nt + 1


def test_reconstruct_replays_blocks_of_slices(monkeypatch):
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=400)
    report = solve_penalized(spec, grid, PenaltyParams(64.0, 64.0))
    op = StepOperator(spec, grid)
    blocks = op.blocks(grid.nt, rows=5)
    size = blocks[0][1] - blocks[0][0]
    assert size > 1 and size * 5 * (grid.nx + 1) <= scheme._BLOCK_ELEMENTS
    assert [k for b in blocks for k in range(*b)] == list(range(grid.nt))
    calls = _count(monkeypatch, scheme._Kernel, "explicit")
    reconstruct(report)
    assert calls[0] == len(blocks) == math.ceil(grid.nt / size)


def test_the_csv_rows_verify_then_replay_the_asked_slices(monkeypatch):
    # every step is compared in blocks of one layer per slice (20 at
    # nx=400), then each asked slice below the terminal one is replayed
    # on its own for its rows
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=400)
    report = solve_penalized(spec, grid, PenaltyParams(64.0, 64.0))
    calls = _count(monkeypatch, scheme._Kernel, "explicit")
    decomposition._bundle_rows(report, [0, grid.nt // 2])
    size = scheme._BLOCK_ELEMENTS // (grid.nx + 1)
    assert (grid.nt, size) == (889, 20)
    assert calls[0] == math.ceil(grid.nt / size) + 2 == 47


def test_every_step_runs_through_the_kernel(monkeypatch):
    # a solve calls _advance once per step, a replay calls
    # _Kernel.explicit once per block, and a replay builds one kernel per
    # block shape
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=200)
    op = StepOperator(spec, grid)
    steps = _count(monkeypatch, solvers, "_advance")
    calls = _count(monkeypatch, scheme._Kernel, "explicit")
    built = _count(monkeypatch, decomposition, "_Kernel")

    def one_per_block(blocks):
        shapes = {k1 - k0 for k0, k1 in blocks}
        assert len(shapes) == 2  # one short block, the rest full
        assert calls[0] == len(blocks) and built[0] == len(shapes)
        calls[0] = built[0] = 0

    report = solve_penalized(spec, grid, PenaltyParams(64.0, 64.0))
    assert steps[0] == grid.nt and calls[0] == 0
    bundle = reconstruct(report)
    one_per_block(op.blocks(grid.nt, rows=5))
    one_step_residuals(bundle)
    one_per_block(op.blocks(grid.nt))


@pytest.mark.parametrize("field", ["f", "g", "lower"])
def test_t_dependent_fields_replay_one_slice_per_block(field):
    spec = get_preset("double-active")
    custom = FnSpec.custom(lambda t, x, y, z: 0.0 * np.asarray(x) - 0.3)
    if field == "lower":
        spec = replace(spec, obstacles=replace(spec.obstacles, lower=custom))
    else:
        spec = replace(spec, gen=replace(spec.gen, **{field: custom}))
    grid = build_grid(spec, nx=32)
    op = StepOperator(spec, grid)
    assert op.per_slice
    assert op.blocks(grid.nt) == [(k, k + 1) for k in range(grid.nt)]


# ---------------------------------------------------------------------------
# what one call holds, against the memory cap
# ---------------------------------------------------------------------------

# double-active: one field is 143 MiB, five are 716 and seven 1002
NX_ONE_FITS = 1500


def _no_steps(monkeypatch):
    def refuse(*_):
        raise AssertionError("a step ran past the memory check")

    monkeypatch.setattr(solvers, "_advance", refuse)
    monkeypatch.setattr(decomposition, "StepOperator", refuse)


def test_field_budget_counts_what_a_call_holds(monkeypatch):
    _no_steps(monkeypatch)
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=NX_ONE_FITS)  # one field fits
    scheme._check_field_budget(grid, 3)
    with pytest.raises(GridError, match="5 field-size arrays need 716 MiB"):
        solve_limit(spec, grid)
    with pytest.raises(GridError, match="memory cap"):
        solve_penalized_batch(spec, grid, [PenaltyParams()] * 4)
    values = np.broadcast_to(0.0, (grid.nt + 1, grid.nx + 1))
    with pytest.raises(GridError, match="5 field-size arrays need 716 MiB"):
        reconstruct(SolveReport(Field(values=values, grid=grid), 0.0, 0.0,
                                0.0, spec, PenaltyParams()))


@pytest.mark.parametrize("verb,extra", [("solve", {"mode": "limit"}),
                                        ("suite", {})])
def test_cli_exits_2_when_the_batch_exceeds_the_cap(verb, extra, tmp_path,
                                                    monkeypatch, capsys):
    _no_steps(monkeypatch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "double-active",
                                "grid": {"nx": NX_ONE_FITS}, **extra}))
    assert cli.main([verb, "-c", str(path)]) == 2
    # the limit ladder holds five fields, the suite up to seven
    need = {"solve": "5 field-size arrays need 716 MiB",
            "suite": "7 field-size arrays need 1002 MiB"}[verb]
    assert need in capsys.readouterr().err


def test_the_suite_checks_its_peak_before_any_step(monkeypatch, tmp_path,
                                                   capsys):
    # double-active holds at most seven fields at once; each callee
    # checks only its own five
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=48)
    field = (grid.nt + 1) * (grid.nx + 1) * 8
    monkeypatch.setattr(scheme, "_FIELD_BYTES_CAP", 13 * field // 2)

    def refuse(*_):
        raise AssertionError("a batch was stepped past the memory check")

    monkeypatch.setattr(solvers, "_solve_rows", refuse)
    with pytest.raises(GridError, match="7 field-size arrays need"):
        run_property_suite(spec, grid)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "double-active",
                                "grid": {"nx": 48}}))
    assert cli.main(["suite", "-c", str(path)]) == 2
    assert "7 field-size arrays need" in capsys.readouterr().err

    monkeypatch.undo()
    monkeypatch.setattr(scheme, "_FIELD_BYTES_CAP", 7 * field)
    assert run_property_suite(spec, grid).ok


# ---------------------------------------------------------------------------
# traced peak memory: the fields a call returns plus at most 1 MiB
# ---------------------------------------------------------------------------

def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_peak_memory_is_the_fields_plus_one_mib():
    # numpy reports its array allocations to tracemalloc, so the peak
    # counts every field-size temporary a solve or replay would make
    spec = get_preset("quadratic-drift")
    grid = build_grid(spec, nx=400)
    field = (grid.nt + 1) * (grid.nx + 1) * 8
    pen = PenaltyParams(64.0, 64.0)
    slack = 2 ** 20

    peak, report = _traced_peak(lambda: solve_penalized(spec, grid, pen))
    assert peak <= field + slack
    schedule = PenaltySchedule.diagonal()
    peak, (_, trace) = _traced_peak(lambda: solve_limit(spec, grid, schedule))
    assert len(trace.stages) < len(schedule.steps)  # stops early
    assert peak <= len(schedule.steps) * field + slack
    assert peak <= field + slack  # its rows never separate: one field
    peak, _ = _traced_peak(lambda: reconstruct(report))
    assert peak <= 4 * field + slack


def test_property_suite_peak_is_seven_fields_plus_one_mib():
    # the fixed-intensity phase holds the most: the first and final
    # stages with five rows; every field is dropped after its last check
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=400)
    field = (grid.nt + 1) * (grid.nx + 1) * 8
    peak, result = _traced_peak(lambda: run_property_suite(spec, grid))
    assert result.ok
    assert peak <= 7 * field + 2 ** 20
