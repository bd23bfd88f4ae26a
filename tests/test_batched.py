"""Batched stepping and blocked replays: S solves of one problem stepped
as one (S, nx+1) layer equal S single solves bit for bit, the limit
driver reports exactly the stage-by-stage walk, replays take blocks of
slices except where a field or driver may depend on t, and each call
checks what it will hold against the memory cap before allocating."""

import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gobstacle import cli, decomposition, scheme, solvers
from gobstacle.decomposition import one_step_residuals, reconstruct
from gobstacle.model import FnSpec, SpecError
from gobstacle.presets import get_preset
from gobstacle.scheme import Field, GridError, PenaltyParams, StepFailure, \
    StepOperator, build_grid, explicit_step
from gobstacle.solvers import PenaltySchedule, SolveReport, solve_limit, \
    solve_penalized, solve_penalized_batch

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


@pytest.mark.parametrize(
    "name,pens",
    [(n, MIXED) for n in BATCH_NAMES]
    + [(n, MIXED_INF) for n in BATCH_NAMES]
    + [(n, REFLECTED) for n in BATCH_NAMES],
    ids=BATCH_NAMES + [f"{n}-infinite" for n in BATCH_NAMES]
    + [f"{n}-reflected" for n in BATCH_NAMES])
def test_batch_rows_equal_single_solves(name, pens):
    spec = get_preset(name)
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


def _walk(spec, grid, schedule):
    """The limit driver as a stage-by-stage walk of single solves, with
    the contact residuals summed slice by slice."""
    dt = grid.dt
    lower, upper = spec.obstacles.lower, spec.obstacles.upper
    stages, prev = [], None
    for pen in schedule.steps:
        rep = solve_penalized(spec, grid, pen)
        y = rep.field.values[:, 1:-1]
        x = grid.x_nodes[1:-1]
        acc = [np.zeros(grid.nx - 1), np.zeros(grid.nx - 1)]
        for k in range(grid.nt):
            if lower is not None:
                gap = np.maximum(lower(0.0, x) - y[k], 0.0)
                acc[0] += gap * (dt * pen.m_lower * gap)
            if upper is not None:
                gap = np.maximum(y[k] - upper(0.0, x), 0.0)
                acc[1] += gap * (dt * pen.n_upper * gap)
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
    out = scheme.resolve_penalties(v, np.array([0.5, 0.5]), None, rows, 0.1)
    assert out[0].tobytes() == v[0].tobytes()
    assert out[1].tobytes() == scheme.resolve_penalties(
        v[1], np.array([0.5, 0.5]), None, PenaltyParams(4.0, 0.0),
        0.1).tobytes()


@pytest.mark.parametrize("nx,name,schedule", [
    (200, "double-active", PenaltySchedule.diagonal((4.0, 16.0, 64.0))),
    (48, "double-active", PenaltySchedule.fixed_m(16.0, (0.0, 4.0, 64.0))),
    (48, "lower-active", PenaltySchedule.fixed_n(0.0, (0.0, 16.0, 256.0))),
    (48, "upper-active", PenaltySchedule.diagonal((4.0, 16.0, 64.0, 256.0),
                                                  stop_tol=0.02)),
])
def test_limit_driver_equals_the_stage_walk(nx, name, schedule):
    # at nx=200 the contact residuals sum over several blocks of slices
    spec = get_preset(name)
    grid = build_grid(spec, nx=nx)
    _, trace = solve_limit(spec, grid, schedule, keep_reports=True)
    got = [(r.field.values.tobytes(), s.sup_diff, s.upper_violation,
            s.lower_violation, s.r_plus, s.r_minus)
           for s, r in zip(trace.stages, trace.reports)]
    assert got == _walk(spec, grid, schedule)


def _poison_row(monkeypatch, row, slice_k):
    """Make the kernel overflow row `row` at the step to slice k."""
    real = solvers._advance

    def advance(kernel, t):
        out = real(kernel, t)
        if out.ndim == 2 and t == kernel.grid.t_nodes[slice_k]:
            out[row, 3] = np.float64(1e308) * 10.0  # warns unless silenced
        return out

    monkeypatch.setattr(solvers, "_advance", advance)


def test_failure_past_the_stop_never_escapes(monkeypatch):
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=48)
    schedule = PenaltySchedule.diagonal(stop_tol=0.05)
    _, want = solve_limit(spec, grid, schedule)
    assert len(want.stages) == 2
    _poison_row(monkeypatch, 3, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final, trace = solve_limit(spec, grid, schedule)
    assert trace.stages == want.stages and trace.converged
    assert np.isfinite(final.field.values).all()


@pytest.mark.parametrize("row", [0, 1])
def test_failure_of_a_reported_stage_raises(monkeypatch, row):
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=48)
    _poison_row(monkeypatch, row, 5)
    with pytest.raises(StepFailure, match=f"step to slice 5 of {grid.nt}: "
                       "non-finite value at t="):
        solve_limit(spec, grid)


def test_a_failed_batch_row_raises_its_own_failure(monkeypatch):
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=48)
    _poison_row(monkeypatch, 1, 7)
    with pytest.raises(StepFailure, match=f"step to slice 7 of {grid.nt}: "
                       "non-finite value at t="):
        solve_penalized_batch(spec, grid, MIXED[:3])


# ---------------------------------------------------------------------------
# the kernel's work arrays stay inside it; each field owns its memory
# ---------------------------------------------------------------------------

def test_kernel_buffers_never_leak_out():
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=48)
    op = StepOperator(spec, grid)
    pen = PenaltyParams(64.0, 64.0)
    layer = np.sin(grid.x_nodes)
    kept = layer.tobytes()
    first = explicit_step(layer, grid.t_nodes[-2], op, pen)
    first_bytes = first.tobytes()
    second = explicit_step(first, grid.t_nodes[-3], op, pen)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == first_bytes  # also the second's next_layer
    assert layer.tobytes() == kept

    reports = solve_penalized_batch(spec, grid, MIXED)
    others = [r.field.values.tobytes() for r in reports[1:]]
    reports[0].field.values[...] = np.nan
    assert [r.field.values.tobytes() for r in reports[1:]] == others


@pytest.mark.parametrize("pens", [MIXED[:1], MIXED], ids=["single", "batch"])
def test_each_stored_field_owns_its_memory(pens):
    # views into one (S, nt+1, nx+1) block would keep every row's field
    # alive as long as any one report is kept
    spec = get_preset("double-active")
    _, fields, _ = solvers._solve_rows(spec, build_grid(spec, nx=48), pens)
    assert len(fields) == len(pens)
    assert all(values.base is None for values in fields)


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
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    calls = _count(monkeypatch, solvers, "_advance")
    _, trace = solve_limit(spec, grid)
    assert len(trace.stages) == 5 and calls[0] == grid.nt


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


def test_every_step_runs_through_the_kernel(monkeypatch):
    # a solve calls _Kernel.explicit once per step, a replay once per
    # block, and a replay builds one kernel per block shape
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=200)
    op = StepOperator(spec, grid)
    calls = _count(monkeypatch, scheme._Kernel, "explicit")
    built = _count(monkeypatch, decomposition, "_Kernel")

    def one_per_block(blocks):
        shapes = {k1 - k0 for k0, k1 in blocks}
        assert len(shapes) == 2  # one short block, the rest full
        assert calls[0] == len(blocks) and built[0] == len(shapes)
        calls[0] = built[0] = 0

    report = solve_penalized(spec, grid, PenaltyParams(64.0, 64.0))
    assert calls[0] == grid.nt
    calls[0] = 0
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

NX_ONE_FITS = 1500  # double-active: one field is 143 MiB, five are 716


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
    assert "716 MiB" in capsys.readouterr().err


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
    peak, _ = _traced_peak(lambda: reconstruct(report))
    assert peak <= 4 * field + slack
