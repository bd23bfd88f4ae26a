"""The field CSV's rows: `gobstacle solve` replays and compares every
step but builds the bundle's rows only at the slices it writes.  Those
rows must equal `reconstruct`'s byte for byte (the CSV's 17-digit
rendering hides the sign of a zero), and a report whose replay differs
must be refused whichever slices are written."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gobstacle import cli
from gobstacle.decomposition import _bundle_rows, reconstruct
from gobstacle.model import CoefficientSet, FnSpec, GeneratorSpec, GParams, \
    ObstaclePair, ProblemSpec, SpecError
from gobstacle.presets import get_preset, list_presets
from gobstacle.scheme import PenaltyParams, StepOperator, build_grid
from gobstacle.solvers import solve_penalized

MODES = ("penalized", "reflected_lower_pen_upper", "projection", "limit")


def _accepted(name, mode):
    ob = get_preset(name).obstacles
    if mode == "reflected_lower_pen_upper":
        return ob.lower_active
    if mode == "projection":
        return ob.lower_active or ob.upper_active
    return True


CASES = [(p.name, mode) for p in list_presets() if p.kind == "single"
         for mode in MODES if _accepted(p.name, mode)]


def _slices(spec, grid):
    """Slice indices: an interior one, the first, the last of the
    next-to-last replay block (of the only one) and the terminal one, in
    that (unsorted) order.  A full replay steps in blocks of a fifth of
    the element budget (`decomposition._REPLAY_SHARE`)."""
    blocks = StepOperator(spec, grid).blocks(grid.nt, rows=5)
    ks = [grid.nt // 3, 0, blocks[-2:][0][1] - 1, grid.nt]
    assert len(set(ks)) == len(ks)
    return ks


def _assert_rows_equal(report, ks, rows):
    bundle = reconstruct(report)
    full = (bundle.y.values, bundle.z.values, bundle.da_plus,
            bundle.da_minus, bundle.defect.values)
    assert len(rows) == len(full)
    for got, want in zip(rows, full):
        assert got.shape == (len(ks), want.shape[1])
        for j, k in enumerate(ks):
            assert got[j].tobytes() == want[k].tobytes(), k


def test_cases_cover_every_single_preset():
    assert {name for name, _ in CASES} \
        == {p.name for p in list_presets() if p.kind == "single"}
    assert {mode for _, mode in CASES} == set(MODES)


@pytest.mark.parametrize("name,mode", CASES)
def test_cli_rows_equal_the_bundle_rows(tmp_path, monkeypatch, name, mode):
    seen = {}

    def bundle_rows(report, ks, *args):
        seen["report"] = report
        return _bundle_rows(report, ks, *args)

    def write_field_csv(path, grid, ks, rows):
        seen["ks"], seen["rows"] = ks, rows

    monkeypatch.setattr(cli, "_bundle_rows", bundle_rows)
    monkeypatch.setattr(cli, "_write_field_csv", write_field_csv)
    spec = get_preset(name)
    grid = build_grid(spec, nx=64)
    ks = _slices(spec, grid)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "preset": name, "grid": {"nx": 64}, "mode": mode,
        "output": {"field_csv": str(tmp_path / "f.csv"),
                   "slices": [float(grid.t_nodes[k]) for k in ks]}}))
    assert cli.main(["solve", "-c", str(cfg)]) == 0
    assert seen["ks"] == ks
    _assert_rows_equal(seen["report"], ks, seen["rows"])


def _t_dependent_driver():
    spec = get_preset("double-active")
    base = spec.gen.f
    f = FnSpec.custom(
        lambda t, x, y, z: base(t, x) * np.cos(2.0 * np.pi * t))
    return replace(spec, gen=replace(spec.gen, f=f))


def _upwind():
    # affine drift 8x over a 0-to-1 step: one-sided differences where
    # |x| > 2.5
    return ProblemSpec(
        gparams=GParams(1.0, 2.0),
        coeffs=CoefficientSet(drift=FnSpec.affine(8.0, 0.0)),
        gen=GeneratorSpec(zero_bound=100.0), obstacles=ObstaclePair(),
        terminal=FnSpec.tabulated([-0.025, 0.025], [0.0, 1.0]))


def _double_active():
    return get_preset("double-active")


@pytest.mark.parametrize("make,nx", [(_t_dependent_driver, 64),
                                     (_upwind, 64), (_double_active, 400)])
def test_rows_off_the_cli_equal_the_bundle_rows(make, nx):
    # library-only problems, a custom driver (one slice per replay
    # block) and a drift the step upwinds, and a preset at an nx where
    # its replay takes many blocks
    spec = make()
    grid = build_grid(spec, nx=nx)
    op = StepOperator(spec, grid)
    assert op.per_slice == (make is _t_dependent_driver)
    assert (op.upwind is not None) == (make is _upwind)
    assert len(op.blocks(grid.nt)) > 1
    report = solve_penalized(spec, grid, PenaltyParams(64.0, 64.0))
    ks = _slices(spec, grid)
    rows = (report.field.values[ks],) + _bundle_rows(report, ks)[:4]
    _assert_rows_equal(report, ks, rows)


def test_an_edited_pen_is_refused_at_the_terminal_slice(tmp_path,
                                                        monkeypatch, capsys):
    # the CSV asks for the terminal slice only, which no step produces;
    # the replay still checks every step
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    report = solve_penalized(spec, grid, PenaltyParams(64.0, 64.0))
    edited = replace(report, pen=PenaltyParams(64.0, 65.0))
    with pytest.raises(SpecError, match="does not reproduce"):
        _bundle_rows(edited, [grid.nt])
    monkeypatch.setattr(cli, "solve_penalized", lambda *args: edited)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "preset": "double-active", "grid": {"nx": 64},
        "output": {"field_csv": str(tmp_path / "f.csv"), "slices": [1.0]}}))
    assert cli.main(["solve", "-c", str(cfg)]) == 2
    assert "does not reproduce" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_the_rows_hold_less_than_one_field():
    # numpy reports its allocations to tracemalloc: the CSV's rows, the
    # replay kernel and its blocks stay below one field-size array
    spec = get_preset("quadratic-drift")
    grid = build_grid(spec, nx=400)
    report = solve_penalized(spec, grid, PenaltyParams(64.0, 64.0))
    ks = [0, grid.nt // 2, grid.nt]
    tracemalloc.start()
    try:
        _bundle_rows(report, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (grid.nt + 1) * (grid.nx + 1) * 8


def test_reconstruct_writes_whole_arrays():
    # asked for every slice, the replay writes each block's rows in
    # place: the bundle's arrays own their memory, with no hidden row
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    bundle = reconstruct(solve_penalized(spec, grid,
                                         PenaltyParams(64.0, 64.0)))
    for a in (bundle.z.values, bundle.da_plus, bundle.da_minus,
              bundle.defect.values, bundle.scenario_high):
        assert a.base is None
    assert bundle.scenario_high.shape == (grid.nt, grid.nx - 1)
