"""Command-line entry: verbs, config handling, exit codes, CSV outputs."""

import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from gobstacle import cli
from gobstacle.model import FnSpec, ProblemSpec
from gobstacle.presets import get_preset, list_presets
from gobstacle.scheme import StepFailure, build_grid

SMALL_GRID = {"nx": 64}
SINGLES = [p.name for p in list_presets() if p.kind == "single"]


def run(tmp_path, cfg, verb="solve"):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cli.main([verb, "-c", str(path)])


def test_presets_verb_lists_the_catalog(capsys):
    assert cli.main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("constant-sandwich", "double-active", "comparison-pair"):
        assert name in out


def test_solve_penalized_happy_path(tmp_path, capsys):
    code = run(tmp_path, {"preset": "constant-sandwich",
                          "grid": SMALL_GRID})
    assert code == 0
    out = capsys.readouterr().out
    assert "problem: constant-sandwich" in out
    assert "validation: clean" in out
    assert "initial slice: min=0.5, max=0.5" in out


def test_solve_writes_field_csv(tmp_path, capsys):
    csv = tmp_path / "field.csv"
    code = run(tmp_path, {"preset": "constant-sandwich",
                          "grid": SMALL_GRID,
                          "output": {"field_csv": str(csv),
                                     "slices": [0.0, 1.0]}})
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,x,u,z,da_plus,da_minus,defect"
    assert len(lines) == 1 + 2 * 65  # two slices, nx+1 nodes each
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == -10.0
    assert float(first[2]) == 0.5


def test_solve_report_file_mirrors_stdout(tmp_path, capsys):
    report = tmp_path / "run.txt"
    code = run(tmp_path, {"preset": "constant-sandwich",
                          "grid": SMALL_GRID,
                          "output": {"report": str(report)}})
    assert code == 0
    assert report.read_text() == capsys.readouterr().out


def test_solve_reruns_are_byte_identical(tmp_path):
    cfg = {"preset": "double-active", "grid": SMALL_GRID,
           "output": {"field_csv": str(tmp_path / "a.csv")}}
    run(tmp_path, cfg)
    first = (tmp_path / "a.csv").read_bytes()
    cfg["output"]["field_csv"] = str(tmp_path / "b.csv")
    run(tmp_path, cfg)
    assert first == (tmp_path / "b.csv").read_bytes()


def test_limit_mode_writes_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = run(tmp_path, {"preset": "double-active", "grid": SMALL_GRID,
                          "mode": "limit",
                          "schedule": {"intensities": [4.0, 16.0]},
                          "output": {"trace_csv": str(trace)}})
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "stage,n,m,sup_diff,upper_viol,lower_viol," \
                       "r_plus,r_minus"
    assert len(lines) == 3  # two stages
    assert lines[1].startswith("0,4,4,inf,")
    out = capsys.readouterr().out
    assert "stage 0" in out and "converged:" in out


def test_fixed_m_limit_holds_m_in_the_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    code = run(tmp_path, {"preset": "double-active", "grid": SMALL_GRID,
                          "mode": "limit",
                          "schedule": {"pairing": "fixed_m", "held": 16.0,
                                       "intensities": [4.0, 64.0]},
                          "output": {"trace_csv": str(trace)}})
    assert code == 0
    rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
    assert [(n, m) for _, n, m, *_ in rows] == [("4", "16"), ("64", "16")]


def test_reflected_mode_rejects_lower_intensity(tmp_path):
    code = run(tmp_path, {"preset": "double-active", "grid": SMALL_GRID,
                          "mode": "reflected_lower_pen_upper",
                          "penalty": {"m_lower": 4.0}})
    assert code == 2


def test_projection_mode_rejects_penalty_section(tmp_path):
    code = run(tmp_path, {"preset": "double-active", "grid": SMALL_GRID,
                          "mode": "projection",
                          "penalty": {"n_upper": 4.0}})
    assert code == 2


def test_inline_problem_config(tmp_path, capsys):
    problem = {
        "gparams": {"vol_low_sq": 1.0, "vol_high_sq": 2.0},
        "gen": {"f": {"kind": "constant", "value": 0.1},
                "zero_bound": 1.0},
        "obstacles": {"lower": {"kind": "constant", "value": -0.5},
                      "upper": {"kind": "constant", "value": 0.5}},
        "terminal": {"kind": "constant", "value": 0.0},
        "horizon": 0.5,
    }
    code = run(tmp_path, {"problem": problem, "grid": SMALL_GRID})
    assert code == 0
    assert "problem: inline" in capsys.readouterr().out


def test_the_documented_inline_problem_solves(tmp_path, capsys):
    # the schema example of the module docstring, as documented
    doc = re.search(r'\n    (\{\n      "gparams".*?\n    \})\n', cli.__doc__,
                    re.S)
    rec = json.loads(doc.group(1))
    ProblemSpec.from_dict(rec)  # raises SpecError on a drifted schema
    csv = tmp_path / "field.csv"
    code = run(tmp_path, {"problem": rec, "grid": SMALL_GRID,
                          "output": {"field_csv": str(csv), "slices": [0.0]}})
    assert code == 0, capsys.readouterr().err
    u0 = np.loadtxt(csv, delimiter=",", skiprows=1, usecols=2)
    assert u0.size == 65 and 0.0 <= u0.min() and u0.max() <= 1.0


def test_inline_obstacle_activity_follows_key_presence(tmp_path, capsys):
    problem = {
        "gparams": {"vol_low_sq": 1.0, "vol_high_sq": 2.0},
        "obstacles": {"lower": {"kind": "constant", "value": -0.5}},
        "terminal": {"kind": "constant", "value": 0.0},
    }
    code = run(tmp_path, {"problem": problem, "grid": SMALL_GRID,
                          "mode": "reflected_lower_pen_upper"})
    # the reflected solve needs the lower side active: key present -> ok
    assert code == 0


def _inline(**sections):
    """A valid inline problem record with some sections replaced."""
    rec = {"gparams": {"vol_low_sq": 1.0, "vol_high_sq": 2.0},
           "terminal": {"kind": "constant", "value": 0.0}}
    rec.update(sections)
    return rec


@pytest.mark.parametrize("cfg,hint", [
    ({"preset": "nope"}, "unknown preset"),
    ({"preset": "constant-sandwich", "problem": {}}, "exactly one"),
    ({}, "exactly one"),
    ({"preset": "constant-sandwich", "typo": 1}, "unknown keys"),
    ({"preset": "constant-sandwich", "grid": {"nx": 3}}, "nx"),
    ({"preset": "constant-sandwich", "mode": "zigzag"}, "unknown mode"),
    ({"preset": "comparison-pair"}, "pair"),
    ({"preset": "constant-sandwich",
      "output": {"trace_csv": "t.csv"}}, "limit"),
    ({"preset": "constant-sandwich",
      "output": {"slices": [0.0]}}, "field_csv"),
    ({"preset": "constant-sandwich",
      "output": {"field_csv": "f.csv", "slices": [9.0]}}, "outside"),
    ({"preset": "constant-sandwich",
      "output": {"field_csv": "f.csv", "slices": []}}, "non-empty"),
    ({"preset": "constant-sandwich", "mode": "limit",
      "schedule": {"pairing": "fixed_n", "intensities": [4, 8]}}, "held"),
    ({"preset": "constant-sandwich",
      "schedule": {"intensities": [4, 8]}}, "mode 'limit'"),
    ({"problem": {"gparams": {"vol_low_sq": 1.0, "vol_high_sq": 2.0},
                  "terminal": {"kind": "custom"}}}, "catalog"),
    ({"problem": {"gparams": {"vol_low_sq": 2.0, "vol_high_sq": 1.0},
                  "terminal": {"kind": "constant", "value": 0.0}}},
     "well ordered"),
    ({"problem": {"terminal": {"kind": "constant", "value": 0.0}}},
     "gparams"),
    ({"problem": _inline(gparams={"vol_low_sq": 1.0, "vol_high_sq": 2.0,
                                  "typo": 1.0})},
     "problem.gparams has unknown keys"),
    ({"problem": _inline(coeffs={"typo": 1.0})},
     "problem.coeffs has unknown keys"),
    ({"problem": _inline(gen={"typo": 1.0})}, "problem.gen has unknown keys"),
    ({"problem": _inline(obstacles={"typo": 1.0})},
     "problem.obstacles has unknown keys"),
    ({"problem": _inline(coeffs={"drift": None})}, "problem.coeffs.drift"),
    ({"problem": _inline(gen={"f": None})}, "problem.gen.f"),
    ({"problem": _inline(gen=[1.0])}, "problem.gen must be a JSON object"),
    ({"problem": _inline(terminal={"kind": "constant", "value": 0.0,
                                   "slope": 1.0})},
     "unknown fields ['slope']"),
    ({"problem": _inline(terminal={"kind": "affine", "slope": 1.0})},
     "misses field 'intercept'"),
    # malformed values: each is named by its key
    ({"preset": "constant-sandwich", "grid": {"nx": "abc"}}, "grid.nx"),
    ({"preset": "constant-sandwich", "grid": {"nx": float("inf")}},
     "grid.nx"),
    ({"preset": "constant-sandwich", "grid": {"nx": 64.5}},
     "grid.nx must be an integer"),
    ({"preset": "constant-sandwich", "grid": {"nx": True}}, "grid.nx"),
    ({"preset": "constant-sandwich", "penalty": {"m_lower": "x"}},
     "penalty.m_lower"),
    ({"problem": _inline(gparams={"vol_low_sq": "x", "vol_high_sq": 2.0})},
     "problem.gparams.vol_low_sq"),
    ({"problem": _inline(terminal={"kind": "constant", "value": "zz"})},
     "problem.terminal.value"),
    ({"problem": _inline(terminal={"kind": "polynomial", "coeffs": 5})},
     "problem.terminal.coeffs"),
    ({"problem": _inline(terminal={"kind": "polynomial", "coeffs": []})},
     "at least one coefficient"),
    ({"preset": "constant-sandwich", "mode": "limit",
      "schedule": {"intensities": 4}}, "schedule.intensities"),
    ({"preset": "constant-sandwich", "mode": "limit",
      "schedule": {"intensities": ["a"]}}, "schedule.intensities[0]"),
    ({"preset": "constant-sandwich", "mode": "limit",
      "schedule": {"pairing": {}}}, "unknown schedule pairing"),
    ({"problem": _inline(coeffs={"vol_floor": None})},
     "problem.coeffs.vol_floor"),
    ({"problem": _inline(gen={"lipschitz_z": float("nan")})},
     "problem.gen.lipschitz_z"),
    ({"problem": _inline(horizon=None)}, "problem.horizon"),
    ({"preset": ["x"]}, "unknown preset"),
    ({"preset": "constant-sandwich",
      "output": {"field_csv": "f.csv", "slices": [float("nan")]}},
     "output.slices[0]"),
    ({"preset": "constant-sandwich", "output": {"field_csv": 2}},
     "output.field_csv"),
    ({"preset": "constant-sandwich", "output": {"report": 2}},
     "output.report"),
    ({"preset": "constant-sandwich", "output": {"field_csv": ""}},
     "output.field_csv"),
    ({"preset": "constant-sandwich", "mode": "limit",
      "penalty": {"n_upper": 4.0}}, "mode 'limit' takes no penalty section"),
    ({"preset": "constant-sandwich", "mode": "limit",
      "schedule": {"held": 16.0}}, "schedule.held only applies"),
    # a function declares no moduli: they belong to its section
    ({"problem": _inline(gen={"g": {"kind": "quadratic_in_z", "gamma": 0.5,
                                    "lipschitz_z": 0.5}})},
     "problem.gen.g (quadratic_in_z) has unknown fields ['lipschitz_z']"),
    # ... and the section's modulus must cover the catalog drivers
    ({"problem": _inline(gen={"g": {"kind": "quadratic_in_z", "gamma": 0.5},
                              "lipschitz_z": 0.25})}, "[driver-z-modulus]"),
    # two outputs that resolve to one file, refused before the solve
    ({"preset": "double-active", "grid": {"nx": 48}, "mode": "limit",
      "output": {"field_csv": "out.csv", "trace_csv": "out.csv",
                 "report": "./out.csv"}},
     "output.trace_csv and output.field_csv name one file"),
    ({"preset": "constant-sandwich",
      "output": {"field_csv": "f.csv", "report": "./f.csv"}},
     "output.report and output.field_csv name one file"),
])
def test_bad_configs_exit_2(tmp_path, capsys, cfg, hint):
    code = run(tmp_path, cfg)
    assert code == 2
    assert hint in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["solve", "suite"])
def test_an_output_that_is_the_config_exits_2(tmp_path, monkeypatch,
                                              capsys, verb):
    # a relative output path that resolves to the config being read
    monkeypatch.chdir(tmp_path)
    text = json.dumps({"preset": "double-active", "grid": SMALL_GRID,
                       "output": {"field_csv": "f.csv",
                                  "report": "./cfg.json"}})
    (tmp_path / "cfg.json").write_text(text)
    assert cli.main([verb, "-c", str(tmp_path / "cfg.json")]) == 2
    assert "output.report and the config file name one file" \
        in capsys.readouterr().err
    assert (tmp_path / "cfg.json").read_text() == text
    assert not (tmp_path / "f.csv").exists()


def _problem_record(spec):
    """The inline config record of a problem: FnSpec.to_dict for the
    functions, the dataclass floats as they are, null for absent sides."""
    def section(obj):
        return {f.name: _value(getattr(obj, f.name)) for f in fields(obj)}

    def _value(v):
        return v.to_dict() if isinstance(v, FnSpec) else v

    return {"gparams": section(spec.gparams), "coeffs": section(spec.coeffs),
            "gen": section(spec.gen), "obstacles": section(spec.obstacles),
            "terminal": spec.terminal.to_dict(), "horizon": spec.horizon}


@pytest.mark.parametrize("name", SINGLES)
def test_inline_record_of_each_preset_parses_to_the_preset(name):
    spec = get_preset(name)
    rec = json.loads(json.dumps(_problem_record(spec)))
    assert cli._build_problem({"problem": rec}) == (spec, "inline")


def test_inline_record_solves_like_its_preset(tmp_path):
    outputs = {}
    for label, source in (
            ("preset", {"preset": "double-active"}),
            ("inline", {"problem": _problem_record(
                get_preset("double-active"))})):
        field, trace = tmp_path / f"{label}.csv", tmp_path / f"{label}.trc"
        cfg = dict(source, grid=SMALL_GRID, mode="limit",
                   output={"field_csv": str(field), "slices": [0.0, 0.5],
                           "trace_csv": str(trace)})
        assert run(tmp_path, cfg) == 0
        outputs[label] = (field.read_bytes(), trace.read_bytes())
    assert outputs["inline"] == outputs["preset"]


def test_validation_violations_exit_2(tmp_path, capsys):
    problem = {
        "gparams": {"vol_low_sq": 1.0, "vol_high_sq": 2.0},
        "obstacles": {"lower": {"kind": "constant", "value": 0.5},
                      "upper": {"kind": "constant", "value": -0.5}},
        "terminal": {"kind": "constant", "value": 0.0},
    }
    code = run(tmp_path, {"problem": problem, "grid": SMALL_GRID})
    assert code == 2
    assert "obstacle-order" in capsys.readouterr().err


def test_an_overflowing_drift_exits_2_with_one_line(tmp_path, capsys):
    # no np.errstate here: the suite turns any stray numpy warning into
    # an error, so the CFL probe must silence its own overflow
    problem = _inline(coeffs={"drift": {"kind": "affine", "slope": 1e308,
                                        "intercept": 0}})
    code = run(tmp_path, {"problem": problem, "grid": SMALL_GRID})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: CFL bound needs a step count")
    assert err.count("\n") == 1


def test_cell_peclet_violation_exits_2(tmp_path, capsys):
    problem = {
        "gparams": {"vol_low_sq": 1.0, "vol_high_sq": 2.0},
        "coeffs": {"drift": {"kind": "constant", "value": 60.0}},
        "terminal": {"kind": "tabulated", "xs": [-0.025, 0.025],
                     "values": [0.0, 1.0]},
    }
    code = run(tmp_path, {"problem": problem, "grid": {"nx": 400}})
    assert code == 2
    assert "cell-peclet" in capsys.readouterr().err


def test_non_finite_evaluation_exits_2(tmp_path, capsys):
    # f = 1e308*x overflows on the domain: validate raises, not reports
    problem = _inline(gen={"f": {"kind": "affine", "slope": 1e308,
                                 "intercept": 0.0}})
    with np.errstate(over="ignore"):
        code = run(tmp_path, {"problem": problem, "grid": SMALL_GRID})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "non-finite" in err


@pytest.mark.parametrize("problem,grid", [
    (_inline(coeffs={"drift": {"kind": "affine", "slope": 1e308,
                               "intercept": 0}}), SMALL_GRID),
    (_inline(gen={"lipschitz_y": 1e308}), SMALL_GRID),
    (_inline(), {"nx": 64, "x_min": 0, "x_max": 1e-300}),
    (_inline(), {"nx": 64, "x_min": -1e308, "x_max": 1e308}),
    (_inline(horizon=1e300), SMALL_GRID),
], ids=["drift-overflows", "lipschitz-y-overflows", "dx2-underflows",
        "span-overflows", "horizon-1e300"])
def test_an_infinite_cfl_count_exits_2(tmp_path, capsys, problem, grid):
    # not a traceback and exit 1, which means a failed suite check
    with np.errstate(over="ignore"):
        code = run(tmp_path, {"problem": problem, "grid": grid})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "nt=" not in err


def test_oversized_grid_exits_2(tmp_path, capsys):
    code = run(tmp_path, {"preset": "double-active", "grid": {"nx": 4000}})
    assert code == 2
    assert "memory cap" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["solve", "suite"])
def test_huge_nx_exits_2_before_allocating(tmp_path, monkeypatch, capsys,
                                           verb):
    # the preset builds no node table, so any linspace is the grid's own
    def refuse(*_):
        raise AssertionError("build_grid allocated before its memory check")

    monkeypatch.setattr(np, "linspace", refuse)
    code = run(tmp_path, {"preset": "constant-sandwich",
                          "grid": {"nx": 1000000000}}, verb=verb)
    assert code == 2
    assert "memory cap" in capsys.readouterr().err


def test_unreadable_and_malformed_configs_exit_2(tmp_path, capsys):
    assert cli.main(["solve", "-c", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", "-c", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err and "not valid JSON" in err


def test_undecodable_configs_exit_2(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text('{"preset": "constant-sandwich", "grid": {"nx": 1'
                    + "0" * 5000 + "}}")
    assert cli.main(["solve", "-c", str(huge)]) == 2
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    assert cli.main(["solve", "-c", str(binary)]) == 2
    assert capsys.readouterr().err.count("not valid JSON") == 2


def test_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise StepFailure("non-finite value at t=0")
    monkeypatch.setattr(cli, "solve_penalized", boom)
    code = run(tmp_path, {"preset": "constant-sandwich",
                          "grid": SMALL_GRID})
    assert code == 3
    assert "solver failure" in capsys.readouterr().err


def test_suite_verb_single_problem(tmp_path, capsys):
    code = run(tmp_path, {"preset": "constant-sandwich",
                          "grid": SMALL_GRID}, verb="suite")
    assert code == 0
    out = capsys.readouterr().out
    assert "suite: constant-sandwich" in out
    assert "PASS validation-clean" in out
    assert "result: 17 check(s), 0 failed" in out


def test_suite_verb_comparison_pair(tmp_path, capsys):
    code = run(tmp_path, {"preset": "comparison-pair",
                          "grid": SMALL_GRID}, verb="suite")
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS comparison-order" in out
    assert "result: 2 check(s), 0 failed" in out


def test_pair_grid_satisfies_both_members(tmp_path, monkeypatch, capsys):
    # lo declares larger generator moduli than hi, so its grid needs more
    # steps; the suite builds both grids and steps the pair on the finer
    hi, lo = get_preset("comparison-pair")
    lo = replace(lo, gen=replace(lo.gen, lipschitz_z=5.0))
    monkeypatch.setattr(cli, "get_preset", lambda name: (hi, lo))
    nt = build_grid(lo, nx=100).nt
    assert nt > build_grid(hi, nx=100).nt
    code = run(tmp_path, {"preset": "comparison-pair", "grid": {"nx": 100}},
               verb="suite")
    out = capsys.readouterr().out
    assert code == 0, out
    assert f"nx=100, nt={nt}," in out
    assert "result: 2 check(s), 0 failed" in out


@pytest.mark.parametrize("cfg,hint", [
    ({"preset": "comparison-pair", "schedule": {"intensities": "x"},
      "penalty": {"m_lower": "x"}, "mode": "bogus"}, "'mode' section"),
    ({"preset": "constant-sandwich", "penalty": {"m_lower": "x"},
      "mode": "bogus"}, "'mode' section"),
    ({"preset": "constant-sandwich", "penalty": {"n_upper": 4.0}},
     "'penalty' section"),
    ({"preset": "comparison-pair", "schedule": {"intensities": [4, 16]}},
     "schedule section"),
])
def test_suite_rejects_sections_it_never_reads(tmp_path, capsys, cfg, hint):
    assert run(tmp_path, cfg, verb="suite") == 2
    assert hint in capsys.readouterr().err


def test_suite_rejects_csvs_for_pairs(tmp_path, capsys):
    code = run(tmp_path, {"preset": "comparison-pair",
                          "output": {"field_csv": "f.csv"}}, verb="suite")
    assert code == 2
    assert "pair" in capsys.readouterr().err


def test_suite_failure_exits_1(tmp_path, capsys):
    # a schedule stopping at low intensity leaves the violation checks red
    code = run(tmp_path, {"preset": "double-active", "grid": SMALL_GRID,
                          "schedule": {"intensities": [4.0, 16.0]}},
               verb="suite")
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_no_verb_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        cli.main([])
