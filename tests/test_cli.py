"""Command-line entry: verbs, config handling, exit codes, CSV outputs."""

import json

import pytest

from gobstacle import cli
from gobstacle.scheme import StepFailure

SMALL_GRID = {"nx": 64}


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
])
def test_bad_configs_exit_2(tmp_path, capsys, cfg, hint):
    code = run(tmp_path, cfg)
    assert code == 2
    assert hint in capsys.readouterr().err


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


def test_oversized_grid_exits_2(tmp_path, capsys):
    code = run(tmp_path, {"preset": "double-active", "grid": {"nx": 4000}})
    assert code == 2
    assert "memory cap" in capsys.readouterr().err


def test_unreadable_and_malformed_configs_exit_2(tmp_path, capsys):
    assert cli.main(["solve", "-c", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", "-c", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err and "not valid JSON" in err


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
