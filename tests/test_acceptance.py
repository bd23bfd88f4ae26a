"""End-to-end acceptance battery.

Every numbered criterion runs at the default grid (domain [-10, 10],
nx = 400, cfl_safety = 0.9, horizon 1, volatility band [1, 2]) unless
its statement says otherwise, and records one PASS/FAIL summary line
(printed in the terminal summary section).  Oracles are closed forms or
the quadrature-based classical solution - never the scheme itself.
"""

import json

import numpy as np
import pytest

from gobstacle import cli
from gobstacle.decomposition import reconstruct
from gobstacle.diagnostics import (
    classical_oracle,
    comparison_harness,
    inner_mask,
    sup_diff,
)
from gobstacle.presets import get_preset, list_presets
from gobstacle.scheme import PenaltyParams, build_grid
from gobstacle.solvers import (
    solve_double_projection,
    solve_limit,
    solve_lower_reflected_upper_penalized,
    solve_penalized,
)

MAX_SOLVE_SECONDS = 5.0


def _record(log, cid, ok, detail):
    line = f"criterion {cid:>2} {'PASS' if ok else 'FAIL'}: {detail}"
    log(line)
    assert ok, line


def _origin_index(grid):
    i = grid.nx // 2
    assert grid.x_nodes[i] == 0.0
    return i


# ---------------------------------------------------------------------------
# shared solves
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gheat_runs():
    """Convex/concave quadratic terminals vs their closed forms."""
    out = {}
    spec = get_preset("gheat-quadratic")
    for nx in (200, 400):
        grid = build_grid(spec, nx=nx)
        rep = solve_penalized(spec, grid, PenaltyParams())
        assert rep.wall_time <= MAX_SOLVE_SECONDS
        closed = (grid.x_nodes[None, :] ** 2
                  + 2.0 * (1.0 - grid.t_nodes[:, None]))
        m = inner_mask(grid)
        out[nx] = {
            "origin_err": abs(rep.field.values[0, _origin_index(grid)]
                              - 2.0),
            "inner_err": float(np.max(np.abs(
                rep.field.values[:, m] - closed[:, m]))),
        }
    spec = get_preset("gheat-concave")
    grid = build_grid(spec, nx=400)
    rep = solve_penalized(spec, grid, PenaltyParams())
    out["concave_origin_err"] = abs(
        rep.field.values[0, _origin_index(grid)] + 1.0)
    return out


@pytest.fixture(scope="module")
def colehopf_runs():
    """Degenerate band + quadratic gradient driver vs the quadrature
    oracle, at two resolutions (the genuine-order refinement pair)."""
    spec = get_preset("quadratic-gen-colehopf")
    errs = {}
    for nx in (200, 400):
        grid = build_grid(spec, nx=nx)
        rep = solve_penalized(spec, grid, PenaltyParams())
        assert rep.wall_time <= MAX_SOLVE_SECONDS
        errs[nx] = sup_diff(rep.field, classical_oracle(spec, grid),
                            inner=True)
    return errs


@pytest.fixture(scope="module")
def upper_ladder():
    """Upper-obstacle preset solved along the intensity ladder."""
    spec = get_preset("upper-active")
    grid = build_grid(spec)
    ladder = {}
    for n in (4.0, 16.0, 64.0, 256.0):
        rep = solve_penalized(spec, grid, PenaltyParams(0.0, n))
        assert rep.wall_time <= MAX_SOLVE_SECONDS
        ladder[n] = rep
    return ladder


@pytest.fixture(scope="module")
def double_runs():
    """Double-obstacle preset: scheduled limit, companion, projection."""
    spec = get_preset("double-active")
    grid = build_grid(spec)
    final, trace = solve_limit(spec, grid, keep_reports=True)
    refl = solve_lower_reflected_upper_penalized(spec, grid, 256.0)
    proj = solve_double_projection(spec, grid)
    return {"spec": spec, "grid": grid, "final": final, "trace": trace,
            "reflected_256": refl, "projection": proj}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_convex_heat_origin_and_refinement(gheat_runs, colehopf_runs,
                                               acceptance_log):
    e400 = gheat_runs[400]["origin_err"]
    e200 = gheat_runs[200]["origin_err"]
    ok_origin = e400 <= 2e-2
    # the scheme is exact on quadratics at the origin, so both errors sit
    # at rounding level and their ratio is noise; accept either a real
    # >= 1.5x reduction or both errors under the 1e-10 precision floor,
    # and require the genuine second-order refinement on the oracle
    # problem whose data is flat at the walls
    ok_ratio = (e200 / max(e400, 1e-300) >= 1.5
                or max(e200, e400) <= 1e-10)
    ratio_ch = colehopf_runs[200] / colehopf_runs[400]
    ok_order = ratio_ch >= 1.5
    ok_inner = gheat_runs[400]["inner_err"] <= 2e-2
    _record(acceptance_log, 1,
            ok_origin and ok_ratio and ok_order and ok_inner,
            f"convex quadratic: |u(0,0)-2|={e400:.3g} <= 2e-2; "
            f"origin errors ({e200:.3g}, {e400:.3g}) at precision floor; "
            f"wall-compatible refinement ratio {ratio_ch:.2f} >= 1.5; "
            f"inner-half closed-form error {gheat_runs[400]['inner_err']:.3g}")


def test_c02_concave_heat_origin(gheat_runs, acceptance_log):
    err = gheat_runs["concave_origin_err"]
    _record(acceptance_log, 2, err <= 2e-2,
            f"concave quadratic: |u(0,0)+1|={err:.3g} <= 2e-2")


def test_c03_classical_reduction(colehopf_runs, acceptance_log):
    err = colehopf_runs[400]
    _record(acceptance_log, 3, err <= 5e-3,
            f"degenerate band + quadratic driver vs quadrature oracle: "
            f"inner-half sup {err:.3g} <= 5e-3")


def test_c04_penalty_residual_rate(upper_ladder, acceptance_log):
    ns = sorted(upper_ladder)
    prods = [n * upper_ladder[n].sup_upper_violation for n in ns]
    ratios = [b / a for a, b in zip(prods, prods[1:])]
    ok_factor = all(max(r, 1.0 / r) < 3.0 for r in ratios)
    ok_tail = all(r <= 1.1 for r in ratios[1:])  # after the second stage
    _record(acceptance_log, 4, ok_factor and ok_tail,
            "intensity * worst upper crossing stays flat: "
            + ", ".join(f"n={int(n)}:{p:.4f}" for n, p in zip(ns, prods))
            + f"; consecutive ratios within 3x, late ratios <= 1.1")


def test_c05_lower_violation_vanishes(double_runs, acceptance_log):
    last = double_runs["trace"].stages[-1]
    ok = last.lower_violation <= 1e-3
    _record(acceptance_log, 5, ok,
            f"final stage (intensity {int(last.n_upper)}): "
            f"sup (lower-u)+ = {last.lower_violation:.3g} <= 1e-3")


def test_c06_monotone_in_intensity(upper_ladder, acceptance_log):
    ns = sorted(upper_ladder)
    worst = -np.inf
    for a, b in zip(ns, ns[1:]):
        d = upper_ladder[b].field.values - upper_ladder[a].field.values
        worst = max(worst, float(np.max(d)))
    ok_mono = worst <= 1e-10
    diffs = [float(np.max(np.abs(upper_ladder[b].field.values
                                 - upper_ladder[a].field.values)))
             for a, b in zip(ns, ns[1:])]
    ok_contract = all(b < a for a, b in zip(diffs, diffs[1:]))
    _record(acceptance_log, 6, ok_mono and ok_contract,
            f"pointwise non-increasing in intensity (worst rise "
            f"{worst:.3g} <= 1e-10); stage differences strictly "
            "decreasing: " + ", ".join(f"{d:.4f}" for d in diffs))


def test_c07_construction_agreement(double_runs, acceptance_log):
    trace = double_runs["trace"]
    stage = next(s for s in trace.stages if s.n_upper == 256.0)
    pen_field = trace.reports[stage.stage].field
    gap = sup_diff(pen_field, double_runs["reflected_256"].field)
    _record(acceptance_log, 7, gap <= 2e-3,
            f"two-sided penalty vs lower-reflected companion at "
            f"intensity 256: sup gap {gap:.3g} <= 2e-3")


def test_c08_limit_matches_projection(double_runs, acceptance_log):
    gap = sup_diff(double_runs["final"].field,
                   double_runs["projection"].field, inner=True)
    _record(acceptance_log, 8, gap <= 5e-3,
            f"scheduled limit vs band projection, inner half: "
            f"{gap:.3g} <= 5e-3")


def test_c09_contact_residuals_decay(double_runs, acceptance_log):
    stages = double_runs["trace"].stages
    rp = [s.r_plus for s in stages]
    rm = [s.r_minus for s in stages]
    ok_decay = (all(b < a for a, b in zip(rp, rp[1:]))
                and all(b < a for a, b in zip(rm, rm[1:])))
    ok_final = rp[-1] <= 1e-3 and rm[-1] <= 1e-3
    _record(acceptance_log, 9, ok_decay and ok_final,
            f"contact residuals decrease along the schedule; final "
            f"r+={rp[-1]:.3g}, r-={rm[-1]:.3g} <= 1e-3")


def test_c10_no_scenario_beats_the_envelope(acceptance_log):
    worst = -np.inf
    combos = 0
    for preset in list_presets():
        built = get_preset(preset.name)
        specs = built if isinstance(built, tuple) else (built,)
        for spec in specs:
            grid = build_grid(spec)
            runs = [(solve_penalized(spec, grid, PenaltyParams(64.0, 64.0)),
                     PenaltyParams(64.0, 64.0), "penalized")]
            if spec.obstacles.lower_active:
                runs.append((
                    solve_lower_reflected_upper_penalized(spec, grid, 64.0),
                    PenaltyParams(0.0, 64.0), "project_lower"))
            if spec.obstacles.lower_active or spec.obstacles.upper_active:
                runs.append((solve_double_projection(spec, grid),
                             PenaltyParams(), "project_both"))
            for rep, pen, mode in runs:
                assert rep.wall_time <= MAX_SOLVE_SECONDS
                bundle = reconstruct(rep.field, spec, pen, mode=mode)
                d = float(np.max(bundle.defect.values[:-1, 1:-1]))
                worst = max(worst, d)
                combos += 1
    _record(acceptance_log, 10, worst <= 1e-10,
            f"five-scenario defect scan over {combos} preset/mode "
            f"combinations: worst defect {worst:.3g} <= 1e-10")


def test_c11_comparison_orders_outputs(acceptance_log):
    hi, lo = get_preset("comparison-pair")
    # the pair separates all four ordered data channels
    assert hi.terminal != lo.terminal and hi.gen.f != lo.gen.f
    assert hi.gen.g != lo.gen.g
    assert (hi.obstacles.lower != lo.obstacles.lower
            and hi.obstacles.upper != lo.obstacles.upper)
    grid = build_grid(hi)
    rep = comparison_harness(hi, lo, grid)
    _record(acceptance_log, 11, rep.passed and rep.min_diff >= -1e-10,
            f"ordered data in terminal/f/g/obstacles: min(u_hi-u_lo) = "
            f"{rep.min_diff:.3g} >= -1e-10 at {rep.where}")


def test_c12_suite_is_byte_deterministic(tmp_path, acceptance_log):
    outputs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        cfg = {"preset": "double-active",
               "output": {"field_csv": str(d / "field.csv"),
                          "trace_csv": str(d / "trace.csv"),
                          "slices": [0.0, 0.5, 1.0]}}
        cfg_path = d / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main(["suite", "-c", str(cfg_path)])
        assert code == 0
        outputs.append(((d / "field.csv").read_bytes(),
                        (d / "trace.csv").read_bytes()))
    same = outputs[0] == outputs[1]
    n_bytes = len(outputs[0][0]) + len(outputs[0][1])
    _record(acceptance_log, 12, same,
            f"two suite runs produced byte-identical CSVs "
            f"({n_bytes} bytes compared)")
