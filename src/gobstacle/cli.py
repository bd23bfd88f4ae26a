"""Command line front end.

Verbs
-----
gobstacle presets
    List the packaged problem presets.
gobstacle solve --config CFG.json
    One backward solve (or the scheduled limit) with CSV/report outputs.
gobstacle suite --config CFG.json
    Structural property battery; a pair preset runs the ordering suite.

Exit codes: 0 success / all checks pass, 1 at least one suite check
failed, 2 invalid configuration (bad JSON, unknown keys or preset,
malformed problem, slice out of range, infeasible grid), 3 solver
failure (non-finite values during stepping).

Configuration (JSON object); exactly one of "preset"/"problem":

    {
      "preset": "double-active",
      "grid": {"x_min": -10, "x_max": 10, "nx": 400, "cfl_safety": 0.9},
      "mode": "limit",
      "penalty": {"m_lower": 64, "n_upper": 64},
      "schedule": {"pairing": "diagonal",
                   "intensities": [4, 16, 64, 256, 1024],
                   "stop_tol": 1e-4},
      "output": {"field_csv": "field.csv", "slices": [0.0],
                 "trace_csv": "trace.csv", "report": "report.txt"}
    }

"mode" is used by the solve verb: "penalized" (fixed intensities from
"penalty"), "reflected_lower_pen_upper" (exact lower reflection, upper
intensity from penalty.n_upper), "projection" (band projection, no
penalty section), or "limit" (walk the schedule; enables trace_csv).
A "schedule" section is accepted only with mode "limit" (and by the
suite verb); fixed-pairing schedules ("fixed_n"/"fixed_m") take the
held intensity in "held" and the varying list in "intensities".  The
suite verb accepts the same "output" section for single-problem runs;
its CSVs come from the final schedule stage.

An inline "problem" uses the serializable function catalog (kinds
constant/affine/polynomial/quadratic_in_z/tabulated; "custom" is
library-only and rejected here):

    {
      "gparams": {"vol_low_sq": 1.0, "vol_high_sq": 2.0},
      "coeffs": {"drift": {"kind": "constant", "value": 0.0},
                 "cross": {"kind": "constant", "value": 0.0},
                 "sigma": {"kind": "constant", "value": 1.0},
                 "vol_floor": 1.0, "vol_cap": 1.0},
      "gen": {"f": {"kind": "constant", "value": 0.0},
              "g": {"kind": "quadratic_in_z", "gamma": 0.5},
              "lipschitz_y": 0.0, "lipschitz_z": 0.5, "zero_bound": 1.0},
      "obstacles": {"lower": {"kind": "constant", "value": -0.25},
                    "upper": null, "level_bound": 1.0},
      "terminal": {"kind": "polynomial", "coeffs": [0, 0, 1], "clip": 100},
      "horizon": 1.0
    }

Obstacle sides are active exactly when their key is present and not
null.  Every float in the CSV outputs is rendered with 17 significant
digits, so repeated runs of one configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .decomposition import reconstruct
from .diagnostics import run_comparison_suite, run_property_suite
from .model import CoefficientSet, EvaluationError, FnSpec, GParams, \
    GeneratorSpec, ObstaclePair, ProblemSpec, SpecError, validate
from .presets import get_preset, list_presets
from .scheme import GridError, PenaltyParams, StepFailure, build_grid
from .solvers import DEFAULT_INTENSITIES, DEFAULT_STOP_TOL, \
    PenaltySchedule, solve_double_projection, solve_limit, \
    solve_lower_reflected_upper_penalized, solve_penalized

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_SOLVER_FAILURE = 3

_TOP_KEYS = ("preset", "problem", "grid", "mode", "penalty", "schedule",
             "output")
_CLI_MODES = ("penalized", "reflected_lower_pen_upper", "projection",
              "limit")


class ConfigError(ValueError):
    """The configuration file cannot be turned into a run."""


def _f17(v):
    f = float(v)
    if f == 0.0:
        f = 0.0  # collapse -0.0
    return "%.17g" % f


def _check_keys(rec, allowed, where):
    if not isinstance(rec, dict):
        raise ConfigError(f"{where} must be a JSON object")
    extra = sorted(set(rec) - set(allowed))
    if extra:
        raise ConfigError(f"{where} has unknown keys {extra}")


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}")
    _check_keys(cfg, _TOP_KEYS, "config")
    return cfg


def _fnspec(rec, where):
    if not isinstance(rec, dict):
        raise ConfigError(f"{where} must be a function record (JSON object)")
    try:
        return FnSpec.from_dict(rec)
    except SpecError as err:
        raise ConfigError(f"{where}: {err}")


def _problem_from_config(rec):
    _check_keys(rec, ("gparams", "coeffs", "gen", "obstacles", "terminal",
                      "horizon"), "problem")
    for req in ("gparams", "terminal"):
        if req not in rec:
            raise ConfigError(f"problem misses required section {req!r}")

    gp = rec["gparams"]
    _check_keys(gp, ("vol_low_sq", "vol_high_sq"), "problem.gparams")
    if "vol_low_sq" not in gp or "vol_high_sq" not in gp:
        raise ConfigError("problem.gparams needs vol_low_sq and vol_high_sq")
    gparams = GParams(float(gp["vol_low_sq"]), float(gp["vol_high_sq"]))

    coeffs = CoefficientSet()
    if "coeffs" in rec:
        c = rec["coeffs"]
        _check_keys(c, ("drift", "cross", "sigma", "vol_floor", "vol_cap"),
                    "problem.coeffs")
        kw = {}
        for name in ("drift", "cross", "sigma"):
            if name in c:
                kw[name] = _fnspec(c[name], f"problem.coeffs.{name}")
        for name in ("vol_floor", "vol_cap"):
            if name in c:
                kw[name] = float(c[name])
        coeffs = CoefficientSet(**kw)

    gen = GeneratorSpec()
    if "gen" in rec:
        g = rec["gen"]
        _check_keys(g, ("f", "g", "lipschitz_y", "lipschitz_z",
                        "zero_bound"), "problem.gen")
        kw = {}
        for name in ("f", "g"):
            if name in g:
                kw[name] = _fnspec(g[name], f"problem.gen.{name}")
        for name in ("lipschitz_y", "lipschitz_z", "zero_bound"):
            if name in g:
                kw[name] = float(g[name])
        gen = GeneratorSpec(**kw)

    obstacles = ObstaclePair.none()
    if "obstacles" in rec:
        o = rec["obstacles"]
        _check_keys(o, ("lower", "upper", "level_bound"), "problem.obstacles")
        sides = {name: _fnspec(o[name], f"problem.obstacles.{name}")
                 for name in ("lower", "upper") if o.get(name) is not None}
        obstacles = ObstaclePair(
            **sides, level_bound=float(o.get("level_bound", 1.0)))

    terminal = _fnspec(rec["terminal"], "problem.terminal")
    return ProblemSpec(gparams=gparams, coeffs=coeffs, gen=gen,
                       obstacles=obstacles, terminal=terminal,
                       horizon=float(rec.get("horizon", 1.0)))


def _build_problem(cfg):
    """Returns (problem-or-pair, label)."""
    if ("preset" in cfg) == ("problem" in cfg):
        raise ConfigError("config needs exactly one of 'preset' or 'problem'")
    try:
        if "preset" in cfg:
            return get_preset(cfg["preset"]), str(cfg["preset"])
        return _problem_from_config(cfg["problem"]), "inline"
    except SpecError as err:
        raise ConfigError(str(err))


def _build_grid(cfg, spec):
    rec = cfg.get("grid", {})
    _check_keys(rec, ("x_min", "x_max", "nx", "cfl_safety"), "grid")
    try:
        return build_grid(spec,
                          x_min=float(rec.get("x_min", -10.0)),
                          x_max=float(rec.get("x_max", 10.0)),
                          nx=int(rec.get("nx", 400)),
                          cfl_safety=float(rec.get("cfl_safety", 0.9)))
    except GridError as err:
        raise ConfigError(str(err))


def _build_penalty(cfg):
    rec = cfg.get("penalty", {})
    _check_keys(rec, ("m_lower", "n_upper"), "penalty")
    try:
        return PenaltyParams(m_lower=float(rec.get("m_lower", 64.0)),
                             n_upper=float(rec.get("n_upper", 64.0)))
    except SpecError as err:
        raise ConfigError(str(err))


def _build_schedule(cfg):
    rec = cfg.get("schedule")
    if rec is None:
        return PenaltySchedule.diagonal()
    _check_keys(rec, ("pairing", "intensities", "stop_tol", "held"),
                "schedule")
    pairing = rec.get("pairing", "diagonal")
    vals = rec.get("intensities", list(DEFAULT_INTENSITIES))
    tol = float(rec.get("stop_tol", DEFAULT_STOP_TOL))
    try:
        if pairing == "diagonal":
            if "held" in rec:
                raise ConfigError("schedule.held only applies to the "
                                  "fixed_n/fixed_m pairings")
            return PenaltySchedule.diagonal(vals, tol)
        if pairing == "fixed_n":
            if "held" not in rec:
                raise ConfigError("pairing 'fixed_n' needs schedule.held "
                                  "(the constant n_upper)")
            return PenaltySchedule.fixed_n(float(rec["held"]), vals, tol)
        if pairing == "fixed_m":
            if "held" not in rec:
                raise ConfigError("pairing 'fixed_m' needs schedule.held "
                                  "(the constant m_lower)")
            return PenaltySchedule.fixed_m(float(rec["held"]), vals, tol)
        raise ConfigError(f"unknown schedule pairing {pairing!r}")
    except SpecError as err:
        raise ConfigError(str(err))


def _validated(spec, grid):
    try:
        vrep = validate(spec, grid)
    except EvaluationError as err:
        raise ConfigError(str(err))
    if not vrep.ok:
        raise ConfigError(str(vrep))
    return vrep


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def _slice_indices(grid, slices):
    if slices is None:
        slices = [0.0]
    if not isinstance(slices, (list, tuple)) or not slices:
        raise ConfigError("output.slices must be a non-empty list of times")
    idxs = []
    for raw in slices:
        t = float(raw)
        if t < -1e-12 or t > grid.horizon + 1e-12:
            raise ConfigError(f"output slice t={t:g} lies outside "
                              f"[0, {grid.horizon:g}]")
        k = int(np.argmin(np.abs(grid.t_nodes - t)))
        if k not in idxs:
            idxs.append(k)
    return idxs


def _write_field_csv(path, bundle, ks):
    grid = bundle.y.grid
    lines = ["t,x,u,z,da_plus,da_minus,defect"]
    for k in ks:
        t = grid.t_nodes[k]
        for i in range(grid.nx + 1):
            lines.append(",".join(_f17(v) for v in (
                t, grid.x_nodes[i], bundle.y.values[k, i],
                bundle.z.values[k, i], bundle.da_plus[k, i],
                bundle.da_minus[k, i], bundle.defect.values[k, i])))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_trace_csv(path, trace):
    lines = ["stage,n,m,sup_diff,upper_viol,lower_viol,r_plus,r_minus"]
    for s in trace.stages:
        lines.append("%d," % s.stage + ",".join(_f17(v) for v in (
            s.n_upper, s.m_lower, s.sup_diff, s.upper_violation,
            s.lower_violation, s.r_plus, s.r_minus)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(text, report_path):
    sys.stdout.write(text)
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(text)


def _grid_line(grid):
    return (f"grid: x in [{grid.x_min:g}, {grid.x_max:g}], nx={grid.nx}, "
            f"nt={grid.nt}, dx={grid.dx:.6g}, dt={grid.dt:.6g}")


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_presets(args):
    for p in list_presets():
        print(f"{p.name:24} {p.kind:7} {p.description}")
    return EXIT_OK


def _cmd_solve(args):
    cfg = _load_config(args.config)
    built, label = _build_problem(cfg)
    if isinstance(built, tuple):
        raise ConfigError(f"preset {label!r} is a problem pair; "
                          "run it with the suite verb")
    spec = built
    grid = _build_grid(cfg, spec)
    vrep = _validated(spec, grid)

    mode = cfg.get("mode", "penalized")
    if mode not in _CLI_MODES:
        known = ", ".join(_CLI_MODES)
        raise ConfigError(f"unknown mode {mode!r}; use one of: {known}")
    out_rec = cfg.get("output", {})
    _check_keys(out_rec, ("field_csv", "slices", "trace_csv", "report"),
                "output")
    if out_rec.get("trace_csv") and mode != "limit":
        raise ConfigError("output.trace_csv needs mode 'limit'")
    if "schedule" in cfg and mode != "limit":
        raise ConfigError("a schedule section needs mode 'limit'")
    if "slices" in out_rec and not out_rec.get("field_csv"):
        raise ConfigError("output.slices needs output.field_csv")

    trace = None
    try:
        if mode == "penalized":
            pen = _build_penalty(cfg)
            rep = solve_penalized(spec, grid, pen)
            rec_mode = "penalized"
        elif mode == "reflected_lower_pen_upper":
            rec = cfg.get("penalty", {})
            _check_keys(rec, ("m_lower", "n_upper"), "penalty")
            if float(rec.get("m_lower", 0.0)) != 0.0:
                raise ConfigError("mode 'reflected_lower_pen_upper' uses "
                                  "only penalty.n_upper; drop m_lower")
            n_upper = float(rec.get("n_upper", 64.0))
            rep = solve_lower_reflected_upper_penalized(spec, grid, n_upper)
            pen = PenaltyParams(0.0, n_upper)
            rec_mode = "project_lower"
        elif mode == "projection":
            if "penalty" in cfg:
                raise ConfigError("mode 'projection' takes no penalty "
                                  "section")
            rep = solve_double_projection(spec, grid)
            pen = PenaltyParams()
            rec_mode = "project_both"
        else:  # limit
            schedule = _build_schedule(cfg)
            rep, trace = solve_limit(spec, grid, schedule)
            last = trace.stages[-1]
            pen = PenaltyParams(last.m_lower, last.n_upper)
            rec_mode = "penalized"
    except SpecError as err:
        raise ConfigError(str(err))

    lines = [f"problem: {label}", f"mode: {mode}", _grid_line(grid),
             str(vrep)]
    if trace is not None:
        for s in trace.stages:
            lines.append(
                f"  stage {s.stage}: m={s.m_lower:g} n={s.n_upper:g} "
                f"sup_diff={s.sup_diff:.6g} "
                f"upper_viol={s.upper_violation:.6g} "
                f"lower_viol={s.lower_violation:.6g} "
                f"r_plus={s.r_plus:.6g} r_minus={s.r_minus:.6g}")
        lines.append(f"converged: {'yes' if trace.converged else 'no'} "
                     f"(stop_tol={trace.stop_tol:g}, "
                     f"stages={len(trace.stages)})")
    u0 = rep.field.values[0]
    lines.append(f"initial slice: min={np.min(u0):.6g}, "
                 f"max={np.max(u0):.6g}")
    lines.append(f"sup (u-upper)+ = {rep.sup_upper_violation:.6g}; "
                 f"sup (lower-u)+ = {rep.sup_lower_violation:.6g}")
    lines.append(f"steps: {rep.iterations}")

    written = []
    if out_rec.get("field_csv"):
        ks = _slice_indices(grid, out_rec.get("slices"))
        bundle = reconstruct(rep.field, spec, pen, mode=rec_mode)
        _write_field_csv(out_rec["field_csv"], bundle, ks)
        written.append(f"{out_rec['field_csv']} ({len(ks)} slice(s))")
    if out_rec.get("trace_csv"):
        _write_trace_csv(out_rec["trace_csv"], trace)
        written.append(str(out_rec["trace_csv"]))
    if written:
        lines.append("wrote: " + ", ".join(written))

    _emit("\n".join(lines) + "\n", out_rec.get("report"))
    return EXIT_OK


def _cmd_suite(args):
    cfg = _load_config(args.config)
    built, label = _build_problem(cfg)
    out_rec = cfg.get("output", {})
    _check_keys(out_rec, ("field_csv", "slices", "trace_csv", "report"),
                "output")

    if isinstance(built, tuple):
        if out_rec.get("field_csv") or out_rec.get("trace_csv"):
            raise ConfigError("CSV outputs need a single-problem suite; "
                              f"{label!r} is a pair")
        hi, lo = built
        grid = _build_grid(cfg, hi)
        result = run_comparison_suite(hi, lo, grid)
    else:
        grid = _build_grid(cfg, built)
        _validated(built, grid)
        schedule = _build_schedule(cfg)
        result = run_property_suite(built, grid, schedule)

    lines = [f"suite: {label}", _grid_line(grid)]
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status} {c.name}: value={c.value:.6g} "
                     f"threshold={c.threshold:.6g} ({c.detail})")
    failed = sum(1 for c in result.checks if not c.passed)
    lines.append(f"result: {len(result.checks)} check(s), {failed} failed")

    written = []
    if out_rec.get("field_csv"):
        ks = _slice_indices(grid, out_rec.get("slices"))
        _write_field_csv(out_rec["field_csv"], result.bundle, ks)
        written.append(f"{out_rec['field_csv']} ({len(ks)} slice(s))")
    elif "slices" in out_rec:
        raise ConfigError("output.slices needs output.field_csv")
    if out_rec.get("trace_csv"):
        _write_trace_csv(out_rec["trace_csv"], result.trace)
        written.append(str(out_rec["trace_csv"]))
    if written:
        lines.append("wrote: " + ", ".join(written))

    _emit("\n".join(lines) + "\n", out_rec.get("report"))
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gobstacle",
        description="Monotone finite-difference engine for doubly "
                    "reflected backward systems under volatility "
                    "uncertainty.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("presets", help="list packaged problem presets")
    p.set_defaults(func=_cmd_presets)

    p = sub.add_parser("solve", help="run one solve per a JSON config")
    p.add_argument("-c", "--config", required=True,
                   help="path to the JSON configuration file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("suite", help="run the structural property battery")
    p.add_argument("-c", "--config", required=True,
                   help="path to the JSON configuration file")
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SpecError, GridError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (StepFailure, EvaluationError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
