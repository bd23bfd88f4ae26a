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
malformed problem or value, slice out of range, infeasible grid), 3
solver failure (non-finite values during stepping).

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

"mode" and "penalty" are read by the solve verb only: "penalized"
(fixed intensities from "penalty"), "reflected_lower_pen_upper" (exact
lower reflection, upper intensity from penalty.n_upper), "projection"
(band projection), or "limit" (walk the schedule; enables trace_csv);
the last two take no penalty section.  A "schedule" section is
accepted only with mode "limit" and by the suite verb on a single
problem; fixed-pairing schedules ("fixed_n"/"fixed_m") take the held
intensity in "held" and the varying list in "intensities".  The suite
verb accepts the same "output" section for single-problem runs; its
CSVs come from the final schedule stage.  A section a verb does not
read exits 2.

Every number is read by `model.read_number`: a finite JSON number, never
a bool, string, null, NaN or Infinity, and "nx" an integer.  Output paths
are non-empty strings that name distinct files, none of them the config.
Anything else exits 2 with a message naming the key.

An inline "problem" is parsed by `ProblemSpec.from_dict`.  Its sections
and keys are the fields of the model's dataclasses, and an absent key
keeps its default.  Functions use the serializable catalog (kinds
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
      "terminal": {"kind": "polynomial", "coeffs": [0, 0, 1], "clip": 1},
      "horizon": 1.0
    }

Obstacle sides are active exactly when their key is present and not
null.  Every float in the CSV outputs is rendered with 17 significant
digits, so repeated runs of one configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .decomposition import _bundle_rows
from .diagnostics import run_comparison_suite, run_property_suite
from .model import EvaluationError, ProblemSpec, SpecError, check_record, \
    read_number, read_numbers, validate
from .presets import get_preset, list_presets
from .scheme import GridError, PenaltyParams, StepFailure, build_grid
from .solvers import DEFAULT_INTENSITIES, DEFAULT_STOP_TOL, \
    PenaltySchedule, solve_double_projection, solve_limit, solve_penalized

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_SOLVER_FAILURE = 3

_TOP_KEYS = ("preset", "problem", "grid", "mode", "penalty", "schedule",
             "output")
_SOLVE_MODE_NAMES = ("penalized", "reflected_lower_pen_upper", "projection",
                     "limit")
_PENALTY_KEYS = ("m_lower", "n_upper")
_OUTPUT_PATHS = ("field_csv", "trace_csv", "report")
_HELD = {"fixed_n": "n_upper", "fixed_m": "m_lower"}


class ConfigError(ValueError):
    """The configuration file cannot be turned into a run."""


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    except ValueError as err:  # bad JSON, encoding or integer literal
        raise ConfigError(f"config {path} is not valid JSON: {err}")
    return check_record(cfg, _TOP_KEYS, "config")


def _numbers(cfg, name, keys, integral=()):
    """The numbers of section `name` (keys among `keys`) by key."""
    rec = check_record(cfg.get(name, {}), keys, name)
    return {k: read_number(v, f"{name}.{k}", k in integral)
            for k, v in rec.items()}


def _build_problem(cfg):
    """Returns (problem-or-pair, label)."""
    if ("preset" in cfg) == ("problem" in cfg):
        raise ConfigError("config needs exactly one of 'preset' or 'problem'")
    if "preset" in cfg:
        return get_preset(cfg["preset"]), str(cfg["preset"])
    return ProblemSpec.from_dict(cfg["problem"]), "inline"


def _build_grid(cfg, spec):
    return build_grid(spec, **_numbers(
        cfg, "grid", ("x_min", "x_max", "nx", "cfl_safety"), ("nx",)))


def _build_schedule(cfg):
    if "schedule" not in cfg:
        return PenaltySchedule.diagonal()
    rec = check_record(cfg["schedule"],
                       ("pairing", "intensities", "stop_tol", "held"),
                       "schedule")
    pairing = rec.get("pairing", "diagonal")
    vals = read_numbers(rec["intensities"], "schedule.intensities") \
        if "intensities" in rec else DEFAULT_INTENSITIES
    tol = read_number(rec["stop_tol"], "schedule.stop_tol") \
        if "stop_tol" in rec else DEFAULT_STOP_TOL
    if pairing == "diagonal":
        if "held" in rec:
            raise ConfigError("schedule.held only applies to the "
                              "fixed_n/fixed_m pairings")
        return PenaltySchedule.diagonal(vals, tol)
    if not (isinstance(pairing, str) and pairing in _HELD):
        raise ConfigError(f"unknown schedule pairing {pairing!r}")
    if "held" not in rec:
        raise ConfigError(f"pairing {pairing!r} needs schedule.held "
                          f"(the constant {_HELD[pairing]})")
    held = read_number(rec["held"], "schedule.held")
    return getattr(PenaltySchedule, pairing)(held, vals, tol)


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

def _output_section(cfg, config_path):
    """The output section, its paths refused when two of them, or one
    and the config file, resolve to one file."""
    rec = check_record(cfg.get("output", {}), _OUTPUT_PATHS + ("slices",),
                       "output")
    owners = {os.path.realpath(config_path): "the config file"}
    for key in (k for k in _OUTPUT_PATHS if k in rec):
        if not (isinstance(rec[key], str) and rec[key]):
            raise ConfigError(f"output.{key} must be a non-empty path, "
                              f"got {rec[key]!r}")
        path = os.path.realpath(rec[key])
        if path in owners:
            raise ConfigError(f"output.{key} and {owners[path]} name one "
                              f"file, {rec[key]!r}")
        owners[path] = f"output.{key}"
    if "slices" in rec and "field_csv" not in rec:
        raise ConfigError("output.slices needs output.field_csv")
    return rec


def _slice_indices(grid, slices):
    ts = read_numbers(slices, "output.slices")
    if not ts:
        raise ConfigError("output.slices must be a non-empty list of times")
    idxs = []
    for t in ts:
        if t < -1e-12 or t > grid.horizon + 1e-12:
            raise ConfigError(f"output slice t={t:g} lies outside "
                              f"[0, {grid.horizon:g}]")
        k = int(np.argmin(np.abs(grid.t_nodes - t)))
        if k not in idxs:
            idxs.append(k)
    return idxs


def _write_csv(path, header, table):
    """`header`, then one line per row of `table`, a float array of
    (blocks, rows, columns): every value is "%.17g" with -0.0 collapsed
    to 0.0.  Python floats are made one block at a time."""
    np.add(table, 0.0, out=table)  # collapse -0.0
    line = ",".join(["%.17g"] * table.shape[-1])
    lines = [header]
    for block in table:
        lines += [line % tuple(row) for row in block.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_field_csv(path, grid, ks, rows):
    """One line per node of each slice of ks; `rows` holds the u, z,
    dA+, dA- and defect rows of those slices, one per slice in order."""
    table = np.empty((len(ks), grid.nx + 1, 7))
    table[:, :, 0] = grid.t_nodes[ks, None]
    table[:, :, 1] = grid.x_nodes
    for c, row in enumerate(rows, start=2):
        table[:, :, c] = row
    _write_csv(path, "t,x,u,z,da_plus,da_minus,defect", table)


def _write_trace_csv(path, trace):
    table = np.array([[(s.stage, s.n_upper, s.m_lower, s.sup_diff,
                        s.upper_violation, s.lower_violation, s.r_plus,
                        s.r_minus) for s in trace.stages]], dtype=float)
    _write_csv(path, "stage,n,m,sup_diff,upper_viol,lower_viol,r_plus,"
               "r_minus", table)


def _write_outputs(lines, out_rec, grid, rows, trace):
    """Write the CSVs asked for in `out_rec`, then the report: `lines`
    and a closing `wrote:` line, to stdout and to output.report.
    `rows(ks)`, the field CSV's rows of the slices ks, is called only
    when a field CSV is asked for."""
    written = []
    if "field_csv" in out_rec:
        ks = _slice_indices(grid, out_rec.get("slices", [0.0]))
        _write_field_csv(out_rec["field_csv"], grid, ks, rows(ks))
        written.append(f"{out_rec['field_csv']} ({len(ks)} slice(s))")
    if "trace_csv" in out_rec:
        _write_trace_csv(out_rec["trace_csv"], trace)
        written.append(out_rec["trace_csv"])
    if written:
        lines.append("wrote: " + ", ".join(written))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if "report" in out_rec:
        with open(out_rec["report"], "w") as fh:
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
    if mode not in _SOLVE_MODE_NAMES:
        known = ", ".join(_SOLVE_MODE_NAMES)
        raise ConfigError(f"unknown mode {mode!r}; use one of: {known}")
    out_rec = _output_section(cfg, args.config)
    if "trace_csv" in out_rec and mode != "limit":
        raise ConfigError("output.trace_csv needs mode 'limit'")
    if "schedule" in cfg and mode != "limit":
        raise ConfigError("a schedule section needs mode 'limit'")

    if "penalty" in cfg and mode in ("projection", "limit"):
        raise ConfigError(f"mode {mode!r} takes no penalty section")
    rec = _numbers(cfg, "penalty", _PENALTY_KEYS)

    trace = None
    if mode == "penalized":
        rep = solve_penalized(spec, grid, PenaltyParams(
            rec.get("m_lower", 64.0), rec.get("n_upper", 64.0)))
    elif mode == "reflected_lower_pen_upper":
        if rec.get("m_lower", 0.0) != 0.0:
            raise ConfigError("mode 'reflected_lower_pen_upper' uses "
                              "only penalty.n_upper; drop m_lower")
        if not spec.obstacles.lower_active:
            raise ConfigError("lower-reflected solve needs an active lower "
                              "obstacle")
        rep = solve_penalized(spec, grid, PenaltyParams(
            math.inf, rec.get("n_upper", 64.0)))
    elif mode == "projection":
        rep = solve_double_projection(spec, grid)
    else:  # limit
        rep, trace = solve_limit(spec, grid, _build_schedule(cfg))

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
    lines.append(f"steps: {rep.field.grid.nt}")
    _write_outputs(lines, out_rec, grid, lambda ks: (
        rep.field.values[ks],) + _bundle_rows(rep, ks)[:4], trace)
    return EXIT_OK


def _cmd_suite(args):
    cfg = _load_config(args.config)
    built, label = _build_problem(cfg)
    for key in ("mode", "penalty"):
        if key in cfg:
            raise ConfigError(f"the suite verb takes no {key!r} section")
    out_rec = _output_section(cfg, args.config)

    if isinstance(built, tuple):
        if "field_csv" in out_rec or "trace_csv" in out_rec:
            raise ConfigError("CSV outputs need a single-problem suite; "
                              f"{label!r} is a pair")
        if "schedule" in cfg:
            raise ConfigError("a schedule section needs a single-problem "
                              f"suite; {label!r} is a pair")
        hi, lo = built
        # both members step on one grid, so it must satisfy both
        grid = max((_build_grid(cfg, spec) for spec in built),
                   key=lambda g: g.nt)
        result = run_comparison_suite(hi, lo, grid)
    else:
        grid = _build_grid(cfg, built)
        _validated(built, grid)
        result = run_property_suite(built, grid, _build_schedule(cfg))

    lines = [f"suite: {label}", _grid_line(grid)]
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status} {c.name}: value={c.value:.6g} "
                     f"threshold={c.threshold:.6g} ({c.detail})")
    failed = sum(1 for c in result.checks if not c.passed)
    lines.append(f"result: {len(result.checks)} check(s), {failed} failed")
    b = result.bundle
    _write_outputs(lines, out_rec, grid, lambda ks: (
        b.y.values[ks], b.z.values[ks], b.da_plus[ks], b.da_minus[ks],
        b.defect.values[ks]), result.trace)
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
    except (ConfigError, SpecError, GridError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (StepFailure, EvaluationError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
