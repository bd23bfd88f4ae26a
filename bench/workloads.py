"""The benchmark's three workloads: inputs, operations and output checks.

Each workload is a list of operations.  An operation calls into
``gobstacle`` once (the timed part) and hands its output to a check
(untimed) that compares it with a reference computed apart from the
program, or with a property the method must have.

    penalized-sweep  solve_penalized at (64, 64) for the 8 single presets
                     at nx = 200, 400, 800 (24 operations)
    limit-cli        ``gobstacle solve`` at nx = 400: double-active limit
                     with field and trace CSVs, quadratic-drift limit
                     (stops early), lower-active projection (3 operations)
    property-suite   ``gobstacle suite`` at nx = 400 on double-active,
                     upper-active and comparison-pair (3 operations)

Importing this module imports numpy and gobstacle; run.py times that
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import gobstacle
from gobstacle import cli, solvers

SWEEP_PRESETS = ("constant-sandwich", "gheat-quadratic", "gheat-concave",
                 "upper-active", "lower-active", "double-active",
                 "quadratic-gen-colehopf", "quadratic-drift")
SWEEP_NX = (200, 400, 800)
SWEEP_INTENSITY = 64.0
CLI_NX = 400

ORACLE_TOL = 1e-3        # closed forms and quadrature, inner half
ROUNDING = 1e-12         # "equal up to rounding"
DEFECT_TOL = 1e-10
VIOLATION_TOL = 1e-3
PROJECTION_TOL = 5e-3    # limit field vs projection solve, inner half

# Problem data of the presets, restated here so that the checks do not
# evaluate the program's own function catalog.
_CH_XS = np.linspace(-10.0, 10.0, 1201)
_CH_TAB = 0.5 * (1.0 + np.tanh(_CH_XS))
_QD_XS = np.linspace(-10.0, 10.0, 801)
_QD_TAB = 0.8 * np.exp(-0.5 * _QD_XS * _QD_XS)

TERMINAL = {
    "constant-sandwich": lambda x: np.full_like(x, 0.5),
    "gheat-quadratic": lambda x: x * x,
    "gheat-concave": lambda x: -x * x,
    "upper-active": lambda x: np.minimum(x * x, 1.6),
    "lower-active": lambda x: np.maximum(-x * x, -1.6),
    "double-active": lambda x: np.zeros_like(x),
    "quadratic-gen-colehopf": lambda x: np.interp(x, _CH_XS, _CH_TAB),
    "quadratic-drift": lambda x: np.interp(x, _QD_XS, _QD_TAB),
}

# horizon T = 1; vol_high_sq = 2 and vol_low_sq = 1
CLOSED_FORM = {
    "constant-sandwich": lambda t, x: np.full(np.broadcast(t, x).shape, 0.5),
    "gheat-quadratic": lambda t, x: x * x + 2.0 * (1.0 - t),
    "gheat-concave": lambda t, x: -x * x - (1.0 - t),
}

# sup |f| over the domain, for presets with an active obstacle
SUP_F = {"upper-active": 0.25, "lower-active": 0.25, "double-active": 0.4,
         "quadratic-drift": 0.25}

LOWER_ACTIVE_LEVEL = -1.6  # the lower obstacle of lower-active

# checks the property suite must list, by obstacle activity
_SUITE_ALWAYS = ("validation-clean", "determinism", "terminal-slice",
                 "stagewise-contraction", "uniform-bound",
                 "martingale-defect", "one-step-identity",
                 "compensator-signs", "gradient-energy-finite")
_SUITE_UPPER = ("monotone-in-upper-intensity", "upper-penalty-boundedness",
                "upper-violation-vanishing")
_SUITE_LOWER = ("monotone-in-lower-intensity", "lower-violation-vanishing",
                "construction-agreement")
_SUITE_ANY = ("projection-sandwich", "skorohod-residual-decay")
SUITE_EXPECTED = {
    "double-active": _SUITE_ALWAYS + _SUITE_UPPER + _SUITE_LOWER + _SUITE_ANY,
    "upper-active": _SUITE_ALWAYS + _SUITE_UPPER + _SUITE_ANY,
    "comparison-pair": ("ordering-preconditions", "comparison-order"),
}


class CheckFailed(Exception):
    """An operation's output failed its check."""


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


class Op:
    """One operation: ``run()`` is timed, ``check(output)`` is not and
    returns the operation's oracle error (or None) or raises."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _inner(x):
    return (x >= -5.0) & (x <= 5.0)


# ---------------------------------------------------------------------------
# penalized-sweep
# ---------------------------------------------------------------------------

def _colehopf_reference(t, x, n_quad=128):
    """u = log E[exp(2*gamma*phi(x + sqrt(2*tau)*xi))] / (2*gamma) with
    gamma = 1/2, tau = T - t and xi standard normal (Gauss-Hermite)."""
    tau = 1.0 - t
    if tau <= 0.0:
        return TERMINAL["quadratic-gen-colehopf"](x)
    nodes, weights = np.polynomial.hermite.hermgauss(n_quad)
    weights = weights / math.sqrt(math.pi)
    pts = x[:, None] + math.sqrt(2.0 * tau) * nodes[None, :]
    return np.log(np.exp(TERMINAL["quadratic-gen-colehopf"](pts)) @ weights)


def _check_sweep(name, grid):
    x = grid.x_nodes
    inner = _inner(x)

    def check(report):
        v = report.field.values
        _require(v.shape == (grid.nt + 1, grid.nx + 1), "field shape")
        _require(bool(np.isfinite(v).all()), "non-finite field")
        term = TERMINAL[name](x)
        gap = float(np.max(np.abs(v[-1] - term)))
        _require(gap <= ROUNDING * (1.0 + float(np.max(np.abs(term)))),
                 f"terminal row differs from the terminal data by {gap:.3g}")
        err = None
        if name in CLOSED_FORM:
            ref = CLOSED_FORM[name]
            err = 0.0
            for k0 in range(0, grid.nt + 1, 256):
                t = grid.t_nodes[k0:k0 + 256, None]
                rows = v[k0:k0 + 256]
                full = np.abs(rows - ref(t, x[None, :]))
                if name == "constant-sandwich":
                    _require(float(np.max(full)) <= ROUNDING,
                             "constant field is not 0.5 everywhere")
                err = max(err, float(np.max(full[:, inner])))
        elif name == "quadratic-gen-colehopf":
            err = 0.0
            for j in range(9):
                k = round(j * grid.nt / 8)
                ref = _colehopf_reference(grid.t_nodes[k], x[inner])
                err = max(err, float(np.max(np.abs(v[k, inner] - ref))))
        if err is not None:
            _require(err <= ORACLE_TOL,
                     f"inner-half error {err:.3g} above {ORACLE_TOL:g}")
        if name in SUP_F:
            bound = SUP_F[name] * (1.0 + ROUNDING)
            for side, viol in (("upper", report.sup_upper_violation),
                               ("lower", report.sup_lower_violation)):
                _require(SWEEP_INTENSITY * viol <= bound,
                         f"intensity x {side} violation "
                         f"{SWEEP_INTENSITY * viol!r} above sup|f|")
        return err

    return check


def penalized_sweep(workdir):
    pen = gobstacle.PenaltyParams(SWEEP_INTENSITY, SWEEP_INTENSITY)
    ops = []
    for name in SWEEP_PRESETS:
        spec = gobstacle.get_preset(name)
        for nx in SWEEP_NX:
            grid = gobstacle.build_grid(spec, nx=nx)
            # looked up at call time, so the traced run sees the call
            run = (lambda spec=spec, grid=grid:
                   solvers.solve_penalized(spec, grid, pen))
            ops.append(Op(f"{name}@{nx}", run, _check_sweep(name, grid)))
    return ops


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def _cli_run(verb, cfg_path):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([verb, "-c", cfg_path])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    return run


def _write_config(workdir, tag, cfg):
    path = os.path.join(workdir, f"{tag}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def _require_exit_ok(result):
    code, out, err = result
    _require(code == 0, f"exit code {code}: {err.strip()[-300:]}")
    return out


def _load_csv(path):
    """Read a CSV the operation wrote and delete it, so that a later run
    that fails to write it cannot pass on a stale copy."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    finally:
        if os.path.exists(path):
            os.remove(path)


def _check_field_csv(path, slices):
    """dA+/dA- nonnegative and never both positive; defect <= 1e-10."""
    rows = _load_csv(path)
    _require(len(np.unique(rows[:, 0])) == slices,
             f"{path}: expected {slices} slice(s)")
    _require(bool(np.isfinite(rows).all()), f"{path}: non-finite entries")
    dap, dam, defect = rows[:, 4], rows[:, 5], rows[:, 6]
    _require(float(np.min(dap)) >= 0.0 and float(np.min(dam)) >= 0.0,
             "negative compensator increment")
    _require(not bool(np.any((dap > 0.0) & (dam > 0.0))),
             "dA+ and dA- both positive at one node")
    _require(float(np.max(defect)) <= DEFECT_TOL,
             f"scenario defect {float(np.max(defect)):.3g} above 1e-10")
    return rows


def _check_trace_csv(path, stages_at_most):
    """Strictly decreasing sup_diff, non-increasing r+/r-, final
    violations within 1e-3."""
    rows = _load_csv(path)
    _require(1 <= len(rows) <= stages_at_most, "trace stage count")
    sup_diff, rp, rm = rows[:, 3], rows[:, 6], rows[:, 7]
    _require(bool(np.all(np.diff(sup_diff) < 0.0)),
             f"sup_diff not strictly decreasing: {sup_diff.tolist()}")
    _require(bool(np.all(np.diff(rp) <= 0.0)), f"r_plus rises: {rp.tolist()}")
    _require(bool(np.all(np.diff(rm) <= 0.0)), f"r_minus rises: {rm.tolist()}")
    _require(rows[-1, 4] <= VIOLATION_TOL and rows[-1, 5] <= VIOLATION_TOL,
             f"final violations {rows[-1, 4]:.3g}, {rows[-1, 5]:.3g}")
    return rows


class _ProjectionReference:
    """Projection solve of a preset, computed at the first check; only
    the slices the field CSV holds are kept."""

    def __init__(self, spec, grid):
        self.spec, self.grid = spec, grid
        self._rows = None

    def gap(self, field_rows):
        """Inner-half sup |u - u_projection| over the CSV's slices."""
        ts = np.unique(field_rows[:, 0])
        ks = [int(np.argmin(np.abs(self.grid.t_nodes - t))) for t in ts]
        if self._rows is None:
            values = solvers.solve_double_projection(
                self.spec, self.grid).field.values
            self._rows = values[ks].copy()
        worst = 0.0
        for t, row in zip(ts, self._rows):
            block = field_rows[field_rows[:, 0] == t]
            _require(np.array_equal(block[:, 1], self.grid.x_nodes),
                     "field CSV nodes differ from the grid")
            inner = _inner(block[:, 1])
            worst = max(worst, float(np.max(np.abs(
                block[inner, 2] - row[inner]))))
        return worst


def limit_cli(workdir):
    grid_cfg = {"nx": CLI_NX}
    n_stages = len(gobstacle.DEFAULT_INTENSITIES)
    ops = []

    def limit_run(tag, preset, slices, early_stop):
        spec = gobstacle.get_preset(preset)
        ref = _ProjectionReference(spec, gobstacle.build_grid(spec,
                                                              nx=CLI_NX))
        field = os.path.join(workdir, f"{tag}-field.csv")
        trace = os.path.join(workdir, f"{tag}-trace.csv")
        cfg = _write_config(workdir, tag, {
            "preset": preset, "grid": grid_cfg, "mode": "limit",
            "output": {"field_csv": field, "slices": slices,
                       "trace_csv": trace}})

        def check(result):
            out = _require_exit_ok(result)
            stages = _check_trace_csv(trace, n_stages)
            converged = "converged: yes" in out
            _require(converged == bool(stages[-1, 3] < 1e-4),
                     "converged flag disagrees with the trace")
            if early_stop:
                _require(converged and len(stages) < n_stages,
                         "expected an early stop before the last stage")
            else:
                _require(len(stages) == n_stages or converged,
                         "schedule ended early without converging")
            gap = ref.gap(_check_field_csv(field, len(slices)))
            _require(gap <= PROJECTION_TOL,
                     f"limit vs projection gap {gap:.3g} above 5e-3")
            return gap

        ops.append(Op(tag, _cli_run("solve", cfg), check))

    limit_run("limit-double-active", "double-active", [0.0, 0.5], False)
    limit_run("limit-quadratic-drift", "quadratic-drift", [0.0], True)

    tag, slices = "projection-lower-active", [0.0, 0.5, 1.0]
    field = os.path.join(workdir, f"{tag}-field.csv")
    cfg = _write_config(workdir, tag, {
        "preset": "lower-active", "grid": grid_cfg, "mode": "projection",
        "output": {"field_csv": field, "slices": slices}})

    def check_projection(result):
        _require_exit_ok(result)
        rows = _check_field_csv(field, len(slices))
        _require(float(np.min(rows[:, 2])) >= LOWER_ACTIVE_LEVEL,
                 "projection solve dips below the lower obstacle")
        return None

    ops.append(Op(tag, _cli_run("solve", cfg), check_projection))
    return ops


def _suite_check(preset):
    expected = SUITE_EXPECTED[preset]

    def check(result):
        out = _require_exit_ok(result)
        listed = {}
        for line in out.splitlines():
            status, _, rest = line.partition(" ")
            if status in ("PASS", "FAIL"):
                name, _, tail = rest.partition(":")
                listed[name] = (status, tail)
        failed = sorted(n for n, (s, _) in listed.items() if s != "PASS")
        _require(not failed, f"suite checks failed: {failed}")
        missing = sorted(set(expected) - set(listed))
        _require(not missing, f"suite checks missing: {missing}")
        _require(f"result: {len(listed)} check(s), 0 failed" in out,
                 "suite result line")
        if "projection-sandwich" in listed:
            tail = listed["projection-sandwich"][1]
            return float(tail.split("value=")[1].split()[0])
        return None

    return check


def property_suite(workdir):
    ops = []
    for preset in SUITE_EXPECTED:
        cfg = _write_config(workdir, f"suite-{preset}",
                            {"preset": preset, "grid": {"nx": CLI_NX}})
        ops.append(Op(f"suite-{preset}", _cli_run("suite", cfg),
                      _suite_check(preset)))
    return ops


WORKLOADS = {
    "penalized-sweep": penalized_sweep,
    "limit-cli": limit_cli,
    "property-suite": property_suite,
}
