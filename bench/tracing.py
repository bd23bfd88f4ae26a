"""Per-layer tracing for the benchmark's traced run.

Wrappers installed from outside the package time the calls into each
module of ``gobstacle``.  A function is wrapped under the name its
*calling* module binds it to (``gobstacle.solvers.explicit_step`` is the
step as the solvers call it, ``gobstacle.decomposition.resolve_penalties``
is penalty resolution as the reconstruction calls it), so one function
can feed different layer metrics depending on who calls it.

Every wrapped call is a span.  A span's self time is its duration minus
the time covered by the spans opened inside it; the per-layer ``_s``
metrics are self times, so they add up to the traced time without
double counting.  Spans are aggregated in memory (calls, self and total
time per layer key) rather than stored one by one.

A hook whose target no longer exists (a later refactor removed or
renamed it) is reported as absent and contributes nothing; it never
makes the run fail.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter


def _node_updates(tracer, args, result):
    tracer.counts["scheme.node_updates"] += len(args[0])


def _field_mb(tracer, report):
    tracer.field_mb = max(tracer.field_mb,
                          report.field.values.nbytes / 2.0 ** 20)


def _on_solve(tracer, args, result):
    _field_mb(tracer, result)
    if tracer.is_open("diagnostics.suite"):
        tracer.counts["diagnostics.suite_solves"] += 1


def _on_limit(tracer, args, result):
    report, trace = result
    _field_mb(tracer, report)
    tracer.counts["solvers.limit_stages"] += len(trace.stages)


def _on_csv(tracer, args, result):
    tracer.counts["cli.csv_bytes"] += os.path.getsize(args[0])


_SOLVERS = ("solve_penalized", "solve_double_projection",
            "solve_lower_reflected_upper_penalized")

# (module, attribute as the module binds it, layer key, post-call hook)
HOOKS = (
    ("model", "FnSpec.__call__", "model.fn_eval", None),
    ("cli", "validate", "model.validate", None),
    ("diagnostics", "validate", "model.validate", None),
    ("gcalculus", "g_eval", "gcalculus.envelope", None),
    ("decomposition", "g_eval", "gcalculus.envelope", None),
    ("decomposition", "worst_case_vol", "gcalculus.envelope", None),
    ("cli", "build_grid", "scheme.build_grid", None),
    ("solvers", "explicit_step", "scheme.step", _node_updates),
    ("scheme", "layer_rhs_parts", "scheme.rhs", None),
    ("decomposition", "layer_rhs_parts", "scheme.rhs", None),
    ("scheme", "resolve_penalties", "scheme.penalty", None),
    ("scheme", "boundary_fill", "scheme.boundary", None),
    ("solvers", "_layer_violations", "solvers.violation_scan", None),
    # solve_limit calls solve_penalized through its own module global,
    # and the benchmark's penalized sweep calls it the same way
    ("solvers", "solve_penalized", "solvers.solve", _on_solve),
) + tuple((caller, fn, "solvers.solve", _on_solve)
          for caller in ("cli", "diagnostics") for fn in _SOLVERS) + (
    ("cli", "solve_limit", "solvers.limit", _on_limit),
    ("diagnostics", "solve_limit", "solvers.limit", _on_limit),
    # solve_limit imports reconstruct/skorohod_residuals at call time and
    # martingale_defect_scan calls reconstruct through the module global,
    # so the decomposition module's own bindings catch those calls
    ("decomposition", "reconstruct", "decomposition.reconstruct", None),
    ("cli", "reconstruct", "decomposition.reconstruct", None),
    ("diagnostics", "reconstruct", "decomposition.reconstruct", None),
    ("decomposition", "resolve_penalties", "decomposition.scenario_replay",
     None),
    ("decomposition", "skorohod_residuals", "decomposition.residuals", None),
    ("diagnostics", "one_step_residuals", "decomposition.residuals", None),
    ("diagnostics", "martingale_defect_scan", "decomposition.defect_scan",
     None),
    ("diagnostics", "bmo_diagnostic", "decomposition.bmo", None),
    ("cli", "run_property_suite", "diagnostics.suite", None),
    ("cli", "run_comparison_suite", "diagnostics.suite", None),
    ("diagnostics", "comparison_harness", "diagnostics.comparison", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_cmd_solve", "cli.verb", None),
    ("cli", "_cmd_suite", "cli.verb", None),
    ("cli", "_write_field_csv", "cli.csv", _on_csv),
    ("cli", "_write_trace_csv", "cli.csv", _on_csv),
)

# per-layer metric -> (unit, better); every one is reported per pass
PER_LAYER = {
    "model.fn_eval_calls": ("count", "lower"),
    "model.fn_eval_s": ("s", "lower"),
    "model.validate_calls": ("count", "lower"),
    "model.validate_s": ("s", "lower"),
    "gcalculus.envelope_calls": ("count", "lower"),
    "gcalculus.envelope_s": ("s", "lower"),
    "scheme.build_grid_s": ("s", "lower"),
    "scheme.step_calls": ("count", "lower"),
    "scheme.step_s": ("s", "lower"),
    "scheme.step_us": ("us", "lower"),
    "scheme.node_updates": ("count", "lower"),
    "scheme.rhs_s": ("s", "lower"),
    "scheme.penalty_s": ("s", "lower"),
    "scheme.boundary_s": ("s", "lower"),
    "solvers.violation_scan_s": ("s", "lower"),
    "solvers.solve_calls": ("count", "lower"),
    "solvers.solve_s": ("s", "lower"),
    "solvers.limit_s": ("s", "lower"),
    "solvers.limit_stages": ("count", "lower"),
    "solvers.field_mb": ("MiB", "lower"),
    "decomposition.reconstruct_calls": ("count", "lower"),
    "decomposition.reconstruct_s": ("s", "lower"),
    "decomposition.scenario_replays": ("count", "lower"),
    "decomposition.scenario_replay_s": ("s", "lower"),
    "decomposition.residuals_s": ("s", "lower"),
    "decomposition.defect_scan_s": ("s", "lower"),
    "decomposition.bmo_s": ("s", "lower"),
    "diagnostics.suite_s": ("s", "lower"),
    "diagnostics.suite_solves": ("count", "lower"),
    "diagnostics.comparison_s": ("s", "lower"),
    "cli.verb_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
    "bench.absent_hooks": ("count", "lower"),
}


class Tracer:
    """Installs the hooks, aggregates spans while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.field_mb = 0.0  # largest field a solve returned
        self.absent = []
        self._stack = []  # open spans: [key, time covered by children]
        self._restore = []

    def is_open(self, key):
        return any(frame[0] == key for frame in self._stack)

    def _wrap(self, fn, key, post):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                tracer.calls[key] += 1
                tracer.total_s[key] += span
                tracer.self_s[key] += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if post is not None:
                post(tracer, args, result)
            return result

        return traced

    def install(self):
        self.absent = []
        for modname, attr, key, post in HOOKS:
            name = f"gobstacle.{modname}.{attr}"
            try:
                owner = importlib.import_module(f"gobstacle.{modname}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            setattr(owner, leaf, self._wrap(fn, key, post))
            self._restore.append((owner, leaf, fn))

    def uninstall(self):
        for owner, leaf, fn in reversed(self._restore):
            setattr(owner, leaf, fn)
        self._restore.clear()

    def layer_metrics(self, passes):
        """Per-pass per-layer metrics (without the overhead rows)."""
        c, s = self.calls, self.self_s
        steps = c["scheme.step"]
        raw = {
            "model.fn_eval_calls": c["model.fn_eval"],
            "model.fn_eval_s": s["model.fn_eval"],
            "model.validate_calls": c["model.validate"],
            "model.validate_s": s["model.validate"],
            "gcalculus.envelope_calls": c["gcalculus.envelope"],
            "gcalculus.envelope_s": s["gcalculus.envelope"],
            "scheme.build_grid_s": s["scheme.build_grid"],
            "scheme.step_calls": steps,
            "scheme.step_s": s["scheme.step"],
            "scheme.node_updates": self.counts["scheme.node_updates"],
            "scheme.rhs_s": s["scheme.rhs"],
            "scheme.penalty_s": s["scheme.penalty"],
            "scheme.boundary_s": s["scheme.boundary"],
            "solvers.violation_scan_s": s["solvers.violation_scan"],
            "solvers.solve_calls": c["solvers.solve"],
            "solvers.solve_s": s["solvers.solve"],
            "solvers.limit_s": s["solvers.limit"],
            "solvers.limit_stages": self.counts["solvers.limit_stages"],
            "decomposition.reconstruct_calls":
                c["decomposition.reconstruct"],
            "decomposition.reconstruct_s": s["decomposition.reconstruct"],
            "decomposition.scenario_replays":
                c["decomposition.scenario_replay"],
            "decomposition.scenario_replay_s":
                s["decomposition.scenario_replay"],
            "decomposition.residuals_s": s["decomposition.residuals"],
            "decomposition.defect_scan_s": s["decomposition.defect_scan"],
            "decomposition.bmo_s": s["decomposition.bmo"],
            "diagnostics.suite_s": s["diagnostics.suite"],
            "diagnostics.suite_solves":
                self.counts["diagnostics.suite_solves"],
            "diagnostics.comparison_s": s["diagnostics.comparison"],
            "cli.verb_s": self.total_s["cli.verb"],
            "cli.self_s": s["cli.main"] + s["cli.verb"] + s["cli.csv"],
            "cli.csv_bytes": self.counts["cli.csv_bytes"],
        }
        out = {k: v / passes for k, v in raw.items()}
        # cumulative (children included) time of one step, not per pass
        out["scheme.step_us"] = (self.total_s["scheme.step"] / steps * 1e6
                                 if steps else 0.0)
        out["solvers.field_mb"] = self.field_mb
        out["bench.absent_hooks"] = len(self.absent)
        return out
