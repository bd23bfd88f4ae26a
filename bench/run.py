#!/usr/bin/env python3
"""Benchmark runner for gobstacle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of
the checkout the script sits in.  Workloads (see ``workloads.py``):
penalized-sweep, limit-cli, property-suite.  Each is a closed loop: one
process, one computing thread, each operation starts when the previous
one ends.  The seed only permutes the order of the operations in each
pass.

``--trace 0`` reports the end-to-end metrics:

    setup_s      median over 9 fresh processes (this one and 8 probes)
                 of the time to import gobstacle and build the
                 workload's presets, grids and config files
    wall_s       median over the timed passes of one pass's time in
                 calls to the package (checks are not timed)
    peak_rss_mb  peak resident memory of this process, which is fresh,
                 after set-up and an untimed warm-up pass in list order
    oracle_err   largest inner-half sup error against the workload's
                 references

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py`` per pass, with the tracing overhead.

Every pass runs every operation once, so ``failed`` is the same share of
``attempted`` in every run.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# the keys of workloads.WORKLOADS; that module is imported in timed set-up
WORKLOAD_NAMES = ("penalized-sweep", "limit-cli", "property-suite")
SETUP_PROBES = 8        # fresh set-up-only processes, besides the run's own
PROBE_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
              "oracle_err": "abs"}


class Tally:
    """Operations attempted and failed, pass times, worst oracle error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.oracle_err = 0.0
        self.pass_times = []
        self._reported = set()

    def fail(self, op, what):
        self.failed += 1
        if op.name not in self._reported:  # one message per operation
            self._reported.add(op.name)
            print(f"FAILED {op.name}: {what}", file=sys.stderr)


def setup(workload, workdir):
    """Import the package and build the workload; returns (ops, seconds)."""
    start = time.perf_counter()
    import gobstacle
    import workloads
    if not os.path.abspath(gobstacle.__file__).startswith(SRC + os.sep):
        sys.exit(f"gobstacle imported from {gobstacle.__file__}, "
                 f"not from {SRC}")
    os.makedirs(workdir, exist_ok=True)
    ops = workloads.WORKLOADS[workload](workdir)
    return ops, time.perf_counter() - start


def run_pass(ops, rng, tally, tracer=None):
    """One pass over every operation, in a seeded order (list order when
    ``rng`` is None); checks untimed."""
    order = list(ops)
    if rng is not None:
        rng.shuffle(order)
    busy = 0.0
    for op in order:
        tally.attempted += 1
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            tally.fail(op, traceback.format_exc())
            continue
        finally:
            busy += time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        try:
            err = op.check(out)
        except Exception as exc:
            tally.fail(op, f"{type(exc).__name__}: {exc}")
            continue
        finally:
            # free the output before the next operation allocates its own,
            # so that peak memory does not depend on the order
            del out
        if err is not None:
            tally.oracle_err = max(tally.oracle_err, err)
    tally.pass_times.append(busy)
    return busy


def _setup_probe(args):
    """Set-up time measured in a fresh process (see ``--setup-probe``)."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"set-up probe exited with {proc.returncode}")
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, workdir):
    ops, setup_s = setup(args.workload, workdir)
    tally = Tally()
    # An untimed warm-up pass in list order fills caches and the checks'
    # lazy references.  This process is fresh, so its peak memory after
    # that pass does not depend on the seed.
    run_pass(ops, None, tally)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.pass_times.clear()
    rng = random.Random(args.seed)
    start = time.perf_counter()
    while True:
        run_pass(ops, rng, tally)
        if time.perf_counter() - start >= args.seconds:
            break
    setups = [setup_s] + [_setup_probe(args) for _ in range(SETUP_PROBES)]
    print(f"passes: {len(tally.pass_times)}; pass times (s): "
          + ", ".join(f"{t:.4f}" for t in tally.pass_times))
    print("setup samples (s): " + ", ".join(f"{t:.4f}" for t in setups))
    values = {"setup_s": statistics.median(setups),
              "wall_s": statistics.median(tally.pass_times),
              "peak_rss_mb": peak_mb,
              "oracle_err": tally.oracle_err}
    return tally, {k: (v, END_TO_END[k]) for k, v in values.items()}


def per_layer(args, workdir):
    import tracing
    ops, _ = setup(args.workload, workdir)
    tally = Tally()
    rng = random.Random(args.seed)
    tracer = tracing.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(ops, rng, tally))
        tracer.install()
        try:
            traced.append(run_pass(ops, rng, tally, tracer))
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break
    for name in tracer.absent:
        print(f"absent hook: {name}")
    base = statistics.median(untraced)
    over = statistics.median(traced) - base
    print(f"traced pass {base + over:.4f} s, untraced {base:.4f} s, "
          f"overhead {over:.4f} s ({100.0 * over / base:.1f}%)")
    values = tracer.layer_metrics(len(traced))
    values["bench.trace_overhead_s"] = over
    values["bench.trace_overhead_pct"] = 100.0 * over / base
    return tally, {k: (values[k], unit)
                   for k, (unit, _) in tracing.PER_LAYER.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gobstacle", "__init__.py")):
        print(f"no gobstacle package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_probe:
            print(setup(args.workload, workdir)[1])
            return 0
        measure = per_layer if args.trace else end_to_end
        tally, metrics = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(OUT_DIR)
        except OSError:
            pass  # other runs still use it, or it was never made

    for name, (value, unit) in metrics.items():
        print(f"{name:34} {value:.6g} {unit}")
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
