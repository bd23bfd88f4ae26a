"""Monotone explicit stepping on a uniform space-time grid.

One backward step from a known layer at t+dt to the layer at t:

    v_i   = u_i + dt * (envelope(qv_i) + drift_i*du_i + f_i)     (explicit)
    u_i'  = v_i + dt*m*(u_i'-lower)^-  -  dt*n*(u_i'-upper)^+    (implicit)

with centered first and second differences taken from the known layer,
except that first differences are one-sided at nodes where centring
would break monotonicity (below).
The implicit penalty equation is piecewise linear and monotone in u',
so it resolves in closed form with at most three cases; penalty
intensities therefore never enter the CFL restriction.  An infinite
intensity is its limit, the projection (reflection) onto the obstacle,
applied after the finite resolution: u' = max(u', lower) at m = inf,
then u' = min(u', upper) at n = inf.

A `StepOperator` compiles the problem onto the grid once; every step
reads its rows.  One kernel (`_Kernel`) forms every step the package
takes, in the solvers and in the replays of the process reconstruction
and its residuals: `_Kernel.explicit` forms the explicit values, then
`_Kernel.apply` resolves the penalties, projects and closes the boundary
(`_Obstacles`), and reports on request the compensator increments it
applied.
It acts on the last axis of arrays of any leading shape: a solver steps
S solves of one problem as one (S, nx+1) layer, with penalty intensities
given per row, and a replay of stored slices takes a block of
consecutive slices per call (`StepOperator.blocks`), sized so that its
largest array stays under a fixed element budget, or a single slice
when a custom field or driver may depend on t.  The arithmetic is
elementwise and the same for every shape, so a batched or blocked call
reproduces the one-layer step bit for bit.

A kernel is built once per solve, or per block shape of a replay: two
layers of that shape, which a solve steps between in turn, the work
arrays of one step, the constants (dt, 2*dx, dx*dx, the halved
variances) and, per side whose penalty acts, the interior obstacle row,
dt*m*row and 1 + dt*m.  It binds a step once into a fixed sequence of
numpy calls (`_Kernel._compile`), every operand bound and every view
into its two layers prebuilt, so a step only runs that sequence: ufuncs
into those arrays (`out=`), with the operands and in the order of the
plain expressions, so the buffers change no bit.  A float operand is
bound as a 0-d array (`model._bound_call`), the same operand, which the
ufunc need not convert on every call.  A catalog quadratic_in_z driver
is part of the sequence, with the calls its own evaluation runs
(`FnSpec._quadratic_calls`); a custom driver is one call at the step's
t, and a `timed` operator binds the sequence again at each new t.  It
runs no call for a term the operator records as absent
(`StepOperator.absent`: sigma^2 == 1, a zero cross loading, drift or
compiled g), and forms du only when a term or a per-step driver reads
it, so an obstacle-free problem with unit coefficients and g == 0 steps
in 14 numpy calls.  No step writes into a field: a solve copies each new
layer's rows into their fields, and a replay copies its block of stored
slices into the kernel's input layer.  The public `explicit_step` (one
layer) and `layer_rhs_parts` (`_Kernel.rhs`) build a kernel and return
new arrays; `resolve_penalties` and `gcalculus.g_eval` share its penalty
resolution and its envelope.

Boundary nodes are filled by zero-curvature extrapolation from the two
nearest interior nodes and then clamped into the active obstacle band.
The closure is second-order at the artificial boundary (exact on affine
layers) so truncation error decays under refinement, but its weights
(2, -1) are not a convex combination: the two boundary columns are
closure artifacts, and pointwise-ordering diagnostics measure on
interior nodes.  Stability: dt <= cfl_safety * dx^2 / (vol_high_sq*K +
dx*B) with K the declared sigma^2 cap and B a bound on the first-order
coefficients (drift, cross loading, declared z-moduli); an extra dx^2
term accounts for zero-order moduli.  First differences are centred as
much as possible, one-sided elsewhere (Pooley, Forsyth & Vetzal 2003):
a node whose compiled rows fail the cell-Peclet condition
|drift|*dx <= vol_low_sq*(sigma^2 - |cross|*dx) takes the drift and the
cross term from the side of their sign, which keeps its neighbour
weights nonnegative; every other node stays centred and second order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from . import gcalculus
from .model import ProblemSpec, SpecError, _bound_call, cell_peclet_excess

_NT_CAP = 10_000_000
_FIELD_BYTES_CAP = 512 * 2 ** 20  # field-size float64 arrays of one call
_BLOCK_ELEMENTS = 2 ** 13  # largest array of one replay block


class GridError(ValueError):
    """Grid construction rejected (domain, resolution, or CFL budget)."""


class StepFailure(RuntimeError):
    """A step produced a non-finite value."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid on [0, horizon] x [x_min, x_max].

    nx space intervals (nx+1 nodes), nt time intervals (nt+1 slices).
    Immutable after construction; node arrays are materialized once.
    """

    x_min: float
    x_max: float
    nx: int
    nt: int
    horizon: float
    x_nodes: np.ndarray = dc_field(repr=False, default=None)
    t_nodes: np.ndarray = dc_field(repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "x_nodes",
                           np.linspace(self.x_min, self.x_max, self.nx + 1))
        object.__setattr__(self, "t_nodes",
                           np.linspace(0.0, self.horizon, self.nt + 1))
        self.x_nodes.setflags(write=False)
        self.t_nodes.setflags(write=False)

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.nx

    @property
    def dt(self):
        return self.horizon / self.nt

    def compatible_with(self, other):
        return (self.x_min == other.x_min and self.x_max == other.x_max
                and self.nx == other.nx and self.nt == other.nt
                and self.horizon == other.horizon)


@dataclass(eq=False)
class Field:
    """Solution values on a grid; values[k, i] lives at (t_nodes[k],
    x_nodes[i]), so the last row is the terminal slice."""

    values: np.ndarray
    grid: Grid


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty intensities: m_lower pushes up from below the lower
    obstacle, n_upper pushes down from above the upper one.  An
    infinite intensity projects onto its obstacle (reflection)."""

    m_lower: float = 0.0
    n_upper: float = 0.0

    def __post_init__(self):
        if not (self.m_lower >= 0.0 and self.n_upper >= 0.0):
            raise SpecError("penalty intensities must be >= 0 "
                            "(inf projects onto the obstacle)")


class _PenaltyRows(NamedTuple):
    """The intensities of S rows, per side a finite rate (0.0 where the
    intensity is infinite) and the rows projected instead (`lift` onto
    the lower obstacle, `clamp` onto the upper one): None, True (every
    row) or an (S, 1) mask.  Rates are floats for one row, else (S, 1)
    columns that broadcast along a layer's leading axis."""

    m_lower: object
    n_upper: object
    lift: object
    clamp: object


def _rows(hold):
    """Rows where a condition holds (a bool for every row, or an (S, 1)
    mask): True for every row, None for none, else the mask."""
    if isinstance(hold, bool):
        return True if hold else None
    return True if hold.all() else (hold if hold.any() else None)


def _side(rates):
    """(finite rate, projected rows) of one side's intensities, one per
    row; the rate is a float for a single row."""
    inf = np.isinf(rates)[:, None]
    finite = np.where(inf, 0.0, np.asarray(rates, dtype=float)[:, None])
    return (float(finite[0, 0]) if len(rates) == 1 else finite), _rows(inf)


def _penalty_rows(pens):
    """The `_PenaltyRows` of one PenaltyParams per row."""
    m_lower, lift = _side([p.m_lower for p in pens])
    n_upper, clamp = _side([p.n_upper for p in pens])
    return _PenaltyRows(m_lower, n_upper, lift, clamp)


def _gradient_bound(spec: ProblemSpec, xs, ts):
    """Probe a bound for the first-order (gradient) coefficients on the
    time nodes ts."""
    sup_b = 0.0
    sup_l = 0.0
    for t in ts:
        sup_b = max(sup_b, float(np.max(np.abs(
            np.broadcast_to(np.asarray(spec.coeffs.drift(t, xs), dtype=float),
                            xs.shape)))))
        sup_l = max(sup_l, float(np.max(np.abs(
            np.broadcast_to(np.asarray(spec.coeffs.cross(t, xs), dtype=float),
                            xs.shape)))))
    high = spec.gparams.vol_high_sq
    z_scale = math.sqrt(spec.coeffs.vol_cap)
    return sup_b + high * sup_l \
        + spec.gen.lipschitz_z * z_scale * (1.0 + high)


def build_grid(spec: ProblemSpec, x_min=-10.0, x_max=10.0, nx=400,
               cfl_safety=0.9) -> Grid:
    """Choose nt from the CFL restriction and build the grid.

        dt <= cfl_safety * dx^2 / (vol_high_sq*vol_cap + dx*B + dx^2*Y)

    where B bounds the first-order coefficients (|drift| + vol_high_sq*
    |cross| + declared z-moduli at unit gradient scale) and Y the
    zero-order moduli.  Catalog coefficients do not depend on t and are
    probed at t = 0, T/2, T; a custom drift or cross is probed on every
    t-node of the candidate grid, and nt grows until the bound holds on
    each of them.  nt is the smallest count meeting the bound and is
    capped at ten million; the solution field, (nt+1)*(nx+1) doubles,
    is capped at 512 MiB (`_check_field_budget`), and an nx whose two
    slices already exceed that is refused before anything is allocated.
    """
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise GridError(f"domain ends must be finite, got [{x_min}, {x_max}]")
    if not x_max > x_min:
        raise GridError(f"degenerate domain [{x_min}, {x_max}]")
    if nx < 4:
        raise GridError("need nx >= 4 for interior differences "
                        "and boundary extrapolation")
    if not 0.0 < cfl_safety <= 1.0:
        raise GridError("cfl_safety must lie in (0, 1]")
    if not spec.gparams.well_ordered:
        raise GridError("volatility band is not well ordered; "
                        "run validate() for details")

    if 2 * (nx + 1) * 8 > _FIELD_BYTES_CAP:  # every grid has nt >= 1
        raise GridError(f"two slices of nx={nx} exceed the "
                        f"{_FIELD_BYTES_CAP // 2 ** 20} MiB memory cap")

    dx = (x_max - x_min) / nx
    xs = np.linspace(x_min, x_max, nx + 1)
    grid = None
    while True:  # until the grid passes its own probe (`_cfl_steps`)
        nt = _cfl_steps(spec, xs, dx, cfl_safety, grid)
        if grid is not None and nt <= grid.nt:
            return grid
        if nt > _NT_CAP:
            raise GridError(f"CFL bound needs nt={nt}, above the cap "
                            f"{_NT_CAP}; coarsen nx or shorten the horizon")
        grid = Grid(x_min=x_min, x_max=x_max, nx=nx, nt=nt,
                    horizon=spec.horizon)
        _check_field_budget(grid, 1)


def _cfl_steps(spec: ProblemSpec, xs, dx, cfl_safety, grid=None):
    """The fewest time steps over the horizon whose dt meets the CFL
    restriction of `build_grid` on the nodes xs, spaced dx.  The
    first-order coefficients are probed at t = 0, T/2, T, or on the
    t-nodes of `grid` when one is given and a drift or cross is custom."""
    ts = (0.0, 0.5 * spec.horizon, spec.horizon)
    if grid is not None and "custom" in (spec.coeffs.drift.kind,
                                         spec.coeffs.cross.kind):
        ts = grid.t_nodes
    diff = spec.gparams.vol_high_sq * spec.coeffs.vol_cap
    zero = spec.gen.lipschitz_y * (1.0 + spec.gparams.vol_high_sq)
    first = _gradient_bound(spec, xs, ts)
    dt_max = cfl_safety * dx * dx / (diff + dx * first + dx * dx * zero)
    return max(1, math.ceil(spec.horizon / dt_max))


def _check_grid(spec: ProblemSpec, grid: Grid):
    """Raise GridError unless `grid` spans the problem's horizon with a
    dt inside its CFL bound at cfl_safety = 1, as every grid that
    `build_grid` makes for the problem does."""
    if grid.horizon != spec.horizon:
        raise GridError(f"the grid spans [0, {grid.horizon:g}], the problem "
                        f"[0, {spec.horizon:g}]; build the grid for it")
    need = _cfl_steps(spec, grid.x_nodes, grid.dx, 1.0, grid)
    if need > grid.nt:
        raise GridError(f"dt={grid.dt:.6g} is above the problem's CFL bound "
                        f"(nt={grid.nt}, needs {need}); build the grid for it")


def _check_field_budget(grid: Grid, count):
    """Raise GridError when `count` float64 arrays of the grid's field
    size, (nt+1)*(nx+1) doubles each, exceed the memory cap.  A call
    checks what it will hold before allocating any of it."""
    need = count * (grid.nt + 1) * (grid.nx + 1) * 8
    if need > _FIELD_BYTES_CAP:
        what = "the solution field needs" if count == 1 \
            else f"{count} field-size arrays need"
        raise GridError(
            f"{what} {need / 2 ** 20:.0f} MiB (nt={grid.nt}, nx={grid.nx}), "
            f"above the {_FIELD_BYTES_CAP // 2 ** 20} MiB memory cap; "
            "coarsen nx or shorten the horizon")


# ---------------------------------------------------------------------------
# the problem compiled onto the grid
# ---------------------------------------------------------------------------

def _row(fs, t, x):
    """fs at time t on the nodes x as a float row (constants broadcast)."""
    out = np.empty(np.shape(x))
    out[...] = fs(t, x)
    return out


class StepOperator:
    """A problem compiled onto a grid.

    Rows: `sigma` on all nodes; `sig2` (sigma^2), `cross2` (2*cross) and
    `drift` on interior nodes; `upwind`, the interior nodes that fail the
    cell-Peclet condition, with the signs `drift_up` (drift >= 0) and
    `cross_up` (cross >= 0) that pick their one-sided differences, or all
    three None when every node is centred; `g2` (2*g) and `f` on interior
    nodes when that driver is x-only, else None (evaluated per step at
    z = sigma*du); `lower`/`upper` on all nodes, None on an absent side.
    `absent` names the rows whose term is structurally absent, which the
    kernel skips: "sig2" where sigma^2 == 1, "cross2" and "drift" where
    that row is 0 and every node is centred, "g2" where a compiled g2 is
    0.  No catalog kind depends on t, so the rows serve every step; a
    custom field may, so its rows hold at `t` and `at` recompiles them.
    A custom driver is called at each step's t; `per_slice` marks an
    operator with either, whose replays take one slice per block.
    """

    def __init__(self, spec: ProblemSpec, grid: Grid, t=0.0):
        self.spec, self.grid, self.t = spec, grid, t
        c, gen, ob = spec.coeffs, spec.gen, spec.obstacles
        self.timed = any(fs is not None and fs.kind == "custom" for fs in
                         (c.sigma, c.cross, c.drift, ob.lower, ob.upper))
        self.per_slice = self.timed or "custom" in (gen.f.kind, gen.g.kind)
        x, inner = grid.x_nodes, grid.x_nodes[1:-1]
        self.sigma = _row(c.sigma, t, x)
        self.sig2 = self.sigma[1:-1] * self.sigma[1:-1]
        cross = _row(c.cross, t, inner)
        self.cross2 = 2.0 * cross
        self.drift = _row(c.drift, t, inner)
        upwind = cell_peclet_excess(self.drift, cross, self.sig2, grid.dx,
                                    spec.gparams.vol_low_sq) > 0.0
        self.upwind = self.drift_up = self.cross_up = None
        if upwind.any():
            self.upwind, self.drift_up, self.cross_up = \
                upwind, self.drift >= 0.0, cross >= 0.0
        per_step = ("quadratic_in_z", "custom")
        self.g2 = None if gen.g.kind in per_step \
            else 2.0 * _row(gen.g, t, inner)
        self.f = None if gen.f.kind in per_step else _row(gen.f, t, inner)
        self.lower, self.upper = (None if fs is None else _row(fs, t, x)
                                  for fs in (ob.lower, ob.upper))
        centred = self.upwind is None
        self.absent = frozenset(name for name, gone in (
            ("sig2", (self.sig2 == 1.0).all()),
            ("cross2", centred and not self.cross2.any()),
            ("drift", centred and not self.drift.any()),
            ("g2", self.g2 is not None and not self.g2.any())) if gone)

    def at(self, t):
        """The operator for a step at time t: itself unless a custom
        coefficient or obstacle needs its rows at another time."""
        if not self.timed or t == self.t:
            return self
        return StepOperator(self.spec, self.grid, t)

    def obstacles(self, t):
        """The (lower, upper) rows at time t on all nodes, None on an
        absent side; re-evaluates only a custom obstacle."""
        rows = []
        for fs, row in zip((self.spec.obstacles.lower,
                            self.spec.obstacles.upper),
                           (self.lower, self.upper)):
            if fs is not None and fs.kind == "custom" and t != self.t:
                row = _row(fs, t, self.grid.x_nodes)
            rows.append(row)
        return rows

    def blocks(self, stop, rows=1):
        """Consecutive slice ranges (k0, k1) covering slices 0..stop-1,
        for a replay that holds `rows` layers per slice: a block's
        largest array stays under _BLOCK_ELEMENTS elements, and a block
        is one slice when the operator is `per_slice`."""
        size = 1 if self.per_slice \
            else max(1, _BLOCK_ELEMENTS // (rows * (self.grid.nx + 1)))
        return [(k, min(k + size, stop)) for k in range(0, stop, size)]


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

class _Kernel:
    """One backward step for layers of one shape through an operator,
    built once per solve or per block shape of a replay and compiled
    into fixed sequences of numpy calls.

    Owns two layers of that shape: a step reads the input layer (`layer`)
    and writes the other, which `_advance` makes the input of the next
    step; a replay copies its block into `layer` first.  Holds the work
    arrays of a step (du, qv, rest, the envelope and v on interior nodes;
    a sequence that needs more makes its own), the constants (dt, 2*dx,
    dx*dx, the halved variances) and the obstacle enforcement of its
    operator's obstacle rows (`_Obstacles`, absent when `pen` is None).
    The calls of each stage of a step are bound once per input layer,
    with every view prebuilt (`_compile`), and bound again only when a
    `timed` operator is re-read at another t (`op.at`).  The arrays are
    overwritten by every step, so nothing a caller keeps may be one of
    them.
    """

    def __init__(self, op: StepOperator, pen, shape):
        grid, gp = op.grid, op.spec.gparams
        self.grid, self.pen, self.timed = grid, pen, op.timed
        self.dt, self.dx = grid.dt, grid.dx
        self.two_dx, self.dx2 = 2.0 * grid.dx, grid.dx * grid.dx
        self.half_high = 0.5 * gp.vol_high_sq
        self.half_low = 0.5 * gp.vol_low_sq
        self.layers = (np.empty(shape), np.empty(shape))
        self.p = 0  # the index of the input layer
        self.inner = shape[:-1] + (shape[-1] - 2,)
        self.du, self.qv, self.rest, self.env, self.v = \
            (np.empty(self.inner) for _ in range(5))
        self.clock = [0.0]  # the t of the step a per-step driver reads
        self.bind(op)

    @property
    def layer(self):
        return self.layers[self.p]

    def bind(self, op: StepOperator):
        """Take `op`, an operator on the kernel's grid: its obstacle
        enforcement, and the outputs (v, qv, rest), where rest is the
        operator's compiled f row when the drift term is absent; the calls
        of each stage are bound on first use."""
        self.op = op
        self.obstacles = None if self.pen is None else _Obstacles(
            op.lower, op.upper, self.pen, self.dt, self.v.shape)
        rest = op.f if "drift" in op.absent and op.f is not None \
            else self.rest
        self.out = (self.v, self.qv, rest)
        self.plans = {}

    def _calls(self, stage):
        """The bound calls of `stage` for the current input layer."""
        key = (self.p, stage)
        if key not in self.plans:
            self.plans[key] = self._compile(stage)
        return self.plans[key]

    def _compile(self, stage):
        """The numpy calls of one stage of the step from the input layer:
        "rhs" forms (qv, rest), "explicit" goes on to v, "apply" writes the
        obstacle enforcement of v into the other layer, and "increments"
        does so reporting the compensator increments too."""
        if stage in ("apply", "increments"):
            return self.obstacles.calls(  # env is free once v is formed
                self.v, self.layers[1 - self.p],
                self.env if stage == "increments" else None)
        calls = self._rhs_calls(self.layer)
        if stage == "explicit":
            qv, rest, env, v = self.qv, self.out[2], self.env, self.v
            calls += gcalculus._envelope_calls(qv, self.half_high,
                                               self.half_low, env, v)
            calls += [_bound_call(np.add, env, rest, env),
                      _bound_call(np.multiply, self.dt, env, env),
                      _bound_call(np.add, self.layer[..., 1:-1], env, v)]
        return calls

    def _rhs_calls(self, layer):
        """The calls that form (qv, rest) of `layer_rhs_parts` from
        `layer`.  They skip every term the operator records as absent,
        and form du only when a term or a per-step driver reads it.  Where
        du is finite, skipping an absent term changes at most the sign of
        a zero qv or rest, which neither the envelope nor env + rest sees,
        so the step keeps every bit; where it is not (a layer whose
        difference overflows), 0*du would have made the full step NaN."""
        op = self.op
        right, left, u = layer[..., 2:], layer[..., :-2], layer[..., 1:-1]
        du, qv, rest = self.du, self.qv, self.rest
        sig2, cross2, drift, g2 = (None if name in op.absent
                                   else getattr(op, name)
                                   for name in ("sig2", "cross2", "drift",
                                                "g2"))
        per_step = op.g2 is None or op.f is None
        # sig2 * (((right - 2.0*u) + left)/dx2)
        calls = [_bound_call(np.multiply, 2.0, u, qv),
                 _bound_call(np.subtract, right, qv, qv),
                 _bound_call(np.add, qv, left, qv),
                 _bound_call(np.divide, qv, self.dx2, qv)]
        if sig2 is not None:
            calls.append(_bound_call(np.multiply, sig2, qv, qv))
        if per_step or cross2 is not None or drift is not None:
            calls += [_bound_call(np.subtract, right, left, du),
                      _bound_call(np.divide, du, self.two_dx, du)]
        du_drift = du_cross = du
        if op.upwind is not None:
            fwd, bwd, du_drift, du_cross = \
                (np.empty(self.inner) for _ in range(4))
            calls += [_bound_call(np.subtract, right, u, fwd),
                      _bound_call(np.divide, fwd, self.dx, fwd),
                      _bound_call(np.subtract, u, left, bwd),
                      _bound_call(np.divide, bwd, self.dx, bwd)]
            for out, up in ((du_drift, op.drift_up), (du_cross, op.cross_up)):
                calls += [_bound_call(np.copyto, out, du),
                          _bound_call(np.copyto, out, fwd,
                                      where=op.upwind & up),
                          _bound_call(np.copyto, out, bwd,
                                      where=op.upwind & ~up)]

        f = op.f
        if per_step:  # drivers that read (u, z) or t; env and v are free
            gen, z = op.spec.gen, self.env
            calls.append(_bound_call(np.multiply, op.sigma[1:-1], du, z))
            if op.g2 is None:
                g2 = self.v
                calls += self._driver(gen.g, u, z, g2)
                calls.append(_bound_call(np.multiply, 2.0, g2, g2))
            if f is None:
                f = rest if drift is None else np.empty(self.inner)
                calls += self._driver(gen.f, u, z, f)
        if cross2 is not None:  # qv + cross2*du + g2, env as scratch
            calls += [_bound_call(np.multiply, cross2, du_cross, self.env),
                      _bound_call(np.add, qv, self.env, qv)]
        if g2 is not None:
            calls.append(_bound_call(np.add, qv, g2, qv))
        if drift is not None:  # drift*du + f
            calls += [_bound_call(np.multiply, drift, du_drift, rest),
                      _bound_call(np.add, rest, f, rest)]
        return calls

    def _driver(self, fs, u, z, out):
        """The calls that write a per-step driver's value at (t, x, u, z)
        into `out`: a quadratic_in_z one as numpy calls, any other as one
        call of fs at the step's t."""
        if fs.kind == "quadratic_in_z":
            return fs._quadratic_calls(z, out)
        clock, x = self.clock, self.grid.x_nodes[1:-1]
        return [lambda: np.copyto(out, fs(clock[0], x, u, z))]

    def rhs(self, t):
        """(qv, rest) of the input layer's step to time t, as `bind` names
        them."""
        self.clock[0] = t
        for call in self._calls("rhs"):
            call()
        return self.out[1:]

    def explicit(self, t):
        """(v, qv, rest) of the step from the input layer to time t, with
        v = u + dt*(envelope(qv) + rest) in the kernel's `v` and (qv,
        rest) as `rhs` gives them; a `timed` operator is re-read at t
        first."""
        if self.timed:
            op = self.op.at(t)
            if op is not self.op:
                self.bind(op)
        self.clock[0] = t
        for call in self._calls("explicit"):
            call()
        return self.out

    def apply(self, increments=False):
        """Enforce the obstacles on v into the other layer and return it;
        with `increments`, return (layer, dA+, dA-) as `_Obstacles.calls`
        writes them."""
        for call in self._calls("increments" if increments else "apply"):
            call()
        out = self.layers[1 - self.p]
        if increments:
            return out, self.obstacles.da_plus, self.obstacles.da_minus
        return out


def layer_rhs_parts(next_layer, t, op: StepOperator):
    """Interior right-hand side, split for scenario re-evaluation.

    Returns (qv, rest) = (sig2*d2u + cross2*du + g2, drift*du + f) on
    interior nodes: the full rhs is envelope(qv) + rest, a fixed-scenario
    rhs 0.5*v*qv + rest.  It is the split of every step (`_Kernel.rhs`),
    here into new arrays of the layer's interior shape.  `next_layer` may
    carry leading axes; a driver that reads t is evaluated at this one t.
    """
    kernel = _Kernel(op.at(t), None, np.shape(next_layer))
    np.copyto(kernel.layer, next_layer)
    qv, rest = kernel.rhs(t)
    if rest is not kernel.rest:  # the operator's f row
        rest = np.array(np.broadcast_to(rest, qv.shape))
    return qv, rest


def _penalty_sides(low_vals, up_vals, pen, dt):
    """The constants of the penalty resolution against obstacle values on
    the nodes of v: per side whose intensity acts on some row, (the
    values, the rows it acts on as `_rows` gives them, dt*m*values,
    1 + dt*m, the test of v that selects the nodes it pushes)."""
    sides = []
    for vals, rate, test in ((low_vals, pen.m_lower, np.less),
                             (up_vals, pen.n_upper, np.greater)):
        if vals is not None:
            a = dt * rate
            rows = _rows(a > 0.0)
            if rows is not None:
                sides.append((vals, rows, a * vals, 1.0 + a, test))
    return sides


def _resolve_calls(v, u, sides, hit, val):
    """The calls that write the penalty resolution of v into u, which
    holds v; hit and val are work arrays of v's shape.  Both sides test
    the unpenalized v."""
    calls = []
    for vals, rows, a_vals, one_a, test in sides:
        calls.append(_bound_call(test, v, vals, hit))
        if rows is not True:
            calls.append(_bound_call(np.logical_and, hit, rows, hit))
        calls += [_bound_call(np.add, v, a_vals, val),
                  _bound_call(np.divide, val, one_a, val),
                  _bound_call(np.copyto, u, val, where=hit)]
    return calls


def resolve_penalties(v, low_vals, up_vals, pen, dt):
    """Closed-form solution of u = v + dt*m*(u-low)^- - dt*n*(u-up)^+.

    The map u -> u - dt*m*(u-low)^- + dt*n*(u-up)^+ is piecewise linear,
    increasing, with kinks only at the obstacles, so inversion has three
    cases decided by where v lands:

        v <  low : u = (v + dt*m*low) / (1 + dt*m)
        v >  up  : u = (v + dt*n*up) / (1 + dt*n)
        else     : u = v

    An absent side (None) contributes nothing.  `pen` is one finite
    PenaltyParams for every row of v, or the finite rates of
    `_penalty_rows` along v's leading axis; an infinite intensity is a
    projection, which the step kernel applies, and is refused here.
    Returns a new array.
    """
    if isinstance(pen, PenaltyParams) \
            and math.inf in (pen.m_lower, pen.n_upper):
        raise SpecError("resolve_penalties takes finite intensities")
    u = np.array(v, dtype=float)
    for call in _resolve_calls(v, u, _penalty_sides(low_vals, up_vals, pen,
                                                    dt),
                               np.empty(u.shape, dtype=bool),
                               np.empty(u.shape)):
        call()
    return u


def _push_calls(a, b, rate, out):
    """The calls that write rate*max(a - b, 0), a penalty compensator
    increment, into `out`."""
    return [_bound_call(np.subtract, a, b, out),
            _bound_call(np.maximum, out, 0.0, out=out),
            _bound_call(np.multiply, rate, out, out)]


def _penalty_increments(y, low, up, pen: PenaltyParams, dt):
    """Penalty compensator increments (dt*m*(low-y)^+, dt*n*(y-up)^+) of
    the values y against obstacle rows on the same nodes; zero on absent
    sides and at zero intensity.  At the penalty-resolved value they are
    exactly the push the resolution applied."""
    pushes = []
    for a, b, row, rate in ((low, y, low, pen.m_lower),
                            (y, up, up, pen.n_upper)):
        out = np.zeros(np.shape(y))
        if row is not None and rate > 0.0:
            for call in _push_calls(a, b, dt * rate, out):
                call()
        pushes.append(out)
    return tuple(pushes)


class _Obstacles:
    """Obstacle enforcement of one step for explicit values of one
    interior shape: the kernel of every solver and of the process
    reconstruction.

    Built once from the obstacle rows of the step on all nodes (None on
    an absent side), the `_penalty_rows` of the values' rows and dt: it
    holds the penalty constants of `_penalty_sides`, the interior rows
    and rows of each projected side, the wall values of each present
    side, and the work arrays (the hit mask, the penalty value, the two
    extrapolated ends, and the increments once asked for).  `calls`
    binds its numpy calls for given values and layer arrays.
    """

    def __init__(self, low, up, pen, dt, shape):
        self.pen, self.dt, self.n = pen, dt, shape[-1] + 1
        self.low_in = None if low is None else low[1:-1]
        self.up_in = None if up is None else up[1:-1]
        self.penalized = _penalty_sides(self.low_in, self.up_in, pen, dt)
        # lists, not tuple(generator): CPython builds that tuple at a
        # guessed size and shrinks it, so every call would grow the free
        # list of 2-tuples, which traced peaks count
        self.projected = [  # the lower side first
            (row, rows, bound) for row, rows, bound in
            ((self.low_in, pen.lift, np.maximum),
             (self.up_in, pen.clamp, np.minimum))
            if row is not None and rows is not None]
        self.walls = [(row[::self.n], bound) for row, bound in
                      ((low, np.maximum), (up, np.minimum))
                      if row is not None]
        self.hit = np.empty(shape, dtype=bool)
        self.val = np.empty(shape)
        self.ends = np.empty(shape[:-1] + (2,))
        self.da_plus = self.da_minus = None

    def calls(self, v, layer, u_pen=None):
        """The calls that write the layers of the explicit values v into
        `layer` (v's shape plus the two wall columns).

        They resolve the finite penalties, project the rows of an infinite
        intensity, and close the boundary by zero-curvature extrapolation
        clamped into the band.  Given `u_pen`, a work array of v's shape,
        they go on to write dA+ and dA- into `da_plus` and `da_minus`
        (arrays of the layer's shape): the penalty increments at the
        resolved value plus the projection and boundary-clamp lifts, split
        by sign.
        """
        n = self.n  # the last column
        u, ends = layer[..., 1:n], layer[..., ::n]
        calls = [_bound_call(np.copyto, u, v)]
        calls += _resolve_calls(v, u, self.penalized, self.hit, self.val)
        if u_pen is not None:
            calls.append(_bound_call(np.copyto, u_pen, u))
        for row, rows, bound in self.projected:
            if rows is True:
                calls.append(_bound_call(bound, u, row, out=u))
            else:
                calls += [_bound_call(bound, u, row, out=self.val),
                          _bound_call(np.copyto, u, self.val, where=rows)]

        # both ends at once: columns (0, n) from (1, n-1) and (2, n-2)
        calls += [_bound_call(np.multiply, 2.0, layer[..., 1::n - 2],
                              self.ends),
                  _bound_call(np.subtract, self.ends,
                              layer[..., 2:n - 1:max(n - 4, 1)], ends)]
        if u_pen is not None:
            ext = np.empty(ends.shape)
            calls.append(_bound_call(np.copyto, ext, ends))
        calls += [_bound_call(bound, row, ends, out=ends)
                  for row, bound in self.walls]
        if u_pen is not None:
            calls += self._increment_calls(u, u_pen, ends, ext)
        return calls

    def _increment_calls(self, u, u_pen, ends, ext):
        """The calls that write dA+ and dA- into `da_plus` and `da_minus`,
        made on first use, from the layer's interior u and ends, the penalized
        values u_pen and the extrapolated ends ext; overwrites u_pen and
        ext."""
        n, pen, lift = self.n, self.pen, self.val
        if self.da_plus is None:  # one pair for the calls of either layer
            self.da_plus = np.empty(ends.shape[:-1] + (n + 1,))
            self.da_minus = np.empty(self.da_plus.shape)
        plus, minus = self.da_plus[..., 1:n], self.da_minus[..., 1:n]
        calls = []
        # the pushes at the resolved value, or 0.0 where a side has none
        pushes = []
        for a, b, row, rate, out in ((self.low_in, u_pen, self.low_in,
                                      pen.m_lower, plus),
                                     (u_pen, self.up_in, self.up_in,
                                      pen.n_upper, minus)):
            if row is not None and rate > 0.0:
                calls += _push_calls(a, b, self.dt * rate, out)
                pushes.append(out)
            else:
                pushes.append(0.0)
        calls += [_bound_call(np.subtract, u, u_pen, u_pen),  # the lift
                  _bound_call(np.maximum, u_pen, 0.0, out=lift),
                  _bound_call(np.add, pushes[0], lift, plus),
                  _bound_call(np.negative, u_pen, lift),
                  _bound_call(np.maximum, lift, 0.0, out=lift),
                  _bound_call(np.add, pushes[1], lift, minus)]
        # the boundary clamp, split by sign
        mask = np.empty(ends.shape, dtype=bool)
        plus, minus = self.da_plus[..., ::n], self.da_minus[..., ::n]
        calls += [_bound_call(np.subtract, ends, ext, ext),
                  _bound_call(np.copyto, plus, ext),
                  _bound_call(np.less, ext, 0.0, mask),
                  _bound_call(np.copyto, plus, 0.0, where=mask),
                  _bound_call(np.negative, ext, minus),
                  _bound_call(np.greater, ext, 0.0, mask),
                  _bound_call(np.copyto, minus, 0.0, where=mask)]
        return calls

    def apply(self, v, layer):
        """Write the layers of the explicit values v into `layer` (v's
        shape plus the two wall columns) and return it (`calls`)."""
        for call in self.calls(v, layer):
            call()
        return layer


def _advance(kernel: _Kernel, t):
    """One backward step of every layer in the kernel's input layer to
    time t, written into its other layer, which it returns and makes the
    input layer of the next step; non-finite values are left to the
    caller."""
    kernel.explicit(t)
    out = kernel.apply()
    kernel.p = 1 - kernel.p
    return out


def _nonfinite(layer, t, grid: Grid):
    """The StepFailure text for a layer at time t with a non-finite
    value."""
    bad = int(np.argmin(np.isfinite(layer)))
    return (f"non-finite value at t={t:.6g}, x={grid.x_nodes[bad]:.6g}; "
            "reduce cfl_safety or tighten the driver clip bounds")


def explicit_step(next_layer, t, op: StepOperator, pen: PenaltyParams):
    """Advance one backward step; returns the new layer at time t.

    `next_layer` is the known layer at t+dt and is not modified; the
    result is a new array.  See the module docstring for the update;
    this is the one-layer case of the kernel the solvers step in
    batches.
    """
    grid = op.grid
    next_layer = np.asarray(next_layer, dtype=float)
    if next_layer.shape != (grid.nx + 1,):
        raise SpecError("layer shape does not match the grid")
    kernel = _Kernel(op, _penalty_rows((pen,)), next_layer.shape)
    np.copyto(kernel.layer, next_layer)
    out = _advance(kernel, t)
    if not np.isfinite(out).all():
        raise StepFailure(_nonfinite(out, t, grid))
    return out
