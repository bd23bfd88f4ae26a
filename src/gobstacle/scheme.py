"""Monotone explicit stepping on a uniform space-time grid.

One backward step from a known layer at t+dt to the layer at t:

    v_i   = u_i + dt * (envelope(qv_i) + drift_i*du_i + f_i)     (explicit)
    u_i'  = v_i + dt*m*(u_i'-lower)^-  -  dt*n*(u_i'-upper)^+    (implicit)

with centered first and second differences taken from the known layer,
except that first differences are one-sided at nodes where centring
would break monotonicity (below).
The implicit penalty equation is piecewise linear and monotone in u',
so it resolves in closed form: at most three cases, a masked divide per
penalized side.  Penalty intensities therefore never enter the CFL
restriction.  An infinite intensity is its limit, the projection
(reflection) onto the obstacle, applied after the finite resolution:
u' = max(u', lower) at m = inf, then u' = min(u', upper) at n = inf.

A `StepOperator` compiles the problem onto the grid once; every step
reads its rows.  One kernel (`_Kernel`) forms every step the package
takes, in the solvers and in the replays of the process reconstruction
and its residuals: `_Kernel.explicit` forms the explicit values, then
`_Kernel.apply` resolves the penalties, projects and closes the boundary
(`_Obstacles`), and reports on request the compensator increments it
applied; a solver step (`_advance`) runs the calls of both as one list.
It steps R layers of one problem at a time: a solver steps the S
solves of a batch, with penalty intensities given per row, and a replay
of stored slices takes a block of consecutive slices per call
(`StepOperator.blocks`), sized so that its largest array stays under a
fixed element budget, or a single slice when a custom field or driver
may depend on t.  The R layers lie end to end in one flat array of
R*(nx+1) nodes, so each interior operation of a step is one contiguous
1-D ufunc call over all of them.  Each operator row and each per-row
penalty constant is tiled over the layers once per kernel (`_tiled`);
the 2(R-1) seam nodes, the wall columns between layers, step on finite
tiled values and are overwritten by the boundary closure, which acts
through strided 1-D views of the wall columns.  The arithmetic is
elementwise and the same at every node, so a batched or blocked call
reproduces the one-layer step bit for bit; R = 1 is the single solve,
and a batch whose rows still step as one (`solvers._solve_rows`).

A kernel is built once per solve (a batch whose rows separate builds
its S-layer kernel at the separating step), or per block shape of a
replay: two
flat layers, which a solve steps between in turn, the work arrays of
one step, the constants (dt, 2*dx, dx*dx, the halved variances), the
operator rows a step reads and, per side whose penalty acts, the
interior obstacle row, dt*m*row and 1 + dt*m, all tiled over its
layers.  It binds a step once into a fixed sequence of numpy calls
(`_Kernel._compile`), every operand bound and every view into its two
layers prebuilt, so a step only runs that sequence: ufuncs into those
arrays (`out=`), with the operands and in the order of the plain
expressions, so the buffers change no bit.  A float operand is bound as
a 0-d array (`model._bound_call`), the same operand, which the ufunc
need not convert on every call.  A catalog quadratic_in_z driver is part
of the sequence, with the calls its own evaluation runs
(`FnSpec._quadratic_calls`); a custom driver is one call at the step's
t on the layers' interior nodes, in the (R, nx-1) shape of the batch
((nx-1,) for one layer: a single solve, or a batch before its rows
separate).  A `timed` operator is re-read in place at
each new t (`StepOperator.at`) and copied into the tiled rows; its
structure is fixed per solve, so the sequence is never bound again.
It runs no call for a term the operator records as absent
(`StepOperator.absent`: sigma^2 == 1, a zero cross loading, drift or
compiled g), and forms du only when a term or a per-step driver reads
it.  The envelope's closing add of 0.0 (-0 to +0) is dropped where rest
is a compiled f row with no -0, or drift*du plus it: a sum is -0 only
if both terms are, so the add of rest does the same.  An obstacle-free
problem with unit coefficients and g == 0 steps in 13 numpy calls.
No step writes into a field: a solve copies each new layer's rows into
their fields, and a replay copies its block of stored slices into the
kernel's input layer.  `gcalculus.g_eval` shares the kernel's
envelope.  The kernel's increments form the penalty pushes in
`_Obstacles._increment_calls`, the limit driver's contact residuals in
a plain scan.

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


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, horizon] x [x_min, x_max].

    nx space intervals (nx+1 nodes), nt time intervals (nt+1 slices).
    GridError is raised, before any node array is allocated, for a span
    that is not finite, x_max <= x_min (the scheme upwinds only where
    dx > 0), a horizon that is not finite and positive, an nx or nt that
    is not an integer (a bool included), nx < 4 or nt < 1, and a
    solution field above the memory cap (`_check_field_budget`).
    Immutable after construction.  The read-only node arrays `x_nodes`
    and `t_nodes` are derived from (x_min, x_max, nx) and (horizon, nt)
    when built, `dataclasses.replace` included, and cannot be passed.
    Grids are equal when their domains, sizes and horizons are.
    """

    x_min: float
    x_max: float
    nx: int
    nt: int
    horizon: float
    x_nodes: np.ndarray = dc_field(init=False, repr=False, compare=False)
    t_nodes: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.x_max - self.x_min):  # NaN if both inf
            raise GridError("domain ends and their span must be finite, "
                            f"got [{self.x_min}, {self.x_max}]")
        if not self.x_max > self.x_min:
            raise GridError(f"degenerate domain [{self.x_min}, {self.x_max}]")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise GridError("the horizon must be finite and positive, "
                            f"got {self.horizon}")
        for name in ("nx", "nt"):  # Python ints: the budget cannot wrap
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise GridError(f"{name} must be an integer, got {n!r}")
            object.__setattr__(self, name, int(n))
        if self.nx < 4 or self.nt < 1:
            raise GridError("a grid needs nx >= 4 space and nt >= 1 time "
                            f"intervals, got nx={self.nx}, nt={self.nt}")
        _check_field_budget(self, 1)
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
    the lower obstacle, `clamp` onto the upper one).  A rate is a float
    when every row has it, else an (S,) array; the projected rows are
    None (no row), True (every row) or an (S,) mask.  `_Obstacles`
    spreads a per-row array over the nodes of each row."""

    m_lower: object
    n_upper: object
    lift: object
    clamp: object


def _rows(hold):
    """Rows where a condition holds (a bool for every row, or an (S,)
    mask): True for every row, None for none, else the mask."""
    if isinstance(hold, bool):
        return True if hold else None
    return True if hold.all() else (hold if hold.any() else None)


def _side(rates):
    """(finite rate, projected rows) of one side's intensities, one per
    row; the rate is a float when every row has the same one."""
    inf = np.isinf(rates)
    finite = np.where(inf, 0.0, np.asarray(rates, dtype=float))
    same = (finite == finite[0]).all()
    return (float(finite[0]) if same else finite), _rows(inf)


def _penalty_rows(pens):
    """The `_PenaltyRows` of one PenaltyParams per row."""
    m_lower, lift = _side([p.m_lower for p in pens])
    n_upper, clamp = _side([p.n_upper for p in pens])
    return _PenaltyRows(m_lower, n_upper, lift, clamp)


def _tiled(inner, count, out=None):
    """`inner`, a row on the interior nodes of a layer, repeated over
    `count` layers laid end to end, written into `out` (a new array when
    None) of count*(nx+1) nodes.  The wall columns take the value of
    their layer's nearest interior node, so a seam node (a wall column
    between two layers) steps on finite rows; the boundary closure
    overwrites it.  The step kernel reads out[1:-1]."""
    n = inner.shape[-1] + 2
    if out is None:
        out = np.empty(count * n, dtype=inner.dtype)
    nodes = out.reshape(count, n)
    nodes[:, 1:-1] = inner
    nodes[:, 0], nodes[:, -1] = inner[0], inner[-1]
    return out


def _per_node(value, n):
    """A per-row value of `_PenaltyRows` on the interior of its layers of
    n nodes laid end to end: a float or True as it is, an (S,) array
    repeated over the nodes of each row."""
    if isinstance(value, np.ndarray):
        out = np.empty(value.size * n, dtype=value.dtype)
        out.reshape(value.size, n)[...] = value[:, None]
        return out[1:-1]
    return value


def _gradient_bound(spec: ProblemSpec, xs, ts):
    """Probe a bound for the first-order (gradient) coefficients on the
    time nodes ts; a NaN on any probed node raises GridError naming its
    coefficient."""
    sup_b, sup_l = (
        np.max([np.max(np.abs(_row(fs, t, xs))) for t in ts])
        for fs in (spec.coeffs.drift, spec.coeffs.cross))
    for name, sup in (("drift", sup_b), ("cross", sup_l)):
        if np.isnan(sup):
            raise GridError(f"the {name} coefficient is NaN on a probed node")
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
    is capped at 512 MiB.  `Grid` itself refuses a bad domain, nx or
    field size; the first one is built at nt = 1, before any probe.
    The volatility band is taken as given: `GParams` checks it when built.
    """
    if not 0.0 < cfl_safety <= 1.0:
        raise GridError("cfl_safety must lie in (0, 1]")

    first = Grid(x_min=x_min, x_max=x_max, nx=nx, nt=1, horizon=spec.horizon)
    grid = None
    while True:  # until the grid passes its own probe (`_cfl_steps`)
        nt = _cfl_steps(spec, first.x_nodes, first.dx, cfl_safety, grid)
        if grid is not None and nt <= grid.nt:
            return grid
        grid = Grid(x_min=x_min, x_max=x_max, nx=nx, nt=nt,
                    horizon=spec.horizon)


def _cfl_steps(spec: ProblemSpec, xs, dx, cfl_safety, grid=None):
    """The fewest time steps over the horizon whose dt meets the CFL
    restriction of `build_grid` on the nodes xs, spaced dx.  The
    first-order coefficients are probed at t = 0, T/2, T, or on the
    t-nodes of `grid` when one is given and a drift or cross is custom.
    A count above the cap, inf or NaN included, raises GridError, and
    so does a drift or cross that is NaN on a probed node."""
    ts = (0.0, 0.5 * spec.horizon, spec.horizon)
    if grid is not None and "custom" in (spec.coeffs.drift.kind,
                                         spec.coeffs.cross.kind):
        ts = grid.t_nodes
    diff = spec.gparams.vol_high_sq * spec.coeffs.vol_cap
    zero = spec.gen.lipschitz_y * (1.0 + spec.gparams.vol_high_sq)
    with np.errstate(all="ignore"):  # inf bound or dt_max of 0: inf steps
        first = _gradient_bound(spec, xs, ts)
        steps = spec.horizon / (np.float64(cfl_safety * dx * dx)
                                / (diff + dx * first + dx * dx * zero))
    if not steps <= _NT_CAP:
        raise GridError(f"CFL bound needs a step count above the cap "
                        f"{_NT_CAP}; coarsen nx, shorten the horizon or "
                        "bound the coefficients")
    return max(1, math.ceil(steps))


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


def _block_max(fn, *arrays):
    """np.max(fn(*arrays)), taken over blocks of leading rows so that no
    temporary outgrows a block; the max is exact, so the value is the
    same, and a NaN anywhere still gives NaN."""
    return float(np.max([np.max(fn(*(a[k0:k1] for a in arrays)))
                         for k0, k1 in _blocks(len(arrays[0]),
                                               arrays[0][0].size)]))


def _blocks(stop, width):
    """Consecutive ranges (k0, k1) covering rows 0..stop-1 of `width`
    elements each: a range holds at most _BLOCK_ELEMENTS elements, or one
    row when a row alone is larger.  Every blocked scan and replay takes
    its ranges from here."""
    size = max(1, _BLOCK_ELEMENTS // width)
    return [(k, min(k + size, stop)) for k in range(0, stop, size)]


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

def _row(fs, t, x, out=None):
    """fs at time t on the nodes x as a float row (constants broadcast),
    written into `out` when one is given."""
    out = np.empty(np.shape(x)) if out is None else out
    out[...] = fs(t, x)
    return out


class StepOperator:
    """A problem compiled onto a grid, one object per solve.

    Rows: `sigma` on all nodes; `sig2` (sigma^2), `cross2` (2*cross) and
    `drift` on interior nodes; `upwind`, the interior nodes that fail the
    cell-Peclet condition, with the signs `drift_up` (drift >= 0) and
    `cross_up` (cross >= 0) that pick their one-sided differences, or all
    three None when every node is centred; `g2` (2*g) and `f` on interior
    nodes when that driver is x-only, else None (evaluated per step at
    z = sigma*du); `lower`/`upper` on all nodes, None on an absent side.
    `absent` names the rows whose term is structurally absent, which the
    kernel skips: "sig2" where a catalog sigma^2 == 1, "cross2" and
    "drift" where that row is 0 and every node is centred, "g2" where a
    compiled g2 is 0.  No catalog kind depends on t, so its rows serve
    every step; a custom coefficient or obstacle may (`timed`), and `at`
    re-reads its rows in place.  The step's structure is fixed when the
    operator is built: a custom row is never absent, and a custom sigma,
    cross or drift always carries the one-sided picks (all False at a
    centred node).  A custom driver is called at each step's t;
    `per_slice` marks an operator with either, whose replays take one
    slice per block.
    """

    def __init__(self, spec: ProblemSpec, grid: Grid):
        self.spec, self.grid, self.t = spec, grid, 0.0
        c, gen, ob = spec.coeffs, spec.gen, spec.obstacles
        x, inner = grid.x_nodes, grid.x_nodes[1:-1]
        read = [("sigma", c.sigma, x), ("_cross", c.cross, inner),
                ("drift", c.drift, inner), ("lower", ob.lower, x),
                ("upper", ob.upper, x)]
        for name, fs, nodes in read:
            setattr(self, name, None if fs is None else _row(fs, 0.0, nodes))
        # (attribute, field, nodes) of each row `at` re-reads
        self._custom = [(name, fs, nodes) for name, fs, nodes in read
                        if fs is not None and fs.kind == "custom"]
        self.timed = bool(self._custom)
        self.per_slice = self.timed or "custom" in (gen.f.kind, gen.g.kind)
        self.sig2, self.cross2 = np.empty(inner.shape), np.empty(inner.shape)
        self.upwind, self.drift_up, self.cross_up = (
            np.empty(inner.shape, dtype=bool) for _ in range(3))
        self._derive()
        moving = any(fs.kind == "custom" for fs in (c.sigma, c.cross,
                                                   c.drift))
        if not (moving or self.upwind.any()):
            self.upwind = self.drift_up = self.cross_up = None
        per_step = ("quadratic_in_z", "custom")
        self.g2 = None if gen.g.kind in per_step \
            else 2.0 * _row(gen.g, 0.0, inner)
        self.f = None if gen.f.kind in per_step else _row(gen.f, 0.0, inner)
        centred = self.upwind is None
        self.absent = frozenset(name for name, gone in (
            ("sig2", c.sigma.kind != "custom" and (self.sig2 == 1.0).all()),
            ("cross2", centred and not self.cross2.any()),
            ("drift", centred and not self.drift.any()),
            ("g2", self.g2 is not None and not self.g2.any())) if gone)

    def _derive(self):
        """Write sig2, cross2 and the one-sided picks (if any) in place."""
        sigma = self.sigma[1:-1]
        np.multiply(sigma, sigma, out=self.sig2)
        np.multiply(2.0, self._cross, out=self.cross2)
        if self.upwind is not None:
            np.greater(cell_peclet_excess(
                self.drift, self._cross, self.sig2, self.grid.dx,
                self.spec.gparams.vol_low_sq), 0.0, out=self.upwind)
            np.greater_equal(self.drift, 0.0, out=self.drift_up)
            np.greater_equal(self._cross, 0.0, out=self.cross_up)

    def at(self, t):
        """The operator at time t, which is itself: a `timed` one first
        re-reads its custom rows at t in place, then the rows derived
        from them.  Catalog rows are never read again."""
        if self.timed and t != self.t:
            self.t = t
            for name, fs, nodes in self._custom:
                _row(fs, t, nodes, getattr(self, name))
            self._derive()
        return self

    def blocks(self, stop, rows=1):
        """Consecutive slice ranges (k0, k1) covering slices 0..stop-1,
        for a replay that holds `rows` layers per slice: a block's
        largest array stays under _BLOCK_ELEMENTS elements, and a block
        is one slice when the operator is `per_slice`."""
        if self.per_slice:
            return [(k, k + 1) for k in range(stop)]
        return _blocks(stop, rows * (self.grid.nx + 1))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

class _Kernel:
    """One backward step for R layers of one shape through an operator,
    built once per solve or per block shape of a replay and compiled
    into fixed sequences of numpy calls.

    The R layers (the solves of a batch, or the slices of a replay block)
    lie end to end in flat arrays of R*(nx+1) nodes, so every interior
    call of a step is one contiguous 1-D ufunc call over all R layers.
    The 2(R-1) seam nodes, the wall columns between layers, step like
    interior nodes on tiled rows (`_tiled`) until the boundary closure
    overwrites them.  Callers see the shape the kernel was built for:
    `layer` and the layers `apply` returns as (R, nx+1) views ((nx+1,)
    for one layer), and v, qv and rest as (R, nx-1) views.

    Owns two layers: a step reads the input layer (`layer`) and writes
    the other, which `_advance` makes the input of the next step; a
    replay copies its block into `layer` first.  Holds the work arrays
    of a step (du, qv, rest, the envelope and v; a sequence that needs
    more makes its own once), the constants (dt, 2*dx, dx*dx, the halved
    variances), the operator's rows the step reads tiled over the R
    layers, and the obstacle enforcement of its operator's obstacle
    rows (`_Obstacles`, absent when `pen` is None).  The calls of each
    stage of a step are bound once per input layer, with every view
    prebuilt (`_compile`).  The kernel records the step's t (`t`), which
    a custom driver reads; at a new t a `timed` operator is re-read
    (`op.at`) into the tiles and the obstacle rows, and its structure is
    fixed per solve, so the calls stay valid.  The arrays are overwritten
    by every step, so nothing a caller keeps may be one of them.
    """

    def __init__(self, op: StepOperator, pen, shape):
        grid, gp = op.grid, op.spec.gparams
        self.grid, self.pen, self.timed = grid, pen, op.timed
        self.shape, self.count = shape, math.prod(shape[:-1])
        self.dt, self.dx = grid.dt, grid.dx
        self.two_dx, self.dx2 = 2.0 * grid.dx, grid.dx * grid.dx
        self.half_high = 0.5 * gp.vol_high_sq
        self.half_low = 0.5 * gp.vol_low_sq
        size = self.count * shape[-1]
        self.layers = (np.empty(size), np.empty(size))
        self.views = tuple(a.reshape(shape) for a in self.layers)
        self.p = 0  # the index of the input layer
        # zeros: a per-step driver writes its layers' nodes only
        self.du, self.qv, self.rest, self.env, self.v = \
            (np.zeros(size) for _ in range(5))
        self.work = {}
        inner = shape[:-1] + (shape[-1] - 2,)
        self.obstacles = None if pen is None else _Obstacles(
            op.lower, op.upper, pen, self.dt, inner)
        self.op, self.t = op, op.t  # the step's t, which its rows hold
        self.tiles = {name: _tiled(row, self.count)
                      for name, row in self._read(op)}
        self.plans = {}
        # rest is the compiled f row when the drift term is absent
        self.rest_out = self.tiles["f"] if "drift" in op.absent \
            and op.f is not None else self.rest
        self.out = tuple(self.rows(a) for a in (self.v, self.qv,
                                                self.rest_out))

    @property
    def layer(self):
        return self.views[self.p]

    def rows(self, a):
        """The interior nodes of each layer in `a`, a flat array of the
        kernel's size: an (R, nx-1) view, (nx-1,) for one layer."""
        return a.reshape(self.shape)[..., 1:-1]

    @staticmethod
    def _read(op: StepOperator):
        """(name, row) of each interior row of `op` that a step reads:
        the rows not recorded as absent, sigma when a driver is per
        step, and the one-sided picks where the operator upwinds."""
        rows = [(name, getattr(op, name)) for name in
                ("sig2", "cross2", "drift", "g2", "f")
                if name not in op.absent and getattr(op, name) is not None]
        if op.g2 is None or op.f is None:
            rows.append(("sigma", op.sigma[1:-1]))
        if op.upwind is not None:
            for name, up in (("drift", op.drift_up), ("cross", op.cross_up)):
                rows += [(name + "+", op.upwind & up),
                         (name + "-", op.upwind & ~up)]
        return rows

    def _work(self, name):
        """A work array of the kernel's size that only some sequences
        need, made on first use; zeros, as a per-step driver writes only
        its layers' nodes."""
        if name not in self.work:
            self.work[name] = np.zeros(self.layers[0].size)
        return self.work[name]

    def _calls(self, stage):
        """The bound calls of `stage` for the current input layer; "step"
        is "explicit" then "apply" in one list."""
        key = (self.p, stage)
        if key not in self.plans:
            self.plans[key] = self._calls("explicit") + self._calls("apply") \
                if stage == "step" else self._compile(stage)
        return self.plans[key]

    def _compile(self, stage):
        """The numpy calls of one stage of the step from the input layer:
        "explicit" forms (v, qv, rest), "apply" writes the obstacle
        enforcement of v into the other layer, and "increments" does so
        reporting the compensator increments too."""
        if stage in ("apply", "increments"):
            return self.obstacles.calls(  # env is free once v is formed
                self.v[1:-1], self.layers[1 - self.p],
                self.env[1:-1] if stage == "increments" else None)
        layer = self.layers[self.p]
        qv, env, v = self.qv[1:-1], self.env[1:-1], self.v[1:-1]
        envelope = gcalculus._envelope_calls(qv, self.half_high,
                                             self.half_low, env, v)
        f = self.op.f
        if f is not None and not (np.signbit(f) & (f == 0.0)).any():
            envelope.pop()  # its add of 0.0: rest is never -0 (module doc)
        return self._rhs_calls(layer) + envelope + [
            _bound_call(np.add, env, self.rest_out[1:-1], env),
            _bound_call(np.multiply, self.dt, env, env),
            _bound_call(np.add, layer[1:-1], env, v)]

    def _rhs_calls(self, layer):
        """The calls that form (qv, rest) from the flat `layer`, as
        `explicit` names them.  They skip every term the operator records
        as absent, and form du only when a term or a per-step driver reads
        it.  Where du is finite, skipping an absent term changes at most
        the sign of a zero qv or rest, which neither the envelope nor
        env + rest sees, so the step keeps every bit; where it is not (a
        layer whose difference overflows), 0*du would have made the full
        step NaN."""
        op = self.op
        tile = {name: row[1:-1] for name, row in self.tiles.items()}
        right, left, u = layer[2:], layer[:-2], layer[1:-1]
        du, qv, rest = self.du[1:-1], self.qv[1:-1], self.rest[1:-1]
        sig2, cross2, drift, g2 = (tile.get(name) for name in
                                   ("sig2", "cross2", "drift", "g2"))
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
            fwd, bwd, du_drift, du_cross = (
                self._work(name)[1:-1]
                for name in ("fwd", "bwd", "du_drift", "du_cross"))
            calls += [_bound_call(np.subtract, right, u, fwd),
                      _bound_call(np.divide, fwd, self.dx, fwd),
                      _bound_call(np.subtract, u, left, bwd),
                      _bound_call(np.divide, bwd, self.dx, bwd)]
            for out, name in ((du_drift, "drift"), (du_cross, "cross")):
                calls += [_bound_call(np.copyto, out, du),
                          _bound_call(np.copyto, out, fwd,
                                      where=tile[name + "+"]),
                          _bound_call(np.copyto, out, bwd,
                                      where=tile[name + "-"])]

        f = tile.get("f")
        if per_step:  # drivers that read (u, z) or t; env and v are free
            gen = op.spec.gen
            calls.append(_bound_call(np.multiply, tile["sigma"], du,
                                     self.env[1:-1]))
            if op.g2 is None:
                g2 = self.v[1:-1]
                calls += self._driver(gen.g, layer, self.v)
                calls.append(_bound_call(np.multiply, 2.0, g2, g2))
            if f is None:
                out = self.rest if drift is None else self._work("f")
                calls += self._driver(gen.f, layer, out)
                f = out[1:-1]
        if cross2 is not None:  # qv + cross2*du + g2, env as scratch
            env = self.env[1:-1]
            calls += [_bound_call(np.multiply, cross2, du_cross, env),
                      _bound_call(np.add, qv, env, qv)]
        if g2 is not None:
            calls.append(_bound_call(np.add, qv, g2, qv))
        if drift is not None:  # drift*du + f
            calls += [_bound_call(np.multiply, drift, du_drift, rest),
                      _bound_call(np.add, rest, f, rest)]
        return calls

    def _driver(self, fs, layer, out):
        """The calls that write a per-step driver's value at (t, x, u, z),
        z in the kernel's env, into the flat array `out`: a quadratic_in_z
        one as numpy calls over the flat layout, any other as one call of
        fs at the step's t on the layers' interior nodes, in the shape
        the kernel was built for; a seam node keeps its value."""
        if fs.kind == "quadratic_in_z":
            return fs._quadratic_calls(self.env[1:-1], out[1:-1])
        x = self.grid.x_nodes[1:-1]
        u, z, out = (self.rows(a) for a in (layer, self.env, out))
        return [lambda: np.copyto(out, fs(self.t, x, u, z))]

    def at(self, t):
        """Set the step's t; re-read a `timed` operator if t moved."""
        if self.timed and t != self.t:
            op = self.op.at(t)
            for name, row in self._read(op):
                _tiled(row, self.count, self.tiles[name])
            if self.obstacles is not None:
                self.obstacles.refresh(op.lower, op.upper)
        self.t = t

    def explicit(self, t):
        """(v, qv, rest) of the step from the input layer to time t, with
        v = u + dt*(envelope(qv) + rest) in the kernel's `v`, qv =
        sig2*d2u + cross2*du + g2 and rest = drift*du + f on interior nodes
        (a fixed-scenario step takes 0.5*v*qv + rest)."""
        self.at(t)
        for call in self._calls("explicit"):
            call()
        return self.out

    def apply(self, increments=False):
        """Enforce the obstacles on v into the other layer and return it;
        with `increments`, return (layer, dA+, dA-) as `_Obstacles.calls`
        writes them, in the layer's shape."""
        for call in self._calls("increments" if increments else "apply"):
            call()
        out = self.views[1 - self.p]
        if increments:
            ob = self.obstacles
            return (out, ob.da_plus.reshape(self.shape),
                    ob.da_minus.reshape(self.shape))
        return out


class _Obstacles:
    """Obstacle enforcement of one step for the explicit values of R
    layers laid end to end: the kernel of every solver and of the
    process reconstruction.

    Built once from the obstacle rows of the step on all nodes (None on
    an absent side), the `_penalty_rows` of the R layers, dt and the
    shape of their interior nodes, (nx-1,) or (R, nx-1).  Over the
    interior of the flat layout it holds, tiled: the interior row of
    each present side; per side whose intensity acts on some row
    dt*m*row, 1 + dt*m and the rows it acts on; and the rows of each
    projected side.  It also holds the wall values of each present side
    and the work arrays (the hit mask, the penalty value, the two
    extrapolated ends, and the increments once asked for).  `refresh`
    copies new obstacle rows in place.  `calls` binds its numpy calls
    for given values and layer arrays of that layout, `interior_calls`
    those short of the boundary closure, `resolve_calls` those of the
    penalty resolution alone.
    """

    def __init__(self, low, up, pen, dt, shape):
        self.pen, self.dt = pen, dt
        self.n = shape[-1] + 1  # the last column of a layer
        self.count, nodes = math.prod(shape[:-1]), shape[-1] + 2
        self.tiles = [None if row is None else _tiled(row[1:-1], self.count)
                      for row in (low, up)]
        self.low_in, self.up_in = (None if row is None else row[1:-1]
                                   for row in self.tiles)
        # per penalized side: (the interior row, the rows it acts on,
        # dt*m, dt*m*row, 1 + dt*m, the test of v that selects the nodes
        # it pushes), each per node over the layers
        self.penalized = []
        for row, rate, test in ((self.low_in, pen.m_lower, np.less),
                                (self.up_in, pen.n_upper, np.greater)):
            rows = None if row is None else _rows(dt * rate > 0.0)
            if rows is not None:
                a = _per_node(dt * rate, nodes)
                self.penalized.append((row, _per_node(rows, nodes), a,
                                       np.multiply(a, row),
                                       _per_node(1.0 + dt * rate, nodes),
                                       test))
        # lists, not tuple(generator): CPython builds that tuple at a
        # guessed size and shrinks it, so every call would grow the free
        # list of 2-tuples, which traced peaks count
        self.projected = [  # the lower side first
            (row, _per_node(rows, nodes), bound) for row, rows, bound in
            ((self.low_in, pen.lift, np.maximum),
             (self.up_in, pen.clamp, np.minimum))
            if row is not None and rows is not None]
        # per group of wall columns (`_walls`): the obstacle values
        # there, of each present side
        n = self.n
        self.picks = [slice(0, None, n)] if self.count == 1 else [0, n]
        self.walls = [[(np.array(row[pick]), bound) for row, bound in
                       ((low, np.maximum), (up, np.minimum))
                       if row is not None] for pick in self.picks]
        self.hit = np.empty(self.count * nodes - 2, dtype=bool)
        self.val = np.empty(self.hit.shape)
        self.ends = self.da_plus = self.da_minus = None

    def _walls(self, a):
        """The wall columns of the flat layout `a` in groups of 1-D views
        at one stride, each with its first and second interior neighbours:
        one group of both walls for one layer, else the left walls and the
        right ones.  The one group halves the closure's calls of a single
        solve, whose step is a few dozen calls: with two groups there,
        `penalized-sweep` read 1.51 s against 1.24 s (median of 10
        alternating pairs, shared 2-CPU machine)."""
        n = self.n
        if self.count == 1:
            return [(a[::n], a[1::n - 2], a[2:n - 1:max(n - 4, 1)])]
        return [(a[0::n + 1], a[1::n + 1], a[2::n + 1]),
                (a[n::n + 1], a[n - 1::n + 1], a[n - 2::n + 1])]

    def refresh(self, low, up):
        """Copy the obstacle rows of another step, on the same sides, into
        the tiled rows, dt*m*row and the wall values."""
        rows = [row for row in (low, up) if row is not None]
        for tile, row in zip([t for t in self.tiles if t is not None], rows):
            _tiled(row[1:-1], self.count, tile)
        for row, _, a, a_row, _, _ in self.penalized:
            np.multiply(a, row, out=a_row)
        for pick, walls in zip(self.picks, self.walls):
            for (wall, _), row in zip(walls, rows):
                np.copyto(wall, row[pick])

    def resolve_calls(self, v, u):
        """The calls that write the penalty resolution of v into u, which
        holds v; both sides test the unpenalized v."""
        calls, hit, val = [], self.hit, self.val
        for row, rows, _, a_row, one_a, test in self.penalized:
            calls.append(_bound_call(test, v, row, hit))
            if rows is not True:
                calls.append(_bound_call(np.logical_and, hit, rows, hit))
            calls += [_bound_call(np.add, v, a_row, val),
                      _bound_call(np.divide, val, one_a, u, where=hit)]
        return calls

    def interior_calls(self, v, u, u_pen=None):
        """The calls of `calls` short of the boundary closure, into u of
        v's shape (the penalized values copied into `u_pen` if given)."""
        calls = [_bound_call(np.copyto, u, v)]
        calls += self.resolve_calls(v, u)
        if u_pen is not None:
            calls.append(_bound_call(np.copyto, u_pen, u))
        for row, rows, bound in self.projected:
            if rows is True:
                calls.append(_bound_call(bound, u, row, out=u))
            else:
                calls += [_bound_call(bound, u, row, out=self.val),
                          _bound_call(np.copyto, u, self.val, where=rows)]
        return calls

    def calls(self, v, layer, u_pen=None):
        """The calls that write the layers of the explicit values v into
        `layer`, a flat layout of v's layers with their wall columns (and
        v's size).

        They resolve the finite penalties, project the rows of an infinite
        intensity (`interior_calls`), and close the boundary of each layer
        by zero-curvature extrapolation clamped into the band, through 1-D
        views of its wall columns (`_walls`), which they overwrite, seams
        included.  Given `u_pen`, a work array of v's shape, they go on to
        write dA+ and dA- into `da_plus` and `da_minus` (flat arrays of the
        layer's size): the penalty increments at the resolved value plus
        the projection and boundary-clamp lifts, split by sign, the wall
        columns last.
        """
        u = layer[1:-1]
        calls = self.interior_calls(v, u, u_pen)

        # columns 0 and n of each layer from (1, n-1) and (2, n-2)
        groups = []
        if self.ends is None:  # one set for the calls of either layer
            self.ends = [np.empty(ends.shape)
                         for ends, _, _ in self._walls(layer)]
        for (ends, first, second), twice, walls in zip(
                self._walls(layer), self.ends, self.walls):
            calls += [_bound_call(np.multiply, 2.0, first, twice),
                      _bound_call(np.subtract, twice, second, ends)]
            if u_pen is not None:
                ext = np.empty(ends.shape)
                calls.append(_bound_call(np.copyto, ext, ends))
                groups.append((ends, ext))
            calls += [_bound_call(bound, row, ends, out=ends)
                      for row, bound in walls]
        if u_pen is not None:
            calls += self._increment_calls(u, u_pen, groups)
        return calls

    def _increment_calls(self, u, u_pen, groups):
        """The calls that write dA+ and dA- into `da_plus` and `da_minus`,
        made on first use, from the layer's interior u, the penalized
        values u_pen and per group of wall columns its clamped and
        extrapolated ends; overwrites u_pen and the extrapolated ends.
        The rates of `pen` are floats: a replay kernel steps one solve."""
        pen, lift = self.pen, self.val
        if self.da_plus is None:  # one pair for the calls of either layer
            self.da_plus = np.empty(u.size + 2)
            self.da_minus = np.empty(self.da_plus.shape)
        plus, minus = self.da_plus[1:-1], self.da_minus[1:-1]
        # the pushes dt*m*(low - u_pen)^+ and dt*n*(u_pen - up)^+ at the
        # resolved value, exactly those the resolution applied, written
        # over their gaps; 0.0 on a side that pushes nothing (absent, or
        # a rate of 0.0, as on a projected side)
        calls, pushes = [], []
        for a, b, row, rate, push in (
                (self.low_in, u_pen, self.low_in, pen.m_lower, plus),
                (u_pen, self.up_in, self.up_in, pen.n_upper, minus)):
            if row is not None and rate > 0.0:
                calls += [_bound_call(np.subtract, a, b, push),
                          _bound_call(np.maximum, push, 0.0, out=push),
                          _bound_call(np.multiply, self.dt * rate, push,
                                      push)]
                pushes.append(push)
            else:
                pushes.append(0.0)
        calls += [_bound_call(np.subtract, u, u_pen, u_pen),  # the lift
                  _bound_call(np.maximum, u_pen, 0.0, out=lift),
                  _bound_call(np.add, pushes[0], lift, plus),
                  _bound_call(np.negative, u_pen, lift),
                  _bound_call(np.maximum, lift, 0.0, out=lift),
                  _bound_call(np.add, pushes[1], lift, minus)]
        # the boundary clamp, split by sign, at the seams too
        for (ends, ext), (plus, _, _), (minus, _, _) in zip(
                groups, self._walls(self.da_plus),
                self._walls(self.da_minus)):
            mask = np.empty(ends.shape, dtype=bool)
            calls += [_bound_call(np.subtract, ends, ext, ext),
                      _bound_call(np.copyto, plus, ext),
                      _bound_call(np.less, ext, 0.0, mask),
                      _bound_call(np.copyto, plus, 0.0, where=mask),
                      _bound_call(np.negative, ext, minus),
                      _bound_call(np.greater, ext, 0.0, mask),
                      _bound_call(np.copyto, minus, 0.0, where=mask)]
        return calls


def _advance(kernel: _Kernel, t):
    """One backward step of every layer in the kernel's input layer to
    time t, written into its other layer, which it returns and makes the
    input layer of the next step; non-finite values are left to the
    caller."""
    kernel.at(t)
    for call in kernel._calls("step"):
        call()
    kernel.p = 1 - kernel.p
    return kernel.views[kernel.p]


def _nonfinite(layer, t, grid: Grid):
    """The StepFailure text for a layer at time t with a non-finite
    value."""
    bad = int(np.argmin(np.isfinite(layer)))
    return (f"non-finite value at t={t:.6g}, x={grid.x_nodes[bad]:.6g}; "
            "reduce cfl_safety or tighten the driver clip bounds")
