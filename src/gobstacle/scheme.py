"""Monotone explicit stepping on a uniform space-time grid.

One backward step from a known layer at t+dt to the layer at t:

    v_i   = u_i + dt * (envelope(qv_i) + drift_i*du_i + f_i)     (explicit)
    u_i'  = v_i + dt*m*(u_i'-lower)^-  -  dt*n*(u_i'-upper)^+    (implicit)

with centered first and second differences taken from the known layer.
The implicit penalty equation is piecewise linear and monotone in u',
so it resolves in closed form with at most three cases; penalty
intensities therefore never enter the CFL restriction.  Projection
modes replace or follow the penalty resolution:

    project_lower  u' = max(u_after_upper_penalty, lower)
    project_both   u' = clamp(u', lower, upper)      (active sides only)

A `StepOperator` compiles the problem onto the grid once; every step
reads its rows.  Penalty resolution, projection and the boundary closure
form one kernel, shared by every solver and by the process
reconstruction, which also reads the compensator increments it applied.

Boundary nodes are filled by zero-curvature extrapolation from the two
nearest interior nodes and then clamped into the active obstacle band.
The closure is second-order at the artificial boundary (exact on affine
layers) so truncation error decays under refinement, but its weights
(2, -1) are not a convex combination: the two boundary columns are
closure artifacts, and pointwise-ordering diagnostics measure on
interior nodes.  Stability: dt <= cfl_safety * dx^2 / (vol_high_sq*K +
dx*B) with K the declared sigma^2 cap and B a bound on the first-order
coefficients (drift, cross loading, declared z-moduli); an extra dx^2
term accounts for zero-order moduli.  Centered first differences are
the default (monotone under the cell-Peclet condition that `validate`
checks); an upwind fallback exists for advection-dominated data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import gcalculus
from .model import ProblemSpec, SpecError

MODES = ("penalized", "project_lower", "project_both")

_NT_CAP = 10_000_000
_FIELD_BYTES_CAP = 512 * 2 ** 20  # solvers store the whole float64 field


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
    obstacle, n_upper pushes down from above the upper one."""

    m_lower: float = 0.0
    n_upper: float = 0.0

    def __post_init__(self):
        if not (self.m_lower >= 0.0 and self.n_upper >= 0.0
                and math.isfinite(self.m_lower)
                and math.isfinite(self.n_upper)):
            raise SpecError("penalty intensities must be finite and >= 0")


def _first_order_bound(spec: ProblemSpec, xs, horizon):
    """Probe a bound for the first-order (gradient) coefficients."""
    sup_b = 0.0
    sup_l = 0.0
    for t in (0.0, 0.5 * horizon, horizon):
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
    zero-order moduli.  nt is the smallest count meeting the bound and
    is capped at ten million; the solution field, (nt+1)*(nx+1) doubles,
    is capped at 512 MiB.
    """
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

    dx = (x_max - x_min) / nx
    xs = np.linspace(x_min, x_max, nx + 1)
    diff = spec.gparams.vol_high_sq * spec.coeffs.vol_cap
    first = _first_order_bound(spec, xs, spec.horizon)
    zero = spec.gen.lipschitz_y * (1.0 + spec.gparams.vol_high_sq)
    dt_max = cfl_safety * dx * dx / (diff + dx * first + dx * dx * zero)
    nt = max(1, math.ceil(spec.horizon / dt_max))
    if nt > _NT_CAP:
        raise GridError(f"CFL bound needs nt={nt}, above the cap {_NT_CAP}; "
                        "coarsen nx or shorten the horizon")
    field_bytes = (nt + 1) * (nx + 1) * 8
    if field_bytes > _FIELD_BYTES_CAP:
        raise GridError(f"the solution field needs {field_bytes / 2 ** 20:.0f}"
                        f" MiB (nt={nt}, nx={nx}), above the "
                        f"{_FIELD_BYTES_CAP // 2 ** 20} MiB memory cap; "
                        "coarsen nx or shorten the horizon")
    return Grid(x_min=x_min, x_max=x_max, nx=nx, nt=nt, horizon=spec.horizon)


# ---------------------------------------------------------------------------
# the problem compiled onto the grid
# ---------------------------------------------------------------------------

FIRST_ORDERS = ("central", "upwind")


def _row(fs, t, x):
    """fs at time t on the nodes x as a float row (constants broadcast)."""
    out = np.empty(np.shape(x))
    out[...] = fs(t, x)
    return out


class StepOperator:
    """A problem compiled onto a grid for one first-order scheme.

    Rows: `sigma` on all nodes; `sig2` (sigma^2), `cross2` (2*cross),
    `drift`, and the upwind masks `drift_up`/`cross_up` (first_order
    'upwind' only) on interior nodes; `g2` (2*g) and `f` on interior
    nodes when that driver is x-only, else None (evaluated per step at
    z = sigma*du); `lower`/`upper` on all nodes, None on an absent side.
    No catalog kind depends on t, so the rows serve every step; a custom
    field may, so its rows hold at `t` and `at` recompiles them.
    """

    def __init__(self, spec: ProblemSpec, grid: Grid, first_order="central",
                 t=0.0):
        if first_order not in FIRST_ORDERS:
            raise SpecError(
                f"unknown first_order discretization {first_order!r}")
        self.spec, self.grid, self.first_order, self.t = \
            spec, grid, first_order, t
        c, gen, ob = spec.coeffs, spec.gen, spec.obstacles
        self.timed = any(fs is not None and fs.kind == "custom" for fs in
                         (c.sigma, c.cross, c.drift, ob.lower, ob.upper))
        x, inner = grid.x_nodes, grid.x_nodes[1:-1]
        self.sigma = _row(c.sigma, t, x)
        self.sig2 = self.sigma[1:-1] * self.sigma[1:-1]
        cross = _row(c.cross, t, inner)
        self.cross2 = 2.0 * cross
        self.drift = _row(c.drift, t, inner)
        upwind = first_order == "upwind"
        self.cross_up = cross >= 0.0 if upwind else None
        self.drift_up = self.drift >= 0.0 if upwind else None
        per_step = ("quadratic_in_z", "custom")
        self.g2 = None if gen.g.kind in per_step \
            else 2.0 * _row(gen.g, t, inner)
        self.f = None if gen.f.kind in per_step else _row(gen.f, t, inner)
        self.lower, self.upper = (None if fs is None else _row(fs, t, x)
                                  for fs in (ob.lower, ob.upper))

    def at(self, t):
        """The operator for a step at time t: itself unless a custom
        coefficient or obstacle needs its rows at another time."""
        if not self.timed or t == self.t:
            return self
        return StepOperator(self.spec, self.grid, self.first_order, t)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def layer_rhs_parts(next_layer, t, op: StepOperator):
    """Interior right-hand side, split for scenario re-evaluation.

    Returns (qv, rest) = (sig2*d2u + cross2*du + g2, drift*du + f) on
    interior nodes: the full rhs is envelope(qv) + rest, a fixed-scenario
    rhs 0.5*v*qv + rest.  The stepper, the process reconstruction and the
    scenario defect scan share the split, so all see identical arithmetic.
    """
    op = op.at(t)
    dx = op.grid.dx
    u = next_layer[1:-1]
    du = (next_layer[2:] - next_layer[:-2]) / (2.0 * dx)
    d2u = (next_layer[2:] - 2.0 * u + next_layer[:-2]) / (dx * dx)
    if op.first_order == "upwind":
        fwd = (next_layer[2:] - u) / dx
        bwd = (u - next_layer[:-2]) / dx
        du_drift = np.where(op.drift_up, fwd, bwd)
        du_cross = np.where(op.cross_up, fwd, bwd)
    else:
        du_drift = du_cross = du

    g2, f = op.g2, op.f
    if g2 is None or f is None:  # drivers that read (u, z) or t
        gen = op.spec.gen
        x = op.grid.x_nodes[1:-1]
        z = op.sigma[1:-1] * du
        if g2 is None:
            g2 = 2.0 * gen.g(t, x, u, z)
        if f is None:
            f = gen.f(t, x, u, z)
    qv = op.sig2 * d2u + op.cross2 * du_cross + g2
    rest = op.drift * du_drift + f
    return qv, rest


def resolve_penalties(v, low_vals, up_vals, pen: PenaltyParams, dt):
    """Closed-form solution of u = v + dt*m*(u-low)^- - dt*n*(u-up)^+.

    The map u -> u - dt*m*(u-low)^- + dt*n*(u-up)^+ is piecewise linear,
    increasing, with kinks only at the obstacles, so inversion has three
    cases decided by where v lands:

        v <  low : u = (v + dt*m*low) / (1 + dt*m)
        v >  up  : u = (v + dt*n*up) / (1 + dt*n)
        else     : u = v

    An absent side (None) contributes nothing.
    """
    u = v
    if low_vals is not None and pen.m_lower > 0.0:
        a = dt * pen.m_lower
        u = np.where(v < low_vals, (v + a * low_vals) / (1.0 + a), u)
    if up_vals is not None and pen.n_upper > 0.0:
        a = dt * pen.n_upper
        u = np.where(v > up_vals, (v + a * up_vals) / (1.0 + a), u)
    return u


def _penalty_increments(y, low, up, pen: PenaltyParams, dt):
    """Penalty compensator increments (dt*m*(low-y)^+, dt*n*(y-up)^+) of
    the values y against obstacle rows on the same nodes; zero on absent
    sides and at zero intensity.  At the penalty-resolved value they are
    exactly the push the resolution applied."""
    low_push = dt * pen.m_lower * np.maximum(low - y, 0.0) \
        if low is not None and pen.m_lower > 0.0 else np.zeros_like(y)
    up_push = dt * pen.n_upper * np.maximum(y - up, 0.0) \
        if up is not None and pen.n_upper > 0.0 else np.zeros_like(y)
    return low_push, up_push


def _enforce(v, low, up, pen: PenaltyParams, dt, mode, increments=False):
    """Obstacle enforcement of one step: the kernel of every solver mode
    and of the process reconstruction.

    `v` holds the explicit (pre-obstacle) values on the interior nodes,
    `low`/`up` the obstacle rows of the step on all nodes (None on an
    absent side).  Resolves the penalties, projects by mode, closes the
    boundary by zero-curvature extrapolation clamped into the band, and
    returns the new layer.  With `increments` it returns (layer, dA+,
    dA-): the penalty increments at the resolved value plus the
    projection and boundary-clamp lifts, split by sign.
    """
    if mode not in MODES:
        raise SpecError(f"unknown step mode {mode!r}")
    low_in = None if low is None else low[1:-1]
    up_in = None if up is None else up[1:-1]
    u_pen = resolve_penalties(v, low_in, up_in, pen, dt)
    u = u_pen
    if mode != "penalized" and low is not None:
        u = np.maximum(u, low_in)
    if mode == "project_both" and up is not None:
        u = np.minimum(u, up_in)

    layer = np.empty(u.size + 2)
    layer[1:-1] = u
    ext = (2.0 * u[0] - u[1], 2.0 * u[-1] - u[-2])
    for idx, e in zip((0, -1), ext):
        layer[idx] = e
        if low is not None:
            layer[idx] = max(layer[idx], low[idx])
        if up is not None:
            layer[idx] = min(layer[idx], up[idx])
    if not increments:
        return layer

    da_plus = np.empty_like(layer)
    da_minus = np.empty_like(layer)
    dap, dam = _penalty_increments(u_pen, low_in, up_in, pen, dt)
    lift = u - u_pen
    da_plus[1:-1] = dap + np.maximum(lift, 0.0)
    da_minus[1:-1] = dam + np.maximum(-lift, 0.0)
    for idx, e in zip((0, -1), ext):
        delta = layer[idx] - e
        da_plus[idx] = max(delta, 0.0)
        da_minus[idx] = max(-delta, 0.0)
    return layer, da_plus, da_minus


def boundary_fill(layer, t, spec: ProblemSpec, grid: Grid):
    """Fill the two boundary nodes of a layer whose interior is done.

    Zero-curvature extrapolation from the two nearest interior nodes,
    then a clamp into the obstacle band on active sides: the step
    kernel's closure, applied with no penalty or projection.  Second
    order at the artificial boundary, so the closure error vanishes
    under refinement; the weights (2, -1) are not convex, so the two
    boundary columns do not share the interior update's order
    preservation and ordering diagnostics exclude them.  Returns the
    same array (filled in place).
    """
    op = StepOperator(spec, grid).at(t)
    layer[:] = _enforce(layer[1:-1], op.lower, op.upper, PenaltyParams(),
                        grid.dt, "penalized")
    return layer


def explicit_step(next_layer, t, op: StepOperator, pen: PenaltyParams,
                  mode="penalized"):
    """Advance one backward step; returns the new layer at time t.

    `next_layer` is the known layer at t+dt and is not modified.  See
    the module docstring for the update; the right-hand side and the
    step kernel read the operator's rows.
    """
    grid = op.grid
    next_layer = np.asarray(next_layer, dtype=float)
    if next_layer.shape != (grid.nx + 1,):
        raise SpecError("layer shape does not match the grid")

    op = op.at(t)
    qv, rest = layer_rhs_parts(next_layer, t, op)
    v = next_layer[1:-1] + grid.dt * (gcalculus.g_eval(qv, op.spec.gparams)
                                      + rest)
    out = _enforce(v, op.lower, op.upper, pen, grid.dt, mode)

    if not np.isfinite(out).all():
        bad = int(np.argmin(np.isfinite(out)))
        raise StepFailure(
            f"non-finite value at t={t:.6g}, x={grid.x_nodes[bad]:.6g}; "
            "reduce cfl_safety or tighten the driver clip bounds")
    return out
