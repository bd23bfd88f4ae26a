"""Independent per-node reference for the right-hand side, a helper
that turns every field of a problem into a `custom` one, and thin
helpers that read the pieces of a step from the step kernel.

The oracle evaluates the problem's functions at one node (or broadcast
over a layer) directly from the spec, without the compiled rows of
`gobstacle.scheme.StepOperator`, so tests can check the stepping
scheme's right-hand side against it.
"""

from dataclasses import dataclass, replace

import numpy as np

from gobstacle.gcalculus import g_eval
from gobstacle.model import FnSpec, ProblemSpec
from gobstacle.scheme import PenaltyParams, _Kernel, _Obstacles, \
    _penalty_rows


@dataclass(frozen=True)
class NodeDerivs:
    """Value and spatial derivatives feeding the right-hand side at one
    node (or, with array fields, one layer): u, du = first derivative,
    d2u = second derivative, at position x and time t."""

    u: object
    du: object
    d2u: object
    x: object
    t: float


def qv_rhs(d: NodeDerivs, spec: ProblemSpec):
    """Quadratic-variation channel: the scalar the envelope acts on.

        sigma^2 * d2u + 2*cross*du + 2*g(t, x, u, sigma*du)
    """
    sig = spec.coeffs.sigma(d.t, d.x)
    z = sig * d.du
    gval = spec.gen.g(d.t, d.x, d.u, z)
    return sig * sig * d.d2u + 2.0 * spec.coeffs.cross(d.t, d.x) * d.du \
        + 2.0 * gval


def pde_rhs(d: NodeDerivs, spec: ProblemSpec):
    """Full unconstrained right-hand side:

        envelope(qv_rhs) + drift*du + f(t, x, u, sigma*du)
    """
    sig = spec.coeffs.sigma(d.t, d.x)
    z = sig * d.du
    fval = spec.gen.f(d.t, d.x, d.u, z)
    return g_eval(qv_rhs(d, spec), spec.gparams) \
        + spec.coeffs.drift(d.t, d.x) * d.du + fval


def pde_rhs_penalized(d: NodeDerivs, spec: ProblemSpec, pen):
    """Right-hand side with explicit two-sided penalty terms:

        pde_rhs - n_upper*(u - upper)+ + m_lower*(u - lower)-

    Absent obstacle sides (None) contribute nothing regardless of
    intensity.  The implicit stepping scheme resolves these same terms
    in closed form instead of evaluating them explicitly.
    """
    out = pde_rhs(d, spec)
    ob = spec.obstacles
    if ob.upper_active and pen.n_upper > 0.0:
        gap = np.maximum(np.asarray(d.u - ob.upper(d.t, d.x), dtype=float),
                         0.0)
        out = out - pen.n_upper * gap
    if ob.lower_active and pen.m_lower > 0.0:
        gap = np.maximum(np.asarray(ob.lower(d.t, d.x) - d.u, dtype=float),
                         0.0)
        out = out + pen.m_lower * gap
    return out


def as_custom(fs: FnSpec):
    """The same function wrapped as a `custom` FnSpec, which the scheme
    evaluates per step instead of compiling."""
    if fs is None:
        return None
    return FnSpec.custom(lambda t, x, y=0.0, z=0.0: fs(t, x, y, z))


def all_custom(spec: ProblemSpec):
    """`spec` with every function field wrapped by `as_custom`."""
    c, gen, ob = spec.coeffs, spec.gen, spec.obstacles
    return replace(
        spec,
        coeffs=replace(c, drift=as_custom(c.drift), cross=as_custom(c.cross),
                       sigma=as_custom(c.sigma)),
        gen=replace(gen, f=as_custom(gen.f), g=as_custom(gen.g)),
        obstacles=replace(ob, lower=as_custom(ob.lower),
                          upper=as_custom(ob.upper)),
        terminal=as_custom(spec.terminal))


def layer_rhs_parts(next_layer, t, op):
    """(qv, rest) = (sig2*d2u + cross2*du + g2, drift*du + f) of the step
    from `next_layer` (any leading shape) to time t, as `_Kernel.explicit`
    forms them, in new arrays of the layer's interior shape."""
    kernel = _Kernel(op, None, np.shape(next_layer))
    np.copyto(kernel.layer, next_layer)
    _, qv, rest = kernel.explicit(t)
    return qv.copy(), np.array(np.broadcast_to(rest, qv.shape))


def resolve_penalties(v, low, up, pen, dt):
    """u = v + dt*m*(u-low)^- - dt*n*(u-up)^+ against obstacle values on
    the nodes of v (None on an absent side), as `_Obstacles` resolves it
    before projecting, in a new array; `pen` is one PenaltyParams or the
    `_penalty_rows` of v's rows."""
    if isinstance(pen, PenaltyParams):
        pen = _penalty_rows((pen,))
    v = np.asarray(v, dtype=float)
    walled = (None if row is None else np.pad(row, 1) for row in (low, up))
    ob = _Obstacles(*walled, pen, dt, v.shape)
    # v's rows laid end to end with their wall columns, as the kernel
    # lays out its layers
    layers = np.zeros(v.shape[:-1] + (v.shape[-1] + 2,))
    layers[..., 1:-1] = v
    flat = layers.reshape(-1)[1:-1]
    u = flat.copy()
    for call in ob.resolve_calls(flat, u):
        call()
    return np.pad(u, 1).reshape(layers.shape)[..., 1:-1].copy()


def worst_case_vol(a, gp):
    """The envelope's maximizing variance at a: high where a >= 0 (ties
    resolve high), low where a < 0."""
    return np.where(np.asarray(a) >= 0.0, gp.vol_high_sq, gp.vol_low_sq)
