"""Sublinear volatility envelope and parabolic right-hand sides.

The envelope over a band [low, high] acts on a curvature-like scalar a:

    envelope(a) = 0.5 * (high * a+  -  low * a-)
               = max over v in [low, high] of 0.5 * v * a,

attained at v = high for a >= 0 and v = low for a < 0 (bang-bang).
All functions broadcast over numpy arrays, so the per-node view used in
tests and the vectorized layer view used by the stepping scheme share
one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GParams, ProblemSpec, SpecError


def g_eval(a, gp: GParams):
    """Envelope value 0.5*(high*a+ - low*a-).  Positively homogeneous,
    monotone, and subadditive in a; linear when the band is degenerate."""
    a = np.asarray(a, dtype=float)
    pos = np.maximum(a, 0.0)
    neg = np.maximum(-a, 0.0)
    out = 0.5 * (gp.vol_high_sq * pos - gp.vol_low_sq * neg)
    return float(out) if out.ndim == 0 else out


def worst_case_vol(a, gp: GParams):
    """Maximizing variance scenario for the envelope at a.

    Bang-bang selector: high where a >= 0 (ties resolve high), low
    where a < 0.  Satisfies g_eval(a) == 0.5 * worst_case_vol(a) * a.
    """
    a = np.asarray(a, dtype=float)
    out = np.where(a >= 0.0, gp.vol_high_sq, gp.vol_low_sq)
    return float(out) if out.ndim == 0 else out


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
    if not spec.gparams.well_ordered:
        raise SpecError("volatility band is not well ordered; validate first")
    sig = spec.coeffs.sigma(d.t, d.x)
    z = sig * d.du
    fval = spec.gen.f(d.t, d.x, d.u, z)
    return g_eval(qv_rhs(d, spec), spec.gparams) \
        + spec.coeffs.drift(d.t, d.x) * d.du + fval


def pde_rhs_penalized(d: NodeDerivs, spec: ProblemSpec, pen):
    """Right-hand side with explicit two-sided penalty terms:

        pde_rhs - n_upper*(u - upper)+ + m_lower*(u - lower)-

    Absent obstacle sides (None) contribute nothing regardless of
    intensity.  The implicit
    stepping scheme resolves these same terms in closed form instead of
    evaluating them explicitly; this function is the per-node reference.
    """
    out = pde_rhs(d, spec)
    ob = spec.obstacles
    if ob.upper_active and pen.n_upper > 0.0:
        gap = np.maximum(np.asarray(d.u - ob.upper(d.t, d.x), dtype=float), 0.0)
        out = out - pen.n_upper * gap
    if ob.lower_active and pen.m_lower > 0.0:
        gap = np.maximum(np.asarray(ob.lower(d.t, d.x) - d.u, dtype=float), 0.0)
        out = out + pen.m_lower * gap
    return out
