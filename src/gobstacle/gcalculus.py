"""Sublinear volatility envelope and its bang-bang scenario.

The envelope over a band [low, high] acts on a curvature-like scalar a:

    envelope(a) = 0.5 * (high * a+  -  low * a-)
               = max over v in [low, high] of 0.5 * v * a,

attained at v = high for a >= 0 and v = low for a < 0 (bang-bang).
All functions broadcast over numpy arrays, so the per-node view used in
tests and the vectorized layer view used by the stepping scheme share
one code path.
"""

from __future__ import annotations

import numpy as np

from .model import GParams, SpecError


def _envelope(a, half_high, half_low, out, scratch):
    """0.5*(high*a+ - low*a-) into `out` from the halved variances, with
    `scratch` as a work array of a's shape; returns `out`.  The step
    kernel calls it with its own work arrays, `g_eval` with new ones."""
    # max((0.5*high)*a, (0.5*low)*a): halving the variances, not the
    # product, rounds once, so the value equals 0.5*v*a at the maximizing
    # endpoint bit for bit, also where the product is subnormal.  The max
    # is -0 at a = -0 and where a negative product underflows; adding 0.0
    # makes that the +0 of high*a+ - low*a- and changes no other value.
    np.multiply(half_high, a, out=out)
    np.multiply(half_low, a, out=scratch)
    np.maximum(out, scratch, out=out)
    return np.add(out, 0.0, out=out)


def g_eval(a, gp: GParams):
    """Envelope value 0.5*(high*a+ - low*a-).  Positively homogeneous,
    monotone, and subadditive in a; linear when the band is degenerate.
    A band that is not well ordered (0 < low <= high) raises SpecError."""
    if not gp.well_ordered:
        raise SpecError("volatility band is not well ordered; "
                        "run validate() for details")
    a = np.asarray(a, dtype=float)
    out = _envelope(a, 0.5 * gp.vol_high_sq, 0.5 * gp.vol_low_sq,
                    np.empty(a.shape), np.empty(a.shape))
    return float(out) if out.ndim == 0 else out


def worst_case_vol(a, gp: GParams):
    """Maximizing variance scenario for the envelope at a.

    Bang-bang selector: high where a >= 0 (ties resolve high), low
    where a < 0.  Satisfies g_eval(a) == 0.5 * worst_case_vol(a) * a.
    """
    a = np.asarray(a, dtype=float)
    out = np.where(a >= 0.0, gp.vol_high_sq, gp.vol_low_sq)
    return float(out) if out.ndim == 0 else out
