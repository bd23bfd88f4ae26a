"""Sublinear volatility envelope and its bang-bang scenario.

The envelope over a band [low, high] acts on a curvature-like scalar a:

    envelope(a) = 0.5 * (high * a+  -  low * a-)
               = max over v in [low, high] of 0.5 * v * a,

attained at v = high for a >= 0 and v = low for a < 0 (bang-bang):
the scenario of a step is `qv >= 0`, which the process reconstruction
reads as its scenario map.  `g_eval` broadcasts over numpy arrays and
runs the calls that the stepping scheme compiles over its own layers
(`_envelope_calls`), so the per-node view used in tests and the
vectorized layer view share one code path.
"""

from __future__ import annotations

import numpy as np

from .model import GParams, _bound_call


def _envelope_calls(a, half_high, half_low, out, scratch):
    """The numpy calls, in order, that write 0.5*(high*a+ - low*a-) into
    `out` from the halved variances, with `scratch` as a work array of
    a's shape.  The step kernel compiles them over its own arrays,
    `g_eval` runs them on new ones."""
    # max((0.5*high)*a, (0.5*low)*a): halving the variances, not the
    # product, rounds once, so the value equals 0.5*v*a at the maximizing
    # endpoint bit for bit, also where the product is subnormal.  The max
    # is -0 at a = -0 and where a negative product underflows; adding 0.0
    # makes that the +0 of high*a+ - low*a- and changes no other value.
    return [_bound_call(np.multiply, half_high, a, out),
            _bound_call(np.multiply, half_low, a, scratch),
            _bound_call(np.maximum, out, scratch, out=out),
            _bound_call(np.add, out, 0.0, out)]


def g_eval(a, gp: GParams):
    """Envelope value 0.5*(high*a+ - low*a-).  Positively homogeneous,
    monotone, and subadditive in a; linear when the band is degenerate.
    The band is well ordered: `GParams` refuses any other when built."""
    a = np.asarray(a, dtype=float)
    out = np.empty(a.shape)
    for call in _envelope_calls(a, 0.5 * gp.vol_high_sq, 0.5 * gp.vol_low_sq,
                                out, np.empty(a.shape)):
        call()
    return float(out) if out.ndim == 0 else out

