"""Packaged problem presets exercising each structural property.

All presets share the default strip [-10, 10] x [0, 1] and, unless the
classical reduction requires otherwise, the volatility band [1, 2] with
unit diffusion loading.  Driving terms are sized so that obstacle
contact (where intended) is genuine but the penalty violations stay
within the documented tolerances at the default schedule intensities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CoefficientSet, FnSpec, GParams, GeneratorSpec, \
    ObstaclePair, ProblemSpec, SpecError

BAND = GParams(vol_low_sq=1.0, vol_high_sq=2.0)
UNIT_COEFFS = CoefficientSet()  # zero drift/cross, sigma == 1


def _per_node(fn, xs):
    """fn at each node of xs through `math`: numpy's exp and tanh pick a
    SIMD loop by CPU, and their last bit differs between loops, so a
    table built with them would differ between hosts."""
    return np.array([fn(x) for x in xs])


def _sine_table(amplitude, wavelength, n=801, span=10.0):
    xs = np.linspace(-span, span, n)
    return FnSpec.tabulated(xs, amplitude * np.sin(2.0 * np.pi * xs
                                                   / wavelength))


def _constant_sandwich():
    return ProblemSpec(
        gparams=BAND, coeffs=UNIT_COEFFS,
        gen=GeneratorSpec(zero_bound=1.0),
        obstacles=ObstaclePair(FnSpec.constant(0.0), FnSpec.constant(1.0),
                               level_bound=1.0),
        terminal=FnSpec.constant(0.5))


def _gheat_quadratic():
    return ProblemSpec(
        gparams=BAND, coeffs=UNIT_COEFFS,
        gen=GeneratorSpec(zero_bound=100.0),
        obstacles=ObstaclePair(),
        terminal=FnSpec.polynomial([0.0, 0.0, 1.0], clip=100.0))


def _gheat_concave():
    return ProblemSpec(
        gparams=BAND, coeffs=UNIT_COEFFS,
        gen=GeneratorSpec(zero_bound=100.0),
        obstacles=ObstaclePair(),
        terminal=FnSpec.polynomial([0.0, 0.0, -1.0], clip=100.0))


def _upper_active():
    # terminal = min(x^2, 1.6) meets the upper barrier at its clip, and
    # the constant drive keeps pressing the solution into the barrier
    return ProblemSpec(
        gparams=BAND, coeffs=UNIT_COEFFS,
        gen=GeneratorSpec(f=FnSpec.constant(0.25), zero_bound=2.0),
        obstacles=ObstaclePair(upper=FnSpec.constant(1.6), level_bound=1.6),
        terminal=FnSpec.polynomial([0.0, 0.0, 1.0], clip=1.6))


def _lower_active():
    return ProblemSpec(
        gparams=BAND, coeffs=UNIT_COEFFS,
        gen=GeneratorSpec(f=FnSpec.constant(-0.25), zero_bound=2.0),
        obstacles=ObstaclePair(lower=FnSpec.constant(-1.6), level_bound=1.6),
        terminal=FnSpec.polynomial([0.0, 0.0, -1.0], clip=1.6))


def _double_active():
    # antisymmetric drive: pushes up into the upper barrier on the right
    # half of the domain and down into the lower one on the left half
    return ProblemSpec(
        gparams=BAND, coeffs=UNIT_COEFFS,
        gen=GeneratorSpec(f=_sine_table(0.4, 20.0), zero_bound=1.0),
        obstacles=ObstaclePair(FnSpec.constant(-0.25), FnSpec.constant(0.25),
                               level_bound=1.0),
        terminal=FnSpec.constant(0.0))


def _colehopf():
    xs = np.linspace(-10.0, 10.0, 1201)
    return ProblemSpec(
        gparams=GParams(1.0, 1.0),
        coeffs=UNIT_COEFFS,
        gen=GeneratorSpec(g=FnSpec.quadratic_in_z(0.5), lipschitz_z=0.5,
                          zero_bound=1.0),
        obstacles=ObstaclePair(),
        terminal=FnSpec.tabulated(xs, 0.5 * (1.0 + _per_node(math.tanh,
                                                              xs))))


def _comparison_pair():
    f_lo = _sine_table(0.4, 20.0)
    xs = np.asarray(f_lo.xs)
    f_hi = FnSpec.tabulated(xs, np.asarray(f_lo.values) + 0.2)
    lo = ProblemSpec(
        gparams=BAND, coeffs=UNIT_COEFFS,
        gen=GeneratorSpec(f=f_lo, zero_bound=1.0),
        obstacles=ObstaclePair(FnSpec.constant(-0.25), FnSpec.constant(0.25),
                               level_bound=1.0),
        terminal=FnSpec.constant(0.0))
    hi = ProblemSpec(
        gparams=BAND, coeffs=UNIT_COEFFS,
        gen=GeneratorSpec(f=f_hi, g=FnSpec.constant(0.05), zero_bound=1.0),
        obstacles=ObstaclePair(FnSpec.constant(-0.15), FnSpec.constant(0.35),
                               level_bound=1.0),
        terminal=FnSpec.constant(0.1))
    return hi, lo


def _quadratic_drift():
    # every coefficient channel populated; used for term-by-term
    # right-hand-side checks and validation probes
    xs = np.linspace(-10.0, 10.0, 801)
    sigma = FnSpec.tabulated(xs, 1.0 + 0.2 * np.sin(2.0 * np.pi * xs / 10.0))
    return ProblemSpec(
        gparams=BAND,
        coeffs=CoefficientSet(drift=FnSpec.affine(0.03, 0.05),
                              cross=FnSpec.constant(0.1),
                              sigma=sigma, vol_floor=0.6, vol_cap=1.5),
        gen=GeneratorSpec(f=FnSpec.affine(0.02, -0.05),
                          g=FnSpec.quadratic_in_z(0.25),
                          lipschitz_z=0.25, zero_bound=1.0),
        obstacles=ObstaclePair(FnSpec.constant(-2.0), FnSpec.constant(2.0),
                               level_bound=2.0),
        terminal=FnSpec.tabulated(
            xs, 0.8 * _per_node(math.exp, -0.5 * xs * xs)))


@dataclass(frozen=True)
class Preset:
    name: str
    kind: str  # "single" or "pair"
    description: str
    build: object


_CATALOG = (
    Preset("constant-sandwich", "single",
           "constant data strictly inside a constant obstacle band; the "
           "exact solution is the terminal constant", _constant_sandwich),
    Preset("gheat-quadratic", "single",
           "convex quadratic terminal, no obstacles; closed form "
           "x^2 + vol_high_sq*(T-t)", _gheat_quadratic),
    Preset("gheat-concave", "single",
           "concave quadratic terminal, no obstacles; closed form "
           "-x^2 - vol_low_sq*(T-t)", _gheat_concave),
    Preset("upper-active", "single",
           "upward drive pressed against a constant upper barrier",
           _upper_active),
    Preset("lower-active", "single",
           "downward drive pressed against a constant lower barrier",
           _lower_active),
    Preset("double-active", "single",
           "antisymmetric drive contacting both barriers on opposite "
           "half-domains", _double_active),
    Preset("quadratic-gen-colehopf", "single",
           "degenerate band with quadratic gradient driver; exact "
           "solution via exponential transform", _colehopf),
    Preset("comparison-pair", "pair",
           "ordered pair differing in terminal, both drivers and both "
           "obstacles; outputs must order pointwise", _comparison_pair),
    Preset("quadratic-drift", "single",
           "all coefficient channels populated (drift, cross, variable "
           "sigma, affine f, quadratic g, wide barriers)",
           _quadratic_drift),
)

PRESETS = {p.name: p for p in _CATALOG}


def list_presets():
    """Catalog entries in a stable order."""
    return list(_CATALOG)


def get_preset(name):
    """Build a preset problem (or problem pair) by name."""
    if not isinstance(name, str) or name not in PRESETS:
        known = ", ".join(PRESETS)
        raise SpecError(f"unknown preset {name!r}; available: {known}")
    return PRESETS[name].build()
