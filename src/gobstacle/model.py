"""Problem data model: volatility band, coefficient/generator catalog, obstacles.

A problem instance describes the terminal-value problem

    max(u - upper, min(-du/dt - F(x, t, u, Du, D2u), u - lower)) = 0,
    u(T, x) = terminal(x),

on a strip [0, T] x [x_min, x_max], where F aggregates a sublinear
envelope over a volatility band [vol_low_sq, vol_high_sq] together with
drift and driver terms.  Every scalar field entering the problem (drift,
diffusion loading, drivers, obstacles, terminal data) is declared through
the closed `FnSpec` catalog so that problems are serializable and cheap
to probe; each modulus or bound is declared once, on the section it bounds.
Host code may still inject a `custom` evaluator for library use; the
command line rejects those.

Obstacles may be deactivated per side: an absent side is `None`, and
its activity is read from that alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields
from functools import partial
from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from .scheme import Grid

_DEFAULT_CLIP = 1.0e6


class EvaluationError(RuntimeError):
    """A catalog function returned a non-finite value during probing."""


class SpecError(ValueError):
    """A problem component is structurally malformed."""


# ---------------------------------------------------------------------------
# config records
# ---------------------------------------------------------------------------

def check_record(rec, allowed, where):
    """Return `rec` when it is a JSON object whose keys all lie in
    `allowed`; raise SpecError naming `where` otherwise."""
    if not isinstance(rec, dict):
        raise SpecError(f"{where} must be a JSON object")
    extra = sorted(set(rec) - set(allowed), key=str)
    if extra:
        raise SpecError(f"{where} has unknown keys {extra}")
    return rec


def read_number(value, where, integral=False):
    """The one reader of config numbers: a finite int or float, not a
    bool, returned as a float (as an int when `integral`, which rejects
    a fractional value).  Anything else, including a string, null, NaN
    or an infinity, raises SpecError naming `where`."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        out = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise SpecError(f"{where} must be a finite number, got {value!r}")
    if not integral:
        return out
    if not out.is_integer():
        raise SpecError(f"{where} must be an integer, got {value!r}")
    return int(value)


def read_numbers(values, where):
    """A config list of numbers, each through `read_number`, as a tuple
    of floats."""
    if not isinstance(values, (list, tuple)):
        raise SpecError(f"{where} must be a list of numbers, got {values!r}")
    return tuple(read_number(v, f"{where}[{i}]") for i, v in enumerate(values))


def _bound_call(fn, *args, **kwargs):
    """fn bound to its arguments, to be called with none: one numpy call
    of a compiled sequence.  A float argument is bound as a 0-d float64
    array, the same operand to a ufunc, which then does not convert a
    Python scalar on every call."""
    return partial(fn, *[np.array(a) if isinstance(a, float) else a
                         for a in args], **kwargs)


# ---------------------------------------------------------------------------
# function catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FnSpec:
    """One scalar field from the closed function catalog.

    Kinds
    -----
    constant(value)
        value, everywhere.
    affine(slope, intercept)
        slope * x + intercept in the spatial coordinate.
    polynomial(coeffs, clip)
        sum coeffs[k] * x**k, hard-clipped to [-clip, clip].
    quadratic_in_z(gamma, clip)
        gamma * z**2, hard-clipped; the quadratic-driver shape.
    tabulated(xs, values)
        piecewise-linear interpolation in x; constant extension outside
        the table.
    custom(fn)
        arbitrary host evaluator fn(t, x, y, z); not serializable.

    A spec declares no constants: the section holding it declares them.
    """

    kind: str
    value: float = 0.0
    slope: float = 0.0
    intercept: float = 0.0
    coeffs: tuple = ()
    gamma: float = 0.0
    clip: float = _DEFAULT_CLIP
    xs: tuple = ()
    values: tuple = ()
    fn: Optional[Callable] = None

    # the fields each catalog kind reads, in the order of its record
    _FIELDS = {"constant": ("value",),
               "affine": ("slope", "intercept"),
               "polynomial": ("coeffs", "clip"),
               "quadratic_in_z": ("gamma", "clip"),
               "tabulated": ("xs", "values")}
    _KINDS = (*_FIELDS, "custom")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise SpecError(f"unknown FnSpec kind {self.kind!r}")
        if self.kind == "tabulated":
            if len(self.xs) != len(self.values) or len(self.xs) < 2:
                raise SpecError("tabulated FnSpec needs matching xs/values, "
                                "at least two samples")
            if not all(b > a for a, b in zip(self.xs, self.xs[1:])):
                raise SpecError("tabulated xs must be strictly increasing")
        if self.kind == "polynomial" and not self.coeffs:
            raise SpecError("polynomial FnSpec needs at least one "
                            "coefficient")
        if self.kind == "custom" and self.fn is None:
            raise SpecError("custom FnSpec needs fn")
        if not self.clip > 0:  # NaN too
            raise SpecError("clip bound must be positive")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value):
        return cls(kind="constant", value=float(value))

    @classmethod
    def affine(cls, slope, intercept):
        return cls(kind="affine", slope=float(slope),
                   intercept=float(intercept))

    @classmethod
    def polynomial(cls, coeffs, clip=_DEFAULT_CLIP):
        return cls(kind="polynomial", coeffs=tuple(float(c) for c in coeffs),
                   clip=float(clip))

    @classmethod
    def quadratic_in_z(cls, gamma, clip=_DEFAULT_CLIP):
        return cls(kind="quadratic_in_z", gamma=float(gamma),
                   clip=float(clip))

    @classmethod
    def tabulated(cls, xs, values):
        return cls(kind="tabulated", xs=tuple(float(v) for v in xs),
                   values=tuple(float(v) for v in values))

    @classmethod
    def custom(cls, fn):
        return cls(kind="custom", fn=fn)

    # -- evaluation ----------------------------------------------------

    def __call__(self, t, x, y=0.0, z=0.0):
        """Evaluate at (t, x, y, z); broadcasts over array arguments."""
        if self.kind == "constant":
            return self.value
        if self.kind == "affine":
            return self.slope * np.asarray(x, dtype=float) + self.intercept
        if self.kind == "polynomial":
            out = np.polynomial.polynomial.polyval(
                np.asarray(x, dtype=float), np.asarray(self.coeffs))
            # np.clip's bytes without its Python-level wrappers
            return np.minimum(np.maximum(out, -self.clip), self.clip)
        if self.kind == "quadratic_in_z":
            zz = np.asarray(z, dtype=float)
            out = np.empty(zz.shape)
            for call in self._quadratic_calls(zz, out):
                call()
            return out[()]
        if self.kind == "tabulated":
            return np.interp(np.asarray(x, dtype=float), self.xs, self.values)
        return self.fn(t, x, y, z)

    def _quadratic_calls(self, z, out):
        """The numpy calls, in order, that write a quadratic_in_z field's
        value (gamma*z)*z, hard-clipped to [-clip, clip], at the float
        array z into `out`: `__call__` runs them on a new array, the step
        kernel compiles them over its own."""
        return [_bound_call(np.multiply, self.gamma, z, out),
                _bound_call(np.multiply, out, z, out),
                _bound_call(np.maximum, out, -self.clip, out=out),
                _bound_call(np.minimum, out, self.clip, out=out)]

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        if self.kind == "custom":
            raise SpecError("custom FnSpec is not serializable")
        rec = {"kind": self.kind}
        for name in self._FIELDS[self.kind]:
            value = getattr(self, name)
            rec[name] = list(value) if isinstance(value, tuple) else value
        return rec

    @classmethod
    def from_dict(cls, rec):
        """Inverse of `to_dict`: every number goes through `read_number`."""
        return cls._from_record(rec, "FnSpec")

    @classmethod
    def _from_record(cls, rec, where):
        if not isinstance(rec, dict):
            raise SpecError(f"{where} must be a function record "
                            "(JSON object)")
        kind = rec.get("kind")
        if not isinstance(kind, str) or kind not in cls._FIELDS:
            raise SpecError(f"{where} kind {kind!r} not in the catalog")
        extra = sorted(set(rec) - {"kind", *cls._FIELDS[kind]}, key=str)
        if extra:
            raise SpecError(f"{where} ({kind}) has unknown fields {extra}")
        for name in cls._FIELDS[kind]:
            if name != "clip" and name not in rec:
                raise SpecError(f"{where} ({kind}) misses field {name!r}")
        kw = {name: (read_numbers if name in ("coeffs", "xs", "values")
                     else read_number)(val, f"{where}.{name}")
              for name, val in rec.items() if name != "kind"}
        return getattr(cls, kind)(**kw)


ZERO = FnSpec.constant(0.0)


# ---------------------------------------------------------------------------
# problem components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GParams:
    """Volatility-uncertainty band [vol_low_sq, vol_high_sq].

    The sublinear envelope evaluated in `gcalculus` is
    0.5 * (vol_high_sq * a+ - vol_low_sq * a-).  The band must be well
    ordered, 0 < vol_low_sq <= vol_high_sq < inf: any other, NaN
    included, raises SpecError when it is built, so no later entry point
    checks it again.  The degenerate equal band is allowed; it makes the
    envelope linear (classical case).
    """

    vol_low_sq: float
    vol_high_sq: float

    def __post_init__(self):  # a chained `not <` refuses NaN too
        if not 0.0 < self.vol_low_sq <= self.vol_high_sq < math.inf:
            raise SpecError("gparams must be well ordered, 0 < vol_low_sq "
                            f"<= vol_high_sq < inf, got {self}")

    @property
    def degenerate(self):
        return self.vol_low_sq == self.vol_high_sq


@dataclass(frozen=True)
class CoefficientSet:
    """State-dynamics coefficients: drift b, cross loading l, diffusion sigma.

    `vol_floor` and `vol_cap` declare the uniform ellipticity band
    vol_floor <= sigma(t,x)^2 <= vol_cap; the CFL computation and the
    validator rely on them.
    """

    drift: FnSpec = ZERO
    cross: FnSpec = ZERO
    sigma: FnSpec = FnSpec.constant(1.0)
    vol_floor: float = 1.0
    vol_cap: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.vol_floor <= self.vol_cap):
            raise SpecError("need 0 < vol_floor <= vol_cap")


@dataclass(frozen=True)
class GeneratorSpec:
    """Drivers f (dt channel) and g (quadratic-variation channel).

    `lipschitz_y`/`lipschitz_z` are the declared joint moduli of the two
    drivers, `zero_bound` bounds |f(t,x,0,0)| + |g(t,x,0,0)|.
    """

    f: FnSpec = ZERO
    g: FnSpec = ZERO
    lipschitz_y: float = 0.0
    lipschitz_z: float = 0.0
    zero_bound: float = 1.0

    def __post_init__(self):  # `not v >= 0` refuses NaN too
        if not all(v >= 0.0 for v in (self.lipschitz_y, self.lipschitz_z,
                                       self.zero_bound)):
            raise SpecError("generator constants must be nonnegative")


@dataclass(frozen=True)
class ObstaclePair:
    """Lower/upper barrier functions; `None` marks an absent side.

    `level_bound` bounds lower <= level_bound and -upper <= level_bound
    on active sides.
    """

    lower: Optional[FnSpec] = None
    upper: Optional[FnSpec] = None
    level_bound: float = 1.0

    def __post_init__(self):
        if not self.level_bound >= 0.0:  # NaN too
            raise SpecError("level_bound must be nonnegative")

    @property
    def lower_active(self):
        return self.lower is not None

    @property
    def upper_active(self):
        return self.upper is not None


@dataclass(frozen=True)
class ProblemSpec:
    """Complete double-obstacle problem on [0, horizon]."""

    gparams: GParams
    coeffs: CoefficientSet
    gen: GeneratorSpec
    obstacles: ObstaclePair
    terminal: FnSpec
    horizon: float = 1.0

    def __post_init__(self):
        if not self.horizon > 0:
            raise SpecError("horizon must be positive")

    @classmethod
    def from_dict(cls, rec):
        """Parse a problem record (the inline `problem` of a config).

        Sections and fields are those of the dataclasses; an absent key
        keeps the dataclass default (an absent section, all of them), and
        null marks an absent obstacle side.  gparams and terminal are
        required.  Functions parse through `FnSpec.from_dict`, numbers
        through `read_number`; every error is a SpecError naming its key.
        """
        return _record_to_dataclass(cls, rec, "problem")


# Field annotations are source text (postponed evaluation), so a field's
# parser is chosen by its annotation's name.
_SECTIONS = {"GParams": GParams, "CoefficientSet": CoefficientSet,
             "GeneratorSpec": GeneratorSpec, "ObstaclePair": ObstaclePair}


def _record_to_dataclass(kind, rec, where):
    check_record(rec, [f.name for f in fields(kind)], where)
    kw = {}
    for f in fields(kind):
        at = f"{where}.{f.name}"
        if f.type in _SECTIONS:
            kw[f.name] = _record_to_dataclass(_SECTIONS[f.type],
                                              rec.get(f.name, {}), at)
        elif f.name not in rec or (rec[f.name] is None
                                   and f.type.startswith("Optional")):
            if f.default is MISSING:
                raise SpecError(f"{where} misses {f.name!r}")
        elif f.type == "float":
            kw[f.name] = read_number(rec[f.name], at)
        else:
            kw[f.name] = FnSpec._from_record(rec[f.name], at)
    return kind(**kw)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    constraint: str
    where: str
    worst: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        if self.ok:
            return "validation: clean"
        lines = ["validation: %d violation(s)" % len(self.violations)]
        for v in self.violations:
            lines.append(f"  [{v.constraint}] at {v.where}: {v.detail}")
        return "\n".join(lines)


def _probe_eval(fs: FnSpec, name, t, x, y=0.0, z=0.0):
    out = np.broadcast_to(np.asarray(fs(t, x, y, z), dtype=float),
                          np.shape(x)).copy()
    bad = ~np.isfinite(out)
    if bad.any():
        i = int(np.argmax(bad))
        raise EvaluationError(
            f"{name} returned a non-finite value at t={t!r}, x={np.ravel(x)[i]!r}")
    return out


def cell_peclet_excess(drift, cross, sig2, dx, vol_low_sq):
    """|drift|*dx - vol_low_sq*(sigma^2 - |cross|*dx) per node.

    Positive where a centred first difference would give the step a
    negative neighbour weight at the lowest variance of the band; the
    step takes one-sided differences there and `validate` reports it.
    """
    return np.abs(drift) * dx - vol_low_sq * (sig2 - dx * np.abs(cross))


def validate(spec: ProblemSpec, probe: "Grid") -> ValidationReport:
    """Check the structural assumptions of a problem on a probe grid.

    Walks every declared field over the probe's (t, x) nodes and collects
    one entry per violated constraint, reporting the first worst node.
    Catalog kinds do not depend on t, so unless some field is custom
    only the first probe slice is walked; later slices repeat it and
    could not displace its worst node.
    Non-finite evaluations are a hard failure (`EvaluationError`), not a
    report entry.  The function is pure: same spec and probe, same report.

    Checked constraints: lipschitz_z >= the sum of |gamma| over the
    quadratic_in_z drivers among f and g (a custom one is not compared),
    the ellipticity band for sigma^2, the cell-Peclet condition
    |drift|*dx <= vol_low_sq*(sigma^2 - |cross|*dx) under which the step
    keeps centred first differences (`cell_peclet_excess`), the
    zero-point driver bound, the terminal bound, obstacle order, obstacle
    level bounds, and the terminal sandwich between active obstacles.
    The band is not among them: `GParams` checks it when built.
    """
    ts = np.asarray(probe.t_nodes, dtype=float)
    xs = np.asarray(probe.x_nodes, dtype=float)
    c, gen, ob = spec.coeffs, spec.gen, spec.obstacles
    fns = (c.drift, c.cross, c.sigma, gen.f, gen.g, ob.lower, ob.upper,
           spec.terminal)
    if not any(fs is not None and fs.kind == "custom" for fs in fns):
        ts = ts[:1]
    out = []

    def flag(constraint, where, worst, detail):
        out.append(Violation(constraint, where, float(worst), detail))

    need = sum(abs(fs.gamma) for fs in (gen.f, gen.g)
               if fs.kind == "quadratic_in_z")
    if gen.lipschitz_z < need:
        flag("driver-z-modulus", "gen", need - gen.lipschitz_z,
             f"lipschitz_z = {gen.lipschitz_z:g} is below the catalog "
             f"drivers' sum of |gamma| = {need:g}")

    def scan(fn):
        # worst value of fn over all probe slices, with its node
        worst = None
        for t in ts:
            vals = fn(float(t))
            i = int(np.argmax(vals))
            if worst is None or vals[i] > worst[0]:
                worst = (float(vals[i]), float(t), float(xs[i]))
        return worst

    sig = lambda t: _probe_eval(spec.coeffs.sigma, "sigma", t, xs)

    w = scan(lambda t: spec.coeffs.vol_floor - sig(t) ** 2)
    if w[0] > 0:
        flag("ellipticity-floor", f"(t={w[1]:g}, x={w[2]:g})", w[0],
             f"sigma^2 dips {w[0]:.3g} below declared vol_floor")
    w = scan(lambda t: sig(t) ** 2 - spec.coeffs.vol_cap)
    if w[0] > 0:
        flag("ellipticity-cap", f"(t={w[1]:g}, x={w[2]:g})", w[0],
             f"sigma^2 exceeds declared vol_cap by {w[0]:.3g}")

    dx = probe.dx
    w = scan(lambda t: cell_peclet_excess(
        _probe_eval(spec.coeffs.drift, "drift", t, xs),
        _probe_eval(spec.coeffs.cross, "cross", t, xs), sig(t) ** 2, dx,
        spec.gparams.vol_low_sq))
    if w[0] > 0:
        flag("cell-peclet", f"(t={w[1]:g}, x={w[2]:g})", w[0],
             f"|drift|*dx exceeds vol_low_sq*(sigma^2 - |cross|*dx) by "
             f"{w[0]:.3g}; the step falls back to first-order one-sided "
             "differences there, refine nx")

    w = scan(lambda t: np.abs(_probe_eval(spec.gen.f, "f", t, xs))
             + np.abs(_probe_eval(spec.gen.g, "g", t, xs))
             - spec.gen.zero_bound)
    if w[0] > 0:
        flag("driver-zero-bound", f"(t={w[1]:g}, x={w[2]:g})", w[0],
             f"|f(.,0,0)|+|g(.,0,0)| exceeds zero_bound by {w[0]:.3g}")

    phi = _probe_eval(spec.terminal, "terminal", spec.horizon, xs)
    i = int(np.argmax(np.abs(phi)))
    if abs(phi[i]) > spec.gen.zero_bound:
        flag("terminal-bound", f"(x={xs[i]:g})", abs(phi[i]),
             f"|terminal| = {abs(phi[i]):.3g} exceeds zero_bound")

    low = lambda t: _probe_eval(ob.lower, "lower obstacle", t, xs)
    upp = lambda t: _probe_eval(ob.upper, "upper obstacle", t, xs)

    if ob.lower_active and ob.upper_active:
        w = scan(lambda t: low(t) - upp(t))
        if w[0] > 0:
            flag("obstacle-order", f"(t={w[1]:g}, x={w[2]:g})", w[0],
                 f"lower exceeds upper by {w[0]:.3g}")
    if ob.lower_active:
        w = scan(lambda t: low(t) - ob.level_bound)
        if w[0] > 0:
            flag("obstacle-level", f"(t={w[1]:g}, x={w[2]:g})", w[0],
                 "lower obstacle above level_bound")
        lT = low(float(spec.horizon))
        j = int(np.argmax(lT - phi))
        if lT[j] - phi[j] > 0:
            flag("terminal-sandwich", f"(x={xs[j]:g})", lT[j] - phi[j],
                 f"terminal dips {lT[j] - phi[j]:.3g} below lower obstacle")
    if ob.upper_active:
        w = scan(lambda t: -upp(t) - ob.level_bound)
        if w[0] > 0:
            flag("obstacle-level", f"(t={w[1]:g}, x={w[2]:g})", w[0],
                 "negated upper obstacle above level_bound")
        uT = upp(float(spec.horizon))
        j = int(np.argmax(phi - uT))
        if phi[j] - uT[j] > 0:
            flag("terminal-sandwich", f"(x={xs[j]:g})", phi[j] - uT[j],
                 f"terminal exceeds upper obstacle by {phi[j] - uT[j]:.3g}")

    # probe the drivers off the origin for finiteness only
    for name, fs in (("f", spec.gen.f), ("g", spec.gen.g)):
        for yz in ((0.0, 0.0), (1.0, -1.0), (-1.0, 1.0)):
            _probe_eval(fs, name, float(ts[0]), xs, *yz)

    return ValidationReport(tuple(out))
