"""Problem-description layer: function catalog, components, validation."""

import json
import re

import numpy as np
import pytest

from gobstacle.model import (
    CoefficientSet,
    EvaluationError,
    FnSpec,
    GeneratorSpec,
    GParams,
    ObstaclePair,
    ProblemSpec,
    SpecError,
    validate,
)
from gobstacle.presets import get_preset
from gobstacle.scheme import Grid, build_grid


# ---------------------------------------------------------------------------
# FnSpec evaluation
# ---------------------------------------------------------------------------

def test_constant_ignores_arguments():
    fs = FnSpec.constant(0.7)
    assert fs(0.0, 3.0) == 0.7
    assert fs(1.0, -5.0, y=9.0, z=-9.0) == 0.7


def test_affine_evaluates_in_x():
    fs = FnSpec.affine(2.0, -1.0)
    x = np.array([-1.0, 0.0, 2.5])
    np.testing.assert_allclose(fs(0.3, x), 2.0 * x - 1.0)


def test_polynomial_clips_hard():
    fs = FnSpec.polynomial([0.0, 0.0, 1.0], clip=4.0)
    x = np.array([-3.0, -1.0, 0.0, 2.0, 3.0])
    np.testing.assert_allclose(fs(0.0, x), [4.0, 1.0, 0.0, 4.0, 4.0])


def test_quadratic_in_z_uses_z_slot_only():
    fs = FnSpec.quadratic_in_z(0.5, clip=10.0)
    assert fs(0.0, 123.0, y=9.0, z=2.0) == 2.0
    assert fs(0.0, 0.0, z=-2.0) == 2.0
    assert fs(0.0, 0.0, z=100.0) == 10.0  # clipped


@pytest.mark.parametrize("fs", [
    FnSpec.polynomial([0.3, -2.0, 1.5], clip=4.0),
    FnSpec.quadratic_in_z(0.5, clip=10.0),
    FnSpec.quadratic_in_z(-0.5, clip=10.0),  # -0.0 at z = 0
], ids=["polynomial", "quadratic-in-z", "quadratic-in-z-negative"])
def test_clipped_kinds_equal_np_clip_bit_for_bit(fs):
    vals = np.concatenate([np.random.default_rng(0).normal(0.0, 5.0, 1000),
                           [np.nan, -0.0, 0.0, np.inf, -np.inf]])
    with np.errstate(invalid="ignore"):  # inf * 0 inside polyval
        if fs.kind == "polynomial":
            got = fs(0.0, vals)
            raw = np.polynomial.polynomial.polyval(vals, fs.coeffs)
        else:
            got = fs(0.0, 0.0, z=vals)
            raw = fs.gamma * vals * vals
    assert got.tobytes() == np.clip(raw, -fs.clip, fs.clip).tobytes()


def test_tabulated_interpolates_and_extends_flat():
    fs = FnSpec.tabulated([0.0, 1.0, 2.0], [0.0, 10.0, 0.0])
    assert fs(0.0, 0.5) == 5.0
    assert fs(0.0, -3.0) == 0.0  # constant extension left
    assert fs(0.0, 9.0) == 0.0   # and right


def test_custom_delegates_to_host_callable():
    fs = FnSpec.custom(lambda t, x, y, z: t + x + y + z)
    assert fs(1.0, 2.0, y=3.0, z=4.0) == 10.0


@pytest.mark.parametrize("bad", [
    dict(kind="nope"),
    dict(kind="tabulated", xs=(0.0,), values=(1.0,)),
    dict(kind="tabulated", xs=(0.0, 1.0), values=(1.0,)),
    dict(kind="tabulated", xs=(1.0, 0.0), values=(1.0, 2.0)),
    dict(kind="custom"),
    dict(kind="constant", clip=-1.0),
])
def test_fnspec_constructor_rejections(bad):
    with pytest.raises(SpecError):
        FnSpec(**bad)


# ---------------------------------------------------------------------------
# FnSpec serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fs", [
    FnSpec.constant(0.25),
    FnSpec.affine(0.03, 0.05),
    FnSpec.polynomial([0.0, 0.0, 1.0], clip=1.6),
    FnSpec.quadratic_in_z(0.5, clip=7.0),
    FnSpec.tabulated([0.0, 1.0, 3.0], [1.0, -1.0, 2.0]),
])
def test_dict_round_trip(fs):
    rec = fs.to_dict()
    json.dumps(rec)  # must be JSON-clean
    assert FnSpec.from_dict(rec) == fs


def test_custom_is_not_serializable():
    with pytest.raises(SpecError):
        FnSpec.custom(lambda t, x, y, z: 0.0).to_dict()


def test_from_dict_rejects_custom_kind():
    with pytest.raises(SpecError, match="not in the catalog"):
        FnSpec.from_dict({"kind": "custom"})


def test_from_dict_rejects_unknown_fields():
    # moduli and bounds are declared on the section, never on a function
    for extra in ({"slope": 2.0}, {"lipschitz_y": 0.5},
                  {"lipschitz_z": 0.5}, {"sup_bound": 1.0}):
        key = next(iter(extra))
        with pytest.raises(SpecError, match=rf"unknown fields \['{key}'\]"):
            FnSpec.from_dict({"kind": "constant", "value": 1.0, **extra})


@pytest.mark.parametrize("rec,key", [
    ({"kind": "constant", "value": True}, "FnSpec.value"),
    ({"kind": "constant", "value": float("nan")}, "FnSpec.value"),
    ({"kind": "constant", "value": "1"}, "FnSpec.value"),
    ({"kind": "tabulated", "xs": [0.0, float("inf")], "values": [0.0, 1.0]},
     "FnSpec.xs[1]"),
    ({"kind": "polynomial", "coeffs": [1.0], "clip": None}, "FnSpec.clip"),
    ({"kind": "constant", "value": 10 ** 400}, "FnSpec.value"),  # > float
])
def test_from_dict_reads_finite_numbers_only(rec, key):
    with pytest.raises(SpecError, match=re.escape(key)):
        FnSpec.from_dict(rec)


def test_from_dict_reports_missing_field():
    with pytest.raises(SpecError, match="misses field"):
        FnSpec.from_dict({"kind": "affine", "slope": 1.0})


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_gparams_flags():
    assert GParams(1.0, 2.0).well_ordered
    assert not GParams(1.0, 2.0).degenerate
    assert GParams(1.5, 1.5).degenerate
    assert not GParams(2.0, 1.0).well_ordered  # constructible, flagged
    assert not GParams(0.0, 1.0).well_ordered


def test_coefficient_set_checks_ellipticity_band():
    CoefficientSet(vol_floor=0.5, vol_cap=2.0)
    with pytest.raises(SpecError):
        CoefficientSet(vol_floor=0.0, vol_cap=1.0)
    with pytest.raises(SpecError):
        CoefficientSet(vol_floor=2.0, vol_cap=1.0)


def test_generator_spec_rejects_negative_constants():
    with pytest.raises(SpecError):
        GeneratorSpec(lipschitz_y=-1.0)
    with pytest.raises(SpecError):
        GeneratorSpec(zero_bound=-0.1)
    # NaN compares false both ways: it would switch validation off
    for name in ("lipschitz_y", "lipschitz_z", "zero_bound"):
        with pytest.raises(SpecError, match="nonnegative"):
            GeneratorSpec(**{name: float("nan")})


@pytest.mark.parametrize("bound", [-0.1, float("nan")])
def test_obstacle_pair_rejects_a_negative_or_nan_level_bound(bound):
    with pytest.raises(SpecError, match="level_bound must be nonnegative"):
        ObstaclePair(lower=FnSpec.constant(-1.0), level_bound=bound)


def test_obstacle_pair_activity_flags():
    both = ObstaclePair(FnSpec.constant(-1.0), FnSpec.constant(1.0))
    assert both.lower_active and both.upper_active
    lo = ObstaclePair(lower=FnSpec.constant(-1.0))
    assert lo.lower_active and not lo.upper_active
    up = ObstaclePair(upper=FnSpec.constant(1.0))
    assert up.upper_active and not up.lower_active
    none = ObstaclePair()
    assert not none.lower_active and not none.upper_active


def test_problem_spec_requires_positive_horizon():
    with pytest.raises(SpecError):
        ProblemSpec(gparams=GParams(1.0, 2.0), coeffs=CoefficientSet(),
                    gen=GeneratorSpec(), obstacles=ObstaclePair(),
                    terminal=FnSpec.constant(0.0), horizon=0.0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

PROBE = Grid(x_min=-2.0, x_max=2.0, nx=8, nt=4, horizon=1.0)


def _spec(**over):
    base = dict(gparams=GParams(1.0, 2.0), coeffs=CoefficientSet(),
                gen=GeneratorSpec(zero_bound=1.0),
                obstacles=ObstaclePair(),
                terminal=FnSpec.constant(0.5), horizon=1.0)
    base.update(over)
    return ProblemSpec(**base)


def _constraints(spec):
    return {v.constraint for v in validate(spec, PROBE).violations}


def test_validate_clean_case():
    rep = validate(_spec(), PROBE)
    assert rep.ok
    assert str(rep) == "validation: clean"


def test_validate_flags_misordered_band():
    assert "vol-band-order" in _constraints(_spec(gparams=GParams(2.0, 1.0)))


def test_validate_flags_ellipticity_breaches():
    # declared unit band, actual sigma = 2 -> cap breach
    spec = _spec(coeffs=CoefficientSet(sigma=FnSpec.constant(2.0)))
    assert "ellipticity-cap" in _constraints(spec)
    spec = _spec(coeffs=CoefficientSet(sigma=FnSpec.constant(0.5)))
    assert "ellipticity-floor" in _constraints(spec)


def test_validate_flags_driver_zero_bound():
    spec = _spec(gen=GeneratorSpec(f=FnSpec.constant(2.0), zero_bound=1.0))
    assert "driver-zero-bound" in _constraints(spec)


def test_validate_flags_terminal_bound():
    spec = _spec(terminal=FnSpec.constant(1.5))
    assert "terminal-bound" in _constraints(spec)


def test_validate_flags_obstacle_order_and_level():
    crossed = ObstaclePair(FnSpec.constant(0.5), FnSpec.constant(-0.5),
                           level_bound=1.0)
    got = _constraints(_spec(obstacles=crossed))
    assert "obstacle-order" in got
    tall = ObstaclePair(lower=FnSpec.constant(3.0), level_bound=1.0)
    got = _constraints(_spec(obstacles=tall, terminal=FnSpec.constant(0.5)))
    assert "obstacle-level" in got
    deep = ObstaclePair(upper=FnSpec.constant(-3.0), level_bound=1.0)
    got = _constraints(_spec(obstacles=deep, terminal=FnSpec.constant(-3.5)))
    assert got == {"obstacle-level", "terminal-bound"}  # the negated upper


def test_validate_flags_terminal_sandwich():
    ob = ObstaclePair(lower=FnSpec.constant(0.8), level_bound=1.0)
    got = _constraints(_spec(obstacles=ob, terminal=FnSpec.constant(0.5)))
    assert "terminal-sandwich" in got


def test_validate_raises_on_non_finite_evaluation():
    bad = FnSpec.custom(lambda t, x, y, z: np.full_like(
        np.asarray(x, dtype=float), np.nan))
    with pytest.raises(EvaluationError):
        validate(_spec(terminal=bad), PROBE)


def test_validation_report_lists_each_violation():
    spec = _spec(gparams=GParams(2.0, 1.0), terminal=FnSpec.constant(1.5))
    rep = validate(spec, PROBE)
    assert not rep.ok
    text = str(rep)
    assert "vol-band-order" in text and "terminal-bound" in text


def _drift_60_probe():
    # strong advection against a 0-to-1 step: at nx=400 the cell Peclet
    # number |drift|*dx/vol_low_sq is 3, and the central step overshoots
    step = FnSpec.tabulated([-0.025, 0.025], [0.0, 1.0])
    return _spec(coeffs=CoefficientSet(drift=FnSpec.constant(60.0)),
                 terminal=step)


def test_validate_flags_the_cell_peclet_condition():
    spec = _drift_60_probe()
    rep = validate(spec, build_grid(spec, nx=400))
    assert [v.constraint for v in rep.violations] == ["cell-peclet"]
    # |drift|*dx - vol_low_sq*sigma^2 = 60*0.05 - 1
    assert rep.violations[0].worst == pytest.approx(2.0)


@pytest.mark.parametrize("nx", [64, 400])
def test_cell_peclet_leaves_the_drift_preset_clean(nx):
    spec = get_preset("quadratic-drift")
    assert validate(spec, build_grid(spec, nx=nx)).ok
