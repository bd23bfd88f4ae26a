"""Sublinear envelope and right-hand-side assembly."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gobstacle.gcalculus import g_eval
from gobstacle.model import (
    CoefficientSet,
    FnSpec,
    GeneratorSpec,
    GParams,
    ObstaclePair,
    ProblemSpec,
    SpecError,
)
from gobstacle.scheme import PenaltyParams
from node_oracle import NodeDerivs, pde_rhs, pde_rhs_penalized, qv_rhs, \
    worst_case_vol

BAND = GParams(1.0, 2.0)

# Subnormals are excluded: underflow rounding breaks the exact
# reassociation 0.5*(v*a) == (0.5*v)*a that the equality tests rely on.
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_subnormal=False)
bands = st.tuples(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
).map(lambda p: GParams(p[0], p[0] + p[1]))


def test_envelope_hand_values():
    assert g_eval(2.0, BAND) == 2.0     # 0.5 * 2 * 2
    assert g_eval(-2.0, BAND) == -1.0   # -0.5 * 1 * 2
    assert g_eval(0.0, BAND) == 0.0


def test_envelope_broadcasts():
    a = np.array([-4.0, -1.0, 0.0, 1.0, 4.0])
    np.testing.assert_allclose(g_eval(a, BAND),
                               [-2.0, -0.5, 0.0, 1.0, 4.0])


def test_worst_case_vol_is_bang_bang():
    a = np.array([-1.0, -1e-300, 0.0, 1e-300, 1.0])
    np.testing.assert_array_equal(worst_case_vol(a, BAND),
                                  [1.0, 1.0, 2.0, 2.0, 2.0])


@given(a=finite, gp=bands)
def test_scenario_attains_envelope(a, gp):
    assert g_eval(a, gp) == 0.5 * worst_case_vol(a, gp) * a


@given(a=finite, gp=bands)
def test_envelope_is_sup_over_band_endpoints(a, gp):
    # the maximizer over [low, high] of 0.5*v*a sits at an endpoint
    cand = max(0.5 * gp.vol_low_sq * a, 0.5 * gp.vol_high_sq * a)
    assert g_eval(a, gp) == cand


@given(a=finite, lam=st.floats(min_value=0.0, max_value=1e3), gp=bands)
def test_envelope_positive_homogeneity(a, lam, gp):
    assert g_eval(lam * a, gp) == pytest.approx(lam * g_eval(a, gp),
                                                rel=1e-12, abs=1e-300)


@given(a=finite, b=finite, gp=bands)
def test_envelope_monotone(a, b, gp):
    lo, hi = min(a, b), max(a, b)
    assert g_eval(lo, gp) <= g_eval(hi, gp)


@given(a=finite, b=finite, gp=bands)
def test_envelope_subadditive(a, b, gp):
    lhs = g_eval(a + b, gp)
    rhs = g_eval(a, gp) + g_eval(b, gp)
    assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


# every float but NaN: subnormals, both zeros and both infinities too
any_floats = st.lists(st.floats(allow_nan=False), min_size=1, max_size=40)


@settings(derandomize=True, max_examples=500)
@given(a=any_floats, gp=bands)
@example(a=[-0.0, 0.0, -5e-324, 5e-324, -2.2e-308, 1e-310, -np.inf, np.inf],
         gp=BAND)
@example(a=[-0.0, -1e-320, 1e-320, -3.0], gp=GParams(1e-3, 1e-3))
def test_envelope_is_the_split_formula_bit_for_bit(a, gp):
    # the kernel's max((0.5*high)*a, (0.5*low)*a) + 0.0 against
    # (0.5*high)*a+ - (0.5*low)*a-, signs of zero included
    a = np.array(a)
    with np.errstate(over="ignore"):  # products past the largest float
        want = (0.5 * gp.vol_high_sq) * np.maximum(a, 0.0) \
            - (0.5 * gp.vol_low_sq) * np.maximum(-a, 0.0)
        got = g_eval(a, gp)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("gp", [GParams(0.0, 1.0), GParams(2.0, 1.0)])
def test_envelope_refuses_a_band_that_is_not_well_ordered(gp):
    # max over the band of 0.5*v*a needs 0 < low <= high: at low = 0,
    # (0.5*low)*inf would be NaN, and a misordered band picks low for a > 0
    with pytest.raises(SpecError, match="not well ordered"):
        g_eval(np.array([np.inf, 1.0]), gp)


def test_degenerate_band_is_linear():
    gp = GParams(1.5, 1.5)
    a = np.array([-3.0, -1.0, 2.0, 5.0])
    np.testing.assert_allclose(g_eval(a, gp), 0.75 * a)
    np.testing.assert_allclose(g_eval(a, gp) + g_eval(-a, gp), 0.0)


# ---------------------------------------------------------------------------
# right-hand-side assembly
# ---------------------------------------------------------------------------

def _plain_spec(**over):
    base = dict(gparams=BAND, coeffs=CoefficientSet(),
                gen=GeneratorSpec(zero_bound=10.0),
                obstacles=ObstaclePair(),
                terminal=FnSpec.constant(0.0), horizon=1.0)
    base.update(over)
    return ProblemSpec(**base)


def test_qv_rhs_reduces_to_second_derivative():
    d = NodeDerivs(u=0.3, du=7.0, d2u=-4.0, x=1.0, t=0.5)
    assert qv_rhs(d, _plain_spec()) == -4.0


def test_qv_rhs_collects_all_channels():
    spec = _plain_spec(
        coeffs=CoefficientSet(drift=FnSpec.constant(0.2),
                              cross=FnSpec.constant(0.1),
                              sigma=FnSpec.constant(1.2),
                              vol_floor=1.0, vol_cap=2.0),
        gen=GeneratorSpec(g=FnSpec.quadratic_in_z(0.5, clip=100.0),
                          lipschitz_z=0.5, zero_bound=10.0))
    d = NodeDerivs(u=0.0, du=2.0, d2u=3.0, x=0.0, t=0.0)
    z = 1.2 * 2.0
    want = 1.2 ** 2 * 3.0 + 2.0 * 0.1 * 2.0 + 2.0 * (0.5 * z * z)
    assert qv_rhs(d, spec) == pytest.approx(want, rel=1e-15)


def test_pde_rhs_applies_envelope_then_linear_terms():
    spec = _plain_spec(
        coeffs=CoefficientSet(drift=FnSpec.constant(0.2)),
        gen=GeneratorSpec(f=FnSpec.constant(-0.3), zero_bound=10.0))
    d = NodeDerivs(u=0.0, du=5.0, d2u=-4.0, x=0.0, t=0.0)
    # qv = -4 -> envelope -2; plus drift*du + f
    assert pde_rhs(d, spec) == pytest.approx(-2.0 + 1.0 - 0.3, rel=1e-15)


def test_pde_rhs_refuses_misordered_band():
    spec = _plain_spec(gparams=GParams(2.0, 1.0))
    d = NodeDerivs(u=0.0, du=0.0, d2u=1.0, x=0.0, t=0.0)
    with pytest.raises(SpecError):
        pde_rhs(d, spec)


def test_penalized_rhs_adds_signed_penalty_terms():
    ob = ObstaclePair(FnSpec.constant(-1.0), FnSpec.constant(1.0))
    spec = _plain_spec(obstacles=ob)
    pen = PenaltyParams(m_lower=10.0, n_upper=20.0)
    base = NodeDerivs(u=0.0, du=0.0, d2u=0.0, x=0.0, t=0.0)
    assert pde_rhs_penalized(base, spec, pen) == 0.0  # inside the band

    above = NodeDerivs(u=1.5, du=0.0, d2u=0.0, x=0.0, t=0.0)
    assert pde_rhs_penalized(above, spec, pen) == pytest.approx(
        -20.0 * 0.5, rel=1e-15)

    below = NodeDerivs(u=-1.25, du=0.0, d2u=0.0, x=0.0, t=0.0)
    assert pde_rhs_penalized(below, spec, pen) == pytest.approx(
        10.0 * 0.25, rel=1e-15)


def test_penalized_rhs_ignores_inactive_sides():
    spec = _plain_spec()  # no obstacles at all
    pen = PenaltyParams(m_lower=1e6, n_upper=1e6)
    d = NodeDerivs(u=5.0, du=0.0, d2u=0.0, x=0.0, t=0.0)
    assert pde_rhs_penalized(d, spec, pen) == pde_rhs(d, spec)
