"""Frozen sha256 digests of library outputs that the golden CSV table
never writes: every stage field and the trace of the limit driver, the
full process bundle of `reconstruct`, and the diagnostics read from it;
the field and bundle of the lower-reflected and projected solves on
every preset with an active side; and the field and violations of a
fixed-intensity solve on every single preset.

The golden table hashes only a few slices per run; these digests cover
every slice, so a refactor of the stepping or replay loops that changes
one bit anywhere shows here.  A digest changes only with a deliberate
change of the arithmetic."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from gobstacle.decomposition import bmo_diagnostic, one_step_residuals, \
    reconstruct
from gobstacle.model import CoefficientSet, FnSpec, GeneratorSpec, GParams, \
    ObstaclePair, ProblemSpec
from gobstacle.presets import get_preset, list_presets
from gobstacle.scheme import PenaltyParams, build_grid
from gobstacle.solvers import DEFAULT_INTENSITIES, PenaltySchedule, \
    solve_double_projection, solve_limit, solve_penalized
from node_oracle import contact_sums, tail_energies

PEN = PenaltyParams(64.0, 64.0)

DIGESTS = {
    "bundle-affine-drift-8x":
        "6adc8907520d8fcb399f5cb010de8fd5111ade24b5aeb998a3b61ddd43a4f2fb",
    "bundle-custom-t-driver":
        "cd6d12398b88c6a1bc3a8a9711dc6f26520b65eb9175d869b8c441e8e34f0b83",
    "bundle-double-active-penalized":
        "97868706d8b1e9917badef8e2a5299cc6194da3642aae3b38d757674b7b1e48f",
    "bundle-double-active-project_both":
        "938cb21f59ffbd341f1cdeb0fd140c439b92b71d6a348c8f28eaf1b2369c05ae",
    "bundle-double-active-project_lower":
        "319e174fdbe6506df8e9f536eb76170f55d341c8d43b4828ba8c902b6305b4ac",
    "limit-double-active":
        "1d7478e66c620b072a27ce81bf767ca797b74142ef14fc6a426498b4ede172c5",
    "limit-lower-active":
        "893eb939adb2f1f69825015cd555de4e284d02f10d79b78191d94de86232a242",
    "limit-quadratic-drift":
        "1bf3e86e33155d4d45d70e3bb411bc28338fdacd7e0317b0c6a449c7e236be83",
    "limit-upper-active":
        "c1c760f0e7530ad77487ca1a161e55f6ee2d7060fa81d2f181f2f895810cd51c",
}


def _digest(*items):
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(repr(item.shape).encode())
            h.update(np.ascontiguousarray(item, dtype=float).tobytes())
        elif isinstance(item, float):
            h.update(item.hex().encode())
        else:
            h.update(repr(item).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the limit driver: every stage field and the trace
# ---------------------------------------------------------------------------

LIMIT_CASES = {
    "double-active": None,
    "lower-active": PenaltySchedule.fixed_n(64.0, DEFAULT_INTENSITIES),
    "upper-active": PenaltySchedule.fixed_m(64.0, DEFAULT_INTENSITIES),
    "quadratic-drift": None,  # stops early, after two stages
}


def _limit_digest(name):
    spec = get_preset(name)
    grid = build_grid(spec, nx=64)
    final, trace = solve_limit(spec, grid, LIMIT_CASES[name],
                               keep_reports=True)
    items = [trace.converged, trace.stop_tol, len(trace.stages)]
    for stage, report in zip(trace.stages, trace.reports):
        items += [stage.stage, stage.m_lower, stage.n_upper, stage.sup_diff,
                  stage.upper_violation, stage.lower_violation,
                  stage.r_plus, stage.r_minus, report.field.values,
                  report.sup_upper_violation, report.sup_lower_violation,
                  report.field.grid.nt]
    assert final is trace.reports[-1]
    return _digest(*items)


@pytest.mark.parametrize("name", sorted(LIMIT_CASES))
def test_limit_driver_digest(name):
    assert _limit_digest(name) == DIGESTS[f"limit-{name}"]


def test_quadratic_drift_limit_stops_early():
    spec = get_preset("quadratic-drift")
    _, trace = solve_limit(spec, build_grid(spec, nx=64))
    assert trace.converged and len(trace.stages) == 2


# ---------------------------------------------------------------------------
# reconstruction and the diagnostics read from its bundle
# ---------------------------------------------------------------------------

def _bundle_digest(report):
    bundle = reconstruct(report)
    worst, tails = bmo_diagnostic(bundle), tail_energies(bundle)
    r_plus, r_minus = contact_sums(bundle)
    return _digest(report.field.values, bundle.z.values, bundle.da_plus,
                   bundle.da_minus, bundle.defect.values,
                   one_step_residuals(bundle),
                   worst, tails, r_plus, r_minus)


def _double_active_mode(mode):
    """The solve a DIGESTS key names: penalized at (64, 64), lower
    reflection with an upper penalty of 64, or projection."""
    spec = get_preset("double-active")
    grid = build_grid(spec, nx=64)
    if mode == "penalized":
        return solve_penalized(spec, grid, PEN)
    if mode == "project_lower":
        return solve_penalized(spec, grid, PenaltyParams(math.inf, 64.0))
    return solve_double_projection(spec, grid)


@pytest.mark.parametrize("mode",
                         ["penalized", "project_lower", "project_both"])
def test_double_active_bundle_digest(mode):
    report = _double_active_mode(mode)
    assert _bundle_digest(report) \
        == DIGESTS[f"bundle-double-active-{mode}"]


def test_upwind_bundle_digest():
    # affine drift 8x over a 0-to-1 step: one-sided differences on the
    # 298 nodes with |x| > 2.5
    spec = ProblemSpec(
        gparams=GParams(1.0, 2.0),
        coeffs=CoefficientSet(drift=FnSpec.affine(8.0, 0.0)),
        gen=GeneratorSpec(zero_bound=100.0), obstacles=ObstaclePair(),
        terminal=FnSpec.tabulated([-0.025, 0.025], [0.0, 1.0]))
    grid = build_grid(spec, nx=400)
    report = solve_penalized(spec, grid, PenaltyParams())
    assert _bundle_digest(report) == DIGESTS["bundle-affine-drift-8x"]


def test_t_dependent_custom_driver_bundle_digest():
    spec = get_preset("double-active")
    base = spec.gen.f
    f = FnSpec.custom(
        lambda t, x, y, z: base(t, x) * np.cos(2.0 * np.pi * t))
    spec = replace(spec, gen=replace(spec.gen, f=f))
    grid = build_grid(spec, nx=64)
    report = solve_penalized(spec, grid, PEN)
    assert _bundle_digest(report) == DIGESTS["bundle-custom-t-driver"]


# ---------------------------------------------------------------------------
# the reflected and projected solves on every preset with an active side
# ---------------------------------------------------------------------------

PROJECTION_DIGESTS = {  # (field, bundle z/dA+/dA-/defect)
    "lower-reflected-constant-sandwich": (
        "fab9a371050dd55e1e2760bff1310b1c024ea56c0a67536be295f5227338f527",
        "7ae87004c307a4053ba89fabf269a65248b2707f28824b2de7f31aaedefac45f"),
    "lower-reflected-double-active": (
        "94a8107908b47f508d39625d24b29fa453e536850bd8a69031a896c7eca64656",
        "c99cf181675e866adfeb5705c8e3d118d7a910047e00057bc82db896c0817d4b"),
    "lower-reflected-lower-active": (
        "d0767f2cd2dd56e46f99b3328f7ff055882b925d0e9bbfba68e38c250b53514c",
        "e00040fc08b25090b26635890ffa9dd3ef8d4998a99c21578ed9b3b144a1344b"),
    "lower-reflected-quadratic-drift": (
        "b26c071b55bce8d394a9d0471f7ab02e36035901530382739cf3c0ffb72a563c",
        "8e66bffae732afe9a190d96d02200960ce8367803bc3f699f2122d9f806558f3"),
    "projection-constant-sandwich": (
        "fab9a371050dd55e1e2760bff1310b1c024ea56c0a67536be295f5227338f527",
        "7ae87004c307a4053ba89fabf269a65248b2707f28824b2de7f31aaedefac45f"),
    "projection-double-active": (
        "4860e109c37d7ad115ab94ddba01aa4c34b0cd2374a1b9123e5292fcbfd11872",
        "cd999f06e07e7d0e8f969cc78334ea93bee09a47406569fe83110d133a079b22"),
    "projection-lower-active": (
        "d0767f2cd2dd56e46f99b3328f7ff055882b925d0e9bbfba68e38c250b53514c",
        "e00040fc08b25090b26635890ffa9dd3ef8d4998a99c21578ed9b3b144a1344b"),
    "projection-quadratic-drift": (
        "b26c071b55bce8d394a9d0471f7ab02e36035901530382739cf3c0ffb72a563c",
        "8e66bffae732afe9a190d96d02200960ce8367803bc3f699f2122d9f806558f3"),
    "projection-upper-active": (
        "03750284fa6e049599ec1e5359c4d4734efd8ae0273dd65f4724c8fbe4e9d70e",
        "5c3803853cd579926a105e1198a36d08285b3da6139aef5dc09c2e8766c81c16"),
}


def _projection_case(name, kind):
    spec = get_preset(name)
    grid = build_grid(spec, nx=64)
    if kind == "lower-reflected":
        return solve_penalized(spec, grid, PenaltyParams(math.inf, 64.0))
    return solve_double_projection(spec, grid)


PROJECTION_CASES = [
    (name, kind) for name in ("constant-sandwich", "double-active",
                              "lower-active", "quadratic-drift",
                              "upper-active")
    for kind in ("lower-reflected", "projection")
    if kind == "projection" or get_preset(name).obstacles.lower_active]


@pytest.mark.parametrize("name,kind", PROJECTION_CASES)
def test_projection_solve_digest(name, kind):
    report = _projection_case(name, kind)
    bundle = reconstruct(report)
    got = (_digest(report.field.values),
           _digest(bundle.z.values, bundle.da_plus, bundle.da_minus,
                   bundle.defect.values))
    assert got == PROJECTION_DIGESTS[f"{kind}-{name}"]


# ---------------------------------------------------------------------------
# a fixed-intensity solve on every single preset
# ---------------------------------------------------------------------------

PENALIZED_DIGESTS = {  # field and both violations at (64, 64), nx=64
    "constant-sandwich":
        "859f9df74bf3355508653f422651e2e4451712bb3d5dcdff9a1ed8d0acc192ea",
    "double-active":
        "ca76f2f42292f88c65bcb41ffd86359e84314934dc4f6ba2c0f09b9aee3debc9",
    "gheat-concave":
        "f45b41ead06985c93e7eec85cf505946013d2522d7d58b6d2865c87f82ba5281",
    "gheat-quadratic":
        "30de70f735954e871cb92f4a33bd1816d693e3d51dc926450e87a3f6270bc19c",
    "lower-active":
        "7ecaefcf85eaed0fa25e5a226fa89778665b2e7bcb27eb69c736e46cd078f823",
    "quadratic-drift":
        "7f959dd5e319be33ed18562c5f29dc61ce050d6416679e27e95a65f3b401d00c",
    "quadratic-gen-colehopf":
        "bd6e449843e14495aa94dd1cb1eba7a0f7702e8e5b4f26234db2930d841a973f",
    "upper-active":
        "212d07b21cc02d27caee928d0dc89931b1b1cdc380c17a66d6646296b0e6bb8d",
}


def test_every_single_preset_has_a_penalized_digest():
    assert sorted(PENALIZED_DIGESTS) \
        == sorted(p.name for p in list_presets() if p.kind == "single")


@pytest.mark.parametrize("name", sorted(PENALIZED_DIGESTS))
def test_penalized_solve_digest(name):
    spec = get_preset(name)
    report = solve_penalized(spec, build_grid(spec, nx=64), PEN)
    assert _digest(report.field.values, report.sup_upper_violation,
                   report.sup_lower_violation) == PENALIZED_DIGESTS[name]
