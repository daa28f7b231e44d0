import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from circledyn.classifier import dichotomy_verdict
from circledyn.dynamics import julia_cloud
from circledyn.errors import NewtonDiverged, ParamOutOfRange, SpecViolation
from circledyn.geometry import REAL_LINE, containment_residual
from circledyn.realjulia import (
    CriticalValueSpec,
    build_example,
    check_sign_condition,
    construct_polynomial,
    ex1_completely_invariant_real_line,
    random_valid_spec,
    verify_example_claims,
)


def test_sign_condition_boundary_values():
    assert check_sign_condition((0.0, 1.0))


def test_sign_condition_alternating():
    assert check_sign_condition((-0.5, 1.5))


def test_sign_condition_rejections():
    assert not check_sign_condition((-0.5, -1.5))
    assert not check_sign_condition((0.5,))  # inside the unit gap
    assert not check_sign_condition((1.5, 2.5))


def test_spec_rejects_bad_values():
    with pytest.raises(SpecViolation):
        CriticalValueSpec((0.5,))
    with pytest.raises(SpecViolation):
        CriticalValueSpec((-0.5, -1.5))
    with pytest.raises(SpecViolation, match="more than twice"):
        CriticalValueSpec((0.0, 0.0, 0.0, 0.0))  # triple repetition
    assert CriticalValueSpec((0.0, 0.0, -1.0)).grouped() == [(0.0, 2), (-1.0, 1)]


@pytest.mark.parametrize("values", [(math.inf,), (math.nan,), (-math.inf, 2.0), (-1.0, math.inf)])
def test_spec_rejects_non_finite_values(values):
    # each passes the sign condition, so only this check keeps it from the solve
    assert check_sign_condition(values)
    with pytest.raises(SpecViolation, match="finite"):
        CriticalValueSpec(values)


def test_construct_degree2_double_cover_of_one():
    # critical value 0: the square (2z - 1)^2
    r = construct_polynomial(CriticalValueSpec((0.0,)))
    np.testing.assert_allclose(r.poly.coeffs.real, [1.0, -4.0, 4.0], atol=1e-8)
    assert r.hull[0] == pytest.approx(0.0, abs=1e-8)
    assert r.hull[1] == pytest.approx(1.0, abs=1e-8)


def test_construct_degree2_logistic():
    # critical value 1: 4z(1 - z), the interval-filling quadratic
    r = construct_polynomial(CriticalValueSpec((1.0,)))
    np.testing.assert_allclose(r.poly.coeffs.real, [0.0, 4.0, -4.0], atol=1e-8)


def test_construct_degree2_cantor():
    # critical value -0.5: hull-normalized representative is 6z^2 - 6z + 1
    r = construct_polynomial(CriticalValueSpec((-0.5,)))
    np.testing.assert_allclose(r.poly.coeffs.real, [1.0, -6.0, 6.0], atol=1e-8)
    rep = dichotomy_verdict(r.rational, n_max=2)
    assert rep.verdict == "CIRCLE_CASE_III"


def test_construct_chebyshev_type_degree3():
    r = construct_polynomial(CriticalValueSpec((0.0, 1.0)))
    np.testing.assert_allclose(r.achieved_values, [0.0, 1.0], atol=1e-8)
    rep = dichotomy_verdict(r.rational, n_max=2)
    assert rep.verdict == "CIRCLE_CASE_II"
    a, b = rep.interval_I
    assert a == pytest.approx(0.0, abs=1e-7)
    assert b == pytest.approx(1.0, abs=1e-7)


def test_construct_roundtrip_small_sample():
    rng = np.random.default_rng(42)
    specs = [random_valid_spec(rng, int(rng.integers(2, 5))) for _ in range(6)]
    # a degree-6 Chebyshev type, and an interior double critical point
    specs += [CriticalValueSpec((0.0, 1.0, 0.0, 1.0, 0.0)), CriticalValueSpec((-2.0, 0.0, 0.0, 3.0))]
    for spec in specs:
        r = construct_polynomial(spec)
        np.testing.assert_allclose(r.achieved_values, spec.values, atol=1e-8)
        assert r.hull[0] == pytest.approx(0.0, abs=1e-8)
        assert r.hull[1] == pytest.approx(1.0, abs=1e-8)
        _assert_endpoint_dynamics(r)


@pytest.mark.parametrize("all_boundary", [False, True])
@pytest.mark.parametrize("k", range(12))
@pytest.mark.parametrize("d", range(2, 11))
def test_construct_roundtrip_through_degree_10(d, k, all_boundary):
    spec = random_valid_spec(np.random.default_rng(k), d, all_boundary=all_boundary)
    r = construct_polynomial(spec)
    # critical values recomputed from the coefficients, not the solver's own
    coeffs = r.poly.coeffs.real
    crit = np.sort(npoly.polyroots(npoly.polyder(coeffs)).real)
    np.testing.assert_allclose(npoly.polyval(crit, coeffs), spec.values, rtol=0, atol=1e-8)
    assert r.hull[0] == pytest.approx(0.0, abs=1e-8)
    assert r.hull[1] == pytest.approx(1.0, abs=1e-8)
    # at degree 10 the coefficients reach 3e6, so merely rounding them moves
    # f(1) by about 1e-9
    _assert_endpoint_dynamics(r, digits=8)


@pytest.mark.parametrize(
    "values",
    [
        (0.0, 0.0),
        (1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0),
        (0.0, -1.0),
        (0.0, -1.0, 0.0),
    ],
)
def test_construct_critical_point_on_hull_endpoint_is_exact_or_raises(values):
    # c_1 = f(0) or c_k = f(1) puts a critical point (double in the first
    # four) on 0 or 1, where the system is singular: the result is exact or
    # the solve says so
    spec = CriticalValueSpec(values)
    try:
        r = construct_polynomial(spec)
    except NewtonDiverged as exc:
        assert str(spec.values) in str(exc)
        return
    np.testing.assert_allclose(r.achieved_values, spec.values, rtol=0, atol=1e-8)
    assert r.hull[0] == pytest.approx(0.0, abs=1e-8)
    assert r.hull[1] == pytest.approx(1.0, abs=1e-8)


def _assert_endpoint_dynamics(result, digits=9):
    f = result.rational
    d = result.poly.degree
    v0 = f(0.0).value.real
    v1 = f(1.0).value.real
    if d % 2 == 0:
        assert v0 == pytest.approx(v1, abs=10.0**-digits)
        assert min(abs(v0), abs(v0 - 1.0)) < 10.0**-digits
    else:
        orbit = {round(v0, digits), round(v1, digits)}
        assert orbit <= {0.0, 1.0}


def test_constructed_polynomials_have_real_julia_sets():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        spec = random_valid_spec(rng, d)
        r = construct_polynomial(spec)
        cloud = julia_cloud(r.rational, 1200, seed=3)
        assert containment_residual(REAL_LINE, cloud) < 1e-6


def test_build_ex1():
    inst = build_example("EX1", c=0.25)
    assert inst.map.degree == 2
    assert not ex1_completely_invariant_real_line(inst.map)
    with pytest.raises(ParamOutOfRange):
        build_example("EX1", c=1.5)


def test_ex1_claims_quarter():
    claims = verify_example_claims(build_example("EX1", c=0.25))
    assert claims["blaschke_tests_agree"]["passed"]
    assert claims["blaschke_sampling"]["blaschke"] is False
    assert claims["full_horseshoe"]["passed"]


def test_ex1_claims_blaschke():
    claims = verify_example_claims(build_example("EX1", c=0.6))
    assert claims["blaschke_tests_agree"]["passed"]
    assert claims["blaschke_sampling"]["blaschke"] is True


def test_ex1_blaschke_flip_bisection():
    lo, hi = 0.25, 0.6
    assert not ex1_completely_invariant_real_line(build_example("EX1", c=lo).map)
    assert ex1_completely_invariant_real_line(build_example("EX1", c=hi).map)
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if ex1_completely_invariant_real_line(build_example("EX1", c=mid).map):
            hi = mid
        else:
            lo = mid
    assert abs(0.5 * (lo + hi) - 0.5) <= 0.01


def test_build_ex2():
    inst = build_example("EX2", c=0.9)
    assert inst.map.degree == 3
    claims = verify_example_claims(inst)
    assert claims["parabolic_infinity"]["passed"]
    assert claims["three_full_branches"]["passed"]
    assert claims["interior_minimum_below_-1"]["passed"]
    with pytest.raises(ParamOutOfRange):
        build_example("EX2", c=1.2)


def test_verify_unknown_family_is_out_of_range():
    inst = replace(build_example("EX1", c=0.25), family="EX4")
    with pytest.raises(ParamOutOfRange, match="unknown family EX4"):
        verify_example_claims(inst)


def test_build_ex3_constants():
    inst = build_example("EX3", p=0.2, a=0.5, eps=1e-3)
    assert inst.data["K"] == pytest.approx(1.6)
    assert inst.map.degree == 3
    assert abs(inst.map(1.0).value - 1.0) < 1e-10
    with pytest.raises(ParamOutOfRange):
        build_example("EX3", p=0.5, a=0.2, eps=1e-3)


def test_ex3_claims():
    inst = build_example("EX3", p=0.2, a=0.5, eps=1e-3)
    claims = verify_example_claims(inst)
    assert claims["two_critical_values_near_c"]["passed"]
    assert claims["second_iterate_escape"]["passed"]
    assert claims["classifier_escape_times"]["passed"]
    assert set(claims["classifier_escape_times"]["times"].values()) == {2}


def test_ex3_critical_values_tend_to_target():
    devs = []
    for eps in (1e-2, 1e-3, 1e-4):
        inst = build_example("EX3", p=0.2, a=0.5, eps=eps)
        claims = verify_example_claims(inst)
        devs.append(max(claims["two_critical_values_near_c"]["deviations"]))
    assert devs[0] > devs[1] > devs[2]