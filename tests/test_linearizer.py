import math

import numpy as np
import pytest

from circledyn import INF, parse_map
from circledyn.algebra import sphere_array
from circledyn.classifier import lattes_doubling_map
from circledyn.dynamics import periodic_points
from circledyn.errors import BasePointPostcritical, NotFixed, NotRepelling
from circledyn.linearizer import (
    functional_equation_residual,
    nonvanishing_witness,
    periodic_shadow_witness,
    local_taylor,
    poincare_coeffs,
    poincare_eval,
    poincare_values,
    valiron_order,
)
from circledyn.realjulia import build_example


def test_local_taylor_squaring():
    a = local_taylor(parse_map("z^2"), 1.0, 6)
    assert a[0] == pytest.approx(2.0)
    assert a[1] == pytest.approx(1.0)
    assert np.max(np.abs(a[2:])) < 1e-12


def test_local_taylor_chebyshev():
    a = local_taylor(parse_map("2*z^2-1"), 1.0, 6)
    assert a[0] == pytest.approx(4.0)
    assert a[1] == pytest.approx(2.0)


def test_local_taylor_ex1_at_infinity_chart():
    # multiplier of the fixed point at infinity equals the parameter c
    f = parse_map("(z^2-4)/(1+0.25*z)")
    g = f.reciprocal_chart()
    a = local_taylor(g, 0.0, 4)
    assert a[0] == pytest.approx(0.25, abs=1e-12)


def test_local_taylor_guards():
    with pytest.raises(NotFixed):
        local_taylor(parse_map("z^2"), 0.5, 4)


def test_poincare_coeffs_exponential():
    # e^z linearizes z^2 at 1: psi_n = 1/n!, also at the benchmark's order 128
    for order in (20, 128):
        s = poincare_coeffs(parse_map("z^2"), 1.0, order)
        expect = np.array([1.0 / math.factorial(n) for n in range(1, order + 1)])
        np.testing.assert_allclose(s.coeffs, expect, atol=1e-10)
        np.testing.assert_allclose(s.coeffs, expect, rtol=1e-13, atol=0.0)
        assert s.coeffs[0] == 1.0


def test_poincare_coeffs_cosh_family():
    # 2 cosh(sqrt(2 z)) linearizes 2z^2 - 1 at 1 once DPsi(0) = 1
    s = poincare_coeffs(parse_map("2*z^2-1"), 1.0, 20)
    expect = np.array([2.0**n / math.factorial(2 * n) for n in range(1, 21)])
    np.testing.assert_allclose(s.coeffs, expect, atol=1e-10)


def test_poincare_requires_repelling():
    with pytest.raises(NotRepelling):
        poincare_coeffs(parse_map("z^2"), 0.0, 8)


def test_functional_equation_residual_invariant():
    for expr, p in (("z^2", 1.0), ("2*z^2-1", 1.0), ("z^2-2", -1.0)):
        f = parse_map(expr)
        s = poincare_coeffs(f, p, 64)
        assert functional_equation_residual(s, f, samples=100) < 1e-8


@pytest.mark.parametrize("key", ["lattes", "EX1(0.6)"])
def test_functional_equation_residual_keeps_lambda_z_inside_the_radius(key):
    # |lambda| = 4 at the Lattes map's infinity and 10.37 at EX1(0.6)'s
    # repelling fixed point: on the circle r/4, lambda z reaches or passes
    # the radius estimate r, and the residual read 0.131 and 1.4e26
    if key == "lattes":
        f, p = lattes_doubling_map(), INF
    else:
        f, p = build_example("EX1", c=0.6).map, (1.0 - math.sqrt(7.4)) / 0.8
    s = poincare_coeffs(f, p, 64)
    assert abs(s.multiplier) >= 4.0
    assert functional_equation_residual(s, f) < 1e-12
    assert functional_equation_residual(s, f, radius=s.conv_radius_estimate / 4.0) > 0.1


def test_poincare_eval_exponential_values():
    f = parse_map("z^2")
    s = poincare_coeffs(f, 1.0, 64)
    v = poincare_eval(s, f, math.log(2))
    assert v.value == pytest.approx(2.0, abs=1e-9)
    v2 = poincare_eval(s, f, 1j * math.pi)
    assert v2.value == pytest.approx(-1.0, abs=1e-9)
    assert poincare_eval(s, f, 0.0).value == pytest.approx(1.0, abs=0.0)


def test_poincare_eval_matches_pushforward():
    f = parse_map("z^2-2")
    s = poincare_coeffs(f, -1.0, 64)
    lam = s.multiplier
    rng = np.random.default_rng(4)
    for _ in range(20):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        base = poincare_eval(s, f, z)
        for m in range(1, 6):
            stepped = poincare_eval(s, f, z * lam ** (-m))
            for _ in range(m):
                stepped = f(stepped)
            if base.infinite or stepped.infinite:
                continue
            assert abs(base.value - stepped.value) < 1e-6 * (1 + abs(base.value))


def _ex1_at_repelling_fixed_point():
    f = build_example("EX1", c=0.6).map
    (p,) = [p for o in periodic_points(f, 1) for p in o.points if not p.infinite and p.re < 0]
    assert p.re == pytest.approx(-2.1504, abs=1e-4)
    return f, p


each_base_point = pytest.mark.parametrize(
    "case",
    [
        lambda: (parse_map("z^2"), 1.0),
        lambda: (parse_map("z^2-2"), -1.0),
        lambda: (lattes_doubling_map(), INF),
        _ex1_at_repelling_fixed_point,  # a rational map: orbits may pass its pole
    ],
    ids=["z^2 at 1", "z^2-2 at -1", "lattes at inf", "EX1(0.6) at -2.1504"],
)


def _convolution_coeffs(a, order):
    """psi_1..psi_order, re-convolving the powers of S for every n."""
    lam = a[0]
    psi = np.zeros(order + 1, dtype=complex)
    psi[1] = 1.0
    for n in range(2, order + 1):
        power = psi[: n + 1].copy()
        rhs = 0.0
        for k in range(2, n + 1):
            power = np.convolve(power, psi[: n + 1])[: n + 1]
            rhs += a[k - 1] * power[n]
        psi[n] = rhs / (lam**n - lam)
    return psi[1:]


@each_base_point
def test_poincare_coeffs_equal_the_convolution_recursion(case):
    f, p = case()
    s = poincare_coeffs(f, p, 40)
    g = f.reciprocal_chart() if s.chart_inverted else f
    a = local_taylor(g, 0.0 if s.chart_inverted else p, 40)
    # the same products, summed in the same order
    np.testing.assert_array_equal(s.coeffs, _convolution_coeffs(a, 40))


@each_base_point
def test_poincare_values_on_an_array_equal_pointwise_eval(case):
    f, p = case()
    s = poincare_coeffs(f, p, 64)
    rng = np.random.default_rng(17)
    z = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), 64) + 2j * math.pi * rng.random(64))
    values = poincare_values(s, f, z)
    assert values.shape == (64,)
    np.testing.assert_array_equal(values, sphere_array([poincare_eval(s, f, q) for q in z]))


def test_global_functional_equation_with_eval():
    f = parse_map("z^2")
    s = poincare_coeffs(f, 1.0, 64)
    rng = np.random.default_rng(9)
    for _ in range(100):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        lhs = poincare_eval(s, f, s.multiplier * z)
        rhs = f(poincare_eval(s, f, z))
        if lhs.infinite or rhs.infinite:
            continue
        assert abs(lhs.value - rhs.value) < 1e-6 * (1 + abs(lhs.value))


def test_valiron_order_exponential():
    f = parse_map("z^2")
    s = poincare_coeffs(f, 1.0, 64)
    rho_formula, rho_measured = valiron_order(s, f)
    assert rho_formula == pytest.approx(1.0)
    assert rho_measured == pytest.approx(1.0, abs=0.1)


def test_valiron_order_half():
    f = parse_map("2*z^2-1")
    s = poincare_coeffs(f, 1.0, 64)
    rho_formula, rho_measured = valiron_order(s, f)
    assert rho_formula == pytest.approx(0.5)
    assert rho_measured == pytest.approx(0.5, abs=0.1)


def test_valiron_formula_arithmetic():
    # formula-only check: multiplier = degree^2 gives order 1/2
    assert math.log(2) / math.log(4) == pytest.approx(0.5)


def test_nonvanishing_witness_squaring():
    f = parse_map("z^2")
    s = poincare_coeffs(f, 1.0, 64)
    rep = nonvanishing_witness(s, f, count=5)
    assert rep["passed"]
    assert rep["min_abs_dpsi"] > 1e-6
    # solutions of e^z = 1 are 2 pi i Z: every witness is a multiple of 2 pi i
    for re, im in rep["solutions"]:
        q = complex(re, im) / (2j * math.pi)
        assert abs(q - round(q.real)) < 1e-8


def test_nonvanishing_guards_postcritical_base():
    # 2 is the image of the critical value -2 of z^2 - 2; the Lattes map's
    # critical values are poles, so its critical orbits reach infinity
    # through a pole
    for f, p, order in ((parse_map("z^2-2"), 2.0, 32), (lattes_doubling_map(), INF, 16)):
        s = poincare_coeffs(f, p, order)
        with pytest.raises(BasePointPostcritical):
            nonvanishing_witness(s, f)
    assert s.multiplier == pytest.approx(4.0)  # the Lattes map at infinity


def test_nonvanishing_witness_chebyshev_like():
    f = parse_map("z^2-2")
    s = poincare_coeffs(f, -1.0, 64)
    rep = nonvanishing_witness(s, f, count=5)
    assert rep["passed"]


def test_periodic_shadow_witness_period8_squaring():
    f = parse_map("z^2")
    s = poincare_coeffs(f, 1.0, 64)
    rep = periodic_shadow_witness(s, f, 8)
    assert rep["found"]
    assert rep["distance"] <= rep["radius"]
    assert rep["stability"] == "repelling"


def test_periodic_shadow_witness_period6_chebyshev():
    f = parse_map("z^2-2")
    s = poincare_coeffs(f, -1.0, 64)
    rep = periodic_shadow_witness(s, f, 6)
    assert rep["found"]


def test_shadow_witness_low_period_typically_misses():
    f = parse_map("z^2")
    s = poincare_coeffs(f, 1.0, 64)
    rep = periodic_shadow_witness(s, f, 1)
    assert not rep["found"]


def test_poincare_at_infinity_base_point():
    # base point at infinity goes through the reciprocal chart
    lat = lattes_doubling_map()
    s = poincare_coeffs(lat, INF, 32)
    assert s.chart_inverted
    assert abs(s.multiplier - 4.0) < 1e-9
    assert poincare_eval(s, lat, 0.0).infinite


def test_radius_estimate_overflow_emits_no_runtime_warning():
    # the root test gives r = 1e6 here, and r ** 128 overflows: that mass is
    # too large, so the radius shrinks, without a warning
    s = poincare_coeffs(parse_map("z^2-2"), 2, 128)
    assert 0.0 < s.conv_radius_estimate < 1e6
