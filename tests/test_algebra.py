import cmath
import math

import numpy as np
import pytest

from circledyn import (
    INF,
    Moebius,
    Poly,
    SpherePoint,
    compose,
    conjugate,
    critical_points,
    derivative,
    even_part_lift,
    format_map,
    parse_map,
)
from circledyn.algebra import (
    chart_split,
    chordal_distance,
    chordal_distances,
    invert_point,
    sphere_array,
)
from circledyn.dynamics import periodic_points
from circledyn.errors import DegreeCapExceeded, MapSyntaxError, NotOdd


def test_eval_monomial():
    f = parse_map("z^2")
    assert f(3.0).value == pytest.approx(9.0)


def test_eval_infinity_fixed_for_ex1():
    f = parse_map("(z^2-4)/(1+0.25*z)")
    assert f(INF).infinite


def test_eval_pole_goes_to_infinity():
    f = parse_map("(z^2-4)/(1+0.25*z)")
    assert f(-4.0).infinite


def test_derivative_monomial():
    f = parse_map("z^2")
    g = derivative(f)
    for z in (0.3, 1.7 - 0.2j, -2.0):
        assert g(z).value == pytest.approx(2 * z)


def test_derivative_ex1_closed_form():
    c = 0.25
    f = parse_map("(z^2-4)/(1+0.25*z)")
    g = derivative(f)
    for z in (0.0, 1.5, -2.0 + 1.0j):
        expected = (c * z * z + 2 * z + 4 * c) / (1 + c * z) ** 2
        assert g(z).value == pytest.approx(expected, rel=1e-12)


def test_derivative_of_constant_is_zero():
    f = parse_map("3.5")
    g = derivative(f)
    assert g.num.is_zero


def test_compose_monomials():
    f = parse_map("z^2")
    h = compose(f, f)
    assert h.degree == 4
    assert h(1.3).value == pytest.approx(1.3**4)


def test_compose_chebyshev_t4():
    t2 = parse_map("2*z^2-1")
    t4 = compose(t2, t2)
    expect = np.array([1.0, 0.0, -8.0, 0.0, 8.0])
    np.testing.assert_allclose(t4.num.coeffs.real, expect, atol=1e-12)
    assert t4.den.degree == 0


def test_compose_degree_cap():
    f = parse_map("z^3+z")
    with pytest.raises(DegreeCapExceeded):
        compose(f, f, cap=8)


def test_compose_degree_law():
    f = parse_map("(z^2-4)/(1+0.25*z)")
    g = parse_map("(z^3-z+1)/(z-3)")
    assert compose(f, g).degree == f.degree * g.degree


def test_conjugate_identity():
    f = parse_map("z^2")
    g = conjugate(f, Moebius.identity())
    np.testing.assert_allclose(g.num.coeffs, f.num.coeffs, atol=1e-12)


def test_conjugate_affine_moves_interval():
    # z^2 - 2 has Julia hull [-2, 2]; m(z) = (z + 2)/4 moves it to [0, 1]
    f = parse_map("z^2-2")
    m = Moebius(0.25, 0.5, 0.0, 1.0)
    g = conjugate(f, m)
    # endpoints of the moved interval are the images of the old invariant pair
    img0 = g(0.0).value  # image of old a = -2 behaviour: g(0) = m(f(-2)) = m(2) = 1
    assert img0 == pytest.approx(1.0, abs=1e-12)
    assert g(1.0).value == pytest.approx(1.0, abs=1e-12)


def test_conjugation_preserves_multipliers():
    f = parse_map("z^2-2")
    rng = np.random.default_rng(5)
    base = {o.points[0].sort_key(): o.multiplier for o in periodic_points(f, 2)}
    for _ in range(4):
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        try:
            m = Moebius(a, b, c, d)
        except ValueError:
            continue
        g = conjugate(f, m)
        mult = sorted(
            (o.multiplier for o in periodic_points(g, 2)),
            key=lambda v: (v.real, v.imag),
        )
        expect = sorted(base.values(), key=lambda v: (v.real, v.imag))
        for got, want in zip(mult, expect):
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_critical_points_monomial():
    f = parse_map("z^2")
    pts = critical_points(f)
    keys = sorted(p.sort_key() for p in pts)
    assert keys[0] == (0.0, 0.0)
    assert pts[-1].infinite


def test_critical_points_ex1():
    f = parse_map("(z^2-4)/(1+0.25*z)")
    pts = critical_points(f)
    assert len(pts) == 2
    c = 0.25
    for p in pts:
        z = p.value
        assert abs(c * z * z + 2 * z + 4 * c) < 1e-9
        assert abs(p.im) < 1e-9


def test_critical_points_quadratic_plus_one():
    pts = critical_points(parse_map("z^2+1"))
    assert any(p.infinite for p in pts)
    assert any(not p.infinite and abs(p.value) < 1e-12 for p in pts)


def test_parse_examples():
    f = parse_map("(z^2-4)/(1+0.25*z)")
    assert f.degree == 2
    g = parse_map("((z-2)*(z+0.9)*(z-0.9))/((z-1)*(z+1))")
    assert g.degree == 3
    # spot value against direct arithmetic
    x = 0.3
    want = (x - 2) * (x + 0.9) * (x - 0.9) / ((x - 1) * (x + 1))
    assert g(x).value == pytest.approx(want, rel=1e-12)


def test_parse_error_offset():
    with pytest.raises(MapSyntaxError) as err:
        parse_map("z^2 + $")
    assert err.value.offset == 6


def test_parse_roundtrip_identity_on_coefficients():
    for text in ("z^2", "(z^2-4)/(1+0.25*z)", "((z-2)*(z+0.9)*(z-0.9))/((z-1)*(z+1))"):
        f = parse_map(text)
        g = parse_map(format_map(f))
        np.testing.assert_allclose(g.num.coeffs, f.num.coeffs, atol=1e-12)
        np.testing.assert_allclose(g.den.coeffs, f.den.coeffs, atol=1e-12)


def test_even_part_lift_identity():
    b = parse_map("z")
    f = even_part_lift(b)
    assert f.degree == 1
    assert f(0.7).value == pytest.approx(0.7)


def test_even_part_lift_cube():
    f = even_part_lift(parse_map("z^3"))
    assert f.degree == 3
    assert f(2.0).value == pytest.approx(8.0)


def test_even_part_lift_odd_rational():
    b = parse_map("(z^3-3*z)/(3*z^2-1)")
    f = even_part_lift(b)
    rng = np.random.default_rng(11)
    for theta in rng.uniform(0, 2 * math.pi, size=20):
        w = cmath.exp(1j * theta)
        lhs = f(w * w)
        rhs = b(w)
        assert not lhs.infinite and not rhs.infinite
        assert abs(lhs.value - rhs.value**2) < 1e-9


def test_even_part_lift_rejects_even_map():
    with pytest.raises(NotOdd):
        even_part_lift(parse_map("z^2"))


def test_moebius_degenerate_rejected():
    with pytest.raises(ValueError):
        Moebius(1.0, 2.0, 2.0, 4.0)


def test_poly_root_residual_invariant():
    from circledyn.roots import all_roots

    rng = np.random.default_rng(3)
    for _ in range(5):
        coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
        p = Poly(coeffs)
        rs = all_roots(p, 1e-12)
        scale = max(1.0, float(np.max(np.abs(p.coeffs))))
        for r in rs.roots:
            assert abs(p(r)) <= 1e-9 * scale * max(1.0, abs(r)) ** p.degree


# points that stress the chart rule: 0, infinity, the unit circle, and a
# modulus large enough that |z|^2 dominates every sum
SPHERE_SAMPLES = [
    0.0,
    INF,
    1.0,
    -1j,
    cmath.exp(0.7j),
    cmath.exp(-2.3j),
    0.3 - 0.4j,
    -2.5 + 1.25j,
    1e8,
    -1e8j,
]


@pytest.mark.parametrize("p", SPHERE_SAMPLES, ids=repr)
def test_chordal_distances_equal_scalar_bit_for_bit(p):
    rng = np.random.default_rng(11)
    extra = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 10.0 ** rng.integers(-4, 5, 64)
    others = SPHERE_SAMPLES + list(extra)
    zs = sphere_array(others)
    scalar = np.array([chordal_distance(p, q) for q in others])
    assert np.array_equal(chordal_distances(p, zs), scalar)


@pytest.mark.parametrize(
    "p, image",
    [(0.0, INF), (INF, 0.0), (2j, -0.5j), (3 + 4j, 1.0 / (3 + 4j)), (-1.0, -1.0)],
    ids=repr,
)
def test_invert_point_swaps_zero_and_infinity(p, image):
    assert invert_point(p) == SpherePoint.of(image)


def test_chart_split_reads_large_points_and_infinity_in_the_reciprocal_chart():
    zs = sphere_array(SPHERE_SAMPLES)
    inverted, w = chart_split(zs)
    for p, inv, wk in zip(SPHERE_SAMPLES, inverted, w):
        p = SpherePoint.of(p)
        assert inv == (p.infinite or abs(p.value) > 1.0)
        want = 0.0 if p.infinite else (1.0 / p.value if inv else p.value)
        # bit for bit the scalar complex division, which multipliers rely on
        assert repr(complex(wk)) == repr(complex(want))
