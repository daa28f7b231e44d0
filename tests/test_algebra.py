import cmath
import decimal
import math
import random
import warnings

import numpy as np
import pytest

from circledyn import (
    INF,
    Moebius,
    Poly,
    RationalMap,
    SpherePoint,
    conjugate,
    critical_points,
    even_part_lift,
    format_map,
    parse_map,
)
from circledyn.algebra import (
    chart_split,
    chordal_distance,
    chordal_distances,
    deriv_coeffs,
    finite_poles,
    horner_rows,
    image_array,
    invert_point,
    memoized,
    pad_coeffs,
    polyval,
    sphere_array,
)
from circledyn.classifier import lattes_doubling_map
from circledyn.dynamics import periodic_points
from circledyn.errors import (
    CircledynError,
    DegreeCapExceeded,
    MapSyntaxError,
    NotOdd,
    RootFindingFailed,
)


def test_eval_monomial():
    f = parse_map("z^2")
    assert f(3.0).value == pytest.approx(9.0)


def test_eval_infinity_fixed_for_ex1():
    f = parse_map("(z^2-4)/(1+0.25*z)")
    assert f(INF).infinite


def test_eval_pole_goes_to_infinity():
    f = parse_map("(z^2-4)/(1+0.25*z)")
    assert f(-4.0).infinite


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


def test_parse_deflates_common_factors():
    f = parse_map("(z^2-1)/(z-1)")
    assert f.degree == 1
    np.testing.assert_allclose(f.num.coeffs, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(f.den.coeffs, [1.0], atol=1e-12)
    g = parse_map("z*(z-2)/(z*(z+3))")
    np.testing.assert_allclose(g.num.coeffs, [-2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(g.den.coeffs, [3.0, 1.0], atol=1e-12)


def test_parse_degree_cap():
    assert parse_map("(z^64)^64").degree == 4096
    with pytest.raises(DegreeCapExceeded):
        parse_map("(z^64)^65")


def test_parse_error_offset():
    with pytest.raises(MapSyntaxError) as err:
        parse_map("z^2 + $")
    assert err.value.offset == 6


def test_parse_exponent_cap():
    # an exponent above the cap fails before it multiplies, whatever the base
    for text in ("1^4097", "z^4097", "2^1000000", "z^" + "9" * 5000):
        with pytest.raises(DegreeCapExceeded):
            parse_map(text)


def test_parse_refuses_coefficients_that_are_not_finite():
    # an overflow is refused wherever it happens, not read as a dropped term
    for text in ("1e400*z^2", "z^2+1e308*1e308", "(1e300*z)^2", "2^2000*z^2", "1e200*z^2/(1e-200)", "1e308+1e308"):
        with pytest.raises(CircledynError, match="a polynomial coefficient is not finite"):
            parse_map(text)


@pytest.mark.parametrize("base", ["z^2-2", "(z^2-4)/(1+0.25*z)", "(2*z^2+1)/(3*z^2+z)", "(z-1)/(z+2)"])
def test_parse_power_equals_the_product_chain_bit_for_bit(base):
    # a power of a reduced map is reduced, so it is not reduced again
    for k in range(1, 7):
        f = parse_map(f"({base})^{k}")
        g = parse_map("*".join([f"({base})"] * k))
        assert f.num.coeffs.tobytes() == g.num.coeffs.tobytes()
        assert f.den.coeffs.tobytes() == g.den.coeffs.tobytes()


def map_fuzz_corpus(count, seed=1):
    """count seeded random strings of map-expression atoms and operators,
    well formed or not, with overflowing, superscript and Arabic-Indic digits."""
    atoms = ["z", "2", "0.5", ".25", "1.", "3e2", "1.5E-3", "7", "1e400", ".", "e", "1e+", "²", "٣"]
    atoms += [" ", " ", "\t", "$", "1e5e3", "10", "0.1", "1.1"]
    ops = ["+", "-", "*", "/", "^", "(", ")", "^2", "^3", "^ 2", "^-1", "^z", "^1.5", "^٣", "^12"]
    rng = random.Random(seed)
    return [
        "".join(rng.choice(atoms if rng.random() < 0.55 else ops) for _ in range(rng.randint(1, 7)))
        for _ in range(count)
    ]


def test_parse_fuzz_ends_in_a_map_or_a_package_error():
    parsed = 0
    for text in map_fuzz_corpus(2000):
        try:
            assert isinstance(parse_map(text), RationalMap)
            parsed += 1
        except CircledynError:
            pass
    assert parsed > 0


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
    degrees = [5] * 5 + [d for d in (6, 12, 20, 30, 40) for _ in range(10)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for deg in degrees:
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            p = Poly(coeffs)
            rs = all_roots(p, 1e-12)
            assert sum(rs.multiplicities) == p.degree
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


def test_chordal_distances_broadcast_equal_scalar_bit_for_bit():
    zs = sphere_array(SPHERE_SAMPLES)
    got = chordal_distances(zs[:, None], zs[None, :])
    scalar = [[chordal_distance(p, q) for q in SPHERE_SAMPLES] for p in SPHERE_SAMPLES]
    assert np.array_equal(got, np.array(scalar))


@pytest.mark.parametrize(
    "a, b, want",
    [
        # a lift 1 + |z|^2 overflows
        (1e300, 0.5, 2.0 / math.sqrt(1.25)),
        (1e200, 1e-200, 2.0),
        (1e300j, -1e300, 2.0 * math.sqrt(2.0) * 1e-300),
        (1e308, -1e308, 4e-308),
        (1e300, 1e300, 0.0),
        (INF, 1e300, 2e-300),
        # both lifts are finite, their product is not
        (1e154, 10.0, 2.0 / math.sqrt(101.0)),
        (1e90, 1e90j, 2.0 * math.sqrt(2.0) * 1e-90),
    ],
)
def test_chordal_distance_reads_overflowing_lifts_in_the_charts(a, b, want):
    assert chordal_distance(a, b) == pytest.approx(want, rel=1e-15, abs=0.0)
    for p, q in ((a, b), (b, a)):
        got = chordal_distances(p, sphere_array([q]))
        assert np.array_equal(got, [chordal_distance(p, q)])


def _decimal_chordal(a, b) -> float:
    """The chordal distance of two finite points in 60-digit decimals, where
    no lift overflows."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = [decimal.Decimal(v) for v in (a.real, a.imag, b.real, b.imag)]
        gap = ((x[0] - x[2]) ** 2 + (x[1] - x[3]) ** 2).sqrt()
        lifts = (1 + x[0] ** 2 + x[1] ** 2) * (1 + x[2] ** 2 + x[3] ** 2)
        return float(2 * gap / lifts.sqrt())


def test_chordal_distances_with_overflowing_lifts_match_a_decimal_reference():
    points = [0.0, 1.0, -2.5 + 1.25j, 1e8, 1e-200, 1e77, 1e90j, 1e154, 1e200 + 1e200j, -1e300j, 1e300, -1e308]
    zs = sphere_array(points)
    got = chordal_distances(zs[:, None], zs[None, :])
    want = np.array([[_decimal_chordal(a, b) for b in points] for a in points])
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    scalar = [[chordal_distance(p, q) for q in points] for p in points]
    assert np.array_equal(got, np.array(scalar))


@pytest.mark.parametrize(
    "f",
    [parse_map("1/z^2"), parse_map("z^3-3*z"), lattes_doubling_map(), parse_map("(2*z^2+1)/(3*z^2+z)")],
    ids=["1/z^2", "z^3-3z", "lattes", "(2z^2+1)/(3z^2+z)"],
)
def test_image_array_matches_the_map_at_infinity_poles_and_both_charts(f):
    zs = np.concatenate([sphere_array(SPHERE_SAMPLES), finite_poles(f)])
    got = image_array(f, zs)
    for z, w in zip(zs, got):
        want = f(SpherePoint.of(z))
        assert np.isfinite(w) != want.infinite
        if not want.infinite:
            assert abs(w - want.value) <= 1e-13 * max(1.0, abs(want.value))


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


# f(infinity) as (re.hex(), im.hex(), infinite), before the chart was memoized
VALUES_AT_INFINITY = [
    (parse_map("z^3-3*z"), ("0x0.0p+0", "0x0.0p+0", True)),
    (parse_map("1/z^2"), ("0x0.0p+0", "0x0.0p+0", False)),
    (lattes_doubling_map(), ("0x0.0p+0", "0x0.0p+0", True)),
    (parse_map("(2*z^2+1)/(3*z^2+z)"), ("0x1.5555555555555p-1", "0x0.0p+0", False)),
]


@pytest.mark.parametrize("f, want", VALUES_AT_INFINITY, ids=lambda v: str(v)[:20])
def test_reciprocal_chart_is_built_once_and_values_at_infinity_stay(f, want):
    assert f.reciprocal_chart() is f.reciprocal_chart()
    for _ in range(2):
        p = f(INF)
        assert (p.re.hex(), p.im.hex(), p.infinite) == want


def test_memo_hands_out_fresh_critical_point_lists():
    f = parse_map("z^3-3*z")
    first = critical_points(f)
    want = list(first)
    first.clear()
    assert critical_points(f) == want


def test_memo_remembers_failures_and_refuses_reentrant_requests():
    f = parse_map("z^2")
    calls = []

    def compute():
        calls.append(1)
        return memoized(f, "value", compute)

    for _ in range(2):
        with pytest.raises(RootFindingFailed, match="value requested while being computed"):
            memoized(f, "value", compute)
    assert len(calls) == 1

    def interrupted():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        memoized(f, "other", interrupted)
    assert memoized(f, "other", lambda: 7) == 7


@pytest.mark.parametrize("m", [1, 7, 64, 4096])
@pytest.mark.parametrize("name", ["z^2-2", "conjugate", "lattes"])
def test_horner_rows_equal_polyval_row_by_row(name, m):
    # numerator, denominator and their derivatives, padded to one width; a
    # pole (where there is one) and infinity lead the points
    base = parse_map("z^2-2")
    f = {
        "z^2-2": base,
        "conjugate": conjugate(base, Moebius(0.3 - 0.7j, 0.3 - 0.2j, 0.03 - 0.5j, 0.5 + 0.6j)),
        "lattes": lattes_doubling_map(),
    }[name]
    coeffs = [f.num.coeffs, f.den.coeffs, deriv_coeffs(f.num.coeffs), deriv_coeffs(f.den.coeffs)]
    width = max(map(len, coeffs))
    rng = np.random.default_rng(m)
    z = (rng.normal(size=m) + 1j * rng.normal(size=m)) * np.exp(2.0 * rng.normal(size=m))
    special = [*finite_poles(f)[:1], complex(math.inf, 0.0)]
    z[: len(special)] = special[:m]
    with np.errstate(invalid="ignore", over="ignore"):
        got = horner_rows(np.array([pad_coeffs(c, width) for c in coeffs]), z)
        wants = [polyval(c, z) for c in coeffs]
    assert got.shape == (4, m)
    for row, want in zip(got, wants):
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(row), nan) and np.array_equal(np.isinf(row), np.isinf(want))
        assert np.array_equal(row[~nan].view(np.uint64), want[~nan].view(np.uint64))
