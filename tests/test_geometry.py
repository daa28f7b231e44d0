import numpy as np
import pytest

from circledyn import INF, Moebius, SpherePoint, parse_map
from circledyn.algebra import sphere_array
from circledyn.dynamics import julia_cloud
from circledyn.errors import DegeneratePoints
from circledyn.geometry import (
    REAL_LINE,
    UNIT_CIRCLE,
    GeneralizedCircle,
    _well_separated_triple,
    best_circle,
    circle_through_3,
    containment_residual,
    invariance_check,
    normalize_to_real_line,
    residuals,
)


def test_circle_through_unit_points():
    c = circle_through_3(1.0, 1j, -1.0)
    n = c.normalized()
    assert n.A == pytest.approx(1.0)
    assert abs(n.B) < 1e-12
    assert n.C == pytest.approx(-1.0)


def test_circle_through_0_1_inf_is_real_line():
    c = circle_through_3(0.0, 1.0, INF)
    assert c.is_line
    assert abs(c.normalized().B.real) < 1e-12


def test_circle_through_generic_points_residual():
    c = circle_through_3(0.0, 1 + 1j, 2.0)
    for p in (0.0, 1 + 1j, 2.0):
        assert containment_residual(c, [p]) < 1e-12


def test_circle_through_degenerate_points():
    with pytest.raises(DegeneratePoints):
        circle_through_3(1.0, 1.0 + 1e-12, 2.0)


def test_containment_residual_unit_circle():
    pts = [SpherePoint.of(np.exp(2j * np.pi * k / 100)) for k in range(100)]
    assert containment_residual(UNIT_CIRCLE, pts) < 1e-12


def test_containment_residual_dendrite():
    cloud = julia_cloud(parse_map("z^2+1"), 1200, seed=5)
    assert containment_residual(REAL_LINE, cloud) > 0.05


def test_containment_residual_ex1_line():
    cloud = julia_cloud(parse_map("(z^2-4)/(1+0.25*z)"), 1500, seed=5)
    assert containment_residual(REAL_LINE, cloud) < 1e-6


def test_best_circle_radius_two():
    pts = [SpherePoint.of(2.0 * np.exp(2j * np.pi * k / 64)) for k in range(64)]
    circ, res = best_circle(pts)
    assert res < 1e-10
    n = circ.normalized()
    # A|z|^2 + C = 0 on |z| = 2 means C/A = -4
    assert n.C / n.A == pytest.approx(-4.0, rel=1e-9)


def _noisy_unit_circle(noise):
    rng = np.random.default_rng(0)
    angles, radial = rng.random(200), rng.standard_normal(200)
    return [SpherePoint.of(np.exp(2j * np.pi * t) * (1.0 + noise * e)) for t, e in zip(angles, radial)]


def test_best_circle_prefers_the_anchors_on_a_rounding_level_tie():
    # the fit follows the 1e-14 noise and may score lower; below 1e-12 the
    # residuals tie, and the circle through the anchors wins
    anchors = [SpherePoint.of(np.exp(2j * np.pi * k / 3)) for k in range(3)]
    circ, res = best_circle(_noisy_unit_circle(1e-14), anchors=anchors)
    assert res < 1e-12
    assert circ == circle_through_3(*_well_separated_triple(anchors))


def test_best_circle_keeps_the_fit_when_the_anchors_are_off():
    anchors = [SpherePoint.of(np.exp(2j * np.pi * k / 3) * (1.0 + 1e-9 * k)) for k in range(3)]
    circ, res = best_circle(_noisy_unit_circle(1e-14), anchors=anchors)
    assert res < 1e-12
    assert circ != circle_through_3(*_well_separated_triple(anchors))


def test_best_circle_chebyshev_line():
    cloud = julia_cloud(parse_map("z^2-2"), 1500, seed=5)
    circ, res = best_circle(cloud)
    assert res < 1e-6
    assert circ.normalized().is_line


def test_best_circle_rejects_dendrite():
    cloud = julia_cloud(parse_map("z^2+1"), 1200, seed=5)
    _, res = best_circle(cloud)
    assert res > 1e-4


def test_best_circle_equivariance_verdict():
    cloud = julia_cloud(parse_map("z^2"), 1000, seed=5)
    _, res = best_circle(cloud)
    m = Moebius(1.0, 0.5 - 0.25j, 0.1j, 1.2)
    moved = [m(p) for p in cloud]
    _, res2 = best_circle(moved)
    assert (res <= 1e-4) == (res2 <= 1e-4)
    cloud2 = julia_cloud(parse_map("z^2+1"), 1000, seed=5)
    _, res3 = best_circle([m(p) for p in cloud2])
    assert res3 > 1e-4


def test_invariance_squaring_unit_circle():
    rep = invariance_check(parse_map("z^2"), UNIT_CIRCLE)
    assert rep["forward_residual"] < 1e-9
    assert rep["completely_invariant"]


def test_invariance_ex1_quarter():
    rep = invariance_check(parse_map("(z^2-4)/(1+0.25*z)"), REAL_LINE)
    assert rep["forward_residual"] < 1e-9
    assert not rep["completely_invariant"]


def test_invariance_ex1_blaschke():
    rep = invariance_check(parse_map("(z^2-4)/(1+0.6*z)"), REAL_LINE)
    assert rep["forward_residual"] < 1e-9
    assert rep["completely_invariant"]


def test_normalize_real_line_is_identity():
    m = normalize_to_real_line(REAL_LINE)
    assert (m.a, m.b, m.c, m.d) == (1.0, 0.0, 0.0, 1.0)


def test_normalize_unit_circle():
    m = normalize_to_real_line(UNIT_CIRCLE)
    for k in range(20):
        z = np.exp(2j * np.pi * (k + 0.3) / 20)
        img = m(z)
        assert img.infinite or abs(img.value.imag) < 1e-9


def test_normalize_shifted_circle():
    circ = circle_through_3(-1.0, 1.0 + 2.0j, 3.0)  # |z - 1| = 2
    m = normalize_to_real_line(circ)
    for k in range(20):
        z = 1.0 + 2.0 * np.exp(2j * np.pi * (k + 0.3) / 20)
        img = m(z)
        assert img.infinite or abs(img.value.imag) < 1e-9


def test_three_point_normalization_maps_triple_exactly():
    circ = UNIT_CIRCLE
    m = normalize_to_real_line(circ)
    # the defining triple lands exactly on {0, 1, inf}
    targets = []
    for p in circ.sample_points(7):
        img = m(p)
        if img.infinite:
            targets.append("inf")
        elif abs(img.value) < 1e-12:
            targets.append("0")
        elif abs(img.value - 1.0) < 1e-12:
            targets.append("1")
    assert {"0", "1", "inf"} <= set(targets)


SHIFTED_CIRCLE = GeneralizedCircle(1.0, complex(-1.0, 0.5), 0.25)


@pytest.mark.parametrize(
    "circle", [REAL_LINE, UNIT_CIRCLE, SHIFTED_CIRCLE], ids=["line", "unit", "shifted"]
)
@pytest.mark.parametrize(
    "p",
    # infinity, the center of the unit circle, |z| < 1, |z| = 1, |z| > 1
    [INF, 0.0, 0.3 + 0.2j, np.exp(0.4j), 3.0 - 2.0j, -1.5 + 0.5j],
    ids=repr,
)
def test_point_residual_is_one_point_containment(circle, p):
    # a point's residual within a whole sphere array is the containment
    # residual of that one point, given as a SpherePoint or as an array
    z = sphere_array([INF, 0.0, p, 3.0 - 2.0j])
    want = residuals(circle, z)[2]
    assert containment_residual(circle, [SpherePoint.of(p)]) == want
    assert containment_residual(circle, z[2:3]) == want
