"""Generalized circles (circles and lines on the sphere): fitting, residuals,
invariance under a map, normalization to the extended real line, and the
exact rule for a map real there: its real critical points and signed degree.

A generalized circle is the zero set of the Hermitian form
A |z|^2 + 2 Re(conj(B) z) + C with A, C real and |B|^2 - A C > 0.
Under the chart w = 1/z the form becomes C |w|^2 + 2 Re(B w) + A, which is
what makes the residuals chart-robust near infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    COEFF_DROP_TOL,
    Moebius,
    RationalMap,
    SpherePoint,
    _modulus,
    chart_rows,
    chart_split,
    chordal_distances,
    conjugate,
    critical_points,
    finite_poles,
    image_array,
    sphere_array,
)
from .dynamics import _preimage_rows
from .errors import DegenerateCloud, DegeneratePoints

CIRCLE_ACCEPT_RESIDUAL = 1e-4
# a circle is a line when infinity lies within this residual of it, which
# is |A| / (2 |B|): a fitted line keeps an A of fit-noise size
LINE_TOL = 1e-9
# a root is real when its imaginary part is below this, relative to 1 + |re|
REAL_ROOT_TOL = 1e-7
# circle samples behind the reported invariance residuals
FORWARD_SAMPLES = 256
PREIMAGE_SAMPLES = 64
# candidate regular values for the signed degree, spread evenly on R-hat
DEGREE_PROBES = tuple(math.tan(math.pi * ((k + 0.5) / 9 - 0.5)) for k in range(9))


@dataclass(frozen=True)
class GeneralizedCircle:
    A: float
    B: complex
    C: float

    def __post_init__(self):
        if abs(complex(self.B)) ** 2 - self.A * self.C <= 0:
            raise DegeneratePoints("degenerate Hermitian form (empty or point circle)")

    @property
    def is_line(self) -> bool:
        return abs(self.A) <= 2.0 * LINE_TOL * abs(complex(self.B))

    def normalized(self) -> "GeneralizedCircle":
        scale = max(abs(self.A), abs(self.B), abs(self.C))
        a, b, c = self.A / scale, self.B / scale, self.C / scale
        # flush rounding-level components so lines and axis-aligned circles
        # come out exactly
        a = 0.0 if abs(a) < 1e-14 else a
        c = 0.0 if abs(c) < 1e-14 else c
        br = 0.0 if abs(b.real) < 1e-14 else b.real
        bi = 0.0 if abs(b.imag) < 1e-14 else b.imag
        b = complex(br, bi)
        for lead in (a, b.real, b.imag, c):
            if abs(lead) > 1e-14:
                if lead < 0:
                    a, b, c = -a, -b, -c
                break
        return GeneralizedCircle(a, b, c)

    def line_frame(self):
        """Base point and unit direction of a line: base + t direction, t real."""
        b = self.B
        return -self.C * b / (2.0 * abs(b) ** 2), 1j * b / abs(b)

    def sample_points(self, count: int) -> np.ndarray:
        """Deterministic points on the circle as a sphere array, sphere-spread
        for lines (whose last point is infinity)."""
        if self.is_line:
            base, direction = self.line_frame()
            ts = np.tan(np.pi * ((np.arange(count - 1) + 0.5) / (count - 1) - 0.5))
            return np.append(base + direction * ts, complex(math.inf, 0.0))
        center = -self.B / self.A
        radius = math.sqrt(abs(self.B) ** 2 - self.A * self.C) / abs(self.A)
        angles = 2.0 * np.pi * (np.arange(count) + 0.25) / count
        return center + radius * np.exp(1j * angles)


def circle_through_3(p1, p2, p3) -> GeneralizedCircle:
    """The unique generalized circle through three distinct sphere points."""
    z = sphere_array([p1, p2, p3])
    if np.min(chordal_distances(z[[0, 0, 1]], z[[1, 2, 2]])) <= 1e-9:
        raise DegeneratePoints("circle through nearly coincident points")
    _, _, vh = np.linalg.svd(_design_rows(z))
    a, bx, by, c = vh[-1]
    circ = GeneralizedCircle(float(a), complex(bx, by), float(c)).normalized()
    worst = float(np.max(residuals(circ, z)))
    if worst > 1e-12:
        raise DegeneratePoints(f"three-point circle residual {worst:.2e}")
    return circ


def _design_rows(z) -> np.ndarray:
    # rows of [|z|^2, 2 Re z, 2 Im z, 1] scaled by 1/(1+|z|^2): bounded on the
    # sphere, with infinity mapping to [1, 0, 0, 0]; np.float_power and
    # np.hypot round as the scalar abs(z) ** 2
    with np.errstate(invalid="ignore", over="ignore"):
        s = np.float_power(_modulus(z), 2)
        w = 1.0 / (1.0 + s)
        rows = np.stack([s * w, 2.0 * z.real * w, 2.0 * z.imag * w, w], axis=-1)
    rows[~np.isfinite(s)] = [1.0, 0.0, 0.0, 0.0]
    return rows


def residuals(circle: GeneralizedCircle, z) -> np.ndarray:
    """Gradient-normalized algebraic distances of sphere points (a complex
    array, non-finite entries at infinity) to the circle.

    Each point is read in its chart (`chart_split`), where it is tame; in
    the chart w = 1/z the form has coefficients (C, conj B, A).  Real
    arithmetic throughout, with np.float_power and np.hypot rounding as
    Python's scalar x ** 2 and abs, so a point's residual does not depend
    on the array it comes in."""
    inverted, w = chart_split(z)
    a = np.where(inverted, circle.C, circle.A)
    c = np.where(inverted, circle.A, circle.C)
    br = circle.B.real
    bi = np.where(inverted, -circle.B.imag, circle.B.imag)
    x, y = w.real, w.imag
    q = a * (np.float_power(x, 2) + np.float_power(y, 2)) + 2.0 * (br * x + bi * y) + c
    grad = 2.0 * np.hypot(a * x + br, a * y + bi)
    return np.abs(q) / np.maximum(grad, 1e-12)


def containment_residual(circle: GeneralizedCircle, cloud) -> float:
    """Maximum chart-robust residual of the cloud against the circle."""
    z = sphere_array(cloud)
    if not len(z):
        raise ValueError("empty cloud")
    return float(np.max(residuals(circle, z)))


def best_circle(cloud, anchors=None):
    """Least-squares Hermitian-form fit; optional anchor points (taken to lie
    on the locus exactly) seed a three-point candidate that competes with
    the global fit.  Returns (circle, residual over the cloud)."""
    z = sphere_array(cloud)
    if len(z) < 3:
        raise DegenerateCloud("need at least 3 points to fit a circle")
    _, _, vh = np.linalg.svd(_design_rows(z), full_matrices=False)
    candidates = []
    a, bx, by, c = vh[-1]
    try:
        candidates.append(
            GeneralizedCircle(float(a), complex(bx, by), float(c)).normalized()
        )
    except DegeneratePoints:
        pass
    seed_pts = sphere_array([] if anchors is None else anchors)
    anchored = len(seed_pts) >= 3
    triple = _well_separated_triple(seed_pts if anchored else z)
    if triple is not None:
        try:
            candidates.append(circle_through_3(*triple))
        except DegeneratePoints:
            pass
    if not candidates:
        raise DegenerateCloud("cloud does not determine a circle")
    scored = [(containment_residual(circ, z), k, circ) for k, circ in enumerate(candidates)]
    # residuals below 1e-12 tie: then the circle through the anchors (solved
    # points of J) beats the fit, so rounding noise in the sampled cloud
    # never chooses the circle
    preferred = len(candidates) - 1 if anchored else 0
    scored.sort(key=lambda t: (max(t[0], 1e-12), t[1] != preferred))
    best_res, _, best = scored[0]
    return best, best_res


def _well_separated_triple(points):
    """Three of the sphere points: the first, the one farthest from it, and
    the one farthest from both (first maxima win), or None when two of them
    lie within 1e-9."""
    z = sphere_array(points)
    if len(z) < 3:
        return None
    to_first = chordal_distances(z[:1], z)
    second = int(np.argmax(to_first))
    to_second = chordal_distances(z[second : second + 1], z)
    third = int(np.argmax(np.minimum(to_first, to_second)))
    if min(to_first[second], to_first[third], to_second[third]) <= 1e-9:
        return None
    return z[0], z[second], z[third]


def invariance_check(f: RationalMap, circle: GeneralizedCircle, g: RationalMap = None) -> dict:
    """Complete invariance of the circle under f, decided by the signed degree
    of g, f normalized to the real line (by default through seven samples of
    the circle, `normalize_to_real_line`).  The residuals of mapped circle
    samples and of the preimages of circle samples are evidence only."""
    images = image_array(f, circle.sample_points(FORWARD_SAMPLES))
    fwd_res = float(np.max(residuals(circle, images)))
    pre = _preimage_rows(f, circle.sample_points(PREIMAGE_SAMPLES))
    pre_res = float(np.max(residuals(circle, pre.reshape(-1))))
    if g is None:
        g = conjugate(f, normalize_to_real_line(circle))
    degree = real_line_degree(g)
    return {
        "forward_residual": fwd_res,
        "preimage_residual": pre_res,
        "real_line_degree": degree,
        "completely_invariant": abs(degree) == f.degree,
    }


def is_real(z) -> bool:
    return abs(z.imag) <= REAL_ROOT_TOL * (1.0 + abs(z.real))


def real_critical_points(g: RationalMap) -> list:
    """The critical points of g on the extended real line, for g real there:
    ascending, with multiplicity, infinity last as math.inf."""
    return [
        math.inf if p.infinite else p.re
        for p in critical_points(g)
        if p.infinite or is_real(p.value)
    ]


def real_poles(g: RationalMap) -> list:
    """The finite real poles of g, without multiplicity."""
    return [z.real for z in finite_poles(g) if is_real(z)]


def real_line_degree(g: RationalMap) -> int:
    """The signed degree of g on the extended real line, for g real there:
    the sum of sign g' over the real preimages of one regular real value,
    infinity read in the orientation-preserving chart x -> -1/x.  The line is
    completely invariant exactly when it is +-deg g; a negative degree means
    g swaps the half-planes.  Only the real parts of g's coefficients are
    read, so the rounding-level imaginary parts of a conjugate do not matter."""
    crit_values = sphere_array([g(p) for p in critical_points(g)])
    y = max(DEGREE_PROBES, key=lambda t: np.min(chordal_distances(t, crit_values), initial=2.0))
    num, den = chart_rows(g)[0, :2].real
    p = (num - y * den)[::-1]
    degree = 0
    if abs(p[0]) <= COEFF_DROP_TOL * np.max(np.abs(p)):
        # y = g(infinity): there g - y ~ c / x with c = p_{d-1} / den_d
        degree -= int(np.sign(p[1] * den[-1]))
        p = p[1:]
    # y is regular, so its preimages are simple; a real root of a real
    # companion matrix has imaginary part exactly 0, and a near-double real
    # pair split into a complex one would add +1 - 1 = 0 anyway
    roots = np.roots(p)
    xs = roots.real[roots.imag == 0]
    slope = np.polyval(np.polyder(p), xs) * np.polyval(den[::-1], xs)
    degree += int(np.sum(np.sign(slope)))
    return degree


def normalize_to_real_line(circle: GeneralizedCircle, points=None) -> Moebius:
    """A Moebius map sending the circle onto the extended real line, built
    from `points` on it (by default, seven samples of the circle).

    The points must hold a well-separated triple.  When every point is real
    or infinite, the circle is the real line and the map is the identity, so
    interval data stays in the natural coordinates.  Otherwise it is the
    cross-ratio map sending the triple to 0, 1 and infinity; it must send
    every point to the real line within 1e-9."""
    z = sphere_array(circle.sample_points(7) if points is None else points)
    triple = _well_separated_triple(z)
    if triple is None:
        raise DegeneratePoints("could not pick three separated circle points")
    if np.all(~np.isfinite(z) | is_real(z)):
        return Moebius.identity()
    m = _moebius_to_0_1_inf(*map(SpherePoint.of, triple))
    worst = float(np.max(residuals(REAL_LINE, sphere_array([m(p) for p in z]))))
    if worst > 1e-9:
        raise DegeneratePoints(f"normalization residual {worst:.2e}")
    return m


def _moebius_to_0_1_inf(p1, p2, p3) -> Moebius:
    """Cross-ratio Moebius with m(p1) = 0, m(p2) = 1, m(p3) = infinity."""
    if p1.infinite:
        z2, z3 = p2.value, p3.value
        return Moebius(0.0, z2 - z3, 1.0, -z3)
    if p2.infinite:
        z1, z3 = p1.value, p3.value
        return Moebius(1.0, -z1, 1.0, -z3)
    if p3.infinite:
        z1, z2 = p1.value, p2.value
        return Moebius(1.0 / (z2 - z1), -z1 / (z2 - z1), 0.0, 1.0)
    z1, z2, z3 = p1.value, p2.value, p3.value
    return Moebius(z2 - z3, -z1 * (z2 - z3), z2 - z1, -z3 * (z2 - z1))


REAL_LINE = GeneralizedCircle(0.0, complex(0.0, 0.5), 0.0)
UNIT_CIRCLE = GeneralizedCircle(1.0, 0.0 + 0.0j, -1.0)
