"""Generalized circles (circles and lines on the sphere): fitting, residuals,
invariance under a map, and normalization to the extended real line.

A generalized circle is the zero set of the Hermitian form
A |z|^2 + 2 Re(conj(B) z) + C with A, C real and |B|^2 - A C > 0.
Under the chart w = 1/z the form becomes C |w|^2 + 2 Re(B w) + A, which is
what makes the residuals chart-robust near infinity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    INF,
    Moebius,
    RationalMap,
    SpherePoint,
    chart_split,
    chordal_distance,
    sphere_array,
)
from .dynamics import preimage_points
from .errors import DegenerateCloud, DegeneratePoints

CIRCLE_ACCEPT_RESIDUAL = 1e-4


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
        return abs(self.A) < 1e-12

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

    def point_residual(self, p) -> float:
        """The residual of one sphere point (see `residuals`)."""
        return float(residuals(self, sphere_array([p]))[0])

    def line_frame(self):
        """Base point and unit direction of a line: base + t direction, t real."""
        b = self.B
        return -self.C * b / (2.0 * abs(b) ** 2), 1j * b / abs(b)

    def sample_points(self, count: int):
        """Deterministic points on the circle, sphere-spread for lines."""
        if self.is_line:
            base, direction = self.line_frame()
            ts = np.tan(np.pi * ((np.arange(count - 1) + 0.5) / (count - 1) - 0.5))
            pts = [SpherePoint.of(base + direction * t) for t in ts]
            pts.append(INF)
            return pts
        center = -self.B / self.A
        radius = math.sqrt(abs(self.B) ** 2 - self.A * self.C) / abs(self.A)
        angles = 2.0 * np.pi * (np.arange(count) + 0.25) / count
        return [SpherePoint.of(center + radius * cmath.exp(1j * t)) for t in angles]


def circle_through_3(p1, p2, p3) -> GeneralizedCircle:
    """The unique generalized circle through three distinct sphere points."""
    pts = [SpherePoint.of(p) for p in (p1, p2, p3)]
    for i in range(3):
        for j in range(i + 1, 3):
            if chordal_distance(pts[i], pts[j]) <= 1e-9:
                raise DegeneratePoints("circle through nearly coincident points")
    rows = []
    for p in pts:
        rows.append(_design_row(p))
    m = np.asarray(rows, dtype=float)
    _, _, vh = np.linalg.svd(m)
    a, bx, by, c = vh[-1]
    circ = GeneralizedCircle(float(a), complex(bx, by), float(c)).normalized()
    worst = float(np.max(residuals(circ, sphere_array(pts))))
    if worst > 1e-12:
        raise DegeneratePoints(f"three-point circle residual {worst:.2e}")
    return circ


def _design_row(p: SpherePoint):
    # row of [|z|^2, 2 Re z, 2 Im z, 1] scaled by 1/(1+|z|^2): bounded on the
    # sphere, with infinity mapping to [1, 0, 0, 0]
    if p.infinite:
        return [1.0, 0.0, 0.0, 0.0]
    z = p.value
    w = 1.0 / (1.0 + abs(z) ** 2)
    return [abs(z) ** 2 * w, 2.0 * z.real * w, 2.0 * z.imag * w, w]


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
    pts = list(cloud)
    if not pts:
        raise ValueError("empty cloud")
    return float(np.max(residuals(circle, sphere_array(pts))))


def best_circle(cloud, anchors=None):
    """Least-squares Hermitian-form fit; optional anchor points (taken to lie
    on the locus exactly) seed a three-point candidate that competes with
    the global fit.  Returns (circle, residual over the cloud)."""
    pts = list(cloud)
    if len(pts) < 3:
        raise DegenerateCloud("need at least 3 points to fit a circle")
    rows = np.asarray([_design_row(SpherePoint.of(p)) for p in pts], dtype=float)
    _, _, vh = np.linalg.svd(rows, full_matrices=False)
    candidates = []
    a, bx, by, c = vh[-1]
    try:
        candidates.append(
            GeneralizedCircle(float(a), complex(bx, by), float(c)).normalized()
        )
    except DegeneratePoints:
        pass
    seed_pts = [SpherePoint.of(p) for p in (anchors or [])]
    if len(seed_pts) < 3:
        seed_pts = [SpherePoint.of(p) for p in pts]
    triple = _well_separated_triple(seed_pts)
    if triple is not None:
        try:
            candidates.append(circle_through_3(*triple))
        except DegeneratePoints:
            pass
    if not candidates:
        raise DegenerateCloud("cloud does not determine a circle")
    scored = [(containment_residual(circ, pts), k, circ) for k, circ in enumerate(candidates)]
    scored.sort(key=lambda t: (t[0], t[1]))
    best_res, _, best = scored[0]
    return best, best_res


def _well_separated_triple(pts):
    if len(pts) < 3:
        return None
    first = pts[0]
    second = max(pts, key=lambda p: chordal_distance(first, p))
    third = max(
        pts,
        key=lambda p: min(chordal_distance(first, p), chordal_distance(second, p)),
    )
    if min(
        chordal_distance(first, second),
        chordal_distance(first, third),
        chordal_distance(second, third),
    ) <= 1e-9:
        return None
    return first, second, third


def invariance_check(
    f: RationalMap, circle: GeneralizedCircle, forward_samples=256, preimage_samples=64
) -> dict:
    """Forward residual of mapped circle samples, and complete invariance via
    the preimages of circle points."""
    images = [f(p) for p in circle.sample_points(forward_samples)]
    fwd_res = float(np.max(residuals(circle, sphere_array(images))))
    pre = [q for p in circle.sample_points(preimage_samples) for q in preimage_points(f, p)]
    pre_res = float(np.max(residuals(circle, sphere_array(pre))))
    return {
        "forward_residual": fwd_res,
        "preimage_residual": pre_res,
        "forward_invariant": fwd_res <= 1e-6,
        "completely_invariant": pre_res <= 1e-6,
    }


def normalize_to_real_line(circle: GeneralizedCircle) -> Moebius:
    """A Moebius map sending the circle onto the extended real line.

    The real line itself gets the identity (so interval data stays in the
    natural coordinates); other circles go through the cross-ratio map
    sending three circle points to 0, 1, infinity."""
    norm = circle.normalized()
    if norm.is_line and abs(norm.B.real) <= 1e-12 and abs(norm.C) <= 1e-12:
        return Moebius.identity()
    pts = circle.sample_points(7)
    triple = _well_separated_triple(pts)
    if triple is None:
        raise DegeneratePoints("could not pick three separated circle points")
    p1, p2, p3 = triple
    m = _moebius_to_0_1_inf(p1, p2, p3)
    line = GeneralizedCircle(0.0, complex(0.0, 1.0), 0.0)
    worst = float(np.max(residuals(line, sphere_array([m(p) for p in circle.sample_points(20)]))))
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
