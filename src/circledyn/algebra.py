"""Polynomials, rational maps and Moebius transformations on the Riemann sphere.

Coefficient arrays are 1-D complex numpy arrays in ascending powers.  The
point at infinity is handled exclusively through the reciprocal chart
w = 1/z (conjugation by the inversion Moebius map), never through
large-magnitude surrogates, so fixed points and poles at infinity are exact.

The sphere bookkeeping every later stage needs lives here, once:

- the chart rule: a point is read in the chart w = 1/z when it is infinity
  or |z| > 1, and in the plane chart otherwise (`chart_split`, on arrays,
  with infinity read as w = 0); a map is read in a pair of charts through
  `chart_coeffs`, and a single point is flipped by `invert_point`;
- the chordal metric, as the scalar `chordal_distance` and the one-to-many
  array form `chordal_distances`, which round identically;
- the coefficient kernels `pad_coeffs`, `deriv_coeffs`, `series_quotient`
  and the root clustering `cluster_roots`.

Arrays of sphere points are complex arrays in which any non-finite entry
is the point at infinity (`sphere_array`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeCapExceeded, NotOdd, RootFindingFailed

# Relative magnitude below which a trailing coefficient is treated as a
# genuine degree drop rather than rounding noise.
COEFF_DROP_TOL = 1e-12

# Two roots of numerator and denominator closer than this trigger
# common-factor deflation.
COPRIMALITY_TOL = 1e-8

DEGREE_CAP = 4096


# ---------------------------------------------------------------------------
# points on the sphere


@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere: a finite complex value or infinity."""

    re: float = 0.0
    im: float = 0.0
    infinite: bool = False

    @staticmethod
    def finite(z) -> "SpherePoint":
        z = complex(z)
        return SpherePoint(z.real, z.imag, False)

    @staticmethod
    def infinity() -> "SpherePoint":
        return SpherePoint(0.0, 0.0, True)

    @staticmethod
    def of(value) -> "SpherePoint":
        if isinstance(value, SpherePoint):
            return value
        if value is None:
            return SpherePoint.infinity()
        z = complex(value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return SpherePoint.infinity()
        return SpherePoint.finite(z)

    @property
    def value(self) -> complex:
        if self.infinite:
            raise ValueError("point at infinity has no finite value")
        return complex(self.re, self.im)

    def sort_key(self):
        if self.infinite:
            return (math.inf, 0.0)
        return (self.re, self.im)

    def __repr__(self):
        if self.infinite:
            return "SpherePoint(inf)"
        return f"SpherePoint({complex(self.re, self.im)})"


INF = SpherePoint.infinity()


def chordal_distance(p, q) -> float:
    """Chordal metric on the sphere; both arguments SpherePoint or complex/None."""
    p = SpherePoint.of(p)
    q = SpherePoint.of(q)
    if p.infinite and q.infinite:
        return 0.0
    if p.infinite or q.infinite:
        z = q.value if p.infinite else p.value
        return 2.0 / math.sqrt(1.0 + abs(z) ** 2)
    a, b = p.value, q.value
    return 2.0 * abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


# The array kernels below round exactly as the scalar code they stand in
# for: np.hypot and np.float_power call the same libm routines as Python's
# abs(complex) and x ** 2, while np.abs and ** on arrays round differently.


def _modulus(z):
    return np.hypot(z.real, z.imag)


def sphere_array(points) -> np.ndarray:
    """Sphere points (SpherePoint, complex or None) as a complex array, with
    infinity stored as complex(inf, 0)."""
    return np.fromiter(
        (
            complex(math.inf, 0.0) if p.infinite else complex(p.re, p.im)
            for p in map(SpherePoint.of, points)
        ),
        dtype=complex,
    )


def _reciprocal(z) -> np.ndarray:
    """Elementwise 1/z for finite nonzero z, rounded as Python's complex
    division (Smith's algorithm), which numpy's division is not."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wide = np.abs(x) >= np.abs(y)
        r1 = y / x
        d1 = x + y * r1
        r2 = x / y
        d2 = x * r2 + y
        out = np.empty(z.shape, dtype=complex)
        out.real = np.where(wide, (1.0 + 0.0 * r1) / d1, (r2 + 0.0) / d2)
        out.imag = np.where(wide, (0.0 - r1) / d1, (0.0 * r2 - 1.0) / d2)
    return out


def chart_split(z):
    """The chart rule on an array of sphere points: (inverted, w).

    A point is read in the chart w = 1/z when it is infinity or |z| > 1, and
    as w = z otherwise; infinity is w = 0."""
    z = np.asarray(z, dtype=complex)
    finite = np.isfinite(z)
    with np.errstate(invalid="ignore"):
        inverted = ~finite | (_modulus(z) > 1.0)
    w = z.copy()
    w[inverted] = _reciprocal(z[inverted])
    w[~finite] = 0.0
    return inverted, w


def invert_point(p) -> SpherePoint:
    """The point 1/p on the sphere: 0 and infinity trade places."""
    p = SpherePoint.of(p)
    if p.infinite:
        return SpherePoint.finite(0.0)
    v = p.value
    if v == 0:
        return INF
    return SpherePoint.of(1.0 / v)


def chordal_distances(p, zs) -> np.ndarray:
    """Chordal distances from one sphere point to each of an array of them;
    equal bit for bit to `chordal_distance` pair by pair."""
    p = SpherePoint.of(p)
    zs = np.asarray(zs, dtype=complex)
    infinite = ~np.isfinite(zs)
    with np.errstate(invalid="ignore", over="ignore"):
        lift = 1.0 + np.float_power(_modulus(zs), 2)
        if p.infinite:
            out = 2.0 / np.sqrt(lift)
            out[infinite] = 0.0
            return out
        a = p.value
        lift_a = 1.0 + abs(a) ** 2
        out = 2.0 * _modulus(a - zs) / np.sqrt(lift_a * lift)
    out[infinite] = 2.0 / math.sqrt(lift_a)
    return out


def first_within(p, zs, tol: float) -> int:
    """Index of the first of zs within chordal distance tol of p, or -1."""
    hits = np.flatnonzero(chordal_distances(p, zs) <= tol)
    return int(hits[0]) if hits.size else -1


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Dense complex polynomial, ascending coefficients, trailing noise trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
        if c.size == 0:
            c = np.zeros(1, dtype=complex)
        scale = np.max(np.abs(c))
        if scale == 0.0:
            c = np.zeros(1, dtype=complex)
        else:
            keep = np.nonzero(np.abs(c) > COEFF_DROP_TOL * scale)[0]
            c = c[: keep[-1] + 1] if keep.size else np.zeros(1, dtype=complex)
        self.coeffs = c

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    def __call__(self, z):
        return polyval(self.coeffs, z)

    def deriv(self) -> "Poly":
        return Poly(deriv_coeffs(self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, as_poly(other).coeffs
        n = max(len(a), len(b))
        out = np.zeros(n, dtype=complex)
        out[: len(a)] += a
        out[: len(b)] += b
        return Poly(out)

    def __sub__(self, other):
        return self + (as_poly(other) * Poly([-1.0]))

    def __mul__(self, other):
        b = as_poly(other)
        if self.is_zero or b.is_zero:
            return Poly([0.0])
        return Poly(np.convolve(self.coeffs, b.coeffs))

    __rmul__ = __mul__
    __radd__ = __add__

    def shift(self, p) -> "Poly":
        """Coefficients of w -> P(p + w), by Horner in the shifted basis."""
        p = complex(p)
        base = np.array([p, 1.0], dtype=complex)
        comp = np.array([self.coeffs[-1]], dtype=complex)
        for c in self.coeffs[-2::-1]:
            comp = np.convolve(comp, base)
            comp[0] += c
        return Poly(comp)

    def monic(self) -> "Poly":
        lead = self.coeffs[-1]
        if lead == 0:
            return Poly(self.coeffs)
        return Poly(self.coeffs / lead)

    def deflate(self, root) -> "Poly":
        """Divide out (z - root), discarding the remainder."""
        c = self.coeffs
        n = len(c) - 1
        out = np.zeros(n, dtype=complex)
        acc = c[n]
        for k in range(n - 1, -1, -1):
            out[k] = acc
            acc = c[k] + acc * root
        return Poly(out)

    def __repr__(self):
        return f"Poly({np.array2string(self.coeffs, precision=6)})"


def as_poly(obj) -> Poly:
    if isinstance(obj, Poly):
        return obj
    return Poly(obj)


def polyval(coeffs, z):
    """Horner evaluation; works for scalars and numpy arrays."""
    if np.isscalar(z) or isinstance(z, complex):
        z = complex(z)
        acc = 0.0 + 0.0j
        for c in coeffs[::-1]:
            acc = acc * z + complex(c)
        return acc
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


# ---------------------------------------------------------------------------
# coefficient kernels


def pad_coeffs(c, n: int) -> np.ndarray:
    """Coefficients c zero-padded to length n."""
    out = np.zeros(n, dtype=complex)
    out[: len(c)] = c
    return out


def deriv_coeffs(c) -> np.ndarray:
    """Coefficients of the derivative; a constant gives [0]."""
    if len(c) <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, len(c))


def series_quotient(num, den, order: int) -> np.ndarray:
    """Power series num/den to the given order (den[0] must be nonzero);
    both arguments hold at least order + 1 coefficients."""
    inv = np.zeros(order + 1, dtype=complex)
    inv[0] = 1.0 / den[0]
    for k in range(1, order + 1):
        inv[k] = -np.dot(den[1 : k + 1], inv[k - 1 :: -1][:k]) / den[0]
    return np.convolve(num, inv)[: order + 1]


def cluster_roots(z: np.ndarray, radius: float):
    """Group near-coincident roots: (centers, multiplicities), sorted.

    In lexicographic order, each root not yet taken gathers every untaken
    root within radius * max(1, |root|) of it; the group's mean is a
    center and its size the multiplicity."""
    if z.size == 0:
        return np.zeros(0, dtype=complex), []
    z = z[np.lexsort((z.imag, z.real))]
    centers = []
    mult = []
    used = np.zeros(len(z), dtype=bool)
    for i in range(len(z)):
        if used[i]:
            continue
        sel = ~used & (_modulus(z - z[i]) <= radius * max(1.0, abs(z[i])))
        sel[i] = True
        used |= sel
        centers.append(np.mean(z[sel]))
        mult.append(int(np.sum(sel)))
    return sorted_roots(centers, mult)


def sorted_roots(z, mult):
    """Roots in lexicographic (real, imag) order, with their multiplicities."""
    z = np.asarray(z, dtype=complex)
    order = np.lexsort((z.imag, z.real))
    return z[order], [mult[k] for k in order]


# ---------------------------------------------------------------------------
# Moebius transformations


@dataclass(frozen=True)
class Moebius:
    """z -> (a z + b) / (c z + d) with |ad - bc| bounded away from zero."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d), 1e-300)
        if abs(det) <= 1e-12 * scale * scale:
            raise ValueError("degenerate Moebius transformation")

    @staticmethod
    def identity() -> "Moebius":
        return Moebius(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def inversion() -> "Moebius":
        return Moebius(0.0, 1.0, 1.0, 0.0)

    def normalized(self) -> "Moebius":
        det = self.a * self.d - self.b * self.c
        s = 1.0 / cmath.sqrt(det)
        return Moebius(self.a * s, self.b * s, self.c * s, self.d * s)

    def inverse(self) -> "Moebius":
        return Moebius(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "Moebius") -> "Moebius":
        """self after other: (self . other)(z) = self(other(z))."""
        return Moebius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __call__(self, z) -> SpherePoint:
        z = SpherePoint.of(z)
        if z.infinite:
            if self.c == 0:
                return INF
            return SpherePoint.of(self.a / self.c)
        w = z.value
        den = self.c * w + self.d
        num = self.a * w + self.b
        if den == 0:
            return INF
        return SpherePoint.of(num / den)


# ---------------------------------------------------------------------------
# rational maps


class RationalMap:
    """Reduced ratio of two polynomials acting on the Riemann sphere."""

    __slots__ = ("num", "den")

    def __init__(self, num, den, reduce=True):
        num = as_poly(num)
        den = as_poly(den)
        if den.is_zero:
            from .errors import DivisionByZeroPolynomial

            raise DivisionByZeroPolynomial("denominator is identically zero")
        if reduce:
            num, den = _reduce_pair(num, den)
        num, den = _normalize_pair(num, den)
        self.num = num
        self.den = den

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    def __call__(self, z) -> SpherePoint:
        z = SpherePoint.of(z)
        if z.infinite:
            g = self.reciprocal_chart()
            img = _eval_finite(g.num, g.den, 0.0 + 0.0j)
            return invert_point(img)
        return _eval_finite(self.num, self.den, z.value)

    def reciprocal_chart(self) -> "RationalMap":
        """Conjugate by z -> 1/z (so infinity becomes the origin)."""
        return RationalMap(*chart_coeffs(self, True, True), reduce=True)

    def derivative_at(self, z: complex) -> complex:
        """f'(z) by the quotient rule, without building the derivative map."""
        n, dn = self.num, self.den
        nv = n(z)
        dv = dn(z)
        npv = n.deriv()(z)
        dpv = dn.deriv()(z)
        if dv == 0:
            return complex(math.inf, 0.0)
        return (npv * dv - nv * dpv) / (dv * dv)

    def __repr__(self):
        return f"RationalMap(num={self.num!r}, den={self.den!r})"


def chart_coeffs(f: RationalMap, in_inverted: bool, out_inverted: bool):
    """Numerator and denominator coefficients (length deg f + 1) of f read
    from one chart to another: True reads that side in the chart w = 1/z."""
    d = f.degree
    n = pad_coeffs(f.num.coeffs, d + 1)
    m = pad_coeffs(f.den.coeffs, d + 1)
    if in_inverted:
        n, m = n[::-1].copy(), m[::-1].copy()
    return (m, n) if out_inverted else (n, m)


def _eval_finite(num: Poly, den: Poly, z: complex) -> SpherePoint:
    nv = num(z)
    dv = den(z)
    if dv == 0:
        return INF
    w = nv / dv
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        return INF
    return SpherePoint.of(w)


def _normalize_pair(num: Poly, den: Poly):
    """Scale so the denominator (or numerator) is monic; deterministic repr."""
    lead = den.coeffs[-1]
    if abs(lead) > 0:
        return Poly(num.coeffs / lead), Poly(den.coeffs / lead)
    lead = num.coeffs[-1]
    return Poly(num.coeffs / lead), Poly(den.coeffs / lead)


def _reduce_pair(num: Poly, den: Poly):
    """Deflate common roots (closer than the coprimality tolerance)."""
    if num.is_zero or num.degree == 0 or den.degree == 0:
        return num, den
    from .roots import all_roots

    try:
        rn = all_roots(num, 1e-12).roots
        rd = all_roots(den, 1e-12).roots
    except RootFindingFailed:
        return num, den
    used = np.zeros(len(rd), dtype=bool)
    scale = max(1.0, float(np.max(np.abs(rn))) if len(rn) else 1.0)
    for r in rn:
        if den.degree == 0 or num.degree == 0:
            break
        dist = np.abs(rd - r)
        dist[used] = np.inf
        j = int(np.argmin(dist)) if len(dist) else -1
        if j >= 0 and dist[j] < COPRIMALITY_TOL * scale:
            shared = 0.5 * (r + rd[j])
            used[j] = True
            num = num.deflate(shared)
            den = den.deflate(shared)
    return num, den


# ---------------------------------------------------------------------------
# map-level operations


def derivative(f: RationalMap) -> RationalMap:
    """Quotient-rule derivative, reduced to coprime form."""
    n, d = f.num, f.den
    w = n.deriv() * d - n * d.deriv()
    if w.is_zero:
        return RationalMap([0.0], [1.0], reduce=False)
    return RationalMap(w, d * d)


def compose(f: RationalMap, g: RationalMap, cap: int = DEGREE_CAP) -> RationalMap:
    """f(g(z)) as a reduced rational map; guards the degree cap."""
    if f.degree * max(g.degree, 1) > cap:
        raise DegreeCapExceeded(
            f"composition degree {f.degree * g.degree} exceeds cap {cap}"
        )
    return RationalMap(*_substitute(f, g.num.coeffs, g.den.coeffs))


def conjugate(f: RationalMap, m: Moebius) -> RationalMap:
    """m . f . m^{-1}; same degree, coprime."""
    mi = m.inverse()
    # f(m^{-1}(w)) with z = (a w + b)/(c w + d) substituted
    mid_n, mid_d = _substitute(
        f,
        np.array([mi.b, mi.a], dtype=complex),
        np.array([mi.d, mi.c], dtype=complex),
    )
    out_n = m.a * mid_n + m.b * mid_d
    out_d = m.c * mid_n + m.d * mid_d
    return RationalMap(out_n, out_d)


def _substitute(f: RationalMap, p, q):
    """Homogeneous substitution z = p/q into f = N/D of degree d: the
    coefficients of N(p/q) q^d and D(p/q) q^d."""
    d = f.degree
    ppow = [np.array([1.0 + 0.0j])]
    qpow = [np.array([1.0 + 0.0j])]
    for _ in range(d):
        ppow.append(np.convolve(ppow[-1], p))
        qpow.append(np.convolve(qpow[-1], q))
    fn = pad_coeffs(f.num.coeffs, d + 1)
    fd = pad_coeffs(f.den.coeffs, d + 1)
    size = 1 + d * (max(len(p), len(q)) - 1)
    out_n = np.zeros(size, dtype=complex)
    out_d = np.zeros(size, dtype=complex)
    for i in range(d + 1):
        term = np.convolve(ppow[i], qpow[d - i])
        out_n[: len(term)] += fn[i] * term
        out_d[: len(term)] += fd[i] * term
    return out_n, out_d


def critical_points(f: RationalMap):
    """The 2d-2 critical points with multiplicity, infinity included when the
    Wronskian degree drops below 2d-2."""
    from .roots import all_roots

    d = f.degree
    if d < 2:
        raise ValueError("critical points require degree >= 2")
    w = f.num.deriv() * f.den - f.num * f.den.deriv()
    expected = 2 * d - 2
    pts = []
    if not w.is_zero and w.degree >= 1:
        rs = all_roots(w, 1e-12)
        scale = max(1.0, float(np.max(np.abs(w.coeffs))))
        for r, mult in zip(rs.roots, rs.multiplicities):
            if abs(w(r)) > 1e-9 * scale * max(1.0, abs(r)) ** w.degree:
                raise RootFindingFailed("critical point residual too large")
            pts.extend([SpherePoint.of(r)] * mult)
    finite_mult = w.degree if not w.is_zero else 0
    pts.extend([INF] * (expected - finite_mult))
    pts.sort(key=lambda p: p.sort_key())
    return pts


def even_part_lift(b: RationalMap) -> RationalMap:
    """For odd B, the map f with f(w^2) = B(w)^2 via coefficient rearrangement."""
    n, d = b.num, b.den
    scale = max(float(np.max(np.abs(n.coeffs))), float(np.max(np.abs(d.coeffs))))

    def parity(p: Poly):
        ev = float(np.sum(np.abs(p.coeffs[0::2])))
        od = float(np.sum(np.abs(p.coeffs[1::2])))
        if ev <= 1e-9 * scale:
            return -1
        if od <= 1e-9 * scale:
            return 1
        return 0

    pn, pd = parity(n), parity(d)
    if pn * pd != -1:
        raise NotOdd("map is not odd: B(-w) != -B(w)")
    n2 = n * n
    d2 = d * d
    for p2 in (n2, d2):
        odd_mass = float(np.sum(np.abs(p2.coeffs[1::2])))
        if odd_mass > 1e-9 * scale * scale:
            raise NotOdd("square of the map is not even")
    return RationalMap(n2.coeffs[0::2], d2.coeffs[0::2])
