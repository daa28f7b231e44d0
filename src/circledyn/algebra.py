"""Polynomials, rational maps and Moebius transformations on the Riemann sphere.

Coefficient arrays are 1-D complex numpy arrays in ascending powers.  The
point at infinity is handled exclusively through the reciprocal chart
w = 1/z (conjugation by the inversion Moebius map), never through
large-magnitude surrogates, so fixed points and poles at infinity are exact.

The sphere bookkeeping every later stage needs lives here, once:

- the chart rule: a point is read in the chart w = 1/z when it is infinity
  or |z| > 1, and in the plane chart otherwise (`chart_split`, on arrays,
  with infinity read as w = 0); a single point is flipped by
  `invert_point`;
- the chart table `chart_rows`, the one reading of a map in the plane and in
  w = 1/z on the argument's side, which `image_array`, the reciprocal
  chart, the derivatives, orbit data and preimage solvers of `dynamics` and
  the signed degree of `geometry` all read;
- the chordal metric, as the scalar `chordal_distance` and the broadcast
  array form `chordal_distances`, which round identically;
- the coefficient kernels `pad_coeffs`, `deriv_coeffs`, `series_quotient`
  and the root clustering `cluster_roots`;
- the per-map memo: a map is immutable after construction, and data derived
  from it alone (periodic solutions, the chart table, critical points,
  poles) is computed once, through `memoized`.

Arrays of sphere points are complex arrays in which any non-finite entry
is the point at infinity (`sphere_array`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CircledynError, NotOdd, RootFindingFailed

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
    """Chordal metric on the sphere; both arguments SpherePoint or complex/None.
    A pair with a point of modulus 1e77 or more, whose lifts 1 + |z|^2 may
    overflow, is measured by `chordal_distances`."""
    p = SpherePoint.of(p)
    q = SpherePoint.of(q)
    if p.infinite and q.infinite:
        return 0.0
    if p.infinite or q.infinite:
        z = q.value if p.infinite else p.value
        if abs(z) < 1e154:
            return 2.0 / math.sqrt(1.0 + abs(z) ** 2)
    elif max(abs(p.value), abs(q.value)) < 1e77:
        a, b = p.value, q.value
        return 2.0 * abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))
    return float(chordal_distances(p, sphere_array([q]))[0])


# The array kernels below round exactly as the scalar code they stand in
# for: np.hypot and np.float_power call the same libm routines as Python's
# abs(complex) and x ** 2, while np.abs and ** on arrays round differently.


def _modulus(z):
    return np.hypot(z.real, z.imag)


def sphere_array(points) -> np.ndarray:
    """Sphere points (SpherePoint, complex or None) as a complex array, with
    infinity stored as complex(inf, 0).  An ndarray is already a sphere
    array (any non-finite entry is infinity) and passes through as is."""
    if isinstance(points, np.ndarray):
        return np.asarray(points, dtype=complex)
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
    """Chordal distances between sphere points, elementwise under numpy
    broadcasting: p is one sphere point or an array of them, zs an array;
    equal bit for bit to `chordal_distance` pair by pair."""
    a = sphere_array([p]) if np.ndim(p) == 0 else np.asarray(p, dtype=complex)
    zs = np.asarray(zs, dtype=complex)
    a_inf, z_inf = ~np.isfinite(a), ~np.isfinite(zs)
    with np.errstate(invalid="ignore", over="ignore"):
        lift_a = 1.0 + np.float_power(_modulus(a), 2)
        lift = 1.0 + np.float_power(_modulus(zs), 2)
        # an infinite point's entries are set below: its lift is 1 here
        lifts = np.where(a_inf, 1.0, lift_a) * np.where(z_inf, 1.0, lift)
        out = 2.0 * _modulus(a - zs) / np.sqrt(lifts)
    out = np.where(z_inf, 2.0 / np.sqrt(lift_a), out)
    out = np.where(a_inf, np.where(z_inf, 0.0, 2.0 / np.sqrt(lift)), out)
    if np.max(lifts, initial=1.0) == math.inf:
        # the pairs whose lifts overflow, read in the charts (`chart_split`):
        # |a - z| is |w - w'| within one chart and |1 - w w'| across
        over = np.isinf(lifts)
        (inv_a, wa), (inv_z, wz) = (chart_split(x[over]) for x in np.broadcast_arrays(a, zs))
        gap = _modulus(np.where(inv_a == inv_z, wa - wz, 1.0 - wa * wz))
        lifts = (1.0 + np.float_power(_modulus(wa), 2)) * (1.0 + np.float_power(_modulus(wz), 2))
        out[over] = 2.0 * gap / np.sqrt(lifts)
    return out


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
        if not math.isfinite(scale):
            raise CircledynError("a polynomial coefficient is not finite")
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
        with np.errstate(over="ignore", invalid="ignore"):
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


def horner_rows(rows, z) -> np.ndarray:
    """The ascending coefficient rows (a 2-D array) at the points z, in one
    Horner loop accumulated in place: shape (len(rows), len(z)).  Each row
    rounds as `polyval` does on an array; the zeros that pad a shorter row
    leave its accumulator at 0, as polyval's own start."""
    # not np.zeros: a large zeroed block comes fresh from the OS, and its
    # page faults cost more than the fill
    acc = np.empty((len(rows), len(z)), dtype=complex)
    acc.fill(0.0)
    for k in range(rows.shape[1] - 1, -1, -1):
        np.multiply(acc, z, out=acc)
        np.add(acc, rows[:, k, None], out=acc)
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
    """Reduced ratio of two polynomials acting on the Riemann sphere.

    Immutable after construction; `memo` holds what `memoized` derives,
    and the root of the backward tree (`dynamics._tree_root`)."""

    __slots__ = ("num", "den", "memo")

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
        self.memo = {}

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
        """Conjugate by z -> 1/z (so infinity becomes the origin): the
        `chart_rows` entry for w = 1/z with num and den swapped.  Coprime as
        the map is, so coprimality is not solved again (`conjugate`)."""
        return memoized(
            self, "reciprocal_chart",
            lambda: RationalMap(*chart_rows(self)[1, 1::-1], reduce=False),
        )

    def __repr__(self):
        return f"RationalMap(num={self.num!r}, den={self.den!r})"


def memoized(f: RationalMap, key: str, compute):
    """compute(), run once per map f and kept in f.memo under key.

    A package error raised by compute is kept too and raised again on every
    later request.  A request for key while compute is still running raises
    RootFindingFailed, so a solve that seeds from its own result fails
    instead of recursing."""
    if key not in f.memo:
        f.memo[key] = RootFindingFailed(f"{key} requested while being computed")
        try:
            f.memo[key] = compute()
        except CircledynError as exc:
            f.memo[key] = exc
        except BaseException:
            del f.memo[key]
            raise
    value = f.memo[key]
    if isinstance(value, CircledynError):
        raise value
    return value


def chart_rows(f: RationalMap) -> np.ndarray:
    """f read from each chart of its argument, as a (2, 4, deg f + 1) table:
    entry 0 reads z in the plane, entry 1 in the chart w = 1/z, and each
    holds the rows num, den, num' and den', zero-padded to deg f + 1, of
    the image in the plane.  The image read in the chart 1/w swaps num with
    den and num' with den'."""

    def compute():
        d = f.degree
        plane = [pad_coeffs(p.coeffs, d + 1) for p in (f.num, f.den)]
        return np.array([
            [pad_coeffs(c, d + 1) for c in (num, den, deriv_coeffs(num), deriv_coeffs(den))]
            for num, den in (plane, [c[::-1] for c in plane])
        ])

    return memoized(f, "chart-rows", compute)


def image_array(f: RationalMap, z) -> np.ndarray:
    """f on a sphere array, each point read in its own chart (`chart_split`):
    the images as a sphere array, infinity at the poles."""
    inverted, u = chart_split(z)
    out = np.empty(len(u), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for flag, rows in enumerate(chart_rows(f)):
            sel = inverted == flag
            num, den = horner_rows(rows[:2], u[sel])
            out[sel] = num / den
    out[~np.isfinite(out)] = math.inf
    return out


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
    """Scale so the (nonzero) denominator is monic; deterministic repr.  A
    quotient that overflows is left to Poly's finiteness rule."""
    lead = den.coeffs[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        return Poly(num.coeffs / lead), Poly(den.coeffs / lead)


def _reduce_pair(num: Poly, den: Poly):
    """Deflate common roots (closer than the coprimality tolerance)."""
    if num.is_zero or num.degree == 0 or den.degree == 0:
        return num, den
    from .roots import all_roots

    try:
        rn = all_roots(num).roots
        rd = all_roots(den).roots
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


def conjugate(f: RationalMap, m: Moebius) -> RationalMap:
    """m . f . m^{-1}; same degree, coprime.  Coprimality is not solved
    again: the numerator and denominator of m . f . m^{-1} vanish on the
    preimages under f . m^{-1} of the distinct points m^{-1}(0) and
    m^{-1}(infinity), which share none."""
    mi = m.inverse()
    # f(m^{-1}(w)) with z = (a w + b)/(c w + d) substituted
    mid_n, mid_d = _substitute(
        f,
        np.array([mi.b, mi.a], dtype=complex),
        np.array([mi.d, mi.c], dtype=complex),
    )
    out_n = m.a * mid_n + m.b * mid_d
    out_d = m.c * mid_n + m.d * mid_d
    return RationalMap(out_n, out_d, reduce=False)


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
    return list(memoized(f, "critical_points", lambda: _critical_points(f)))


def _critical_points(f: RationalMap):
    from .roots import all_roots

    d = f.degree
    if d < 2:
        raise ValueError("critical points require degree >= 2")
    w = f.num.deriv() * f.den - f.num * f.den.deriv()
    expected = 2 * d - 2
    pts = []
    if not w.is_zero and w.degree >= 1:
        rs = all_roots(w)
        scale = max(1.0, float(np.max(np.abs(w.coeffs))))
        for r, mult in zip(rs.roots, rs.multiplicities):
            if abs(w(r)) > 1e-9 * scale * max(1.0, abs(r)) ** w.degree:
                raise RootFindingFailed("critical point residual too large")
            pts.extend([SpherePoint.of(r)] * mult)
    finite_mult = w.degree if not w.is_zero else 0
    pts.extend([INF] * (expected - finite_mult))
    pts.sort(key=lambda p: p.sort_key())
    return pts


def finite_poles(f: RationalMap) -> np.ndarray:
    """The roots of the denominator, without multiplicity."""
    from .roots import all_roots

    if f.den.degree < 1:
        return np.zeros(0, dtype=complex)
    return memoized(f, "finite_poles", lambda: all_roots(f.den).roots).copy()


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
