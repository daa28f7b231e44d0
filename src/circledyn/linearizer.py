"""Koenigs/Poincare linearization at a repelling fixed point.

The linearizer Psi solves Psi(lambda z) = f(Psi(z)), Psi(0) = p, and is
normalized here by DPsi(0) = 1 so coefficient tables are reproducible.
Coefficients come from the triangular recursion
(lambda^n - lambda) psi_n = [z^n] sum_{k>=2} a_k (sum_j psi_j z^j)^k,
where the a_k are the local Taylor data of f at p.  Global values are
obtained by shrinking the argument into the reliable disc of the truncated
series and pushing forward with f.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Moebius,
    RationalMap,
    SpherePoint,
    chordal_distance,
    critical_points,
    invert_point,
    series_quotient,
)
from .dynamics import (
    NEUTRAL_BAND,
    periodic_points,
    preimage_points,
)
from .errors import (
    BasePointPostcritical,
    InsufficientRadii,
    NotFixed,
    NotRepelling,
    PoleAtBasePoint,
    ResonanceBreakdown,
)

DEFAULT_ORDER = 64
# reliability cap: inside this radius the truncated-series mass stays small
# enough that absolute residuals of the functional equation hold at 1e-8
WELL_CONDITIONED_MASS = 1e7
# forward steps of each critical orbit searched for the base point
POSTCRITICAL_CHECK_DEPTH = 30


def local_taylor(f: RationalMap, p, order: int):
    """Taylor coefficients c_1..c_order of w -> f(p + w) - p at a finite
    fixed point p (conjugate infinity to a finite chart first)."""
    p = SpherePoint.of(p)
    if p.infinite:
        raise PoleAtBasePoint("move infinity to a finite chart before expanding")
    pv = p.value
    img = f(p)
    if chordal_distance(img, p) > 1e-10:
        raise NotFixed(f"{p} is not fixed: f(p) = {img}")
    den_at_p = f.den(pv)
    scale = max(1.0, float(np.max(np.abs(f.den.coeffs))))
    if abs(den_at_p) <= 1e-12 * scale:
        raise PoleAtBasePoint("base point is a pole in this chart")
    num_s = f.num.shift(pv).coeffs
    den_s = f.den.shift(pv).coeffs
    n = np.zeros(order + 1, dtype=complex)
    m = np.zeros(order + 1, dtype=complex)
    n[: min(len(num_s), order + 1)] = num_s[: order + 1]
    m[: min(len(den_s), order + 1)] = den_s[: order + 1]
    series = series_quotient(n, m, order)
    series[0] -= pv
    if abs(series[0]) > 1e-9 * max(1.0, abs(pv)):
        raise NotFixed(f"fixed-point residual {abs(series[0]):.2e}")
    return series[1:]


@dataclass
class LinearizerSeries:
    base_point: SpherePoint
    multiplier: complex
    coeffs: np.ndarray  # psi_1..psi_M, psi_1 = 1
    conv_radius_estimate: float
    chart_inverted: bool = False  # series built after conjugating by 1/z
    chart_map: Moebius = None

    def series_eval(self, z: complex) -> complex:
        """Truncated series at z (chart-local value)."""
        acc = 0.0 + 0.0j
        for c in self.coeffs[::-1]:
            acc = (acc + c) * z
        base = 0.0 if self.chart_inverted else self.base_point.value
        return base + acc

    def series_deriv(self, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for k in range(len(self.coeffs), 0, -1):
            acc = acc * z + k * self.coeffs[k - 1]
        return acc


def poincare_coeffs(f: RationalMap, p, order: int = DEFAULT_ORDER) -> LinearizerSeries:
    """Linearizer coefficients at a repelling fixed point p."""
    p = SpherePoint.of(p)
    chart_inverted = p.infinite
    chart_map = None
    g = f
    q = p
    if chart_inverted:
        chart_map = Moebius.inversion()
        g = f.reciprocal_chart()
        q = SpherePoint.of(0.0)
    a = local_taylor(g, q, order)
    lam = a[0]
    if abs(lam) <= 1.0 + NEUTRAL_BAND:
        raise NotRepelling(f"multiplier {lam} is not repelling")
    psi = np.zeros(order + 1, dtype=complex)  # psi[j] holds psi_j, psi[0] unused
    psi[1] = 1.0
    # S = sum psi_j z^j as a coefficient array; powers rebuilt incrementally
    for n in range(2, order + 1):
        s = psi[: n + 1].copy()  # psi_n entry is still zero here
        rhs = 0.0 + 0.0j
        power = s.copy()
        for k in range(2, n + 1):
            power = np.convolve(power, s)[: n + 1]
            if k < len(a) + 1 and k - 1 < len(a):
                rhs += a[k - 1] * power[n]
        denom = lam**n - lam
        if abs(denom) < 1e-12:
            raise ResonanceBreakdown(f"resonance at order {n}")
        psi[n] = rhs / denom
    coeffs = psi[1:]
    radius = _radius_estimate(coeffs)
    return LinearizerSeries(
        base_point=p,
        multiplier=lam,
        coeffs=coeffs,
        conv_radius_estimate=radius,
        chart_inverted=chart_inverted,
        chart_map=chart_map,
    )


def _radius_estimate(coeffs: np.ndarray) -> float:
    m = len(coeffs)
    lo = max(m // 2, 1)
    vals = []
    for n in range(lo, m):
        c = abs(coeffs[n])  # coefficient of z^{n+1}
        if c > 0:
            vals.append(c ** (1.0 / (n + 1)))
    root_test = 1.0 / max(vals) if vals else 1e6
    root_test = min(root_test, 1e6)
    # shrink until the absolute coefficient mass at the radius is tame; this
    # is what keeps truncated evaluations trustworthy in double precision
    mags = np.abs(coeffs)
    r = root_test
    for _ in range(200):
        # a mass that overflows (inf, or nan from 0 * inf) is too large
        with np.errstate(over="ignore", invalid="ignore"):
            mass = float(np.sum(mags * r ** np.arange(1, m + 1)))
        if mass <= WELL_CONDITIONED_MASS:
            break
        r *= 0.85
    return r


def poincare_eval(s: LinearizerSeries, f: RationalMap, z) -> SpherePoint:
    """Global value Psi(z): shrink into the reliable disc, push forward."""
    g = f.reciprocal_chart() if s.chart_inverted else f
    w, n = _shrink(s, complex(z))
    val = SpherePoint.of(s.series_eval(w))
    for _ in range(n):
        val = g(val)
        if val.infinite:
            break
    return invert_point(val) if s.chart_inverted else val


def _shrink(s: LinearizerSeries, z: complex):
    """(w, n) with w = z / lambda^n inside the reliable disc of the series."""
    r_safe = s.conv_radius_estimate / 4.0
    n = 0
    w = z
    while abs(w) > r_safe and n < 6000:
        w /= s.multiplier
        n += 1
    return w, n


def functional_equation_residual(
    s: LinearizerSeries, f: RationalMap, samples: int = 100, radius: float = None
) -> float:
    """max |Psi(lambda z) - f(Psi(z))| over a circle of given radius."""
    g = f.reciprocal_chart() if s.chart_inverted else f
    r = (s.conv_radius_estimate / 4.0) if radius is None else radius
    worst = 0.0
    for k in range(samples):
        z = r * cmath.exp(2j * math.pi * (k + 0.5) / samples)
        lhs = s.series_eval(s.multiplier * z)
        rhs = g(SpherePoint.of(s.series_eval(z)))
        if rhs.infinite:
            continue
        worst = max(worst, abs(lhs - rhs.value))
    return worst


def valiron_order(s: LinearizerSeries, f: RationalMap):
    """Growth order of Psi: the closed-form value log(deg f)/log|lambda| and a
    max-modulus regression measurement (heuristic for meromorphic Psi)."""
    rho_formula = math.log(f.degree) / math.log(abs(s.multiplier))
    radii = []
    logs = []
    for k in range(4, 44):
        r = 2.0**k
        vals = []
        for j in range(64):
            z = r * cmath.exp(2j * math.pi * (j + 0.5) / 64)
            v = poincare_eval(s, f, z)
            if not v.infinite:
                vals.append(abs(v.value))
        if not vals:
            break
        m_r = max(vals)
        if not math.isfinite(m_r) or m_r > 1e290:
            break
        if m_r <= math.e:
            continue
        lm = math.log(m_r)
        radii.append(math.log(r))
        logs.append(math.log(lm))
        if lm > 600.0:
            break
    if len(radii) < 3:
        raise InsufficientRadii(f"only {len(radii)} usable radii")
    x = np.asarray(radii)
    y = np.asarray(logs)
    slope = float(np.polyfit(x, y, 1)[0])
    return rho_formula, slope


def _orbit_hits(f: RationalMap, start, target, depth: int, tol: float) -> bool:
    z = SpherePoint.of(start)
    for _ in range(depth):
        z = f(z)
        if chordal_distance(z, target) <= tol:
            return True
    return False


def _check_not_postcritical(f: RationalMap, p: SpherePoint):
    depth = POSTCRITICAL_CHECK_DEPTH
    for c in critical_points(f):
        if chordal_distance(c, p) <= 1e-9 or _orbit_hits(f, c, p, depth, 1e-9):
            raise BasePointPostcritical(
                f"base point {p} lies on a critical orbit (depth {depth})"
            )


def _local_invert(s: LinearizerSeries, w: complex):
    """Solve series(z) = w for small z by Newton on the truncated series."""
    base = 0.0 if s.chart_inverted else s.base_point.value
    target = w - base
    z = target  # psi_1 = 1 makes this a good first guess
    for _ in range(60):
        val = s.series_eval(z) - base
        dv = s.series_deriv(z)
        if abs(dv) < 1e-300:
            return None
        step = (val - target) / dv
        z -= step
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            break
    if abs(s.series_eval(z) - w) > 1e-9 * (1.0 + abs(w)):
        return None
    return z


def nonvanishing_witness(s: LinearizerSeries, f: RationalMap, count: int = 5) -> dict:
    """Nonzero solutions of Psi(z) = p and the size of DPsi there.

    Solutions are found by pulling a nontrivial preimage chain of p back into
    the series disc, inverting locally, and rescaling by powers of the
    multiplier.  Passes when min |DPsi| > 1e-6 over the witnesses.
    """
    p = s.base_point
    _check_not_postcritical(f, p)
    g = f.reciprocal_chart() if s.chart_inverted else f
    q_chart = invert_point(p) if s.chart_inverted else p
    lam = s.multiplier
    r_safe = s.conv_radius_estimate / 8.0

    base_solutions = []
    for w1 in preimage_points(g, q_chart):
        if chordal_distance(w1, q_chart) <= 1e-9:
            continue
        chain = [w1]
        for _ in range(400):
            pre = preimage_points(g, chain[-1])
            nxt = min(pre, key=lambda r: chordal_distance(r, q_chart))
            chain.append(nxt)
            if not nxt.infinite and abs(nxt.value - q_chart.value) <= r_safe:
                break
        tail = chain[-1]
        if tail.infinite or abs(tail.value - q_chart.value) > r_safe:
            continue
        zeta = _local_invert(s, tail.value)
        if zeta is None:
            continue
        base_solutions.append(lam ** len(chain) * zeta)
    if not base_solutions:
        return {"passed": False, "solutions": [], "min_abs_dpsi": 0.0}

    solutions = []
    k = 0
    while len(solutions) < count:
        for q in base_solutions:
            solutions.append(q * lam**k)
            if len(solutions) >= count:
                break
        k += 1

    derivs = []
    for z in solutions:
        derivs.append(abs(_psi_derivative(s, g, z)))
    min_d = min(derivs)
    return {
        "passed": min_d > 1e-6,
        "solutions": [[z.real, z.imag] for z in solutions],
        "derivatives": derivs,
        "min_abs_dpsi": min_d,
    }


def _psi_derivative(s: LinearizerSeries, g: RationalMap, z: complex) -> complex:
    """DPsi(z) via DPsi(lam^n w) = (g^n)'(Psi(w)) DPsi(w) / lam^n.

    The chain rule is accumulated in plane coordinates (the witness chains
    stay finite); a pole on the orbit makes the plane derivative blow up,
    reported as infinity."""
    w, n = _shrink(s, z)
    dval = s.series_deriv(w)
    pt = SpherePoint.of(s.series_eval(w))
    for _ in range(n):
        nxt = g(pt)
        if pt.infinite or nxt.infinite:
            return complex(math.inf, 0.0)
        dval *= g.derivative_at(pt.value)
        pt = nxt
    return dval / s.multiplier**n


def periodic_shadow_witness(s: LinearizerSeries, f: RationalMap, n: int, q_solution=None) -> dict:
    """Look for a repelling period-n point near Psi(lambda^{-n} Q), where Q is
    a nonzero solution of Psi = p; search radius 10 |Q| |lambda|^{-n}."""
    if q_solution is None:
        wit = nonvanishing_witness(s, f, count=1)
        if not wit["solutions"]:
            return {"found": False, "reason": "no base solution for Q"}
        q_solution = complex(*wit["solutions"][0])
    lam = s.multiplier
    target = poincare_eval(s, f, q_solution * lam ** (-n))
    radius = 10.0 * abs(q_solution) * abs(lam) ** (-n)
    orbits = periodic_points(f, n)
    best = None
    for orbit in orbits:
        for p in orbit.points:
            dist = chordal_distance(p, target)
            if best is None or dist < best["distance"]:
                best = {
                    "distance": dist,
                    "point": [p.re, p.im] if not p.infinite else "inf",
                    "stability": orbit.stability,
                    "multiplier": [orbit.multiplier.real, orbit.multiplier.imag],
                }
    if best is None:
        return {"found": False, "reason": f"no period-{n} orbits"}
    found = best["distance"] <= radius and best["stability"] == "repelling"
    return {
        "found": found,
        "radius": radius,
        "target": [target.re, target.im] if not target.infinite else "inf",
        **best,
    }
