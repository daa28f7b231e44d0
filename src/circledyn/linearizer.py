"""Koenigs/Poincare linearization at a repelling fixed point.

The linearizer Psi solves Psi(lambda z) = f(Psi(z)), Psi(0) = p, and is
normalized here by DPsi(0) = 1 so coefficient tables are reproducible.
Coefficients come from the triangular recursion
(lambda^n - lambda) psi_n = [z^n] sum_{k>=2} a_k S^k,  S = sum_j psi_j z^j,
where the a_k are the local Taylor data of f at p, read by the chart
series kernel of `dynamics` (the one the Leau-Fatou flower order reads).
The table P[k, j] = [z^j] S^k is filled column by column: for k >= 2,
[z^n] S^k = sum_{j<n} psi_j [z^(n-j)] S^(k-1), so column n is one
matrix-vector product of the earlier columns with psi_1..psi_{n-1}.

A base point at infinity is read in the chart w = 1/z, through the map's
`reciprocal_chart`.  Psi is evaluated on arrays: each argument is shrunk
by powers of lambda into the reliable disc of the truncated series, and
the value is pushed forward with `image_array`, each point read in its
own chart, so an orbit that meets a pole goes on through infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    RationalMap,
    SpherePoint,
    _modulus,
    _reciprocal,
    chordal_distance,
    chordal_distances,
    deriv_coeffs,
    image_array,
    polyval,
    sphere_array,
)
from .dynamics import (
    NEUTRAL_BAND,
    _chart_series,
    _orbit_data,
    _point_json,
    _preimage_rows,
    critical_orbits,
    periodic_points,
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
    img = f(p)
    if chordal_distance(img, p) > 1e-10:
        raise NotFixed(f"{p} is not fixed: f(p) = {img}")
    scale = max(1.0, float(np.max(np.abs(f.den.coeffs))))
    if abs(f.den(p.value)) <= 1e-12 * scale:
        raise PoleAtBasePoint("base point is a pole in this chart")
    series = _chart_series(f, p, p, order)
    if abs(series[0]) > 1e-9 * max(1.0, abs(p.value)):
        raise NotFixed(f"fixed-point residual {abs(series[0]):.2e}")
    return series[1:]


@dataclass
class LinearizerSeries:
    """Psi at base_point, read in the chart w = 1/z when that is infinity."""

    base_point: SpherePoint
    multiplier: complex
    coeffs: np.ndarray  # psi_1..psi_M, psi_1 = 1
    conv_radius_estimate: float


def _chart_map(s: LinearizerSeries, f: RationalMap) -> RationalMap:
    """f read in the chart of the base point."""
    return f.reciprocal_chart() if s.base_point.infinite else f


def _chart_poly(s: LinearizerSeries) -> np.ndarray:
    """The truncated Psi in the chart of the base point: the base point's
    coordinate there, then psi_1..psi_M."""
    base = 0.0 if s.base_point.infinite else s.base_point.value
    return np.concatenate([[base], s.coeffs])


def poincare_coeffs(f: RationalMap, p, order: int = DEFAULT_ORDER) -> LinearizerSeries:
    """Linearizer coefficients at a repelling fixed point p."""
    p = SpherePoint.of(p)
    g = f.reciprocal_chart() if p.infinite else f
    a = local_taylor(g, 0.0 if p.infinite else p, order)
    lam = a[0]
    if abs(lam) <= 1.0 + NEUTRAL_BAND:
        raise NotRepelling(f"multiplier {lam} is not repelling")
    power = np.zeros((order + 1, order + 1), dtype=complex)  # [z^j] S^k; row 1 is psi
    power[1, 1] = 1.0
    for n in range(2, order + 1):
        # [z^n] S^k = sum_i [z^i] S^(k-1) psi_(n-i) for k >= 2, as a stack of
        # row-by-column products: each is one BLAS dot, rounded as in
        # np.convolve; the a_k terms are summed in order of k
        psi_reversed = power[1, n::-1].copy()
        power[2 : n + 1, n] = (power[1:n, None, : n + 1] @ psi_reversed[:, None])[:, 0, 0]
        denom = lam**n - lam
        if abs(denom) < 1e-12:
            raise ResonanceBreakdown(f"resonance at order {n}")
        power[1, n] = np.cumsum(a[1:n] * power[2 : n + 1, n])[-1] / denom
    coeffs = power[1, 1:].copy()
    return LinearizerSeries(
        base_point=p,
        multiplier=lam,
        coeffs=coeffs,
        conv_radius_estimate=_radius_estimate(coeffs),
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


def poincare_values(s: LinearizerSeries, f: RationalMap, z) -> np.ndarray:
    """Psi at each of the complex numbers z, as a sphere array: shrink into
    the reliable disc, evaluate the series, push forward."""
    w, n = _shrink(s, z)
    val = polyval(_chart_poly(s), w)
    g = _chart_map(s, f)
    for k in range(int(n.max(initial=0))):
        val[n > k] = image_array(g, val[n > k])
    if s.base_point.infinite:
        val = _reciprocal(val)
    val[~np.isfinite(val)] = math.inf
    return val


def poincare_eval(s: LinearizerSeries, f: RationalMap, z) -> SpherePoint:
    """Psi(z) as a SpherePoint: `poincare_values` at the one point z."""
    return SpherePoint.of(complex(poincare_values(s, f, [complex(z)])[0]))


def _shrink(s: LinearizerSeries, z):
    """(w, n) with w = z / lambda^n inside the reliable disc of the series,
    elementwise."""
    r_safe = s.conv_radius_estimate / 4.0
    w = np.array(z, dtype=complex)
    n = np.zeros(len(w), dtype=int)
    while True:
        big = (_modulus(w) > r_safe) & (n < 6000)
        if not big.any():
            return w, n
        w[big] /= s.multiplier
        n[big] += 1


def functional_equation_residual(s: LinearizerSeries, f: RationalMap, radius: float = None) -> float:
    """max |Psi(lambda z) - f(Psi(z))| over 100 points of a circle of given
    radius, by default r / max(4, 2|lambda|) for the radius estimate r, so
    that lambda z stays inside r/2."""
    if radius is None:
        radius = s.conv_radius_estimate / max(4.0, 2.0 * abs(s.multiplier))
    z = radius * np.exp(2j * np.pi * (np.arange(100) + 0.5) / 100)
    series = _chart_poly(s)
    lhs = polyval(series, s.multiplier * z)
    rhs = image_array(_chart_map(s, f), polyval(series, z))
    return float(np.max(_modulus(lhs - rhs)[np.isfinite(rhs)], initial=0.0))


def valiron_order(s: LinearizerSeries, f: RationalMap):
    """Growth order of Psi: the closed-form value log(deg f)/log|lambda| and a
    max-modulus regression measurement (heuristic for meromorphic Psi)."""
    rho_formula = math.log(f.degree) / math.log(abs(s.multiplier))
    radii = 2.0 ** np.arange(4, 44)
    ring = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    vals = poincare_values(s, f, np.outer(radii, ring).ravel()).reshape(len(radii), -1)
    x, y = [], []
    for r, row in zip(radii.tolist(), vals):
        row = row[np.isfinite(row)]
        if not row.size:
            break
        m_r = float(np.max(_modulus(row)))
        if not math.isfinite(m_r) or m_r > 1e290:
            break
        if m_r <= math.e:
            continue
        lm = math.log(m_r)
        x.append(math.log(r))
        y.append(math.log(lm))
        if lm > 600.0:
            break
    if len(x) < 3:
        raise InsufficientRadii(f"only {len(x)} usable radii")
    slope = float(np.polyfit(np.asarray(x), np.asarray(y), 1)[0])
    return rho_formula, slope


def _local_invert(s: LinearizerSeries, w: complex):
    """Solve series(z) = w for small z by Newton on the truncated series."""
    series = _chart_poly(s)
    slope = deriv_coeffs(series)
    base = series[0]
    target = w - base
    z = target  # psi_1 = 1 makes this a good first guess
    for _ in range(60):
        val = polyval(series, z) - base
        dv = polyval(slope, z)
        if abs(dv) < 1e-300:
            return None
        step = (val - target) / dv
        z -= step
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            break
    if abs(polyval(series, z) - w) > 1e-9 * (1.0 + abs(w)):
        return None
    return z


def nonvanishing_witness(s: LinearizerSeries, f: RationalMap, count: int = 5) -> dict:
    """Nonzero solutions of Psi(z) = p and the size of DPsi there.

    Solutions are found by pulling nontrivial preimage chains of p back into
    the series disc, all chains a step at a time, each to the preimage
    nearest p; inverting locally; and rescaling by powers of the multiplier.
    Passes when min |DPsi| > 1e-6 over the witnesses.  A base point on a
    critical orbit, where DPsi vanishes at some solutions, raises
    BasePointPostcritical.
    """
    depth = POSTCRITICAL_CHECK_DEPTH
    if np.any(chordal_distances(s.base_point, critical_orbits(f, depth)[0]) <= 1e-9):
        raise BasePointPostcritical(f"base point {s.base_point} lies on a critical orbit (depth {depth})")
    g = _chart_map(s, f)
    q = _chart_poly(s)[0]  # the base point in its chart
    lam = s.multiplier
    r_safe = s.conv_radius_estimate / 8.0

    chains = _preimage_rows(g, np.array([q]))[0]
    chains = chains[chordal_distances(q, chains) > 1e-9]
    chains = chains[np.lexsort((chains.imag, chains.real))]
    length = np.ones(len(chains), dtype=int)
    moving = np.arange(len(chains))
    for _ in range(400):
        if not moving.size:
            break
        pre = _preimage_rows(g, chains[moving])
        chains[moving] = pre[np.arange(len(moving)), np.argmin(chordal_distances(q, pre), axis=1)]
        length[moving] += 1
        moving = moving[~(_modulus(chains[moving] - q) <= r_safe)]
    arrived = np.ones(len(chains), dtype=bool)
    arrived[moving] = False
    base_solutions = []
    for tail, k in zip(chains[arrived].tolist(), length[arrived].tolist()):
        zeta = _local_invert(s, tail)
        if zeta is not None:
            base_solutions.append(lam**k * zeta)
    if not base_solutions:
        return {"passed": False, "solutions": [], "min_abs_dpsi": 0.0}
    m = len(base_solutions)
    solutions = [base_solutions[i % m] * lam ** (i // m) for i in range(count)]

    derivs = _modulus(_psi_derivative(s, g, np.array(solutions))).tolist()
    min_d = min(derivs)
    return {
        "passed": min_d > 1e-6,
        "solutions": [[z.real, z.imag] for z in solutions],
        "derivatives": derivs,
        "min_abs_dpsi": min_d,
    }


def _psi_derivative(s: LinearizerSeries, g: RationalMap, z: np.ndarray) -> np.ndarray:
    """DPsi at the points z via DPsi(lam^n w) = (g^n)'(Psi(w)) DPsi(w) / lam^n.

    (g^n)' is the plane chain rule of `_orbit_data` (the witness chains
    stay finite); a pole on the orbit makes it blow up, reported as
    infinity."""
    w, n = _shrink(s, z)
    series = _chart_poly(s)
    out = polyval(deriv_coeffs(series), w)
    start = polyval(series, w)
    for k in sorted(set(n.tolist())):
        at = n == k
        chain = _orbit_data(g, start[at], k)[1]
        with np.errstate(invalid="ignore", over="ignore"):
            out[at] = np.where(np.isfinite(chain), out[at] * chain / s.multiplier**k, math.inf)
    return out


def periodic_shadow_witness(s: LinearizerSeries, f: RationalMap, n: int) -> dict:
    """Look for a repelling period-n point near Psi(lambda^{-n} Q), where Q is
    the first nonzero solution of Psi = p that `nonvanishing_witness` finds;
    search radius 10 |Q| |lambda|^{-n}."""
    wit = nonvanishing_witness(s, f, count=1)
    if not wit["solutions"]:
        return {"found": False, "reason": "no base solution for Q"}
    q_solution = complex(*wit["solutions"][0])
    lam = s.multiplier
    target = poincare_eval(s, f, q_solution * lam ** (-n))
    radius = 10.0 * abs(q_solution) * abs(lam) ** (-n)
    points = [(p, o) for o in periodic_points(f, n) for p in o.points]
    if not points:
        return {"found": False, "reason": f"no period-{n} orbits"}
    dist = chordal_distances(target, sphere_array([p for p, _ in points]))
    i = int(np.argmin(dist))
    (p, orbit), distance = points[i], float(dist[i])
    return {
        "found": distance <= radius and orbit.stability == "repelling",
        "radius": radius,
        "target": _point_json(target),
        "distance": distance,
        "point": _point_json(p),
        "stability": orbit.stability,
        "multiplier": [orbit.multiplier.real, orbit.multiplier.imag],
    }
