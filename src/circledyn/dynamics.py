"""Periodic orbits, multipliers, maximal-entropy sampling and Lyapunov data.

Period-n points solve f^n(z) = z.  Expanding the iterate's coefficients is
numerically hopeless beyond a few iterations (the coefficients grow
exponentially while the roots stay on a bounded Julia set), so the
simultaneous root iteration below evaluates the iterate functionally:
P'/P is assembled from the chain-rule derivative of f^n and the
log-derivative of the accumulated denominator, which stays well conditioned
near the roots.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    INF,
    Poly,
    RationalMap,
    SpherePoint,
    chart_coeffs,
    chart_split,
    chordal_distance,
    chordal_distances,
    _modulus,
    _substitute,
    cluster_roots,
    deriv_coeffs,
    image_array,
    memoized,
    pad_coeffs,
    polyval,
    series_quotient,
    sphere_array,
)
from .errors import (
    DegreeCapExceeded,
    DerivativeSingular,
    PreimageSolveFailed,
    RootFindingFailed,
)
from .roots import _companion_roots, all_roots

NEUTRAL_BAND = 1e-6
PERIOD_DEGREE_CAP = 4097
DUPLICATE_CLUSTER = 1e-6  # copies of a multiple root, which Aberth finds to ~sqrt(eps)
ROOT_OF_UNITY_TOL = 1e-6  # |lambda^r - 1| of a parabolic cycle
FLOWER_COEFF_TOL = 1e-8  # a nonzero coefficient of f^{qr}(w) - w
BURN_IN = 50
DEDUP_PITCH = 1e-4
ABERTH_TOL = 1e-13
ABERTH_MAXITER = 400
RECIPROCAL_BLOCK = 1 << 16  # complex entries per row block (1 MiB)
CLOSED_FORM_ROWS = 256  # batch width from which closed-form cubic/quartic roots pay


# ---------------------------------------------------------------------------
# chart-aware derivatives


def _chart_slopes(f: RationalMap) -> "_ChartSlopes":
    return memoized(f, "chart_slopes", lambda: _ChartSlopes(f))


class _ChartSlopes:
    """Derivatives of f read from the chart of each point to the chart of
    its image, with the chart rule of `chart_split`, on arrays."""

    def __init__(self, f: RationalMap):
        self.pairs = {}
        for key in ((False, False), (False, True), (True, False), (True, True)):
            pn, pd = chart_coeffs(f, *key)
            self.pairs[key] = (pn, pd, deriv_coeffs(pn), deriv_coeffs(pd))

    def __call__(self, z_inverted, w_inverted, u) -> np.ndarray:
        out = np.empty(len(u), dtype=complex)
        for (zi, wi), (pn, pd, dpn, dpd) in self.pairs.items():
            sel = (z_inverted == zi) & (w_inverted == wi)
            x = u[sel]
            nv, dv = polyval(pn, x), polyval(pd, x)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                slope = (polyval(dpn, x) * dv - nv * polyval(dpd, x)) / (dv * dv)
            out[sel] = np.where(dv == 0, math.inf, slope)
        return out


def cycle_multiplier(f: RationalMap, points) -> complex:
    """Chain-rule multiplier along a cycle, chart-corrected at infinity/poles."""
    inverted, u = chart_split(sphere_array(points))
    return _product(_chart_slopes(f)(inverted, np.roll(inverted, -1), u))


def _product(slopes: np.ndarray) -> complex:
    """The product in order, as the scalar chain rule multiplies."""
    return math.prod(slopes.tolist(), start=1.0 + 0.0j)


# ---------------------------------------------------------------------------
# preimages


def preimage_points(f: RationalMap, z):
    """All d preimages of z (with multiplicity) as SpherePoints."""
    z = SpherePoint.of(z)
    return [SpherePoint.of(w) for w in _preimage_values(f, None if z.infinite else z.value)]


def _preimage_coeffs(f: RationalMap):
    """Numerator and denominator coefficients, both of length deg f + 1."""
    return memoized(f, "preimage-coeffs", lambda: chart_coeffs(f, False, False))


def _preimage_values(f: RationalMap, z) -> list:
    """All d preimages of z (a complex, or None for infinity) with
    multiplicity: the finite ones sorted by (re, im), then None for each one
    at infinity (a root that overflows included)."""
    nc, dc = _preimage_coeffs(f)
    d = len(nc) - 1
    if z is None:
        c = dc
    elif abs(z) > 1e8:
        # solve den(w) - (1/z) num(w) = 0: better conditioned for huge z
        c = dc - (1.0 / z) * nc
    else:
        c = nc - z * dc
    size = np.abs(c).tolist()
    scale = max(size)
    if scale == 0.0:
        raise PreimageSolveFailed("degenerate preimage polynomial")
    deg = d
    while size[deg] <= 1e-13 * scale:
        deg -= 1
    if deg == 1:
        roots = [complex(-c[0] / c[1])]
    elif deg == 2:
        roots = [complex(r) for r in _quadratic_rows(c[2], c[1], c[0])]
    elif deg >= 3:
        roots = _companion_roots(c[: deg + 1])
    else:
        roots = []
    out = sorted((w for w in roots if cmath.isfinite(w)), key=lambda w: (w.real, w.imag))
    at_inf = f.num.degree - f.den.degree if z is None else d - deg
    out += [None] * (len(roots) - len(out) + max(at_inf, 0))
    if len(out) != d:
        raise PreimageSolveFailed(f"expected {d} preimages, found {len(out)}")
    return out


# ---------------------------------------------------------------------------
# periodic points


@dataclass
class PeriodicOrbit:
    """One cycle: its points, exact period, multiplier and stability."""

    points: list
    exact_period: int
    multiplier: complex
    stability: str

    @staticmethod
    def stability_of(multiplier: complex) -> str:
        m = abs(multiplier)
        if m < 1.0 - NEUTRAL_BAND:
            return "attracting"
        if m > 1.0 + NEUTRAL_BAND:
            return "repelling"
        return "neutral"


def _series_compose(a, b, order):
    """Composition a(b(w)) for truncated series with zero constant terms."""
    out = np.zeros(order + 1, dtype=complex)
    power = np.zeros(order + 1, dtype=complex)
    power[0] = 1.0
    for k in range(1, len(a)):
        power = np.convolve(power, b)[: order + 1]
        out[: len(power)] += a[k] * power
    return out


def _orbit(points, lam: complex) -> PeriodicOrbit:
    return PeriodicOrbit(
        points=list(points),
        exact_period=len(points),
        multiplier=lam,
        stability=PeriodicOrbit.stability_of(lam),
    )


def _multiplicity(f: RationalMap, orbit: PeriodicOrbit, n: int) -> int:
    """Multiplicity of each point of the orbit as a solution of f^n(z) = z.

    It is 1 unless the multiplier is a root of unity of some order r with
    q r | n (q the orbit's length); then it is the order of f^{qr}(w) - w at
    the point in a local chart, the same for every such n (the Leau-Fatou
    flower: Milnor, Dynamics in One Complex Variable, section 10)."""
    reps = n // orbit.exact_period
    lam = orbit.multiplier
    for r in range(1, reps + 1):
        if reps % r == 0 and abs(lam**r - 1.0) <= ROOT_OF_UNITY_TOL:
            return _flower_order(f, orbit.points, r)
    return 1


def _flower_order(f: RationalMap, points, r: int) -> int:
    """Order of f^{qr}(w) - w at the first point of a q-cycle, composed from
    the series of f between the charts z = p + w (z = 1/w at infinity) of
    consecutive points.  The order is at most (2d - 2) r + 1: every cycle of
    petals attracts a critical point."""
    order = (2 * f.degree - 2) * r + 1
    steps = []
    for p, image in zip(points, points[1:] + points[:1]):
        chart = ((1.0,), (0.0, 1.0)) if p.infinite else ((p.value, 1.0), (1.0,))
        num, den = _substitute(f, *chart)
        if image.infinite:
            num, den = den, num
        else:
            num = num - image.value * den
        s = series_quotient(pad_coeffs(num, order + 1), pad_coeffs(den, order + 1), order)
        s[0] = 0.0
        steps.append(s)
    acc = np.zeros(order + 1, dtype=complex)
    acc[1] = 1.0
    for s in steps * r:
        acc = _series_compose(s, acc, order)
    # the coefficients below 2 vanish: the point is fixed by f^{qr}, with
    # multiplier 1
    big = np.flatnonzero(np.abs(acc[2:]) > FLOWER_COEFF_TOL)
    return int(big[0]) + 2 if big.size else order


def _infinity_orbit(f: RationalMap, n: int):
    """The orbit of infinity when infinity has exact period n, else None."""
    points = [INF]
    for _ in range(n):
        image = f(points[-1])
        if chordal_distance(image, INF) <= 1e-10:
            return _orbit(points, cycle_multiplier(f, points)) if len(points) == n else None
        points.append(image)
    return None


def _fixed_point_solutions(f: RationalMap) -> np.ndarray:
    """The finite fixed points of f, without multiplicity."""
    ln = max(len(f.num.coeffs), len(f.den.coeffs) + 1)
    c = pad_coeffs(f.num.coeffs, ln)
    c[1 : len(f.den.coeffs) + 1] -= f.den.coeffs
    p = Poly(c)
    if p.is_zero:
        raise RootFindingFailed("identity map has no isolated fixed points")
    if p.degree < 1:
        return np.zeros(0, dtype=complex)
    return all_roots(p, 1e-13).roots


def _orbit_data(f: RationalMap, z: np.ndarray, n: int):
    """Forward data for F(z) = f^n(z) - z: value, (f^n)', denominator log-deriv."""
    d = f.degree
    nc, dc = f.num.coeffs, f.den.coeffs
    dnc, ddc = deriv_coeffs(nc), deriv_coeffs(dc)
    w = z.astype(complex).copy()
    lam = np.ones_like(w)
    dlog = np.zeros_like(w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            nv = polyval(nc, w)
            dv = polyval(dc, w)
            npv = polyval(dnc, w)
            dpv = polyval(ddc, w)
            fp = (npv * dv - nv * dpv) / (dv * dv)
            dlog = dlog + float(d) ** (n - 1 - k) * (dpv / dv) * lam
            lam = lam * fp
            w = nv / dv
        F = w - z
    return F, lam, dlog


def _newton_correction(f, z: np.ndarray, n: int) -> np.ndarray:
    """P/P' at z for the period-n polynomial P, from the orbit data: 0 at an
    exact root, and nan where P'/P overflows (a stray far off the Julia set,
    which has not converged)."""
    F, lam, dlog = _orbit_data(f, z, n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = (lam - 1.0) / F + dlog
        return np.where(F == 0, 0.0, np.where(np.isfinite(ratio), 1.0 / ratio, np.nan))


def _reciprocal_sums(z, known, weights=1.0, buf=None, skip=None):
    """Sum_j weights_j / (z_i - known_j) for each z_i, in row blocks of about
    RECIPROCAL_BLOCK entries so memory stays O(len(z) + len(known)).  With
    `skip`, an index array as long as z, row i leaves out column skip[i] (the
    Aberth sum, where z are the points known[skip]).  A caller that sums
    repeatedly passes `buf` from `_block_buffer`."""
    if buf is None:
        buf = _block_buffer(len(z), len(known))
    out = np.empty(len(z), dtype=complex)
    rows = len(buf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i0 in range(0, len(z), rows):
            i1 = min(i0 + rows, len(z))
            block = buf[: i1 - i0]
            np.subtract(z[i0:i1, None], known[None, :], out=block)
            if skip is not None:
                block[np.arange(i1 - i0), skip[i0:i1]] = np.inf
            np.divide(weights, block, out=block)
            np.sum(block, axis=1, out=out[i0:i1])
    return out


def _block_buffer(height: int, width: int) -> np.ndarray:
    rows = max(1, min(height, RECIPROCAL_BLOCK // max(width, 1)))
    return np.empty((rows, width), dtype=complex)


def _aberth_functional(f, n, z0, known=(), weights=()):
    """Simultaneous iteration on the period-n equation via functional values,
    for the roots other than `known` (finite roots of the period-n
    polynomial, held fixed with their multiplicities `weights`).

    A point whose step meets the stopping rule is frozen: it stays in the
    other points' sums but is no longer updated, so each iteration costs in
    proportion to the points still moving; the loop ends when none is."""
    z = z0.astype(complex).copy()
    known = np.asarray(known, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    center = np.median(z.real) + 1j * np.median(z.imag)
    buf = _block_buffer(len(z), len(z))
    known_buf = _block_buffer(len(z), len(known))
    active = np.arange(len(z))
    for _ in range(ABERTH_MAXITER):
        za = z[active]
        invr = _newton_correction(f, za, n)
        s = _reciprocal_sums(za, z, buf=buf, skip=active)
        s += _reciprocal_sums(za, known, weights, buf=known_buf)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            denom = 1.0 - invr * s
            step = np.where(np.abs(denom) > 1e-300, invr / denom, invr)
        bad = ~np.isfinite(step)
        if np.any(bad):
            step = np.where(bad, 0.25 * (za - center), step)
        # temper huge steps: keeps far strays from overshooting (a zero
        # step, as from a start at the centroid, must not divide by zero)
        mag = np.abs(step)
        cap = 1.0 + np.abs(za)
        step = np.where(mag > cap, step * (cap / np.maximum(mag, cap)), step)
        z[active] = za - step
        active = active[np.abs(step) > ABERTH_TOL * (1.0 + np.max(np.abs(z)))]
        if active.size == 0:
            break
    return z


def _period_solutions(f: RationalMap, n: int) -> list:
    """The orbits of exact period n of f, solved once per map."""
    return memoized(f, f"period-{n}", lambda: _solve_period(f, n))


def _solve_period(f: RationalMap, n: int) -> list:
    """The orbits of exact period n.

    The solutions of f^n(z) = z whose period properly divides n are known
    from the smaller solves; they enter the Aberth sum as fixed roots with
    their multiplicities, so only the new points are solved for, and the
    count d^n + 1 is met by construction or the solve fails."""
    d = f.degree
    expected = d**n + 1
    if expected > PERIOD_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"period {n} needs degree {expected} > cap {PERIOD_DEGREE_CAP}"
        )
    lower = [o for k in range(1, n) if n % k == 0 for o in _period_solutions(f, k)]
    pool = sphere_array([p for o in lower for p in o.points])
    weights = np.repeat(
        [float(_multiplicity(f, o, n)) for o in lower], [o.exact_period for o in lower]
    )
    known_total = int(np.sum(weights))
    new_inf = _infinity_orbit(f, n)
    tail = np.array([complex(math.inf, 0.0)] if new_inf else [], dtype=complex)
    if n == 1:
        new = np.concatenate([_fixed_point_solutions(f), tail])
        return _close_orbits(f, n, new, pool, known_total)
    m = expected - known_total - (_multiplicity(f, new_inf, n) if new_inf else 0)
    if m <= 0:
        return _close_orbits(f, n, tail, pool, known_total)
    finite = np.isfinite(pool)
    known, weights = pool[finite], weights[finite]
    try:
        seed_cloud = _sampler_points(f, max(4 * m, 256), seed=20210 + n)
    except PreimageSolveFailed:
        # no repelling cycle of period 1 or 2 to sample backward from (as
        # while period 2 itself is being solved): seed from a ring
        seed_cloud = np.zeros(0, dtype=complex)
    z = _aberth_functional(f, n, _spread_initial(seed_cloud, m), known, weights)
    F, lam, _ = _orbit_data(f, z, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        quality = np.abs(F) / np.maximum(np.abs(lam - 1.0), 1e-6)
    ok = np.isfinite(quality) & (quality < 1e-7 * np.maximum(1.0, np.abs(z)))
    if not np.all(ok):
        raise RootFindingFailed(
            f"period-{n} solve found {expected - m + int(np.sum(ok))} "
            f"of {expected} expected solutions"
        )
    # only where (f^n)' = 1 can a root be multiple: merge its copies
    near = np.abs(lam - 1.0) <= 1e-2
    centers, _ = cluster_roots(z[near], DUPLICATE_CLUSTER)
    new = np.concatenate([z[~near], centers, tail])
    return _close_orbits(f, n, new, pool, known_total)


def _close_orbits(f, n, new, pool, known_total):
    """Group the new period-n solutions into orbits and check the count.

    Each new point's successor is the solution (new or known) chordally
    nearest its image; the successors must permute the new points, in
    cycles of length n.  With the multiplicities of the new orbits, all
    solutions must add up to d^n + 1."""
    succ = _successors(f, new, np.concatenate([new, pool]))
    if np.any(succ >= len(new)) or len(np.unique(succ)) != len(new):
        raise RootFindingFailed(f"period-{n} solutions are not permuted by the map")
    points = [SpherePoint.of(z) for z in new]
    inverted, u = chart_split(new)
    slopes = _chart_slopes(f)(inverted, inverted[succ], u)
    orbits = []
    seen = np.zeros(len(new), dtype=bool)
    # real parts equal to within rounding tie, so conjugate orbits are
    # ordered by their imaginary parts
    for s in np.lexsort((new.imag, np.round(new.real, 12))).tolist():
        if seen[s]:
            continue
        cycle = [s]
        while succ[cycle[-1]] != s:
            cycle.append(int(succ[cycle[-1]]))
        seen[cycle] = True
        if len(cycle) != n:
            raise RootFindingFailed(
                f"period-{n} solution {points[s]} has period {len(cycle)}"
            )
        orbits.append(_orbit([points[k] for k in cycle], _product(slopes[cycle])))
    found = known_total + sum(n * _multiplicity(f, o, n) for o in orbits)
    expected = f.degree**n + 1
    if found != expected:
        raise RootFindingFailed(
            f"period-{n} solve found {found} of {expected} expected solutions"
        )
    return orbits


def _successors(f, z, pts) -> np.ndarray:
    """For each of the sphere points z, the index of the point of pts
    chordally nearest its image.  A row block holds a quarter of
    RECIPROCAL_BLOCK distances, so that its temporaries (one complex
    difference and a few real arrays) fit the kernel's 1 MiB."""
    images = image_array(f, z)
    succ = np.empty(len(z), dtype=int)
    rows = max(1, RECIPROCAL_BLOCK // (4 * max(len(pts), 1)))
    for i0 in range(0, len(z), rows):
        dist = chordal_distances(images[i0 : i0 + rows, None], pts[None, :])
        succ[i0 : i0 + rows] = np.argmin(dist, axis=1)
    return succ


def _spread_initial(cloud: np.ndarray, m: int) -> np.ndarray:
    pts = np.asarray(cloud, dtype=complex)
    pts = pts[np.isfinite(pts)]
    if pts.size == 0:
        pts = np.exp(2j * np.pi * np.arange(max(m, 8)) / max(m, 8)) * 2.0
    pts = pts[np.lexsort((pts.imag, pts.real))]
    # with fewer points than m, points repeat; the jitter separates them
    base = pts[np.linspace(0, len(pts) - 1, m).astype(int)]
    rng = np.random.default_rng(4242)
    scale = max(1.0, float(np.median(np.abs(base))))
    jitter = 1e-3 * scale * np.exp(2j * np.pi * rng.random(m))
    return base + jitter


def periodic_points(f: RationalMap, n: int):
    """All orbits of exact period n, with multipliers and stability classes."""
    if f.degree < 2:
        raise ValueError("periodic points require degree >= 2")
    if n < 1:
        raise ValueError("period must be >= 1")
    return [replace(o, points=list(o.points)) for o in _period_solutions(f, n)]


def projective_solution_count(f: RationalMap, n: int) -> int:
    """Number of period-n solutions with multiplicity, infinity included."""
    return sum(
        k * _multiplicity(f, o, n)
        for k in range(1, n + 1)
        if n % k == 0
        for o in _period_solutions(f, k)
    )


# ---------------------------------------------------------------------------
# the real-multiplier predicate


def real_multiplier_test(f: RationalMap, n_max: int, tol: float = 1e-8) -> dict:
    """Check that every repelling orbit of exact period <= n_max has a real
    multiplier; reports the worst offender and the full multiplier table."""
    table = []
    worst = None
    worst_score = -1.0
    passed = True
    for n in range(1, n_max + 1):
        for orbit in periodic_points(f, n):
            lam = orbit.multiplier
            entry = {
                "period": n,
                "points": [_point_json(p) for p in orbit.points],
                "multiplier_re": float(lam.real),
                "multiplier_im": float(lam.imag),
                "stability": orbit.stability,
            }
            table.append(entry)
            if orbit.stability != "repelling":
                continue
            imag_excess = abs(lam.imag) - tol * max(1.0, abs(lam))
            # rounded, so that rounding noise never decides: ties go to the
            # earliest orbit in the table
            score = round(abs(lam.imag) / max(1.0, abs(lam)), 12)
            if score > worst_score:
                worst_score = score
                worst = {
                    "period": n,
                    "point": _point_json(orbit.points[0]),
                    "multiplier_re": float(lam.real),
                    "multiplier_im": float(lam.imag),
                    "im_abs": abs(lam.imag),
                }
            if imag_excess > 0:
                passed = False
    return {
        "passed": passed,
        "n_max": n_max,
        "tol": tol,
        "worst": worst,
        "table": table,
    }


def _point_json(p: SpherePoint):
    if p.infinite:
        return "inf"
    return [float(p.re), float(p.im)]


# ---------------------------------------------------------------------------
# maximal-entropy sampling


@dataclass
class MaxEntropySample:
    """The points of a batched backward walk (`backward_sample`), its burn-in
    (steps per chain), the requested count and the seed.  The seeded stream
    is the batched walk's, so a seed gives other points than the
    single-chain walk of earlier versions did."""

    points: list
    burn_in: int
    count: int
    seed: int


def repelling_points(f: RationalMap, n: int) -> list:
    """The points of the repelling cycles of exact period n."""
    return [p for o in periodic_points(f, n) if o.stability == "repelling" for p in o.points]


def _start_candidates(f: RationalMap):
    for n in (1, 2):
        try:
            cands = repelling_points(f, n)
        except (RootFindingFailed, DegreeCapExceeded):
            continue
        if cands:
            return sorted(cands, key=SpherePoint.sort_key)
    raise PreimageSolveFailed("no repelling low-period starting point found")


def backward_sample(f: RationalMap, size: int, seed: int) -> MaxEntropySample:
    """`size` points of the batched backward walk `_sampler_points` (at most
    64 chains, uniform preimage choice), which approximate the measure of
    maximal entropy.  The burn-in of BURN_IN steps counts per chain.  The
    seeded stream is that of the batched walk, so a seed gives other points
    than the single-chain walk of earlier versions did."""
    if f.degree < 2:
        raise ValueError("backward sampling requires degree >= 2")
    pts = _sphere_points(_sampler_points(f, size, seed))
    return MaxEntropySample(points=pts, burn_in=BURN_IN, count=size, seed=seed)


@dataclass
class ErgodicEstimates:
    chi: float
    chi_stderr: float
    log_deg: float
    hd_mu_estimate: float


def _spherical_log_derivatives(f: RationalMap, points) -> np.ndarray:
    """log of the spherical-metric derivative norm of f at each point."""
    z = sphere_array(points)
    z_inv, u = chart_split(z)
    w_inv, v = chart_split(image_array(f, z))
    slopes = _chart_slopes(f)(z_inv, w_inv, u)
    with np.errstate(invalid="ignore", over="ignore"):
        mag = (
            _modulus(slopes)
            * (1.0 + np.float_power(_modulus(u), 2))
            / (1.0 + np.float_power(_modulus(v), 2))
        )
    bad = np.flatnonzero(~np.isfinite(mag) | (mag <= 0.0))
    if bad.size:
        raise DerivativeSingular(
            f"spherical derivative degenerate at {SpherePoint.of(points[bad[0]])}"
        )
    return np.log(mag)


def lyapunov_exponent(f: RationalMap, sample: MaxEntropySample) -> ErgodicEstimates:
    """Average of log |Df| in the spherical metric over the sample."""
    if not sample.points:
        raise ValueError("empty sample")
    logs = _spherical_log_derivatives(f, sample.points)
    chi = float(np.mean(logs))
    stderr = float(np.std(logs, ddof=1) / math.sqrt(len(logs))) if len(logs) > 1 else 0.0
    log_deg = math.log(f.degree)
    if chi <= 0:
        raise DerivativeSingular("nonpositive Lyapunov estimate")
    return ErgodicEstimates(
        chi=chi, chi_stderr=stderr, log_deg=log_deg, hd_mu_estimate=log_deg / chi
    )


# ---------------------------------------------------------------------------
# Julia point clouds


def _quadratic_rows(a, b, c):
    """Stable roots of a w^2 + b w + c, row-wise: q = -(b +- disc)/2 with
    the sign that avoids cancellation, then q/a and c/q."""
    with np.errstate(all="ignore"):
        disc = np.sqrt(b * b - 4.0 * a * c)
        sign = np.where(np.abs(b - disc) > np.abs(b + disc), -1.0, 1.0)
        q = -0.5 * (b + sign * disc)
        r1 = q / np.where(a == 0, 1.0, a)
        r2 = np.where(np.abs(q) > 0, c / np.where(q == 0, 1.0, q), 0.0)
    return r1, r2


def _cubic_rows(c):
    """Cardano on the monic cubics with ascending coefficient rows c."""
    shift = c[:, 2] / 3.0
    p = c[:, 1] - c[:, 2] * shift
    q = c[:, 0] - shift * (c[:, 1] - 2.0 * shift * shift)
    s = np.sqrt(0.25 * q * q + p * p * p / 27.0)
    u3 = np.where(np.abs(s - 0.5 * q) >= np.abs(s + 0.5 * q), s - 0.5 * q, -s - 0.5 * q)
    # u = 0 only where p = q = 0: a triple root at the shift
    u = np.where(u3 == 0, 0.0, u3 ** (1.0 / 3.0))[:, None]
    u = u * np.exp(2j * np.pi / 3.0 * np.arange(3))
    v = np.where(u == 0, 0.0, p[:, None] / (3.0 * u))
    return u - v - shift[:, None]


def _quartic_rows(c):
    """Ferrari on the monic quartics with ascending coefficient rows c: the
    largest root m of the resolvent cubic splits the depressed quartic into
    two quadratic factors."""
    shift = c[:, 3] / 4.0
    sq = shift * shift
    p = c[:, 2] - 6.0 * sq
    q = c[:, 1] - 2.0 * c[:, 2] * shift + 8.0 * sq * shift
    r = c[:, 0] - c[:, 1] * shift + c[:, 2] * sq - 3.0 * sq * sq
    resolvent = np.stack([-0.125 * q * q, 0.25 * p * p - r, p, np.ones_like(p)], axis=1)
    ms = _cubic_rows(resolvent)
    m = ms[np.arange(len(ms)), np.argmax(np.abs(ms), axis=1)]
    s = np.sqrt(2.0 * m)
    t = np.where(s == 0, 0.0, q / (2.0 * s))
    half = 0.5 * p + m
    y = np.stack(_quadratic_rows(1.0, -s, half + t) + _quadratic_rows(1.0, s, half - t), axis=1)
    return y - shift[:, None]


def _companion_eigvals(c):
    """Roots of the monic polynomials with ascending coefficient rows c, as
    the eigenvalues of their stacked companion matrices."""
    rows, d = c.shape[0], c.shape[1] - 1
    comp = np.zeros((rows, d, d), dtype=complex)
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    comp[:, :, d - 1] = -c[:, :d]
    return np.linalg.eigvals(comp)


def _monic_roots(c):
    """Roots of the monic polynomials with ascending coefficient rows c (the
    last column, 1, is not read), one row of roots each.

    A batch of CLOSED_FORM_ROWS or more cubics or quartics takes the closed
    forms (Cardano, Ferrari), each root polished by one Newton step kept
    only where it lowers |P|.  A row passes if every root w has the
    backward error |P(w)| <= 1e-12 sum |c_k| |w|^k; rows that fail, other
    degrees and narrower batches, where LAPACK is cheaper per row, take the
    companion eigensolve."""
    closed = {3: _cubic_rows, 4: _quartic_rows}.get(c.shape[1] - 1)
    if closed is None or len(c) < CLOSED_FORM_ROWS:
        return _companion_eigvals(c)
    with np.errstate(all="ignore"):
        w = closed(c)
        val, slope = _horner(c, w)
        polished = w - val / slope
        polished_val = _horner(c, polished)[0]
        better = np.abs(polished_val) < np.abs(val)
        w = np.where(better, polished, w)
        val = np.where(better, polished_val, val)
        size = _horner(np.abs(c), np.abs(w))[0]
        ok = np.all(np.abs(val) <= 1e-12 * size, axis=1)
    if not np.all(ok):
        w[~ok] = _companion_eigvals(c[~ok])
    return w


def _horner(c, w):
    """The monic polynomials with ascending coefficient rows c, and their
    derivatives, at the points w (one row of points per row of c)."""
    val = np.ones_like(w)
    slope = np.zeros_like(w)
    for k in range(c.shape[1] - 2, -1, -1):
        slope = slope * w + val
        val = val * w + c[:, k, None]
    return val, slope


def _batched_backward_step(f, z, rng):
    """One backward step for a batch of finite points (complex ndarray)."""
    d = f.degree
    nc, dc = _preimage_coeffs(f)
    if d == 2 and len(nc) == 3:
        a = nc[2] - z * dc[2]
        b = nc[1] - z * dc[1]
        c = nc[0] - z * dc[0]
        ok = np.abs(a) > 1e-13 * (np.abs(a) + np.abs(b) + np.abs(c))
        r1, r2 = _quadratic_rows(a, b, c)
        pick = rng.integers(0, 2, size=len(z))
        out = np.where(pick == 0, r1, r2)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            coeffs = nc[None, :] - z[:, None] * dc[None, :]
            lead = coeffs[:, -1]
            scale = np.max(np.abs(coeffs), axis=1)
            ok = np.isfinite(scale) & (np.abs(lead) > 1e-12 * scale)
            # a degenerate entry solves w^d = 0 in its row: the batch keeps
            # the walk's width, which picks the root kernel
            monic = np.where(ok[:, None], coeffs / lead[:, None], 0.0)
        out = np.empty_like(z)
        idx_ok = np.nonzero(ok)[0]
        if idx_ok.size:
            roots = _monic_roots(monic)
            pick = rng.integers(0, d, size=len(idx_ok))
            out[idx_ok] = roots[idx_ok, pick]
    # degenerate batch entries (infinity, a dropped leading coefficient)
    # take a scalar preimage solve
    for i in np.nonzero(~ok)[0]:
        pre = _preimage_values(f, complex(z[i]) if np.isfinite(z[i]) else None)
        choice = pre[int(rng.integers(0, len(pre)))]
        out[i] = complex(math.inf, 0.0) if choice is None else choice
    return out


def _sampler_points(f: RationalMap, size: int, seed: int, cloud: bool = False) -> np.ndarray:
    """Batched backward sampling from repelling low-period points.

    A cloud of a degree-3 or degree-4 map walks CLOSED_FORM_ROWS chains, so
    that every step takes the closed-form roots of `_monic_roots`.  Other
    walks, the period seeds and `backward_sample` among them, run at most
    64 chains, which take the companion eigensolve (or the quadratic
    formula at degree 2)."""
    starts = _start_candidates(f)
    if cloud and f.degree in (3, 4):
        chains = CLOSED_FORM_ROWS
    else:
        chains = int(min(64, max(8, size // 32 + 1)))
    rng = np.random.default_rng(seed)
    z = np.resize(sphere_array(starts), chains)
    out = np.empty((int(np.ceil(size / chains)), chains), dtype=complex)
    for k in range(BURN_IN + len(out)):
        z = _batched_backward_step(f, z, rng)
        if k >= BURN_IN:
            out[k - BURN_IN] = z
    return out.reshape(-1)[:size]


def julia_cloud(f: RationalMap, size: int, seed: int):
    """Union of backward runs from repelling low-period points, deduplicated
    on a grid of pitch 1e-4 (both charts).  Returns at most `size` points,
    fewer when the grid saturates (thin Cantor Julia sets).

    Each batch adds, in batch order, the points of the grid cells it is
    first to reach, until `size` cells are filled; the points come out
    sorted by `SpherePoint.sort_key`."""
    seen = np.zeros(0, dtype=np.int64)
    kept = [np.zeros(0, dtype=complex)]
    count = 0
    rounds = 0
    added = size
    while count < size and rounds < 40 and added >= max(1, size // 200):
        batch = _sampler_points(f, max(size, 512), seed=seed + 1009 * rounds, cloud=True)
        cells, first = np.unique(_grid_cells(batch), return_index=True)
        new = ~np.isin(cells, seen)
        # the cells beyond the cut are marked seen too: the loop ends there
        seen = np.concatenate([seen, cells[new]])
        fresh = np.sort(first[new])[: size - count]
        kept.append(batch[fresh])
        added = len(fresh)
        count += added
        rounds += 1
    z = np.concatenate(kept)
    finite = np.isfinite(z)
    order = np.lexsort((np.where(finite, z.imag, 0.0), np.where(finite, z.real, math.inf)))
    return _sphere_points(z[order])


def _sphere_points(z) -> list:
    """A sphere array as SpherePoints, in order."""
    return [
        SpherePoint(x, y) if is_finite else INF
        for x, y, is_finite in zip(z.real.tolist(), z.imag.tolist(), np.isfinite(z).tolist())
    ]


def _grid_cells(z) -> np.ndarray:
    """The cell of each point on the grid of pitch DEDUP_PITCH in its chart
    (`chart_split`), as one integer; -0.0 and 0.0 share a cell."""
    inverted, w = chart_split(z)
    span = 2 * int(round(1.0 / DEDUP_PITCH)) + 1
    re = np.round(w.real / DEDUP_PITCH).astype(np.int64) + span // 2
    im = np.round(w.imag / DEDUP_PITCH).astype(np.int64) + span // 2
    return (inverted * span + re) * span + im


def cloud_array(cloud):
    """Split a cloud into a finite complex ndarray and a count at infinity."""
    finite = np.array(
        [p.value for p in cloud if not p.infinite], dtype=complex
    )
    n_inf = sum(1 for p in cloud if p.infinite)
    return finite, n_inf
