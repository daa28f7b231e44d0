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

import math
from dataclasses import dataclass

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
    cluster_roots,
    deriv_coeffs,
    pad_coeffs,
    polyval,
    series_quotient,
    sorted_roots,
    sphere_array,
)
from .errors import (
    DegreeCapExceeded,
    DerivativeSingular,
    PreimageSolveFailed,
    RootFindingFailed,
)

NEUTRAL_BAND = 1e-6
PERIOD_DEGREE_CAP = 4097
DUPLICATE_CLUSTER = 1e-9
BURN_IN = 50
DEDUP_PITCH = 1e-4


# ---------------------------------------------------------------------------
# chart-aware derivatives


class _ChartSlopes:
    """Derivatives of f read from the chart of a point to the chart of its
    image, with the chart rule of `chart_split`."""

    def __init__(self, f: RationalMap):
        self.pairs = {}
        for key in ((False, False), (False, True), (True, False), (True, True)):
            pn, pd = chart_coeffs(f, *key)
            self.pairs[key] = (pn, pd, deriv_coeffs(pn), deriv_coeffs(pd))

    def __call__(self, z_inverted, w_inverted, u) -> complex:
        pn, pd, dpn, dpd = self.pairs[(bool(z_inverted), bool(w_inverted))]
        nv = polyval(pn, u)
        dv = polyval(pd, u)
        npv = polyval(dpn, u)
        dpv = polyval(dpd, u)
        if dv == 0:
            return complex(math.inf, 0.0)
        return (npv * dv - nv * dpv) / (dv * dv)


def cycle_multiplier(f: RationalMap, points) -> complex:
    """Chain-rule multiplier along a cycle, chart-corrected at infinity/poles."""
    slope = _ChartSlopes(f)
    inverted, u = chart_split(sphere_array(points))
    lam = 1.0 + 0.0j
    n = len(u)
    for k in range(n):
        lam *= slope(inverted[k], inverted[(k + 1) % n], u[k])
    return lam


# ---------------------------------------------------------------------------
# preimages


def preimage_points(f: RationalMap, z):
    """All d preimages of z (with multiplicity) as SpherePoints."""
    d = f.degree
    z = SpherePoint.of(z)
    if z.infinite:
        c = f.den.coeffs.copy()
        inf_mult = f.num.degree - f.den.degree
    else:
        zv = z.value
        ln = max(len(f.num.coeffs), len(f.den.coeffs))
        if abs(zv) > 1e8:
            # solve den(w) - (1/z) num(w) = 0: better conditioned for huge z
            c = pad_coeffs(f.den.coeffs, ln) - (1.0 / zv) * pad_coeffs(f.num.coeffs, ln)
        else:
            c = pad_coeffs(f.num.coeffs, ln) - zv * pad_coeffs(f.den.coeffs, ln)
        inf_mult = None
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        raise PreimageSolveFailed("degenerate preimage polynomial")
    keep = np.nonzero(np.abs(c) > 1e-13 * scale)[0]
    c = c[: keep[-1] + 1]
    deg = len(c) - 1
    if inf_mult is None:
        inf_mult = d - deg
    out = []
    if deg >= 1:
        if deg == 1:
            rts = np.array([-c[0] / c[1]])
        elif deg == 2:
            rts = _quadratic_roots(c[2], c[1], c[0])
        else:
            rts = np.roots(c[::-1])
        order = np.lexsort((rts.imag, rts.real))
        out.extend(SpherePoint.of(r) for r in rts[order])
    out.extend([INF] * max(inf_mult, 0))
    if len(out) != d:
        raise PreimageSolveFailed(f"expected {d} preimages, found {len(out)}")
    return out


def _quadratic_roots(a, b, c):
    """Stable quadratic roots of a z^2 + b z + c."""
    disc = np.sqrt(b * b - 4.0 * a * c + 0.0j)
    if abs(b - disc) > abs(b + disc):
        q = -0.5 * (b - disc)
    else:
        q = -0.5 * (b + disc)
    r1 = q / a
    r2 = c / q if q != 0 else 0.0 + 0.0j
    return np.array([r1, r2], dtype=complex)


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


@dataclass
class _PeriodSolutions:
    finite: np.ndarray
    finite_mult: list
    inf_periodic: bool
    inf_mult: int
    projective_total: int


def _series_compose(a, b, order):
    """Composition a(b(w)) for truncated series with zero constant terms."""
    out = np.zeros(order + 1, dtype=complex)
    power = np.zeros(order + 1, dtype=complex)
    power[0] = 1.0
    for k in range(1, len(a)):
        power = np.convolve(power, b)[: order + 1]
        out[: len(power)] += a[k] * power
    return out


def _local_series_at_zero(g: RationalMap, order: int):
    """Taylor series of g at 0 up to the given order (g(0) must be 0)."""
    n = pad_coeffs(g.num.coeffs, order + 1)[: order + 1]
    m = pad_coeffs(g.den.coeffs, order + 1)[: order + 1]
    if m[0] == 0:
        raise PreimageSolveFailed("pole at the origin in local series")
    return series_quotient(n, m, order)


def _infinity_fixed_multiplicity(f: RationalMap, n: int) -> int:
    """Projective multiplicity of infinity as a solution of f^n(z) = z."""
    orbit = [INF]
    for _ in range(n):
        orbit.append(f(orbit[-1]))
    if not orbit[n].infinite:
        if chordal_distance(orbit[n], INF) > 1e-10:
            return 0
    # period of infinity along the orbit
    q = next(k for k in range(1, n + 1) if orbit[k].infinite or
             chordal_distance(orbit[k], INF) <= 1e-10)
    lam = cycle_multiplier(f, orbit[:q])
    power = lam ** (n // q)
    if abs(power - 1.0) > 1e-8:
        return 1
    # parabolic: order of vanishing of (chart of f^n)(w) - w at 0
    order = 12
    g = f.reciprocal_chart()
    s = _local_series_at_zero(g, order)
    s[0] = 0.0
    acc = s.copy()
    for _ in range(n - 1):
        acc = _series_compose(s, acc, order)
    acc[1] -= 1.0
    nz = np.nonzero(np.abs(acc) > 1e-9 * max(1.0, float(np.max(np.abs(acc)))))[0]
    return int(nz[0]) if nz.size else order


def _fixed_point_solutions(f: RationalMap) -> _PeriodSolutions:
    from .roots import all_roots

    ln = max(len(f.num.coeffs), len(f.den.coeffs) + 1)
    c = pad_coeffs(f.num.coeffs, ln)
    c[1 : len(f.den.coeffs) + 1] -= f.den.coeffs
    p = Poly(c)
    if p.is_zero:
        raise RootFindingFailed("identity map has no isolated fixed points")
    d = f.degree
    inf_mult = _infinity_fixed_multiplicity(f, 1)
    if p.degree >= 1:
        rs = all_roots(p, 1e-13)
        finite, mult = rs.roots, rs.multiplicities
    else:
        finite, mult = np.zeros(0, dtype=complex), []
    return _PeriodSolutions(
        finite=finite,
        finite_mult=mult,
        inf_periodic=inf_mult > 0,
        inf_mult=inf_mult,
        projective_total=d + 1,
    )


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


def _log_derivative(f, z: np.ndarray, n: int) -> np.ndarray:
    """P'/P at z for the period-n polynomial P, from the orbit data."""
    F, lam, dlog = _orbit_data(f, z, n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (lam - 1.0) / F + dlog


def _step_quality(f, z: np.ndarray, n: int) -> np.ndarray:
    """|F| / max(|(f^n)' - 1|, 1e-6): the Newton step length at z."""
    F, lam, _ = _orbit_data(f, z, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(F) / np.maximum(np.abs(lam - 1.0), 1e-6)


def _aberth_functional(f, n, m, z0, tol=1e-13, maxiter=400):
    """Simultaneous iteration on the period-n equation via functional values."""
    z = z0.astype(complex).copy()
    center = np.median(z.real) + 1j * np.median(z.imag)
    for _ in range(maxiter):
        ratio = _log_derivative(f, z, n)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            invr = 1.0 / ratio
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            s = np.sum(1.0 / diff, axis=1)
            denom = 1.0 - invr * s
            step = np.where(np.abs(denom) > 1e-300, invr / denom, invr)
        bad = ~np.isfinite(step)
        if np.any(bad):
            step = np.where(bad, 0.25 * (z - center), step)
        # temper huge steps: keeps far strays from overshooting (a zero
        # step, as from a start at the centroid, must not divide by zero)
        mag = np.abs(step)
        cap = 1.0 + np.abs(z)
        step = np.where(mag > cap, step * (cap / np.maximum(mag, cap)), step)
        z = z - step
        if np.max(np.abs(step)) <= tol * (1.0 + np.max(np.abs(z))):
            break
    return z


def _period_solutions(f: RationalMap, n: int, cache: dict, seed_cloud=None):
    if n in cache:
        return cache[n]
    d = f.degree
    if d**n + 1 > PERIOD_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"period {n} needs degree {d ** n + 1} > cap {PERIOD_DEGREE_CAP}"
        )
    if n == 1:
        sol = _fixed_point_solutions(f)
        cache[1] = sol
        return sol
    inf_mult = _infinity_fixed_multiplicity(f, n)
    m = d**n + 1 - inf_mult
    if seed_cloud is None:
        seed_cloud = _sampler_points(f, max(4 * m, 256), seed=20210 + n)
    z0 = _spread_initial(seed_cloud, m)
    best = None
    for attempt in range(3):
        z = _aberth_functional(f, n, m, z0)
        quality = _step_quality(f, z, n)
        ok = np.isfinite(quality) & (quality < 1e-7 * np.maximum(1.0, np.abs(z)))
        centers, mult = cluster_roots(z[ok], DUPLICATE_CLUSTER)
        centers, mult = _validate_multiplicities(f, n, centers, mult)
        centers, mult = _forward_closure(f, n, centers, mult)
        total = sum(mult)
        if best is None or total > best[2]:
            best = (centers, mult, total)
        if total == m:
            break
        rng = np.random.default_rng(777 + attempt)
        z0 = z0 * (1.0 + 0.02 * (rng.random(len(z0)) - 0.5)) + 0.01 * (
            rng.random(len(z0)) - 0.5
        )
    centers, mult, total = best
    if total < m:
        centers, mult, total = _newton_topup(f, n, m, centers, mult)
        if total < m:
            arr = np.asarray(centers, dtype=complex)
            arr2, mult2 = _forward_closure(f, n, arr, mult)
            centers, mult, total = arr2, mult2, sum(mult2)
    if total != m:
        raise RootFindingFailed(
            f"period-{n} solve found {total} of {m} expected solutions"
        )
    sol = _PeriodSolutions(
        finite=centers,
        finite_mult=list(mult),
        inf_periodic=inf_mult > 0,
        inf_mult=inf_mult,
        projective_total=d**n + 1,
    )
    cache[n] = sol
    return sol


def _validate_multiplicities(f, n, centers, mult):
    """A genuine multiple solution of f^n(z) = z has derivative 1 there;
    clusters that fail this are duplicated iterates, not multiple roots."""
    if not centers.size or all(k == 1 for k in mult):
        return centers, mult
    _F, lam, _ = _orbit_data(f, centers, n)
    out = list(mult)
    for i, k in enumerate(mult):
        if k > 1 and abs(lam[i] - 1.0) > 1e-2:
            out[i] = 1
    return centers, out


def _forward_closure(f, n, centers, mult):
    """The period-n solution set is f-invariant: add polished images of
    known solutions that are missing from the set."""
    centers = [complex(c) for c in centers]
    mult = list(mult)
    for _round in range(2 * n + 2):
        added = False
        arr = np.asarray(centers, dtype=complex)
        for r in list(arr):
            img = f(SpherePoint.of(r))
            if img.infinite:
                continue
            w = img.value
            cur = np.asarray(centers, dtype=complex)
            if cur.size and np.min(np.abs(cur - w)) <= DUPLICATE_CLUSTER * max(
                1.0, abs(w)
            ):
                continue
            # Newton deflated by the known roots: targets the missing factor
            wz = np.array([w], dtype=complex)
            known_mult = np.asarray(mult, dtype=float)
            for _ in range(30):
                ratio = _log_derivative(f, wz, n)
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    ratio = ratio - np.sum(known_mult / (wz[0] - cur))
                    step = 1.0 / ratio
                if not np.all(np.isfinite(step)):
                    break
                wz = wz - step
                if abs(step[0]) <= 1e-14 * (1.0 + abs(wz[0])):
                    break
            quality = float(_step_quality(f, wz, n)[0])
            drift = abs(wz[0] - w)
            dist_known = (
                float(np.min(np.abs(cur - wz[0]))) if cur.size else math.inf
            )
            # accept a polished image that is a fresh root: it stayed nearer
            # its seed than any known solution (no drift onto an old root)
            if (
                math.isfinite(quality)
                and quality < 1e-8 * max(1.0, abs(wz[0]))
                and dist_known > DUPLICATE_CLUSTER * max(1.0, abs(wz[0]))
                and (drift < 0.5 * dist_known or drift <= 1e-3 * (1.0 + abs(w)))
            ):
                centers.append(complex(wz[0]))
                mult.append(1)
                added = True
        if not added:
            break
    return sorted_roots(centers, mult)


def _newton_topup(f, n, m, centers, mult):
    """Recover stragglers with seeded Newton multistart on F = f^n - id."""
    total = sum(mult)
    rng = np.random.default_rng(90210 + n)
    centers = list(centers)
    mult = list(mult)
    for _ in range(12):
        if total >= m:
            break
        starts = _sampler_points(f, 8 * (m - total) + 32, seed=int(rng.integers(1 << 30)))
        z = starts.astype(complex)
        z = z[np.isfinite(z)]
        known = np.asarray(centers, dtype=complex)
        known_mult = np.asarray(mult, dtype=float)
        # hidden roots cluster near known ones and near poles (perturbation
        # bubbles): ring starts with complex offsets reach them
        anchors = list(known)
        if f.den.degree >= 1:
            from .roots import all_roots as _ar

            anchors.extend(_ar(f.den, 1e-12).roots)
        rings = []
        for r in anchors:
            s = max(1.0, abs(r))
            for rad in (3e-2, 3e-3, 3e-4):
                for k in range(8):
                    rings.append(r + rad * s * np.exp(2j * np.pi * (k + 0.5) / 8))
        z = np.concatenate([z, np.asarray(rings, dtype=complex)])
        for _ in range(60):
            ratio = _log_derivative(f, z, n)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                if known.size:
                    ratio = ratio - np.sum(
                        known_mult[None, :] / (z[:, None] - known[None, :]), axis=1
                    )
                step = 1.0 / ratio
            step = np.where(np.isfinite(step), step, 0.0)
            z = z - step
        quality = _step_quality(f, z, n)
        good = z[np.isfinite(quality) & (quality < 1e-9 * np.maximum(1.0, np.abs(z)))]
        for r in good:
            if total >= m:
                break
            known = np.asarray(centers, dtype=complex)
            if known.size and np.min(np.abs(known - r)) <= DUPLICATE_CLUSTER * max(
                1.0, abs(r)
            ):
                continue
            centers.append(r)
            mult.append(1)
            total += 1
    return (*sorted_roots(centers, mult), total)


def _spread_initial(cloud: np.ndarray, m: int) -> np.ndarray:
    pts = np.asarray(cloud, dtype=complex)
    pts = pts[np.isfinite(pts)]
    if pts.size == 0:
        pts = np.exp(2j * np.pi * np.arange(max(m, 8)) / max(m, 8)) * 2.0
    order = np.lexsort((pts.imag, pts.real))
    pts = pts[order]
    if len(pts) >= m:
        idx = np.linspace(0, len(pts) - 1, m).astype(int)
        base = pts[idx]
    else:
        extra = 2.5 * np.exp(2j * np.pi * np.arange(m - len(pts)) / max(m - len(pts), 1))
        base = np.concatenate([pts, extra])
    rng = np.random.default_rng(4242)
    scale = max(1.0, float(np.median(np.abs(base))))
    jitter = 1e-3 * scale * np.exp(2j * np.pi * rng.random(m))
    return base + jitter


def periodic_points(f: RationalMap, n: int, cache: dict = None):
    """All orbits of exact period n, with multipliers and stability classes.

    The full period-n solution set is grouped into cycles by following the
    dynamics; cycles of length properly dividing n are the lower-period
    solutions and drop out, leaving each exact-period-n orbit once."""
    if f.degree < 2:
        raise ValueError("periodic points require degree >= 2")
    if n < 1:
        raise ValueError("period must be >= 1")
    cache = {} if cache is None else cache
    sol = _period_solutions(f, n, cache)

    pts = [SpherePoint.of(r) for r in sol.finite]
    if sol.inf_periodic:
        pts.append(INF)
    zs = sphere_array(pts)

    orbits = []
    remaining = np.ones(len(pts), dtype=bool)
    by_key = sorted(range(len(pts)), key=lambda k: pts[k].sort_key())
    for s in by_key:
        if not remaining[s]:
            continue
        start = pts[s]
        cycle = [start]
        remaining[s] = False
        current = start
        closed = False
        for _ in range(n):
            nxt = f(current)
            dists = chordal_distances(nxt, zs)
            d_back = dists[s]
            dists[~remaining] = math.inf
            j = int(np.argmin(dists))
            dist = dists[j]
            if d_back <= 1e-6 and d_back <= dist:
                closed = True
                break
            if dist > 1e-4:
                raise RootFindingFailed(
                    f"period-{n} cycle at {start} lost its successor"
                )
            cycle.append(pts[j])
            remaining[j] = False
            current = pts[j]
        if not closed:
            raise RootFindingFailed(f"period-{n} cycle at {start} failed to close")
        if len(cycle) != n:
            continue  # exact period properly divides n
        lam = cycle_multiplier(f, cycle)
        orbits.append(
            PeriodicOrbit(
                points=cycle,
                exact_period=n,
                multiplier=lam,
                stability=PeriodicOrbit.stability_of(lam),
            )
        )
    orbits.sort(key=lambda o: o.points[0].sort_key())
    return orbits


def projective_solution_count(f: RationalMap, n: int) -> int:
    """Number of period-n solutions with multiplicity, infinity included."""
    cache = {}
    sol = _period_solutions(f, n, cache)
    return int(sum(sol.finite_mult)) + sol.inf_mult


# ---------------------------------------------------------------------------
# the real-multiplier predicate


def real_multiplier_test(f: RationalMap, n_max: int, tol: float = 1e-8) -> dict:
    """Check that every repelling orbit of exact period <= n_max has a real
    multiplier; reports the worst offender and the full multiplier table."""
    cache = {}
    table = []
    worst = None
    passed = True
    for n in range(1, n_max + 1):
        for orbit in periodic_points(f, n, cache=cache):
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
            if worst is None or abs(lam.imag) > worst["im_abs"]:
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
    points: list
    burn_in: int
    count: int
    seed: int


def _start_candidates(f: RationalMap, cache=None):
    cache = {} if cache is None else cache
    cands = []
    for n in (1, 2):
        try:
            for orbit in periodic_points(f, n, cache=cache):
                if orbit.stability == "repelling":
                    cands.extend(orbit.points)
        except (RootFindingFailed, DegreeCapExceeded):
            continue
        if cands:
            break
    if not cands:
        raise PreimageSolveFailed("no repelling low-period starting point found")
    cands.sort(key=lambda p: p.sort_key())
    return cands


def _is_exceptional(f: RationalMap, p: SpherePoint) -> bool:
    pre = preimage_points(f, p)
    return all(chordal_distance(q, p) < 1e-9 for q in pre)


def backward_sample(f: RationalMap, size: int, seed: int) -> MaxEntropySample:
    """One random backward orbit; iterates after burn-in approximate the
    measure of maximal entropy."""
    if f.degree < 2:
        raise ValueError("backward sampling requires degree >= 2")
    rng = np.random.default_rng(seed)
    for start in _start_candidates(f):
        if not _is_exceptional(f, start):
            break
    else:
        raise PreimageSolveFailed("all starting points are exceptional")
    z = start
    pts = []
    total = BURN_IN + size
    for k in range(total):
        pre = preimage_points(f, z)
        z = pre[int(rng.integers(0, len(pre)))]
        if k >= BURN_IN:
            pts.append(z)
    return MaxEntropySample(points=pts, burn_in=BURN_IN, count=size, seed=seed)


@dataclass
class ErgodicEstimates:
    chi: float
    chi_stderr: float
    log_deg: float
    hd_mu_estimate: float


def _spherical_log_derivatives(f: RationalMap, points) -> np.ndarray:
    """log of the spherical-metric derivative norm of f at each point."""
    slope = _ChartSlopes(f)
    z_inv, u = chart_split(sphere_array(points))
    w_inv, v = chart_split(sphere_array(f(p) for p in points))
    out = np.empty(len(u))
    for k, (uk, vk) in enumerate(zip(u.tolist(), v.tolist())):
        dval = slope(z_inv[k], w_inv[k], uk)
        mag = abs(dval) * (1.0 + abs(uk) ** 2) / (1.0 + abs(vk) ** 2)
        if mag <= 0.0 or not math.isfinite(mag):
            raise DerivativeSingular(
                f"spherical derivative degenerate at {SpherePoint.of(points[k])}"
            )
        out[k] = math.log(mag)
    return out


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


def _batched_backward_step(f, z, rng):
    """One backward step for a batch of finite points (complex ndarray)."""
    d = f.degree
    ln = max(len(f.num.coeffs), len(f.den.coeffs))
    nc = pad_coeffs(f.num.coeffs, ln)
    dc = pad_coeffs(f.den.coeffs, ln)
    if d == 2 and ln == 3:
        a = nc[2] - z * dc[2]
        b = nc[1] - z * dc[1]
        c = nc[0] - z * dc[0]
        ok = np.abs(a) > 1e-13 * (np.abs(a) + np.abs(b) + np.abs(c))
        with np.errstate(invalid="ignore", divide="ignore"):
            disc = np.sqrt(b * b - 4.0 * a * c)
            sign = np.where(np.abs(b - disc) > np.abs(b + disc), -1.0, 1.0)
            q = -0.5 * (b + sign * disc)
            r1 = np.where(ok, q / np.where(a == 0, 1.0, a), 0.0)
            r2 = np.where(np.abs(q) > 0, c / np.where(q == 0, 1.0, q), 0.0)
        pick = rng.integers(0, 2, size=len(z))
        out = np.where(pick == 0, r1, r2)
    else:
        # general degree: stacked companion matrices, one eigensolve per batch
        with np.errstate(invalid="ignore", over="ignore"):
            coeffs = nc[None, :] - z[:, None] * dc[None, :]
            lead = coeffs[:, -1]
            scale = np.max(np.abs(coeffs), axis=1)
            ok = np.isfinite(scale) & (np.abs(lead) > 1e-12 * scale)
        out = np.empty_like(z)
        idx_ok = np.nonzero(ok)[0]
        if idx_ok.size:
            monic = coeffs[idx_ok] / lead[idx_ok, None]
            comp = np.zeros((len(idx_ok), d, d), dtype=complex)
            comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
            comp[:, :, d - 1] = -monic[:, :d]
            roots = np.linalg.eigvals(comp)
            pick = rng.integers(0, d, size=len(idx_ok))
            out[idx_ok] = roots[np.arange(len(idx_ok)), pick]
    # degenerate batch entries (infinity, a dropped leading coefficient)
    # take a scalar preimage solve
    for i in np.nonzero(~ok)[0]:
        pre = preimage_points(f, z[i])
        choice = pre[int(rng.integers(0, len(pre)))]
        out[i] = complex(math.inf, 0.0) if choice.infinite else choice.value
    return out


def _sampler_points(f: RationalMap, size: int, seed: int) -> np.ndarray:
    """Batched backward sampling used internally (initialization, clouds)."""
    starts = _start_candidates(f)
    chains = int(min(64, max(8, size // 32 + 1)))
    rng = np.random.default_rng(seed)
    z0 = np.array(
        [
            complex(math.inf, 0.0) if starts[k % len(starts)].infinite
            else starts[k % len(starts)].value
            for k in range(chains)
        ],
        dtype=complex,
    )
    steps = BURN_IN + int(np.ceil(size / chains))
    out = []
    z = z0
    for k in range(steps):
        z = _batched_backward_step(f, z, rng)
        if k >= BURN_IN:
            out.append(z.copy())
    flat = np.concatenate(out) if out else np.zeros(0, dtype=complex)
    return flat[:size]


def julia_cloud(f: RationalMap, size: int, seed: int):
    """Union of backward runs from repelling low-period points, deduplicated
    on a grid of pitch 1e-4 (both charts).  Returns at most `size` points,
    fewer when the grid saturates (thin Cantor Julia sets)."""
    seen = {}
    rounds = 0
    added = size
    while len(seen) < size and rounds < 40 and added >= max(1, size // 200):
        batch = _sampler_points(f, max(size, 512), seed=seed + 1009 * rounds)
        inverted, w = chart_split(batch)
        cells = zip(inverted, np.round(w.real / DEDUP_PITCH), np.round(w.imag / DEDUP_PITCH))
        before = len(seen)
        for z, key in zip(batch, cells):
            if key not in seen:
                seen[key] = z
            if len(seen) >= size:
                break
        added = len(seen) - before
        rounds += 1
    pts = [
        INF if not (math.isfinite(z.real) and math.isfinite(z.imag)) else SpherePoint.of(z)
        for z in seen.values()
    ]
    pts.sort(key=lambda p: p.sort_key())
    return pts


def cloud_array(cloud):
    """Split a cloud into a finite complex ndarray and a count at infinity."""
    finite = np.array(
        [p.value for p in cloud if not p.infinite], dtype=complex
    )
    n_inf = sum(1 for p in cloud if p.infinite)
    return finite, n_inf
