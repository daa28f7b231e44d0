"""Periodic orbits, multipliers, maximal-entropy sampling and Lyapunov data.

Period-n points solve f^n(z) = z.  Expanding the iterate's coefficients is
numerically hopeless beyond a few iterations (the coefficients grow
exponentially while the roots stay on a bounded Julia set), so the solvers
below evaluate the iterate functionally: P'/P comes from the chain-rule
derivative of f^n and the log-derivative of the accumulated denominator.
They start from the n-th preimages of one repelling point, which are
equidistributed as the period-n points are; Julia clouds and samples of
the measure of maximal entropy read the same backward tree.  A solve too
large for one block of the Aberth sum runs plain Newton first and leaves
the Aberth iteration only the points that collide or do not converge;
duplicates and successors are looked up on a grid of the sphere
(`_near_pairs`), so no step of a solve compares more than a quarter
block of pairs of points at once.
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
    chart_rows,
    chart_split,
    chordal_distance,
    chordal_distances,
    critical_points,
    finite_poles,
    _modulus,
    _substitute,
    cluster_roots,
    horner_rows,
    image_array,
    memoized,
    pad_coeffs,
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
DEDUP_PITCH = 1e-4
ABERTH_TOL = 1e-13
ABERTH_MAXITER = 400
RECIPROCAL_BLOCK = 1 << 16  # complex entries per row block (1 MiB)
NEWTON_STEPS = 8  # at most, before the Aberth iteration
CLOSED_FORM_ROWS = 256  # batch width from which closed-form cubic/quartic roots pay


# ---------------------------------------------------------------------------
# chart-aware derivatives


def _chart_slopes(f: RationalMap, z_inverted, w_inverted, u) -> np.ndarray:
    """Derivatives of f at the points u, read from the chart of each point
    (`z_inverted`, the rule of `chart_split`) to the chart of its image
    (`w_inverted`): one `horner_rows` pass per pair of charts, on the rows
    of `chart_rows` with num and den, num' and den' swapped where the image
    is inverted."""
    out = np.empty(len(u), dtype=complex)
    for flag, rows in enumerate(chart_rows(f)):
        for flip in (False, True):
            sel = (z_inverted == flag) & (w_inverted == flip)
            nv, dv, npv, dpv = horner_rows(rows[[1, 0, 3, 2]] if flip else rows, u[sel])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                slope = (npv * dv - nv * dpv) / (dv * dv)
            out[sel] = np.where(dv == 0, math.inf, slope)
    return out


def cycle_multiplier(f: RationalMap, points) -> complex:
    """Chain-rule multiplier along a cycle, chart-corrected at infinity/poles."""
    inverted, u = chart_split(sphere_array(points))
    return _product(_chart_slopes(f, inverted, np.roll(inverted, -1), u))


def _product(slopes: np.ndarray) -> complex:
    """The product in order, as the scalar chain rule multiplies."""
    return math.prod(slopes.tolist(), start=1.0 + 0.0j)


# ---------------------------------------------------------------------------
# preimages


def preimage_points(f: RationalMap, z):
    """All d preimages of z (with multiplicity) as SpherePoints."""
    z = SpherePoint.of(z)
    return [SpherePoint.of(w) for w in _preimage_values(f, None if z.infinite else z.value)]


def _preimage_values(f: RationalMap, z) -> list:
    """All d preimages of z (a complex, or None for infinity) with
    multiplicity: the finite ones sorted by (re, im), then None for each one
    at infinity (a root that overflows included)."""
    nc, dc = chart_rows(f)[0, :2]
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
# critical orbits


def critical_orbits(f: RationalMap, steps: int):
    """The distinct critical points and their first `steps` images, as the
    columns of a (steps + 1) x k sphere array, with their local degrees
    (1 + Wronskian multiplicity; copies within chordal 1e-9 are one point).

    A point within rounding reach of a pole maps to infinity exactly, so
    orbits through a pole land instead of exploding.  The rows stop early
    at the first step that moves no point: every orbit then sits at a fixed
    point, which that last row repeats."""
    crit = sphere_array(critical_points(f))
    first = np.argmax(chordal_distances(crit[:, None], crit[None, :]) <= 1e-9, axis=1)
    keep = np.flatnonzero(first == np.arange(len(crit)))
    poles = finite_poles(f)
    reach = 1e-8 * np.fmax(1.0, np.abs(poles))
    rows = [crit[keep]]
    for _ in range(steps):
        z = rows[-1]
        image = image_array(f, z)
        image[np.any(np.abs(z[:, None] - poles) <= reach, axis=1)] = math.inf
        rows.append(image)
        if np.array_equal(image, z):
            break
    return np.array(rows), 1 + np.bincount(first)[keep]


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


def _chart_series(f: RationalMap, p: SpherePoint, image: SpherePoint, order: int) -> np.ndarray:
    """Taylor coefficients 0..order of f read from the chart z = p + w at p
    (z = 1/w at infinity) to the chart z = image + v at the image (z = 1/v
    at infinity); the constant term is the image's offset in that chart."""
    chart = ((1.0,), (0.0, 1.0)) if p.infinite else ((p.value, 1.0), (1.0,))
    num, den = _substitute(f, *chart)
    if image.infinite:
        num, den = den, num
    else:
        num = num - image.value * den
    num, den = (pad_coeffs(c[: order + 1], order + 1) for c in (num, den))
    return series_quotient(num, den, order)


def _flower_order(f: RationalMap, points, r: int) -> int:
    """Order of f^{qr}(w) - w at the first point of a q-cycle, composed from
    the series of f between the charts z = p + w (z = 1/w at infinity) of
    consecutive points.  The order is at most (2d - 2) r + 1: every cycle of
    petals attracts a critical point."""
    order = (2 * f.degree - 2) * r + 1
    steps = []
    for p, image in zip(points, points[1:] + points[:1]):
        s = _chart_series(f, p, image, order)
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
    return all_roots(p).roots


def _orbit_data(f: RationalMap, z: np.ndarray, n: int):
    """Forward data for F(z) = f^n(z) - z: value, (f^n)', denominator log-deriv."""
    d = f.degree
    rows = chart_rows(f)[0]
    w = z.astype(complex)
    lam = np.ones_like(w)
    dlog = np.zeros_like(w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            nv, dv, npv, dpv = horner_rows(rows, w)
            # in place, each product and quotient rounded as in
            #   f' = (npv dv - nv dpv) / (dv dv),  w = nv / dv,
            #   dlog += d^(n-1-k) (dpv / dv) lam,  lam *= f'
            np.divide(nv, dv, out=w)
            np.multiply(npv, dv, out=npv)
            np.multiply(nv, dpv, out=nv)
            np.subtract(npv, nv, out=npv)
            np.divide(dpv, dv, out=dpv)
            np.multiply(dv, dv, out=dv)
            np.divide(npv, dv, out=npv)
            np.multiply(dpv, float(d) ** (n - 1 - k), out=dpv)
            np.multiply(dpv, lam, out=dpv)
            np.add(dlog, dpv, out=dlog)
            np.multiply(lam, npv, out=lam)
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


def _reciprocal_sums(z, known, weights=1.0, *, buf, skip=None):
    """Sum_j weights_j / (z_i - known_j) for each z_i, in row blocks of about
    RECIPROCAL_BLOCK entries so memory stays O(len(z) + len(known)).  With
    `skip`, an index array as long as z, row i leaves out column skip[i] (the
    Aberth sum, where z are the points known[skip]).  `buf`, from
    `_block_buffer`, holds one block and is reused from call to call."""
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
        step = _tempered(step, za)
        z[active] = za - step
        active = active[np.abs(step) > ABERTH_TOL * (1.0 + np.max(np.abs(z)))]
        if active.size == 0:
            break
    return z


def _tempered(step, z):
    """Steps longer than 1 + |z| cut to that length: keeps far strays from
    overshooting (a zero step, as from a start at the centroid, must not
    divide by zero)."""
    mag = np.abs(step)
    cap = 1.0 + np.abs(z)
    return np.where(mag > cap, step * (cap / np.maximum(mag, cap)), step)


def _period_roots(f, n, z0, known, weights):
    """The len(z0) = m roots of the period-n polynomial other than `known`
    (finite, with multiplicities `weights`), from the seeds z0.

    While the Aberth sum over all m points fits one block (m (m + known)
    <= RECIPROCAL_BLOCK), `_aberth_functional` alone solves: there a
    Newton step costs about as much as the sum.  Above that, plain Newton
    steps run first, each point frozen once its step is at most
    ABERTH_TOL (1 + max |z0|); the phase ends at the first step, from the
    third on, that freezes no new point, or after NEWTON_STEPS.  Of the
    frozen points, the first of each `_sphere_cells` cell is kept unless
    it lies within DUPLICATE_CLUSTER of a known root or of an earlier kept
    point.  The other points restart from their seeds in the Aberth
    iteration, with the kept points as known roots of weight 1."""
    m = len(z0)
    if m * (m + len(known)) <= RECIPROCAL_BLOCK:
        return _aberth_functional(f, n, z0, known, weights)
    z = z0.copy()
    tol = ABERTH_TOL * (1.0 + np.max(np.abs(z0)))
    active = np.arange(m)
    for k in range(NEWTON_STEPS):
        za = z[active]
        step = _newton_correction(f, za, n)
        moving = ~(np.abs(step) <= tol)  # nan where P'/P overflows: a stray
        z[active] = za - _tempered(np.where(np.isfinite(step), step, 0.0), za)
        if k >= 2 and np.all(moving):
            break
        active = active[moving]
    frozen = np.setdiff1d(np.arange(m), active)
    kept = frozen[_distinct(z[frozen], known)]
    rest = np.setdiff1d(np.arange(m), kept)
    if rest.size:
        z[rest] = _aberth_functional(
            f,
            n,
            z0[rest],
            np.concatenate([known, z[kept]]),
            np.concatenate([weights, np.ones(len(kept))]),
        )
    return z


def _distinct(z, known) -> np.ndarray:
    """Indices of the points of z to keep as roots, ascending: the first
    point of each `_sphere_cells` cell, unless it lies within
    DUPLICATE_CLUSTER of a known point or of an earlier such first point.
    Comparing one point per cell keeps a dense cluster of copies from
    pairing all its points."""
    first = np.sort(np.unique(_sphere_cells(z, DUPLICATE_CLUSTER), return_index=True)[1])
    reps = z[first]
    i, j, _ = _near_pairs(reps, reps, DUPLICATE_CLUSTER)
    keep = np.ones(len(first), dtype=bool)
    keep[j[i < j]] = False
    keep[_near_pairs(reps, known, DUPLICATE_CLUSTER)[0]] = False
    return first[keep]


def _period_solutions(f: RationalMap, n: int) -> list:
    """The orbits of exact period n of f, solved once per map."""
    return memoized(f, f"period-{n}", lambda: _solve_period(f, n))


def _solve_period(f: RationalMap, n: int) -> list:
    """The orbits of exact period n.

    The solutions of f^n(z) = z whose period properly divides n are known
    from the smaller solves; they enter the Aberth sum as fixed roots with
    their multiplicities, so only the m new points are solved for, from the
    m points of the backward tree that `_period_seeds` keeps.  The count
    d^n + 1 is met by construction or the solve fails."""
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
    z = _period_roots(f, n, _period_seeds(f, n, m), known, weights)
    F, lam, _ = _orbit_data(f, z, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        quality = np.abs(F) / np.maximum(np.abs(lam - 1.0), 1e-6)
    # an orbit through a pole is read chart by chart
    for i in np.flatnonzero(~np.isfinite(quality)).tolist():
        orbit = [SpherePoint.of(z[i])]
        for _ in range(n - 1):
            orbit.append(f(orbit[-1]))
        gap = max(abs(cycle_multiplier(f, orbit) - 1.0), 1e-6)
        quality[i] = chordal_distance(f(orbit[-1]), orbit[0]) / gap
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

    Each new point's successor is a solution (new or known) near its
    image (`_successors`); the successors must permute the new points, in
    cycles of length n.  With the multiplicities of the new orbits, all
    solutions must add up to d^n + 1."""
    succ = _successors(f, new, pool)
    if np.any(succ >= len(new)) or len(np.unique(succ)) != len(new):
        raise RootFindingFailed(f"period-{n} solutions are not permuted by the map")
    points = _sphere_points(new)
    inverted, u = chart_split(new)
    slopes = _chart_slopes(f, inverted, inverted[succ], u)
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


def _successors(f, new, pool) -> np.ndarray:
    """For each of the new points, the index in new + pool of its
    successor.  The points of new + pool within DUPLICATE_CLUSTER of the
    images (`_near_pairs`) are assigned in ascending distance, each to the
    first row that claims it, so two images nearest one new point still get
    two successors, while a row whose image is nearest a known point gets
    that point and fails the permutation check.  A row left without one
    takes the point of new + pool nearest its image (`_nearest`).  Where no
    two rows claim one point, each row gets its nearest point."""
    images = image_array(f, new)
    pts = np.concatenate([new, pool])
    i, j, d = _near_pairs(images, pts, DUPLICATE_CLUSTER)
    order = np.lexsort((j, i, d))
    succ = [-1] * len(new)
    taken = set()
    for r, t in zip(i[order].tolist(), j[order].tolist()):
        if succ[r] < 0 and t not in taken:
            succ[r] = t
            taken.add(t)
    succ = np.array(succ, dtype=int)
    left = np.flatnonzero(succ < 0)
    if left.size:
        succ[left] = _nearest(images[left], pts)
    return succ


def _period_seeds(f: RationalMap, n: int, m: int) -> np.ndarray:
    """m finite starting points for the period-n solve: the level-n backward
    tree f^-n(p) of one repelling point p (`_tree_root`), kept per map
    (`_seed_level`), equidistributed like the period-n points, each point on
    its own contracting branch of f^-n.  The point nearest each known
    repelling point is dropped, then the surplus nearest the other known
    points and infinity.  A seeded jitter of 1e-3 of the local spacing
    1/|(f^n)'| breaks the symmetry of a real map's tree, whose real points
    Aberth keeps real.  Without p, a ring of radius 2."""
    root = _tree_root(f)
    if root is None:
        base = 2.0 * np.exp(2j * np.pi * np.arange(m) / m)
    else:
        tree = _seed_level(f, root, n)
        lower = [o for k in range(1, n) if n % k == 0 for o in _period_solutions(f, k)]
        free = np.isfinite(tree)
        drop = np.flatnonzero(~free).tolist()
        repelling = sphere_array([p for o in lower if o.stability == "repelling" for p in o.points])
        pick = np.flatnonzero(free)[_nearest(repelling, tree[free])]
        for q, k in zip(repelling, pick):
            if not free[k]:  # taken by an earlier repelling point
                k = np.argmin(np.where(free, chordal_distances(q, tree), np.inf))
            drop.append(int(k))
            free[k] = False
        other = [p for o in lower if o.stability != "repelling" for p in o.points] + [INF]
        near = np.min(chordal_distances(sphere_array(other)[:, None], tree[None, :]), axis=0)
        drop += [k for k in np.argsort(near, kind="stable").tolist() if free[k]]
        base = np.delete(tree, drop[: len(tree) - m])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        local = np.fmin(1.0, 1.0 / np.abs(_orbit_data(f, base, n)[1]))
    scale = 1e-3 * max(1.0, float(np.median(np.abs(base)))) * local
    return base + scale * np.exp(2j * np.pi * np.random.default_rng(4242).random(m))


def _seed_level(f: RationalMap, root, n: int) -> np.ndarray:
    """Level n of the backward tree of the root, whole, grown from level
    n - 1 and kept in f.memo.  While d^n + 1 is within PERIOD_DEGREE_CAP,
    level n - 1 has at most PERIOD_DEGREE_CAP // d points, so this is the
    level `_tree_batches` yields as one batch, bit for bit.  The root must
    be `_tree_root(f)`, which is fixed once found."""

    def grow():
        above = np.array([root], dtype=complex) if n == 1 else _seed_level(f, root, n - 1)
        return _preimage_rows(f, above).reshape(-1)

    return memoized(f, f"tree-level-{n}", grow)


def _tree_root(f: RationalMap):
    """The repelling point of period 1, else of period 2, chordally farthest
    from the first three images of the critical points, near which tree
    points would coincide; None when there is none.  The root is kept in
    f.memo once found; a None is not, since the period-2 solve asks for the
    root before the period-2 points it may be read from exist."""
    if "tree-root" in f.memo:
        return f.memo["tree-root"]
    cands = []
    for n in (1, 2):
        try:
            cands = cands or repelling_points(f, n)
        except (RootFindingFailed, DegreeCapExceeded):
            pass
    if not cands:
        return None
    pts = sphere_array(sorted(cands, key=SpherePoint.sort_key))
    post = critical_orbits(f, 3)[0][1:].reshape(-1)
    far = np.min(chordal_distances(pts[:, None], post[None, :]), axis=1)
    f.memo["tree-root"] = pts[np.argmax(far)]
    return f.memo["tree-root"]


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
    multiplier; reports the worst offender and the full multiplier table.

    A period whose solve fails (RootFindingFailed, DegreeCapExceeded) ends
    the test: its error is raised again, as an error of the same type and
    message, with `partial`, the report of the periods solved before it,
    in which `n_solved` is the last of them."""
    table = []
    worst = None
    worst_score = -1.0
    passed = True

    def summary(**extra):
        return dict(passed=passed, n_max=n_max, tol=tol, worst=worst, table=table, **extra)

    for n in range(1, n_max + 1):
        try:
            orbits = periodic_points(f, n)
        except (RootFindingFailed, DegreeCapExceeded) as exc:
            # a fresh error: the solve's own is kept in f.memo and raised
            # again to every later caller
            stopped = type(exc)(*exc.args)
            stopped.partial = summary(n_solved=n - 1)
            raise stopped from exc
        for orbit in orbits:
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
    return summary()


def _point_json(p: SpherePoint):
    if p.infinite:
        return "inf"
    return [float(p.re), float(p.im)]


# ---------------------------------------------------------------------------
# maximal-entropy sampling


@dataclass
class MaxEntropySample:
    """The points of a backward-tree sample (`backward_sample`), its burn-in
    (0: tree levels need none), the requested count and the seed."""

    points: list
    burn_in: int
    count: int
    seed: int


def repelling_points(f: RationalMap, n: int) -> list:
    """The points of the repelling cycles of exact period n."""
    return [p for o in periodic_points(f, n) if o.stability == "repelling" for p in o.points]


def backward_sample(f: RationalMap, size: int, seed: int) -> MaxEntropySample:
    """A sorted seeded subset of `size` points of the first level of d^k >=
    size points of the backward tree of `_tree_root`, which equidistribute
    for the measure of maximal entropy.  The level is grown whole: a thinned
    one would be whole sibling groups, whose correlated log|f'| understate
    the standard error of the Lyapunov exponent."""
    if f.degree < 2:
        raise ValueError("backward sampling requires degree >= 2")
    root = _tree_root(f)
    depth = 1
    while f.degree**depth < size:
        depth += 1
    level = np.concatenate([pts for k, pts, _ in _tree_batches(f, root, depth=depth) if k == depth])
    pick = np.sort(np.random.default_rng(seed).choice(len(level), size, replace=False))
    return MaxEntropySample(points=_sphere_points(level[pick]), burn_in=0, count=size, seed=seed)


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
    slopes = _chart_slopes(f, z_inv, w_inv, u)
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
    backward error |P(w)| <= 1e-12 (sum |c_k| |w|^k + eps max |c_k|); the
    absolute floor keeps an exact root 0, where the sum vanishes.  Rows that
    fail, other degrees and narrower batches, where LAPACK is cheaper per
    row, take the companion eigensolve."""
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
        floor = np.finfo(float).eps * np.max(np.abs(c), axis=1)[:, None]
        size = _horner(np.abs(c), np.abs(w))[0] + floor
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


def _preimage_rows(f, z):
    """All d preimages of each point of the sphere array z, one row each
    (infinity as inf), solved as a batch: by the quadratic formula at
    degree 2, else `_monic_roots`.  The other rows (infinity, a vanishing
    leading coefficient) take `_preimage_values`."""
    nc, dc = chart_rows(f)[0, :2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coeffs = nc[None, :] - z[:, None] * dc[None, :]
        if len(nc) == 3:
            c, b, a = coeffs.T
            ok = np.abs(a) > 1e-13 * (np.abs(a) + np.abs(b) + np.abs(c))
            roots = np.empty((len(z), 2), dtype=complex)  # cheaper than np.stack
            roots[:, 0], roots[:, 1] = _quadratic_rows(a, b, c)
        else:
            scale = np.max(np.abs(coeffs), axis=1)
            ok = np.isfinite(scale) & (np.abs(coeffs[:, -1]) > 1e-12 * scale)
            # a degenerate row solves w^d = 0, so the batch width picks the kernel
            roots = _monic_roots(np.where(ok[:, None], coeffs / coeffs[:, -1:], 0.0))
    for i in np.flatnonzero(~ok):
        pre = _preimage_values(f, complex(z[i]) if np.isfinite(z[i]) else None)
        roots[i] = [math.inf if w is None else w for w in pre]
    return roots


def _tree_batches(f: RationalMap, root, width=math.inf, seed: int = 0, depth=None):
    """The backward tree f^-1(root), f^-2(root), ... up to level `depth`, as
    (level, points, last) per batch of at most PERIOD_DEGREE_CAP // d rows
    of the level above, so a period seed's level is one batch, as
    `_seed_level` grows it; `last` marks
    a level's final batch.  Of a level of more than `width` points, a seeded
    random subset of `width` is expanded.  A root of None (`_tree_root`
    found no repelling point) raises PreimageSolveFailed."""
    if root is None:
        raise PreimageSolveFailed("no repelling low-period point to grow the tree from")
    rng = np.random.default_rng(seed)
    d = f.degree
    rows = PERIOD_DEGREE_CAP // d
    level = np.array([root], dtype=complex)
    k = 0
    while depth is None or k < depth:
        k += 1
        wide = d * len(level) > width
        keep = np.sort(rng.choice(d * len(level), width, replace=False)) if wide else None
        parts = []
        for i0 in range(0, len(level), rows):
            pts = _preimage_rows(f, level[i0 : i0 + rows]).reshape(-1)
            yield k, pts, i0 + rows >= len(level)
            if wide:
                lo, hi = np.searchsorted(keep, [d * i0, d * (i0 + rows)])
                pts = pts[keep[lo:hi] - d * i0]
            parts.append(pts)
        level = np.concatenate(parts)


def julia_points(f: RationalMap, size: int, seed: int) -> np.ndarray:
    """Points of J from the backward tree of the repelling point
    `_tree_root` (`_tree_batches`, levels thinned to max(size, 512) points),
    deduplicated on a grid of pitch 1e-4 (both charts), as a sphere array.
    J is the closure of the tree, whose levels equidistribute for the
    measure of maximal entropy, so nothing is burnt in.

    Each batch adds, in batch order, the points of the grid cells it is
    first to reach.  The tree stops at `size` points, or with fewer when the
    grid saturates (thin Cantor Julia sets): after two full-width levels in
    a row that each add fewer than max(1, size // 200) cells.  The points
    come out sorted by `SpherePoint.sort_key`."""
    width = max(size, 512)
    seen = np.array([np.iinfo(np.int64).max])  # sorted, with a sentinel past every cell
    kept = [np.zeros(0, dtype=complex)]
    count = quiet = added = grown = 0
    for _, batch, last in _tree_batches(f, _tree_root(f), width, seed):
        cells, first = np.unique(_grid_cells(batch), return_index=True)
        at = np.searchsorted(seen, cells)
        new = seen[at] != cells
        seen = np.insert(seen, at[new], cells[new])
        fresh = np.sort(first[new])[: size - count]
        kept.append(batch[fresh])
        count += len(fresh)
        added += len(fresh)
        grown += len(batch)
        if count >= size:
            break
        if last:
            quiet = quiet + 1 if grown >= width and added < max(1, size // 200) else 0
            if quiet == 2:
                break
            added = grown = 0
    z = np.concatenate(kept)
    finite = np.isfinite(z)
    order = np.lexsort((np.where(finite, z.imag, 0.0), np.where(finite, z.real, math.inf)))
    return z[order]


def julia_cloud(f: RationalMap, size: int, seed: int) -> list:
    """The points of `julia_points` as SpherePoints."""
    return _sphere_points(julia_points(f, size, seed))


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


# ---------------------------------------------------------------------------
# sphere neighbours


def _unit_vectors(z) -> np.ndarray:
    """Sphere points as rows (x, y, z) of the unit sphere of R^3, each read
    in its chart (`chart_split`): the Euclidean distance of two rows is the
    chordal distance of the points, up to rounding."""
    inverted, w = chart_split(z)
    lift = 1.0 + w.real * w.real + w.imag * w.imag
    sign = np.where(inverted, -1.0, 1.0)
    return np.stack(
        [2.0 * w.real / lift, sign * 2.0 * w.imag / lift, sign * (lift - 2.0) / lift], axis=1
    )


_CORNERS = np.array(list(np.ndindex(2, 2, 2)))


def _reach(radius: float):
    """The radius with a margin for the rounding of `_unit_vectors`, and
    the grid pitch: at least 4 reach, so a ball of the radius meets at most
    two cells per axis and mostly one, and at least 1e-6, so that the cell
    keys fit int64."""
    reach = radius * (1.0 + 1e-9) + 1e-14
    return reach, max(4.0 * reach, 1e-6)


def _cell_keys(cells, pitch) -> np.ndarray:
    """Integer cells (rows of floor(v / pitch)) as one int64 key each."""
    half = int(math.ceil(1.0 / pitch)) + 1
    span = 2 * half + 1
    c = cells + half
    return (c[..., 0] * span + c[..., 1]) * span + c[..., 2]


def _sphere_cells(z, radius: float) -> np.ndarray:
    """The cell key of each sphere point on the grid `_near_pairs` uses
    for this radius."""
    pitch = _reach(radius)[1]
    return _cell_keys(np.floor(_unit_vectors(z) / pitch).astype(np.int64), pitch)


def _near_pairs(a, b, radius: float):
    """Every pair (i, j) with chordal_distances(a[i], b[j]) <= radius, as
    arrays i, j and those distances, exact, ordered by i.  Up to a quarter
    of RECIPROCAL_BLOCK pairs, all pairs are compared at once.  Above that,
    b is filed by cell of a grid of R^3 (`_sphere_cells`), and each a[i]
    looks up the at most 8 cells its ball meets; the points of those cells
    are compared about a quarter of RECIPROCAL_BLOCK pairs at a time.  Time
    is O((len(a) + len(b)) log len(b)) plus the pairs compared, and memory
    O(len(a) + len(b)) plus the pairs returned."""
    if len(a) * len(b) <= RECIPROCAL_BLOCK // 4:
        dist = chordal_distances(a[:, None], b[None, :])
        i, j = np.nonzero(dist <= radius)
        return i, j, dist[i, j]
    reach, pitch = _reach(radius)
    keys = _sphere_cells(b, radius)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    v = _unit_vectors(a)
    lo = np.floor((v - reach) / pitch).astype(np.int64)
    wide = np.floor((v + reach) / pitch).astype(np.int64) > lo
    rows, corner = np.nonzero(np.all(wide[:, None, :] | (_CORNERS == 0), axis=2))
    cell = _cell_keys(lo[rows] + _CORNERS[corner], pitch)
    start = np.searchsorted(keys, cell, "left")
    count = np.searchsorted(keys, cell, "right") - start
    block = RECIPROCAL_BLOCK // 4
    cuts = np.searchsorted(np.cumsum(count), np.arange(block, np.sum(count), block)) + 1
    out = []
    for s in np.split(np.arange(len(count)), np.unique(cuts)):
        c = count[s]
        offset = np.repeat(start[s] - np.cumsum(c) + c, c)
        i = np.repeat(rows[s], c)
        j = order[offset + np.arange(len(offset))]
        d = chordal_distances(a[i], b[j])
        near = d <= radius
        out.append((i[near], j[near], d[near]))
    return tuple(np.concatenate(parts) for parts in zip(*out))


def _nearest(a, b) -> np.ndarray:
    """For each of the sphere points a, the index of the point of b
    chordally nearest it, ties to the lowest index.  A row block holds a
    quarter of RECIPROCAL_BLOCK distances, so that its temporaries (one
    complex difference and a few real arrays) fit the kernel's 1 MiB."""
    out = np.empty(len(a), dtype=int)
    rows = max(1, RECIPROCAL_BLOCK // (4 * max(len(b), 1)))
    for i0 in range(0, len(a), rows):
        dist = chordal_distances(a[i0 : i0 + rows, None], b[None, :])
        out[i0 : i0 + rows] = np.argmin(dist, axis=1)
    return out
