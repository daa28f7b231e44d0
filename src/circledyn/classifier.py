"""Verdict synthesis: the real-multiplier dichotomy and the circle-case
analysis (completely invariant circle / invariant interval / Cantor-in-
interval), with exceptional-map recognition and critical-escape bookkeeping.

Conventions: the interval I lives in normalized coordinates where the
invariant circle is the extended real line and the distinguished fixed point
x0 sits at infinity; its right endpoint may legitimately be infinite when
the Julia set accumulates at a parabolic point there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    INF,
    Moebius,
    Poly,
    RationalMap,
    SpherePoint,
    chordal_distance,
    conjugate,
    critical_points,
    finite_poles,
    first_within,
    sphere_array,
)
from .dynamics import (
    julia_cloud,
    periodic_points,
    preimage_points,
    real_multiplier_test,
    repelling_points,
)
from .errors import (
    DegenerateCloud,
    DegeneratePoints,
    DegreeCapExceeded,
    PreimageSolveFailed,
    RootFindingFailed,
)
from .geometry import (
    CIRCLE_ACCEPT_RESIDUAL,
    GeneralizedCircle,
    best_circle,
    containment_residual,
    invariance_check,
    is_real,
    normalize_to_real_line,
    real_critical_points,
    real_poles,
)

POSTCRITICAL_DEPTH = 60
CYCLE_MATCH_TOL = 1e-7
LANDING_APPROACH_VETO = 1e-3
PARABOLIC_BAND = 1e-9
ESCAPE_CAP = 200
# periods searched for a non-repelling cycle on an invariant circle
GAP_CYCLE_PERIODS = 3
NEWTON_REAL_TOL = 1e-13
NEWTON_REAL_STEPS = 80

LATTES_SIGNATURES = {(2, 2, 2, 2), (2, 4, 4), (3, 3, 3), (2, 3, 6)}


# ---------------------------------------------------------------------------
# postcritical analysis


@dataclass
class PostcriticalAnalysis:
    critical: list  # (SpherePoint, local degree)
    orbits: list  # forward orbit segments per critical point
    finite: bool
    postcritical_set: list
    cycles: list  # list of cycles (lists of SpherePoints)
    cycle_has_critical: list
    ramification: dict = None  # postcritical point index -> nu (None = infinite)
    orbifold_signature: tuple = None


def _step_with_pole_snap(f: RationalMap, p: SpherePoint, den_roots) -> SpherePoint:
    """One forward step; points within rounding reach of a pole go to
    infinity exactly, so postcritical orbits land instead of exploding."""
    if not p.infinite and den_roots.size:
        dist = np.abs(den_roots - p.value)
        j = int(np.argmin(dist))
        if dist[j] <= 1e-8 * max(1.0, abs(den_roots[j])):
            return INF
    return f(p)


def postcritical_analysis(f: RationalMap, depth: int = POSTCRITICAL_DEPTH) -> PostcriticalAnalysis:
    """Forward orbits of all critical points with cycle detection.

    A cycle landing is only believed when the orbit arrives abruptly (or
    exactly): orbits that creep up on an attracting cycle are reported as
    non-finite, since they converge without ever landing.
    """
    # local degree at a critical point = 1 + Wronskian multiplicity
    crit = []
    for p in critical_points(f):
        k = first_within(p, sphere_array([q for q, _ in crit]), 1e-9)
        if k >= 0:
            crit[k] = (crit[k][0], crit[k][1] + 1)
        else:
            crit.append((p, 2))

    den_roots = finite_poles(f)

    known_points: list = []

    def snap(p: SpherePoint) -> SpherePoint:
        k = first_within(p, sphere_array(known_points), 1e-9)
        if k >= 0:
            return known_points[k]
        known_points.append(p)
        return p

    orbits = []
    cycles = []
    all_landed = True
    for start, _deg in crit:
        orbit = [snap(start)]
        landed = False
        for _ in range(depth):
            nxt = snap(_step_with_pole_snap(f, orbit[-1], den_roots))
            hit = first_within(nxt, sphere_array(orbit), CYCLE_MATCH_TOL)
            orbit.append(nxt)
            if hit >= 0:
                entry_ok = _abrupt_entry(orbit, hit, len(orbit) - 1)
                if entry_ok:
                    cyc = orbit[hit : len(orbit) - 1]
                    cycles.append(cyc)
                    landed = True
                break
        orbits.append(orbit)
        if not landed:
            all_landed = False

    # deduplicate cycles
    uniq_cycles = []
    for cyc in cycles:
        if not any(_near_any(cyc, known, CYCLE_MATCH_TOL) for known in uniq_cycles):
            uniq_cycles.append(cyc)

    post = []
    for orbit in orbits:
        for p in orbit[1:]:
            if first_within(p, sphere_array(post), CYCLE_MATCH_TOL) < 0:
                post.append(p)
    post.sort(key=lambda p: p.sort_key())

    crit_points = [c for c, _ in crit]
    cycle_has_critical = [_near_any(cyc, crit_points, 1e-7) for cyc in uniq_cycles]

    analysis = PostcriticalAnalysis(
        critical=crit,
        orbits=orbits,
        finite=all_landed,
        postcritical_set=post,
        cycles=uniq_cycles,
        cycle_has_critical=cycle_has_critical,
    )
    if all_landed:
        _compute_orbifold(f, analysis)
    return analysis


def _near_any(points, others, tol: float) -> bool:
    """Is some point within chordal distance tol of some other point?"""
    zs = sphere_array(others)
    return any(first_within(p, zs, tol) >= 0 for p in points)


def _abrupt_entry(orbit, hit_index, close_index) -> bool:
    """A landing is believed only when the point before the cycle entry was
    still far from the cycle: orbits creeping up on an attracting cycle
    (including blow-up toward a superattracting infinity) never land."""
    if hit_index == 0:
        return True
    prev = orbit[hit_index - 1]
    prev_dist = min(
        chordal_distance(prev, orbit[j]) for j in range(hit_index, close_index)
    )
    return prev_dist > LANDING_APPROACH_VETO


def _compute_orbifold(f: RationalMap, analysis: PostcriticalAnalysis):
    """Ramification function on the postcritical set by lcm propagation."""
    post = analysis.postcritical_set
    # preimage structure of each postcritical point
    post_z = sphere_array(post)
    # per postcritical point: (local degree e, index of the postcritical
    # point at the preimage or -1) for each distinct preimage
    pre = []
    for y in post:
        # local degree at w = number of preimages clustered at w
        clustered = []
        degrees = []
        for w in preimage_points(f, y):
            k = first_within(w, sphere_array(clustered), 1e-6)
            if k >= 0:
                degrees[k] += 1
            else:
                clustered.append(w)
                degrees.append(1)
        pre.append([(e, first_within(w, post_z, 1e-6)) for w, e in zip(clustered, degrees)])

    nu = [1] * len(post)
    CAP = 64
    for _ in range(3 * len(post) + 8):
        changed = False
        for i, y in enumerate(post):
            val = 1
            for e, j in pre[i]:
                nw = nu[j] if j >= 0 else 1
                contrib = None if nw is None else e * nw
                if contrib is None or (val is not None and contrib > CAP):
                    val = None
                    break
                val = math.lcm(val, contrib)
                if val > CAP:
                    val = None
                    break
            if val != nu[i]:
                nu[i] = val
                changed = True
        if not changed:
            break
    analysis.ramification = {i: nu[i] for i in range(len(post))}
    finite_sig = tuple(sorted(v for v in nu if v is not None and v > 1))
    if any(v is None for v in nu):
        analysis.orbifold_signature = None
    else:
        analysis.orbifold_signature = finite_sig


# ---------------------------------------------------------------------------
# exceptional recognition


def detect_exceptional(f: RationalMap, analysis: PostcriticalAnalysis = None) -> str:
    """One of POWER, CHEBYSHEV, LATTES, NONE."""
    if analysis is None:
        analysis = postcritical_analysis(f)
    if not analysis.finite:
        return "NONE"
    d = f.degree
    ram = [(p, deg) for p, deg in analysis.critical if deg == d]

    def orbit_of(p, steps):
        out = [p]
        for _ in range(steps):
            out.append(f(out[-1]))
        return out

    # POWER: two totally ramified points forming an invariant pair
    if len(ram) == 2:
        pair = [ram[0][0], ram[1][0]]
        ok = True
        for p in pair:
            img = f(p)
            if not any(chordal_distance(img, q) <= 1e-7 for q in pair):
                ok = False
        if ok:
            return "POWER"

    # CHEBYSHEV: one totally ramified fixed/2-periodic point; the rest of the
    # postcritical set is an invariant pair of finite-plane points
    periodic_ram = []
    for p, _deg in ram:
        orb = orbit_of(p, 2)
        if chordal_distance(orb[1], p) <= 1e-7 or chordal_distance(orb[2], p) <= 1e-7:
            periodic_ram.append(p)
    if len(periodic_ram) == 1:
        t = periodic_ram[0]
        t_cycle = [t, f(t)]
        rest = [
            p
            for p in analysis.postcritical_set
            if not any(chordal_distance(p, q) <= 1e-7 for q in t_cycle)
        ]
        finite_rest = [p for p in rest if not p.infinite]
        if len(rest) == 2 and len(finite_rest) == 2:
            ok = True
            for p in rest:
                img = f(p)
                if not any(chordal_distance(img, q) <= 1e-7 for q in rest):
                    ok = False
                # the invariant endpoint pair carries no critical point
                # (a superattracting pair signals a different map class)
                if any(chordal_distance(p, c) <= 1e-7 for c, _ in analysis.critical):
                    ok = False
            if ok:
                return "CHEBYSHEV"

    # LATTES: no totally ramified periodic point, critical-free postcritical
    # cycles, and a flat orbifold signature
    if not periodic_ram and not ram:
        if analysis.cycles and not any(analysis.cycle_has_critical):
            sig = analysis.orbifold_signature
            if sig in LATTES_SIGNATURES:
                return "LATTES"
    return "NONE"


def lattes_doubling_map(g2: float = 4.0, g3: float = 0.0) -> RationalMap:
    """Degree-4 rational map induced by doubling on y^2 = 4x^3 - g2 x - g3
    (the classical duplication formula for the Weierstrass function)."""
    wp2 = Poly([-g3, -g2, 0.0, 4.0])  # (P')^2 = 4x^3 - g2 x - g3
    half_wpp = Poly([-g2 / 2.0, 0.0, 6.0])  # P'' = 6x^2 - g2/2
    num = half_wpp * half_wpp - Poly([0.0, 8.0]) * wp2
    den = Poly([4.0]) * wp2
    return RationalMap(num, den)


# ---------------------------------------------------------------------------
# classification report


@dataclass
class ClassificationReport:
    verdict: str
    degree: int
    real_multiplier: dict = None
    circle: GeneralizedCircle = None
    circle_residual: float = None
    normalizer: Moebius = None
    swap_components: bool = None
    julia_is_circle: bool = None
    interval_I: tuple = None  # (a, b); b may be math.inf
    x0: SpherePoint = None
    lambda_x0: float = None
    escape_times: dict = None
    exceptional: str = None
    orbifold_signature: tuple = None
    inconclusive_reason: str = None
    residuals: dict = field(default_factory=dict)
    # non-serialized working data for follow-up computations
    normalized_map: RationalMap = None
    normalized_cloud: np.ndarray = None

    @property
    def exit_code(self) -> int:
        if self.verdict == "INCONCLUSIVE":
            return 3
        if self.verdict == "NO_REAL_STRUCTURE":
            return 4
        return 0

    def to_json_dict(self) -> dict:
        out = {"verdict": self.verdict, "degree": self.degree}
        if self.real_multiplier is not None:
            rm = dict(self.real_multiplier)
            rm.pop("table", None)
            out["real_multiplier"] = rm
        if self.circle is not None:
            out["circle"] = {
                "A": self.circle.A,
                "B": [self.circle.B.real, self.circle.B.imag],
                "C": self.circle.C,
            }
        if self.circle_residual is not None:
            out["circle_residual"] = self.circle_residual
        if self.normalizer is not None:
            m = self.normalizer
            out["normalizer"] = [
                [m.a.real, m.a.imag],
                [m.b.real, m.b.imag],
                [m.c.real, m.c.imag],
                [m.d.real, m.d.imag],
            ]
        if self.swap_components is not None:
            out["swap_components"] = self.swap_components
        if self.julia_is_circle is not None:
            out["julia_is_circle"] = self.julia_is_circle
        if self.interval_I is not None:
            a, b = self.interval_I
            out["interval_I"] = [a, "inf" if math.isinf(b) else b]
        if self.x0 is not None:
            out["x0"] = "inf" if self.x0.infinite else [self.x0.re, self.x0.im]
        if self.lambda_x0 is not None:
            out["lambda_x0"] = self.lambda_x0
        if self.escape_times is not None:
            out["escape_times"] = self.escape_times
        if self.exceptional is not None:
            out["exceptional"] = self.exceptional
        if self.orbifold_signature is not None:
            out["orbifold_signature"] = list(self.orbifold_signature)
        if self.inconclusive_reason is not None:
            out["inconclusive_reason"] = self.inconclusive_reason
        if self.residuals:
            out["residuals"] = self.residuals
        return out


# ---------------------------------------------------------------------------
# main verdicts


def _realified(g: RationalMap) -> RationalMap:
    """Zero rounding-level imaginary parts of a real-conjugatable map."""
    coeffs = np.concatenate([g.num.coeffs, g.den.coeffs])
    if np.max(np.abs(coeffs.imag)) > 1e-6 * np.max(np.abs(coeffs)):
        return g
    return RationalMap(g.num.coeffs.real, g.den.coeffs.real, reduce=False)


def dichotomy_verdict(
    f: RationalMap,
    n_max: int = 6,
    seed: int = 2024,
    cloud_size: int = 3000,
    tol: float = 1e-8,
) -> ClassificationReport:
    """Full dichotomy run: real-multiplier predicate, then circle fit, then
    the circle-case analysis or exceptional recognition."""
    try:
        rmt = real_multiplier_test(f, n_max, tol)
    except (RootFindingFailed, DegreeCapExceeded) as exc:
        return ClassificationReport(
            verdict="INCONCLUSIVE",
            degree=f.degree,
            inconclusive_reason=f"real-multiplier test: {exc}",
        )
    if not rmt["passed"]:
        return ClassificationReport(
            verdict="NO_REAL_STRUCTURE", degree=f.degree, real_multiplier=rmt
        )
    cloud = julia_cloud(f, cloud_size, seed)
    anchors = _repelling_anchor_points(f)
    try:
        circle, residual = best_circle(cloud, anchors=anchors)
    except (DegenerateCloud, DegeneratePoints):
        circle, residual = None, math.inf
    if circle is not None and residual <= CIRCLE_ACCEPT_RESIDUAL:
        try:
            report = circle_case_classify(f, circle, cloud=cloud, rmt=rmt, seed=seed)
        except (DegenerateCloud, DegeneratePoints, PreimageSolveFailed, RootFindingFailed) as exc:
            return ClassificationReport(
                verdict="INCONCLUSIVE",
                degree=f.degree,
                real_multiplier=rmt,
                circle_residual=residual,
                inconclusive_reason=f"circle case: {exc}",
            )
        report.circle_residual = residual
        return report
    analysis = postcritical_analysis(f)
    exc = detect_exceptional(f, analysis)
    report = ClassificationReport(
        verdict="INCONCLUSIVE",
        degree=f.degree,
        real_multiplier=rmt,
        circle_residual=residual,
        exceptional=exc,
    )
    if exc == "LATTES":
        report.verdict = "LATTES"
        report.orbifold_signature = analysis.orbifold_signature
    elif exc in ("POWER", "CHEBYSHEV"):
        report.verdict = f"{exc}_CONJUGATE"
    else:
        report.inconclusive_reason = (
            "real multipliers hold but neither a containing circle nor a "
            "flat orbifold was resolved numerically"
        )
    return report


def _repelling_anchor_points(f: RationalMap):
    pts = []
    for n in (1, 2):
        try:
            pts.extend(repelling_points(f, n))
        except RootFindingFailed:
            pass
    return pts


def circle_case_classify(
    f: RationalMap,
    circle: GeneralizedCircle,
    cloud=None,
    rmt=None,
    seed: int = 2024,
    cloud_size: int = 3000,
) -> ClassificationReport:
    """Circle-case analysis for a map whose Julia set lies on the circle.
    Case I (no critical point on the circle, or the circle completely
    invariant) is decided exactly on the map g normalized to the real line."""
    if cloud is None:
        cloud = julia_cloud(f, cloud_size, seed)
    residual = containment_residual(circle, cloud)
    inv = invariance_check(f, circle)

    report = ClassificationReport(
        verdict="INCONCLUSIVE",
        degree=f.degree,
        real_multiplier=rmt,
        circle=circle.normalized(),
        circle_residual=residual,
    )
    report.residuals["forward_invariance"] = inv["forward_residual"]
    report.residuals["complete_invariance"] = inv["preimage_residual"]

    m1 = normalize_to_real_line(circle)
    g = _realified(conjugate(f, m1))

    if not real_critical_points(g) or inv["completely_invariant"]:
        report.verdict = "CIRCLE_CASE_I"
        report.normalizer = m1
        report.normalized_map = g
        report.normalized_cloud = _normalized_cloud(m1, cloud)
        report.julia_is_circle = _julia_fills_circle(f, circle)
        report.residuals["circle_gap_statistic"] = _max_circle_gap(
            _own_circle_angles(circle, cloud)
        )
        report.swap_components = inv["real_line_degree"] < 0
        return report

    # locate x0: a real fixed point with multiplier in [-1, 1]
    x0_g, lam = _select_x0(g)
    if x0_g is None:
        report.verdict = "INCONCLUSIVE"
        report.inconclusive_reason = "no real fixed point with multiplier in [-1, 1]"
        return report

    m_total = m1
    if not x0_g.infinite:
        shift = Moebius(0.0, -1.0, 1.0, -x0_g.value)  # x -> -1/(x - x0)
        m_total = shift.compose(m1)
        g = _realified(conjugate(f, m_total))
    report.normalizer = m_total
    report.x0 = m_total.inverse()(INF)
    report.lambda_x0 = float(lam.real)

    xs = _normalized_cloud(m_total, cloud)
    report.normalized_map = g
    report.normalized_cloud = xs
    a, b = _interval_hull(xs)
    a, b, endpoint_residual = _resolve_endpoints(g, a, b, xs)
    report.interval_I = (a, b)
    report.residuals["endpoint_invariance"] = endpoint_residual

    contained, margin = _image_in_interval(g, a, b)
    report.residuals["interval_image_margin"] = margin
    report.verdict = "CIRCLE_CASE_II" if contained else "CIRCLE_CASE_III"
    report.escape_times = critical_escape_times(f, report, ESCAPE_CAP)
    return report


def _normalized_cloud(m: Moebius, cloud) -> np.ndarray:
    """The cloud's coordinates on the normalized real line, infinity as inf."""
    return np.asarray([math.inf if q.infinite else q.re for q in map(m, cloud)], dtype=float)


def _own_circle_angles(circle: GeneralizedCircle, cloud) -> np.ndarray:
    """Angular coordinates of the cloud in the circle's own parametrization,
    in the original coordinates (a Moebius-normalized line would distort the
    gap statistic arbitrarily)."""
    norm = circle.normalized()
    out = []
    if norm.is_line:
        base, direction = norm.line_frame()
        for p in cloud:
            if p.infinite:
                out.append(math.pi)
            else:
                t = ((p.value - base) / direction).real
                out.append(2.0 * math.atan(t))
    else:
        center = -norm.B / norm.A
        for p in cloud:
            if p.infinite:
                continue
            w = p.value - center
            out.append(math.atan2(w.imag, w.real))
    return np.asarray(out, dtype=float)


def _max_circle_gap(angles: np.ndarray) -> float:
    """Largest angular gap of the cloud in the circle's own parametrization
    (reported as corroborating evidence; the density of the sampling measure
    is not conjugation-invariant, so this is not used as the verdict)."""
    n = len(angles)
    if n < 2:
        return 2.0 * math.pi
    s = np.sort(angles)
    gaps = np.diff(s)
    wrap = (s[0] + 2.0 * math.pi) - s[-1]
    return max(float(np.max(gaps)), float(wrap))


def _julia_fills_circle(f: RationalMap, circle: GeneralizedCircle) -> bool:
    """With the circle completely invariant, orbits of circle points stay on
    it, so a gap arc must be attracted to a non-repelling cycle lying on the
    circle: the Julia set is the whole circle exactly when no low-period
    non-repelling orbit sits on it."""
    for n in range(1, GAP_CYCLE_PERIODS + 1):
        try:
            orbits = periodic_points(f, n)
        except (RootFindingFailed, DegreeCapExceeded):
            break
        for orbit in orbits:
            if orbit.stability == "repelling":
                continue
            if all(circle.point_residual(p) <= 1e-6 for p in orbit.points):
                return False
    return True


def _select_x0(g: RationalMap):
    """A real fixed point of the real map g, infinity included, with its
    multiplier in [-1, 1]; (None, None) when there is none."""
    candidates = []
    for orbit in periodic_points(g, 1):
        p, lam = orbit.points[0], orbit.multiplier
        if not p.infinite:
            if not is_real(p.value):
                continue
            p = SpherePoint.of(p.re)
        if abs(lam.imag) <= 1e-6 and abs(lam.real) <= 1.0 + PARABOLIC_BAND:
            candidates.append((p, lam))
    if not candidates:
        return None, None
    if len(candidates) == 1:
        return candidates[0]
    # several admissible fixed points: follow the orbit of an off-line point
    z = SpherePoint.of(0.61 + 1.1j)
    for _ in range(400):
        z = g(z)
        for p, lam in candidates:
            if chordal_distance(z, p) <= 1e-6:
                return p, lam
    # fall back to the most attracting candidate
    candidates.sort(key=lambda t: (abs(t[1]), t[0].sort_key()))
    return candidates[0]


def _interval_hull(xs: np.ndarray):
    finite = xs[np.isfinite(xs)]
    if finite.size == 0:
        raise DegenerateCloud("no finite normalized cloud points")
    return float(np.min(finite)), float(np.max(finite))


def _resolve_endpoints(g: RationalMap, a: float, b: float, xs: np.ndarray):
    """Polish the rough hull onto an invariant endpoint pair {a, b}.

    Both a finite interval and one with its right endpoint at the
    distinguished fixed point at infinity are tried; a hypothesis is accepted
    when {g(a), g(b)} lands back in {a, b} and the cloud stays inside."""
    finite = xs[np.isfinite(xs)]
    span = max(1.0, b - a)
    candidates = []
    fa, fb = _polish_endpoints(g, a, b)
    candidates.append((fa, fb))
    a_inf = _polish_left_endpoint_with_infinite_partner(g, a, span)
    candidates.append((a_inf, math.inf))
    best = None
    for ca, cb in candidates:
        res = _endpoint_invariance_residual(g, ca, cb)
        contained = bool(
            np.all(finite >= ca - 1e-6 * span)
            and (math.isinf(cb) or np.all(finite <= cb + 1e-6 * span))
        )
        ok = contained and res <= 1e-9 * max(1.0, abs(ca), 0.0 if math.isinf(cb) else abs(cb))
        if ok:
            return ca, cb, res
        if best is None or res < best[2]:
            best = (ca, cb, res)
    return best


def _endpoint_invariance_residual(g: RationalMap, a: float, b: float) -> float:
    """Chordal distance from the image of each finite endpoint to {a, b}."""
    ends = [SpherePoint.of(a), SpherePoint.of(b)]
    images = [g(ends[0])] if math.isinf(b) else [g(p) for p in ends]
    return max(min(chordal_distance(v, q) for q in ends) for v in images)


def _polish_left_endpoint_with_infinite_partner(
    g: RationalMap, a: float, span: float
) -> float:
    """With the right endpoint at infinity, the left endpoint maps to itself
    or to infinity (then it is a pole)."""
    den = g.den
    fa = _real_eval(g, a)
    if math.isfinite(fa) and abs(fa - a) <= max(0.05 * span, 1e-9 * (1.0 + abs(a))):
        return _newton_real(*_fixed_point_equation(g), a)
    if den.degree >= 1:
        return _newton_real(
            lambda x: den(x).real, lambda x: den.deriv()(x).real, a
        )
    return a


def _fixed_point_equation(g: RationalMap):
    """Re(num(x) - x den(x)), whose real zeros are g's finite fixed points,
    and its derivative."""
    num, den = g.num, g.den
    dnum, dden = num.deriv(), den.deriv()
    return (
        lambda x: (num(x) - x * den(x)).real,
        lambda x: (dnum(x) - den(x) - x * dden(x)).real,
    )


def _newton_real(fun, dfun, x0):
    x = float(x0)
    for _ in range(NEWTON_REAL_STEPS):
        v = fun(x)
        d = dfun(x)
        if not math.isfinite(v) or not math.isfinite(d) or d == 0:
            return x0
        step = v / d
        x -= step
        if abs(step) <= NEWTON_REAL_TOL * (1.0 + abs(x)):
            break
    return x


def _real_eval(g: RationalMap, x: float) -> float:
    p = g(SpherePoint.of(x))
    if p.infinite:
        return math.inf
    return p.value.real


def _polish_endpoints(g: RationalMap, a: float, b: float):
    """Push the rough hull endpoints onto the invariant pair {a, b}.

    Fixed endpoints are polished first; an endpoint mapping onto its partner
    is then solved against the partner's polished value, so the pair closes
    to full precision."""
    num, den = g.num, g.den
    fixed_eq = _fixed_point_equation(g)

    def polish_fixed(x):
        return _newton_real(*fixed_eq, x)

    def polish_preimage_of(x, target):
        return _newton_real(
            lambda t: (num(t) - target * den(t)).real,
            lambda t: (num.deriv()(t) - target * den.deriv()(t)).real,
            x,
        )

    scale = max(1.0, abs(a), abs(b))
    tol_match = max(0.05 * (b - a), 1e-9 * scale)
    fa, fb = _real_eval(g, a), _real_eval(g, b)

    def close(u, v):
        return math.isfinite(u) and abs(u - v) <= tol_match

    a_fixed, b_fixed = close(fa, a), close(fb, b)
    if not a_fixed and not b_fixed and close(fa, b) and close(fb, a):
        # genuine two-cycle: polish on the second iterate
        def cyc_eq(x):
            return _real_eval(g, _real_eval(g, x)) - x

        def cyc_deq(x):
            h = 1e-7 * scale
            return (cyc_eq(x + h) - cyc_eq(x - h)) / (2 * h)

        a2 = _newton_real(cyc_eq, cyc_deq, a)
        b2 = _real_eval(g, a2)
        return (a2, b2) if a2 < b2 else (b2, a2)
    if a_fixed:
        a = polish_fixed(a)
    if b_fixed:
        b = polish_fixed(b)
    if not a_fixed and close(fa, b):
        a = polish_preimage_of(a, b)
    if not b_fixed and close(fb, a):
        b = polish_preimage_of(b, a)
    return a, b


def _image_in_interval(g: RationalMap, a: float, b: float):
    """Does g([a, b]) stay inside [a, b] (with the right endpoint possibly
    infinite)?  Returns (contained, signed margin of the worst excursion).

    Exact: g is monotone between its real critical points and poles, so its
    extremes on [a, b] are among its values at a, at b (the limit at +inf
    when b is infinite), at the critical points inside and at the poles
    inside, where it is infinite."""
    inside = [x for x in real_critical_points(g) if a < x < b]
    values = [_real_eval(g, x) for x in [a, *inside, b]]
    lead = (g.num.coeffs[-1] / g.den.coeffs[-1]).real
    if math.isinf(b) and math.isinf(values[-1]) and lead < 0:
        values[-1] = -math.inf  # g(x) -> -inf as x -> +inf
    if any(a < x < b for x in real_poles(g)):
        values.append(math.inf)
    # with b infinite, the scale is that of a sweep out to a + 1e6
    upper = b if math.isfinite(b) else max(10.0 * (abs(a) + 1.0), a + 1e6)
    tol = 1e-7 * max(1.0, abs(a), abs(upper))

    def excursion(v):
        if v == b == math.inf:
            return 0.0
        return max(a - v if v < a - 1e-12 else 0.0, v - b if v > b + 1e-12 else 0.0)

    worst = max(map(excursion, values))
    return worst <= tol, worst


def critical_escape_times(f: RationalMap, report: ClassificationReport, cap: int = ESCAPE_CAP) -> dict:
    """Least N with g^N(critical point) outside the open interval, for each
    real critical point of the normalized map inside I; orbit landings on a
    cycle are tagged preperiodic."""
    if report.interval_I is None or report.normalized_map is None:
        raise ValueError("escape times need a classified interval")
    g = report.normalized_map
    a, b = report.interval_I
    tol = 1e-9 * max(1.0, abs(a), 0.0 if math.isinf(b) else abs(b))
    out = {}
    for x in real_critical_points(g):
        if not (a - 1e-9 <= x < math.inf and (math.isinf(b) or x <= b + 1e-9)):
            continue
        key = repr(round(float(x), 12))
        orbit = [x]
        n_escape = None
        preperiodic = False
        for n in range(1, cap + 1):
            v = _real_eval(g, orbit[-1])
            orbit.append(v)
            inside = (a + tol < v) and (math.isinf(b) or v < b - tol)
            if n_escape is None and (not math.isfinite(v) or not inside):
                n_escape = n
            if math.isfinite(v) and any(
                abs(v - u) <= 1e-7 * (1.0 + abs(v)) for u in orbit[:-1]
            ):
                preperiodic = True
                break
            if not math.isfinite(v):
                break
            if n_escape is not None and n > n_escape + 4:
                break
        entry = {"N": n_escape, "preperiodic": preperiodic}
        if n_escape is None:
            entry["escape_cap_exceeded"] = cap
        out[key] = entry
    return out
