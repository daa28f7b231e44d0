"""Verdict synthesis: the real-multiplier dichotomy and the circle-case
analysis (completely invariant circle / invariant interval / Cantor-in-
interval), with exceptional-map recognition and critical-escape bookkeeping.

Conventions: the interval I lives in normalized coordinates where the
invariant circle is the extended real line and the distinguished fixed point
x0 sits at infinity; its right endpoint may legitimately be infinite when
the Julia set accumulates at a parabolic point there.  The normalizer is
built from the solved repelling period-1 and period-2 points: it is the
identity when they are all real (then shifted by x -> -1/(x - x0) for a
finite x0), and otherwise the cross-ratio map of three of them, whose
coordinates the report then uses.  The endpoints of I are solved periodic
points or preimages of solved fixed points, read in those coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import (
    Moebius,
    Poly,
    RationalMap,
    SpherePoint,
    chordal_distance,
    chordal_distances,
    conjugate,
    sphere_array,
)
from .dynamics import (
    _multiplicity,
    _near_pairs,
    _point_json,
    critical_orbits,
    julia_points,
    periodic_points,
    preimage_points,
    real_multiplier_test,
    repelling_points,
)
from .errors import (
    CircledynError,
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

# flat orbifold signatures: the sorted ramification values nu > 1, with
# math.inf for infinity, of the parabolic orbifolds sum(1 - 1/nu) = 2
FLAT_SIGNATURES = {
    (math.inf, math.inf): "POWER",
    (2, 2, math.inf): "CHEBYSHEV",
    (2, 2, 2, 2): "LATTES",
    (2, 4, 4): "LATTES",
    (3, 3, 3): "LATTES",
    (2, 3, 6): "LATTES",
}


# ---------------------------------------------------------------------------
# postcritical analysis


@dataclass
class PostcriticalAnalysis:
    """The critical points with their local degrees, the postcritical set,
    whether every critical orbit lands on a cycle and, when they all do, the
    orbifold signature: the sorted ramification values nu > 1 of the
    postcritical points, with math.inf for an infinite one."""

    critical: list  # (SpherePoint, local degree)
    finite: bool
    postcritical_set: list
    orbifold_signature: tuple = None


def postcritical_analysis(f: RationalMap) -> PostcriticalAnalysis:
    """The critical orbits (`critical_orbits`, POSTCRITICAL_DEPTH steps),
    read for their landings, the postcritical set and the orbifold of the
    image graph they trace.

    An orbit lands at its first point within CYCLE_MATCH_TOL of an earlier
    one.  The landing is believed only when it is abrupt, the point before
    the cycle entry still farther than LANDING_APPROACH_VETO from the cycle:
    orbits creeping up on an attracting cycle (including blow-up toward a
    superattracting infinity) never land, and neither do orbits that reach
    no cycle within the depth.  The map is finite when every orbit lands.
    """
    orbits, degrees = critical_orbits(f, POSTCRITICAL_DEPTH)
    finite = True
    images, sources, targets, weights = [], [], [], []
    for z, degree in zip(orbits.T, degrees.tolist()):
        dist = chordal_distances(z[:, None], z[None, :])
        landings = np.argwhere(np.tril(dist <= CYCLE_MATCH_TOL, -1))  # (close, hit), row by row
        landed = len(landings) > 0
        close, hit = landings[0].tolist() if landed else (len(z) - 1, 0)
        finite &= landed and bool(hit == 0 or dist[hit - 1, hit:close].min() > LANDING_APPROACH_VETO)
        images.append(z[1 : close + 1])
        # the closing point maps onto its earlier copy, so its cycle stays
        # closed in the image graph
        sources.append(z[:close])
        targets.append(np.append(z[1:close], z[hit]))
        weights += [degree] + [1] * (close - 1)

    # an image within CYCLE_MATCH_TOL of an earlier one is the same point
    images = np.concatenate(images)
    i, j, _ = _near_pairs(images, images, CYCLE_MATCH_TOL)
    post = sorted(map(SpherePoint.of, np.delete(images, i[j < i]).tolist()), key=SpherePoint.sort_key)

    critical = list(zip(map(SpherePoint.of, orbits[0].tolist()), degrees.tolist()))
    analysis = PostcriticalAnalysis(critical=critical, finite=finite, postcritical_set=post)
    if finite:
        # nu is the least function with e(w) nu(w) | nu(f(w)), by lcm
        # propagation capped at 64 as infinity; nu = 1 off the postcritical set
        post_z = sphere_array(post)

        def where(points):
            near = chordal_distances(np.concatenate(points)[:, None], post_z[None, :]) <= CYCLE_MATCH_TOL
            return np.where(near.any(axis=1), np.argmax(near, axis=1), -1).tolist()

        src, dst = where(sources), where(targets)
        nu = [1] * len(post)
        changed = True
        while changed:
            changed = False
            for s, t, e in zip(src, dst, weights):
                val = e * (nu[s] if s >= 0 else 1)
                val = math.inf if math.inf in (val, nu[t]) else math.lcm(val, nu[t])
                if val != nu[t]:
                    nu[t] = val if val <= 64 else math.inf
                    changed = True
        analysis.orbifold_signature = tuple(sorted(v for v in nu if v > 1))
    return analysis


# ---------------------------------------------------------------------------
# exceptional recognition


def detect_exceptional(f: RationalMap, analysis: PostcriticalAnalysis = None) -> str:
    """One of POWER, CHEBYSHEV, LATTES, NONE: a postcritically finite map is
    exceptional exactly when its orbifold is parabolic, and the flat
    signature names the class; a map whose critical orbits do not all land
    is NONE."""
    if analysis is None:
        analysis = postcritical_analysis(f)
    return FLAT_SIGNATURES.get(analysis.orbifold_signature, "NONE")


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


# the JSON form of the report fields that are not JSON values themselves
_JSON_SHAPES = {
    "real_multiplier": lambda rmt: {k: v for k, v in rmt.items() if k != "table"},
    "circle": lambda c: {"A": c.A, "B": [c.B.real, c.B.imag], "C": c.C},
    "normalizer": lambda m: [[v.real, v.imag] for v in (m.a, m.b, m.c, m.d)],
    "interval_I": lambda ab: [ab[0], "inf" if math.isinf(ab[1]) else ab[1]],
    "x0": _point_json,
    "orbifold_signature": list,
}


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

    @property
    def exit_code(self) -> int:
        if self.verdict == "INCONCLUSIVE":
            return 3
        if self.verdict == "NO_REAL_STRUCTURE":
            return 4
        return 0

    def to_json_dict(self) -> dict:
        """The set fields in declaration order, `residuals` once non-empty,
        shaped for JSON by _JSON_SHAPES; `normalized_map` stays out."""
        out = {}
        for fld in fields(self):
            value = getattr(self, fld.name)
            if value is None or fld.name == "normalized_map" or fld.name == "residuals" and not value:
                continue
            shape = _JSON_SHAPES.get(fld.name)
            out[fld.name] = value if shape is None else shape(value)
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
    report = ClassificationReport(verdict="INCONCLUSIVE", degree=f.degree)
    try:
        report.real_multiplier = real_multiplier_test(f, n_max, tol)
    except (RootFindingFailed, DegreeCapExceeded) as exc:
        # one non-real repelling multiplier of a lower period already decides
        report.real_multiplier = exc.partial
        if exc.partial["passed"]:
            report.inconclusive_reason = f"real-multiplier test: {exc}"
            return report
    if not report.real_multiplier["passed"]:
        report.verdict = "NO_REAL_STRUCTURE"
        return report
    try:
        cloud = julia_points(f, cloud_size, seed)
    except PreimageSolveFailed as exc:
        report.inconclusive_reason = f"julia cloud: {exc}"
        return report
    try:
        circle, report.circle_residual = best_circle(cloud, anchors=_repelling_anchor_points(f))
    except (DegenerateCloud, DegeneratePoints):
        circle, report.circle_residual = None, math.inf
    if report.circle_residual <= CIRCLE_ACCEPT_RESIDUAL:
        try:
            return circle_case_classify(f, circle, cloud, report.real_multiplier)
        except (DegenerateCloud, DegeneratePoints, PreimageSolveFailed, RootFindingFailed) as exc:
            report.inconclusive_reason = f"circle case: {exc}"
            return report
    try:
        analysis = postcritical_analysis(f)
        report.exceptional = detect_exceptional(f, analysis)
    except CircledynError as exc:
        report.inconclusive_reason = f"exceptional: {exc}"
        return report
    if report.exceptional == "LATTES":
        report.verdict = "LATTES"
        report.orbifold_signature = analysis.orbifold_signature
    elif report.exceptional in ("POWER", "CHEBYSHEV"):
        report.verdict = f"{report.exceptional}_CONJUGATE"
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


def circle_case_classify(f: RationalMap, circle: GeneralizedCircle, cloud, rmt=None) -> ClassificationReport:
    """Circle-case analysis for a map whose Julia set, sampled by `cloud`,
    lies on the circle.  Case I (no critical point on the circle, or the
    circle completely invariant) is decided exactly on the map g normalized
    to the real line through the repelling period-1 and period-2 points; the
    interval I of cases II and III runs between solved periodic points or
    their preimages."""
    anchors = _repelling_anchor_points(f)
    inv = invariance_check(f, circle, anchors)
    report = ClassificationReport(
        verdict="INCONCLUSIVE",
        degree=f.degree,
        real_multiplier=rmt,
        circle=circle.normalized(),
        circle_residual=containment_residual(circle, cloud),
        residuals={"forward_invariance": inv["forward_residual"], "complete_invariance": inv["preimage_residual"]},
    )

    m1 = normalize_to_real_line(circle, anchors)
    g = _realified(conjugate(f, m1))

    if not real_critical_points(g) or inv["completely_invariant"]:
        report.verdict = "CIRCLE_CASE_I"
        report.normalizer = m1
        report.normalized_map = g
        report.julia_is_circle = _julia_fills_circle(f, circle)
        report.residuals["circle_gap_statistic"] = _max_circle_gap(
            _own_circle_angles(circle, cloud)
        )
        report.swap_components = inv["real_line_degree"] < 0
        return report

    # locate x0: a real fixed point with multiplier in [-1, 1]
    x0 = _select_x0(f, m1, g)
    if x0 is None:
        report.inconclusive_reason = "no real fixed point with multiplier in [-1, 1]"
        return report
    x0_orbit, lam, x0_g = x0

    m_total = m1
    if not x0_g.infinite:
        shift = Moebius(0.0, -1.0, 1.0, -x0_g.re)  # x -> -1/(x - x0)
        m_total = shift.compose(m1)
        g = _realified(conjugate(f, m_total))
    report.normalizer = m_total
    report.x0 = x0_orbit.points[0]
    report.lambda_x0 = float(lam.real)
    report.normalized_map = g

    a, b = _interval_endpoints(f, m_total, x0_orbit)
    report.interval_I = (a, b)
    report.residuals["endpoint_invariance"] = _endpoint_invariance_residual(g, a, b)

    contained, margin = _image_in_interval(g, a, b)
    report.residuals["interval_image_margin"] = margin
    report.verdict = "CIRCLE_CASE_II" if contained else "CIRCLE_CASE_III"
    report.escape_times = critical_escape_times(f, report, ESCAPE_CAP)
    return report


def _own_circle_angles(circle: GeneralizedCircle, cloud) -> np.ndarray:
    """Angular coordinates of the cloud in the circle's own parametrization,
    in the original coordinates (a Moebius-normalized line would distort the
    gap statistic arbitrarily); infinity is angle pi on a line."""
    norm = circle.normalized()
    z = sphere_array(cloud)
    finite = z[np.isfinite(z)]
    if norm.is_line:
        base, direction = norm.line_frame()
        t = ((finite - base) / direction).real
        return np.append(2.0 * np.arctan(t), np.full(len(z) - len(finite), math.pi))
    center = -norm.B / norm.A
    w = finite - center
    return np.arctan2(w.imag, w.real)


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
            if containment_residual(circle, orbit.points) <= 1e-6:
                return False
    return True


def _select_x0(f: RationalMap, m1: Moebius, g: RationalMap):
    """A fixed point of f on the circle (real or infinite under m1) with its
    multiplier in [-1, 1], as (orbit, multiplier, image under m1); None when
    there is none.  A multiple fixed point is parabolic, with multiplier 1."""
    candidates = []
    for orbit in periodic_points(f, 1):
        p = m1(orbit.points[0])
        if not (p.infinite or is_real(p.value)):
            continue
        lam = 1.0 + 0.0j if _multiplicity(f, orbit, 1) > 1 else orbit.multiplier
        if abs(lam.imag) <= 1e-6 and abs(lam.real) <= 1.0 + PARABOLIC_BAND:
            candidates.append((orbit, lam, p))
    if not candidates:
        return None
    if len(candidates) > 1:
        # several admissible fixed points: follow the orbit of an off-line point
        z = SpherePoint.of(0.61 + 1.1j)
        for _ in range(400):
            z = g(z)
            for orbit, lam, p in candidates:
                if chordal_distance(z, p) <= 1e-6:
                    return orbit, lam, p
        # fall back to the most attracting candidate
        candidates.sort(key=lambda t: (abs(t[1]), t[2].sort_key()))
    return candidates[0]


def _interval_endpoints(f: RationalMap, m: Moebius, x0_orbit):
    """The endpoints of I in the coordinates of m, which sends x0 to infinity.

    {a, b} is forward-invariant and lies in the Julia set, so each endpoint
    is a non-attracting fixed point, a point of a non-attracting 2-cycle or
    a preimage of a non-attracting fixed point: a is the least of those
    real under m, x0 left out, and b the greatest, or infinity when x0 is
    not attracting itself."""
    fixed = [o for o in periodic_points(f, 1) if o.stability != "attracting"]
    points = [o.points[0] for o in fixed if o.points[0] != x0_orbit.points[0]]
    points += [p for o in periodic_points(f, 2) if o.stability != "attracting" for p in o.points]
    for o in fixed:
        pre = preimage_points(f, o.points[0])
        # the fixed point is one of its own preimages
        del pre[int(np.argmin([chordal_distance(q, o.points[0]) for q in pre]))]
        points += pre
    xs = [q.re for q in map(m, points) if not q.infinite and is_real(q.value)]
    if not xs:
        raise DegenerateCloud("no real periodic endpoint candidates")
    if x0_orbit.stability != "attracting":
        return min(xs), math.inf
    return min(xs), max(xs)


def _endpoint_invariance_residual(g: RationalMap, a: float, b: float) -> float:
    """Chordal distance from the image of each finite endpoint to {a, b}."""
    ends = [SpherePoint.of(a), SpherePoint.of(b)]
    images = [g(ends[0])] if math.isinf(b) else [g(p) for p in ends]
    return max(min(chordal_distance(v, q) for q in ends) for v in images)


def _real_eval(g: RationalMap, x: float) -> float:
    p = g(SpherePoint.of(x))
    if p.infinite:
        return math.inf
    return p.value.real


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
