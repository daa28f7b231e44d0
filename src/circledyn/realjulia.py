"""Construction of real polynomials with prescribed critical values and real
Julia set, plus builders and claim verifiers for the three rational-map
example families (EX1 perturbation of a quadratic, EX2 parabolic cubic,
EX3 double-critical perturbation of a Blaschke product).

Critical values are enumerated left to right by critical point.  Admissible
sequences have every value outside (0, 1) and alternate sides of the unit
gap: the nonzero entries of (-1)^j c_j share one sign (zeros permitted).
Under that condition a real polynomial with those critical values exists,
normalized so the convex hull of f^{-1}({0, 1}) is [0, 1].  Its Julia set
is real only if its critical points are simple: a double critical point
(an adjacent equal pair) merges two laps, and J leaves the real line.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import INF, Poly, RationalMap, deriv_coeffs, polyval
from .dynamics import cycle_multiplier
from .errors import (
    EX3ConstructionFailed,
    NewtonDiverged,
    ParamOutOfRange,
    SpecViolation,
)
from .geometry import real_critical_points, real_line_degree, real_poles
from .roots import _companion_roots, roots_with_multiplicity

EX3_MAX_EPS = 0.05


# ---------------------------------------------------------------------------
# the sign condition and critical-value specs


def check_sign_condition(values) -> bool:
    """Admissibility of a left-to-right critical-value sequence: every value
    outside (0, 1), and the nonzero (-1)^j c_j all of one sign."""
    vals = [float(v) for v in values]
    if any(0.0 < v < 1.0 for v in vals):
        return False
    signs = set()
    for j, v in enumerate(vals, start=1):
        s = (-1) ** j * v
        if s > 0:
            signs.add(1)
        elif s < 0:
            signs.add(-1)
    return len(signs) <= 1


@dataclass(frozen=True)
class CriticalValueSpec:
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) < 1:
            raise SpecViolation("need at least one critical value")
        if not all(map(math.isfinite, self.values)):
            raise SpecViolation(f"critical values must be finite: {self.values}")
        if not check_sign_condition(self.values):
            raise SpecViolation(f"sign condition fails for {self.values}")
        # repeated values only as adjacent equal pairs (double critical point)
        if any(run > 2 for _, run in self.grouped()):
            raise SpecViolation("critical value repeated more than twice")

    @property
    def degree(self) -> int:
        return len(self.values) + 1

    def family(self) -> int:
        """+1 when the first signed nonzero entry of (-1)^j c_j is positive
        (the map starts by falling from 1), -1 for the mirror family."""
        for j, v in enumerate(self.values, start=1):
            s = (-1) ** j * v
            if s != 0:
                return 1 if s > 0 else -1
        return 1

    def endpoint_values(self):
        """(f(0), f(1)) forced by the family and parity."""
        d = self.degree
        fam = self.family()
        v0 = 1.0 if fam > 0 else 0.0
        if d % 2 == 0:
            return v0, v0
        return v0, 1.0 - v0

    def grouped(self):
        """Distinct critical points as (value, multiplicity) runs."""
        return [(v, len(list(run))) for v, run in itertools.groupby(self.values)]


# ---------------------------------------------------------------------------
# the inverse critical-value problem


@dataclass
class ConstructedPolynomial:
    poly: Poly
    rational: RationalMap
    critical_points: np.ndarray
    achieved_values: np.ndarray
    hull: tuple
    family: int
    increasing_at_right_endpoint: bool
    residual: float


def _residual_jacobian(u, mults, targets, v0, d):
    """Residual of u = (xi, s) and its analytic Jacobian, plus the
    polynomial P = v0 + s G, G' = d prod (z - xi_j)^{m_j}, G(0) = 0.

    The residual holds P(xi_j) - c_j and P(1) - f(1).  dP/ds = G and
    dP(x)/dxi_j = s int_0^x -m_j d prod (z - xi_i)^{m_i - delta_ij} dz; the
    P'(xi_j) term of the total derivative is 0 at a critical point."""
    xi, s = u[:-1], u[-1]
    dgdz = d * np.poly(np.repeat(xi, mults))[::-1]
    # rows j: the quotients of G' by (z - xi_j), by synthetic division
    quot = np.empty((len(xi), d - 1))
    acc = np.zeros(len(xi))
    for i in range(d - 1, 0, -1):
        acc = dgdz[i] + xi * acc
        quot[:, i - 1] = acc
    # x^i / i at the residual points: the integral from 0 as a product
    powers = np.append(xi, 1.0)[:, None] ** np.arange(1, d + 1) / np.arange(1, d + 1)
    jac = np.empty((len(u), len(u)))
    jac[:, -1] = powers @ dgdz
    jac[:, :-1] = -s * powers[:, :-1] @ (mults[:, None] * quot).T
    coeffs = np.append(v0, s * dgdz / np.arange(1, d + 1))
    return v0 + s * jac[:, -1] - targets, jac, coeffs


def _corrector(solve, u, offset):
    """Newton on R(u) = offset from u: (root, iterations, last Jacobian), or
    None for the root once an iterate leaves the ordered interior or 8
    iterations do not settle."""
    for it in range(1, 9):
        res, jac, _ = solve(u)
        try:
            step = np.linalg.solve(jac, res - offset)
        except np.linalg.LinAlgError:
            break
        u = u - step
        if not _ordered_interior(u[:-1]):
            break
        if np.all(np.abs(step) <= 1e-8 * (1.0 + np.abs(u))):
            return u, it, jac
    return None, it, None


def construct_polynomial(spec: CriticalValueSpec) -> ConstructedPolynomial:
    """Real polynomial with the prescribed left-to-right critical values,
    normalized so the hull of f^{-1}({0, 1}) is [0, 1].

    P = f(0) + s G with G' = d prod (z - xi_j)^{m_j} and G(0) = 0, so the
    unknowns are u = (xi, s): the distinct critical points and the scale.
    The start u0 puts each xi_j at the centre of its group of Chebyshev
    nodes (1 - cos(pi i / d)) / 2, and fits s by least squares.  One Newton
    homotopy R(u) = (1 - tau) R(u0) is followed from tau = 0 to 1: an Euler
    predictor, then Newton with the analytic Jacobian as corrector.  The
    step in tau doubles after a corrector of at most 3 iterations and halves
    when the corrector fails or leaves the ordered interior
    0 < xi_1 < ... < xi_k < 1.  One more Newton step polishes the end.

    NewtonDiverged names the spec when c_1 = f(0) or c_k = f(1), which puts
    a critical point on a hull endpoint where the system is singular; when
    the step underflows; or when the result misses a critical value or the
    hull [0, 1] by more than 1e-8."""
    d = spec.degree
    values, mults = (np.array(c) for c in zip(*spec.grouped()))
    v0, v1 = spec.endpoint_values()
    if values[0] == v0 or values[-1] == v1:
        raise NewtonDiverged(
            f"inverse critical-value solve for {spec.values}: c_1 = f(0) or c_k = f(1) "
            "puts a critical point on a hull endpoint, which is not solved"
        )
    targets = np.append(values, v1)

    def solve(u):
        return _residual_jacobian(u, mults, targets, v0, d)

    nodes = (1.0 - np.cos(np.pi * np.arange(1, d) / d)) / 2.0
    u = np.append(np.add.reduceat(nodes, np.cumsum(mults) - mults) / mults, 0.0)
    # |s| fits |G| to |clip(c, 0, 1) - f(0)|, the Chebyshev values, in least
    # squares; G'(0) has sign (-1)^(d-1), so this sign makes P fall from
    # f(0) = 1 (family +1) or rise from f(0) = 0
    g_abs = np.abs(solve(u)[1][:, -1])
    scale = g_abs @ np.abs(np.clip(targets, 0.0, 1.0) - v0) / (g_abs @ g_abs)
    u[-1] = spec.family() * (-1) ** d * scale
    start, jac, _ = solve(u)
    tau, h = 0.0, 0.5
    while tau < 1.0:
        new_tau = min(1.0, tau + h)
        pred = u - (new_tau - tau) * np.linalg.solve(jac, start)  # J du/dtau = -R(u0)
        cand, iters, cand_jac = _corrector(solve, pred, (1.0 - new_tau) * start)
        if cand is None:
            h /= 2.0
            if h < 1e-9:
                raise NewtonDiverged(
                    f"inverse critical-value solve for {spec.values}: "
                    f"step underflow at tau = {tau!r}"
                )
            continue
        u, tau, jac = cand, new_tau, cand_jac
        if iters <= 3:
            h *= 2.0
    polished = _corrector(solve, u, 0.0)[0]
    u = u if polished is None else polished
    res, _, coeffs = solve(u)

    crit_flat = np.repeat(u[:-1], mults)
    achieved = polyval(coeffs, crit_flat).real
    hull = _preimage_hull(coeffs)
    err = max(np.max(np.abs(achieved - spec.values)), abs(hull[0]), abs(hull[1] - 1.0))
    if not err <= 1e-8:
        raise NewtonDiverged(f"inverse critical-value solve for {spec.values} is off by {err:.1e}")
    return ConstructedPolynomial(
        poly=Poly(coeffs),
        rational=RationalMap(coeffs, [1.0], reduce=False),
        critical_points=crit_flat,
        achieved_values=achieved,
        hull=hull,
        family=spec.family(),
        increasing_at_right_endpoint=bool(polyval(deriv_coeffs(coeffs), 1.0).real > 0),
        residual=float(np.linalg.norm(res)),
    )


def _ordered_interior(xi) -> bool:
    """0 < xi_1 < ... < xi_k < 1, every gap above 1e-12."""
    return bool(np.all(np.diff(np.concatenate(([0.0], xi, [1.0]))) > 1e-12))


def _preimage_hull(coeffs):
    """Convex hull of f^{-1}({0, 1}) on the real line."""
    pts = []
    for target in (0.0, 1.0):
        shifted = coeffs.copy()
        shifted[0] -= target
        for r in _companion_roots(shifted):
            if abs(r.imag) <= 1e-7 * (1.0 + abs(r)):
                pts.append(r.real)
    if not pts:
        raise NewtonDiverged("no real preimages of {0, 1}")
    return (min(pts), max(pts))


def random_valid_spec(rng, d: int, all_boundary: bool = False) -> CriticalValueSpec:
    """Random admissible critical-value sequence for tests and sweeps."""
    fam = 1 if rng.random() < 0.5 else -1
    vals = []
    for j in range(1, d):
        low = (fam > 0) == (j % 2 == 1)
        if all_boundary:
            vals.append(0.0 if low else 1.0)
        elif rng.random() < 0.2:
            vals.append(0.0 if low else 1.0)
        else:
            mag = float(rng.uniform(0.05, 1.5))
            vals.append(-mag if low else 1.0 + mag)
    return CriticalValueSpec(tuple(vals))


# ---------------------------------------------------------------------------
# example families


@dataclass
class ExampleInstance:
    family: str
    params: dict
    map: RationalMap
    claims: list = field(default_factory=list)
    data: dict = field(default_factory=dict)


def build_example(family: str, **params) -> ExampleInstance:
    """The example `family` (EX1, EX2 or EX3) with exactly its parameters."""
    family = family.upper()
    build = {"EX1": _build_ex1, "EX2": _build_ex2, "EX3": _build_ex3}.get(family)
    if build is None:
        raise ParamOutOfRange(f"unknown example family {family!r}")
    names = list(inspect.signature(build).parameters)
    if sorted(names) != sorted(params):
        raise ParamOutOfRange(
            f"{family} takes the parameters {', '.join(names)}; given: {', '.join(params) or 'none'}"
        )
    return build(**params)


def _build_ex1(c: float) -> ExampleInstance:
    c = float(c)
    if not abs(c) < 1.0:
        raise ParamOutOfRange("EX1 needs real |c| < 1")
    f = RationalMap([-4.0, 0.0, 1.0], [1.0, c])
    claims = ["attracting_infinity_multiplier_c", "blaschke_iff_abs_c_above_half"]
    if abs(c) < 0.5:
        claims.append("full_horseshoe")
    return ExampleInstance("EX1", {"c": c}, f, claims)


def _build_ex2(c: float) -> ExampleInstance:
    c = float(c)
    if not 0.0 < c < 1.0:
        raise ParamOutOfRange("EX2 needs c in (0, 1)")
    num = np.convolve(np.convolve([-2.0, 1.0], [c, 1.0]), [-c, 1.0])
    den = np.convolve([-1.0, 1.0], [1.0, 1.0])
    f = RationalMap(num, den)
    return ExampleInstance(
        "EX2",
        {"c": c},
        f,
        ["parabolic_infinity", "three_full_branches", "interior_minimum_below_-1"],
    )


def _real_root_in(coeffs, lo, hi):
    roots = roots_with_multiplicity(Poly(coeffs))
    hits = [
        r.real
        for r in roots
        if abs(r.imag) <= 1e-9 * (1 + abs(r)) and lo - 1e-12 <= r.real <= hi + 1e-12
    ]
    if not hits:
        return None
    return min(hits, key=lambda x: abs(x - 0.5 * (lo + hi)))


def _build_ex3(p: float, a: float, eps: float) -> ExampleInstance:
    p, a, eps = float(p), float(a), float(eps)
    if not (0.0 < p < a < 1.0):
        raise ParamOutOfRange("EX3 needs 0 < p < a < 1")
    if not (0.0 < eps <= EX3_MAX_EPS):
        raise ParamOutOfRange(f"EX3 needs 0 < eps <= {EX3_MAX_EPS}")
    K = (1.0 - p) / (1.0 - a)
    if not K > 1.0:
        raise EX3ConstructionFailed("depth-2 branch needs K > 1")
    g = RationalMap([0.0, -K * a, K], [-p, 1.0])
    gp1 = cycle_multiplier(g, [1.0]).real
    if not gp1 > 1.0:
        raise EX3ConstructionFailed(f"g'(1) = {gp1} <= 1")

    # the escape interval inside (p, a): between the solutions of g = -2, -1
    def g_level(v):
        return _real_root_in([v * p, -(K * a + v), K], p, a)

    x_lo, x_hi = g_level(-2.0), g_level(-1.0)
    if x_lo is None or x_hi is None:
        raise EX3ConstructionFailed("no subinterval of (p, a) with g <= -1")
    interval = (min(x_lo, x_hi), max(x_lo, x_hi))
    c_mid = 0.5 * (interval[0] + interval[1])
    b = _real_root_in([c_mid * p, -(K * a + c_mid), K], a, 1.0)
    if b is None:
        raise EX3ConstructionFailed("no preimage of the interval midpoint in [a, 1]")
    K_eps = (1.0 - b - eps) / (1.0 - b + eps)
    if not K_eps > 0:
        raise EX3ConstructionFailed("perturbation reaches past the right endpoint")
    num = K_eps * np.convolve([0.0, -K * a, K], [eps - b, 1.0])
    den = np.convolve([-p, 1.0], [-b - eps, 1.0])
    f = RationalMap(num, den)
    inst = ExampleInstance(
        "EX3",
        {"p": p, "a": a, "eps": eps},
        f,
        ["two_critical_values_near_c", "second_iterate_escape"],
        data={
            "K": K,
            "K_eps": K_eps,
            "escape_interval": interval,
            "c_mid": c_mid,
            "b": b,
            "base_map": g,
        },
    )
    residual = abs(f(1.0).value - 1.0)
    if residual > 1e-10:
        raise EX3ConstructionFailed(f"f(1) = 1 violated by {residual:.2e}")
    return inst


# ---------------------------------------------------------------------------
# claim verification


def verify_example_claims(inst: ExampleInstance) -> dict:
    verify = {"EX1": _verify_ex1, "EX2": _verify_ex2, "EX3": _verify_ex3}.get(inst.family)
    if verify is None:
        raise ParamOutOfRange(f"unknown family {inst.family}")
    return verify(inst)


def ex1_completely_invariant_real_line(f: RationalMap) -> bool:
    """Is the extended real line completely invariant, that is, is the
    signed degree of f there +-deg f?  (The Blaschke-product criterion for
    these maps.)"""
    return abs(real_line_degree(f)) == f.degree


def _verify_ex1(inst: ExampleInstance) -> dict:
    c = inst.params["c"]
    f = inst.map
    out = {}
    lam_inf = cycle_multiplier(f, [INF])
    out["attracting_infinity_multiplier_c"] = {
        "passed": abs(lam_inf - c) <= 1e-10,
        "multiplier": [lam_inf.real, lam_inf.imag],
    }
    disc_negative = 16.0 - 64.0 * c * c < 0.0
    sampled = ex1_completely_invariant_real_line(f)
    out["blaschke_discriminant"] = {"passed": True, "blaschke": disc_negative}
    out["blaschke_sampling"] = {"passed": True, "blaschke": sampled}
    out["blaschke_tests_agree"] = {"passed": disc_negative == sampled}
    if abs(c) < 0.5:
        out["full_horseshoe"] = _verify_ex1_horseshoe(f, c)
    return out


def _verify_ex1_horseshoe(f: RationalMap, c: float) -> dict:
    # q: the repelling real fixed point bounding the horseshoe from the right
    qs = roots_with_multiplicity(Poly([-4.0, -1.0, 1.0 - c]))
    q = max(r.real for r in qs if abs(r.imag) < 1e-9)
    # p: its second real preimage
    disc = c * c * q * q + 4.0 * q + 16.0
    if disc < 0:
        return {"passed": False, "reason": "fixed point preimage is complex"}
    p = (c * q - math.sqrt(disc)) / 2.0
    xc = _interior_minimum(f, p, q)
    if xc is None:
        return {"passed": False, "reason": "no interior critical point"}
    fxc = f(xc).value.real
    if not fxc < p:
        return {"passed": False, "reason": f"f(min) = {fxc} not below {p}"}
    # two branch preimages of p around the minimum
    s = sorted(
        r.real
        for r in roots_with_multiplicity(
            Poly(np.array([-4.0 - p, -p * c, 1.0], dtype=complex))
        )
        if abs(r.imag) < 1e-9 and p - 1e-9 <= r.real <= q + 1e-9
    )
    if len(s) != 2:
        return {"passed": False, "reason": f"expected 2 cut points, got {len(s)}"}
    s1, s2 = s
    branch_ok = _monotone_onto(f, p, s1, p, q) and _monotone_onto(f, s2, q, p, q)
    return {
        "passed": branch_ok and s1 < xc < s2,
        "interval": [p, q],
        "cuts": [s1, s2],
        "minimum": xc,
        "value_at_minimum": fxc,
    }


def _interior_minimum(f: RationalMap, lo, hi):
    cands = [x for x in real_critical_points(f) if lo < x < hi]
    return min(cands, key=lambda x: f(x).value.real, default=None)


def _monotone_onto(f: RationalMap, lo, hi, target_lo, target_hi) -> bool:
    """Is f monotone on [lo, hi] (no real critical point or pole strictly
    inside) with its end values covering [target_lo, target_hi]?"""
    breaks = real_critical_points(f) + real_poles(f)
    monotone = not any(lo < x < hi for x in breaks)
    ends = (f(lo).value.real, f(hi).value.real)
    covered = min(ends) <= target_lo + 1e-6 and max(ends) >= target_hi - 1e-6
    return monotone and covered


def _verify_ex2(inst: ExampleInstance) -> dict:
    f = inst.map
    c = inst.params["c"]
    out = {}
    lam = cycle_multiplier(f, [INF])
    out["parabolic_infinity"] = {
        "passed": abs(lam - 1.0) <= 1e-9,
        "multiplier": [lam.real, lam.imag],
    }
    # solutions of f(x) = -1 cut out the three full branches
    ln = max(len(f.num.coeffs), len(f.den.coeffs))
    cut = np.zeros(ln, dtype=complex)
    cut[: len(f.num.coeffs)] = f.num.coeffs
    cut[: len(f.den.coeffs)] += f.den.coeffs
    cuts = sorted(
        r.real for r in roots_with_multiplicity(Poly(cut)) if abs(r.imag) < 1e-9
    )
    if len(cuts) != 3:
        out["three_full_branches"] = {"passed": False, "cuts": cuts}
        return out
    x1, x2, x3 = cuts
    big = 50.0 / (1.0 - c)
    intervals_ok = (-1.0 < x1 < 1.0) and (-1.0 < x2 < 1.0) and (x3 > 1.0)
    b1 = _covers_from_pole(f, -1.0, x1)
    b2 = _covers_from_pole(f, 1.0, x2)
    b3 = _monotone_onto(f, x3, big, -1.0, f(big).value.real - 1.0)
    out["three_full_branches"] = {
        "passed": intervals_ok and b1 and b2 and b3,
        "cuts": cuts,
        "branches": [b1, b2, b3],
    }
    xc = _interior_minimum(f, -1.0, 1.0)
    out["interior_minimum_below_-1"] = {
        "passed": xc is not None and f(xc).value.real < -1.0,
        "minimum": xc,
        "value": None if xc is None else f(xc).value.real,
    }
    return out


def _covers_from_pole(f, pole, cut) -> bool:
    # branch from a pole (value +inf) to -1 at the cut
    probe = pole + 1e-6 * (cut - pole)
    hi = f(probe).value.real
    return hi > 1e3 and _monotone_onto(f, min(probe, cut), max(probe, cut), -1.0, 1e3)


def _verify_ex3(inst: ExampleInstance) -> dict:
    f = inst.map
    eps = inst.params["eps"]
    b = inst.data["b"]
    c_mid = inst.data["c_mid"]
    lo, hi = inst.data["escape_interval"]
    out = {}
    delta = 10.0 * math.sqrt(eps)
    crit_near_b = [x for x in real_critical_points(f) if abs(x - b) <= max(delta, 0.2)]
    if len(crit_near_b) != 2:
        out["two_critical_values_near_c"] = {
            "passed": False,
            "critical_points": crit_near_b,
        }
        return out
    vals = sorted(f(x).value.real for x in crit_near_b)
    c1, c2 = vals
    near = abs(c1 - c_mid) <= delta and abs(c2 - c_mid) <= delta
    out["two_critical_values_near_c"] = {
        "passed": near and c1 < c2 < 1.0 and c1 > 0.0,
        "critical_points": crit_near_b,
        "critical_values": [c1, c2],
        "target": c_mid,
        "straddle": c1 <= c_mid <= c2,
        "tolerance": delta,
        "deviations": [abs(c1 - c_mid), abs(c2 - c_mid)],
    }
    # both critical values sit inside the hull [0, 1] (so the first iterate
    # of the critical points does not escape) while the image of the whole
    # critical-value interval leaves the hull: escape happens at step two
    xs = np.linspace(c1, c2, 128)
    imgs = [f(x).value.real for x in xs]
    outside_hull = all(v < -1e-9 or v > 1.0 + 1e-9 for v in imgs)
    inside_first = 0.0 < c1 and c2 < 1.0
    out["second_iterate_escape"] = {
        "passed": outside_hull and inside_first,
        "image_range": [min(imgs), max(imgs)],
        "escape_interval": [lo, hi],
    }
    out["classifier_escape_times"] = _classifier_escapes_equal(f, crit_near_b, 2)
    return out


def _classifier_escapes_equal(f: RationalMap, points, expected: int) -> dict:
    from .classifier import dichotomy_verdict

    rep = dichotomy_verdict(f, n_max=3)
    times = {}
    ok = rep.verdict == "CIRCLE_CASE_III" and rep.escape_times is not None
    if ok:
        for x in points:
            key = min(
                rep.escape_times, key=lambda k: abs(float(k) - x)
            )
            times[key] = rep.escape_times[key]["N"]
        ok = all(v == expected for v in times.values()) and len(times) == len(points)
    return {"passed": bool(ok), "verdict": rep.verdict, "times": times}
