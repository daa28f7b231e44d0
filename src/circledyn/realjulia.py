"""Construction of real polynomials with prescribed critical values and real
Julia set, plus builders and claim verifiers for the three rational-map
example families (EX1 perturbation of a quadratic, EX2 parabolic cubic,
EX3 double-critical perturbation of a Blaschke product).

Critical values are enumerated left to right by critical point.  Admissible
sequences have every value outside (0, 1) and alternate sides of the unit
gap: the nonzero entries of (-1)^j c_j share one sign (zeros permitted).
Under that condition a real polynomial with those critical values exists,
normalized so the convex hull of f^{-1}({0, 1}) is [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Poly, RationalMap, SpherePoint, deriv_coeffs, polyval
from .errors import (
    EX3ConstructionFailed,
    NewtonDiverged,
    ParamOutOfRange,
    SpecViolation,
)
from .roots import roots_with_multiplicity

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
        if not check_sign_condition(self.values):
            raise SpecViolation(f"sign condition fails for {self.values}")
        # repeated values only as adjacent equal pairs (double critical point)
        k = 0
        while k < len(self.values):
            run = 1
            while k + run < len(self.values) and self.values[k + run] == self.values[k]:
                run += 1
            if run > 2:
                raise SpecViolation("critical value repeated more than twice")
            k += run

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
        out = []
        k = 0
        while k < len(self.values):
            run = 1
            while k + run < len(self.values) and self.values[k + run] == self.values[k]:
                run += 1
            out.append((self.values[k], run))
            k += run
        return out


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


def _integrate_monic_product(xi, mult, d):
    """Antiderivative G with G' = d prod (z - xi_j)^{m_j}, G(0) = 0."""
    c = np.array([1.0], dtype=complex)
    for x, m in zip(xi, mult):
        for _ in range(m):
            c = np.convolve(c, np.array([-x, 1.0], dtype=complex))
    c = d * c
    out = np.zeros(len(c) + 1, dtype=complex)
    out[1:] = c / np.arange(1, len(c) + 1)
    return out


def _poly_from_params(xi, mult, s, t, d):
    g = _integrate_monic_product(xi, mult, d)
    coeffs = s * g
    coeffs[0] += t
    return coeffs


def _residual_vector(u, spec: CriticalValueSpec, groups, d):
    k = len(groups)
    xi = u[:k]
    s, t = u[k], u[k + 1]
    coeffs = _poly_from_params(xi, [m for _, m in groups], s, t, d)
    res = np.empty(k + 2)
    for i, (val, _m) in enumerate(groups):
        res[i] = polyval(coeffs, complex(xi[i], 0.0)).real - val
    v0, v1 = spec.endpoint_values()
    res[k] = coeffs[0].real - v0
    res[k + 1] = polyval(coeffs, 1.0 + 0.0j).real - v1
    return res


def construct_polynomial(spec: CriticalValueSpec, max_iter: int = 200) -> ConstructedPolynomial:
    """Real polynomial with the prescribed left-to-right critical values,
    normalized so the hull of f^{-1}({0, 1}) is [0, 1].

    Solved by damped Newton on (critical points, leading scale, constant),
    seeded from Chebyshev-node critical points; the step is halved until the
    residual drops and the critical points stay ordered inside (0, 1)."""
    groups = spec.grouped()
    d = spec.degree
    k = len(groups)
    mults = [m for _, m in groups]

    def seed(perturb=0.0):
        centers = []
        pos = 1
        for _val, m in groups:
            centers.append(sum((1 - math.cos(math.pi * (pos + j) / d)) / 2 for j in range(m)) / m)
            pos += m
        xi0 = np.array(centers)
        if perturb:
            rng = np.random.default_rng(int(1e6 * perturb))
            xi0 = np.clip(xi0 + perturb * (rng.random(k) - 0.5), 0.02, 0.98)
            xi0.sort()
        # linear least squares for (s, t) given the seed critical points
        g = _integrate_monic_product(xi0, mults, d)
        rows = []
        rhs = []
        pts = list(xi0) + [0.0, 1.0]
        v0, v1 = spec.endpoint_values()
        targets = [val for val, _ in groups] + [v0, v1]
        for p, tv in zip(pts, targets):
            rows.append([polyval(g, complex(p, 0.0)).real, 1.0])
            rhs.append(tv)
        sol, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
        s0 = sol[0] if abs(sol[0]) > 1e-8 else (1.0 if spec.family() < 0 else -1.0)
        return np.concatenate([xi0, [s0, sol[1]]])

    trace = []
    u = None
    for perturb in (0.0, 0.013, 0.047, 0.11, 0.23):
        u = seed(perturb)
        res = _residual_vector(u, spec, groups, d)
        norm = float(np.linalg.norm(res))
        ok = True
        for _ in range(max_iter):
            if norm <= 1e-13:
                break
            jac = _numeric_jacobian(lambda v: _residual_vector(v, spec, groups, d), u)
            try:
                step = np.linalg.solve(jac, res)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(jac, res, rcond=None)
            lam = 1.0
            improved = False
            for _ in range(40):
                cand = u - lam * step
                if _ordered_interior(cand[:k]):
                    cres = _residual_vector(cand, spec, groups, d)
                    cnorm = float(np.linalg.norm(cres))
                    if cnorm < norm:
                        u, res, norm = cand, cres, cnorm
                        improved = True
                        break
                lam *= 0.5
            trace.append(norm)
            if not improved:
                ok = False
                break
        if ok and norm <= 1e-10:
            break
    else:
        raise NewtonDiverged(
            f"inverse critical-value solve failed for {spec.values}", trace=trace
        )

    xi = u[:k]
    s, t = u[k], u[k + 1]
    coeffs = _poly_from_params(xi, mults, s, t, d).real
    poly = Poly(coeffs)
    rational = RationalMap(coeffs, [1.0], reduce=False)
    crit_flat = np.repeat(xi, mults)
    achieved = np.array([polyval(coeffs, complex(x, 0)).real for x in crit_flat])
    hull = _preimage_hull(coeffs)
    result = ConstructedPolynomial(
        poly=poly,
        rational=rational,
        critical_points=crit_flat,
        achieved_values=achieved,
        hull=hull,
        family=spec.family(),
        increasing_at_right_endpoint=bool(
            polyval(deriv_coeffs(coeffs), 1.0 + 0.0j).real > 0
        ),
        residual=float(np.linalg.norm(_residual_vector(u, spec, groups, d))),
    )
    return result


def _ordered_interior(xi) -> bool:
    if np.any(xi <= 1e-12) or np.any(xi >= 1.0 - 1e-12):
        return False
    return bool(np.all(np.diff(xi) > 1e-12))


def _numeric_jacobian(fun, u, h=1e-7):
    f0 = fun(u)
    jac = np.zeros((len(f0), len(u)))
    for j in range(len(u)):
        du = u.copy()
        step = h * max(1.0, abs(u[j]))
        du[j] += step
        jac[:, j] = (fun(du) - f0) / step
    return jac


def _preimage_hull(coeffs):
    """Convex hull of f^{-1}({0, 1}) on the real line."""
    pts = []
    for target in (0.0, 1.0):
        shifted = coeffs.copy()
        shifted[0] -= target
        for r in roots_with_multiplicity(Poly(shifted)):
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
    family = family.upper()
    if family == "EX1":
        return _build_ex1(**params)
    if family == "EX2":
        return _build_ex2(**params)
    if family == "EX3":
        return _build_ex3(**params)
    raise ParamOutOfRange(f"unknown example family {family!r}")


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
    gp1 = g.derivative_at(1.0 + 0.0j).real
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
    if inst.family == "EX1":
        return _verify_ex1(inst)
    if inst.family == "EX2":
        return _verify_ex2(inst)
    if inst.family == "EX3":
        return _verify_ex3(inst)
    raise ParamOutOfRange(f"unknown family {inst.family}")


def ex1_completely_invariant_real_line(f: RationalMap, samples: int = 512) -> bool:
    """Direct preimage sampling: are all preimages of the extended real line
    real?  (This is the Blaschke-product criterion for these maps.)"""
    from .dynamics import preimage_points
    from .geometry import REAL_LINE

    for k in range(samples):
        x = math.tan(math.pi * ((k + 0.5) / samples - 0.5))
        for q in preimage_points(f, SpherePoint.of(x)):
            if REAL_LINE.point_residual(q) > 1e-6:
                return False
    return True


def _verify_ex1(inst: ExampleInstance) -> dict:
    c = inst.params["c"]
    f = inst.map
    out = {}
    lam_inf = _multiplier_at_infinity(f)
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


def _multiplier_at_infinity(f: RationalMap) -> complex:
    g = f.reciprocal_chart()
    return g.derivative_at(0.0 + 0.0j)


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
    w = f.num.deriv() * f.den - f.num * f.den.deriv()
    cands = [
        r.real
        for r in roots_with_multiplicity(w)
        if abs(r.imag) < 1e-9 and lo < r.real < hi
    ]
    if not cands:
        return None
    return min(cands, key=lambda x: f(x).value.real)


def _monotone_onto(f: RationalMap, lo, hi, target_lo, target_hi, n=64) -> bool:
    xs = np.linspace(lo, hi, n)
    vals = [f(x).value.real for x in xs]
    diffs = np.diff(vals)
    monotone = bool(np.all(diffs > -1e-9) or np.all(diffs < 1e-9))
    covered = (
        min(vals[0], vals[-1]) <= target_lo + 1e-6
        and max(vals[0], vals[-1]) >= target_hi - 1e-6
    )
    return monotone and covered


def _verify_ex2(inst: ExampleInstance) -> dict:
    f = inst.map
    c = inst.params["c"]
    out = {}
    lam = _multiplier_at_infinity(f)
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
    b1 = _covers_downward(f, -1.0, x1)
    b2 = _covers_upward(f, x2, 1.0)
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


def _covers_downward(f, pole, cut) -> bool:
    # branch from a pole (value +inf) falling to -1 at the cut
    probe = pole + 1e-6 * (cut - pole)
    hi = f(probe).value.real
    return hi > 1e3 and _monotone_onto(f, probe, cut, -1.0, 1e3)


def _covers_upward(f, cut, pole) -> bool:
    probe = pole + 1e-6 * (cut - pole)
    hi = f(probe).value.real
    return hi > 1e3 and _monotone_onto(f, cut, probe, -1.0, 1e3)


def _verify_ex3(inst: ExampleInstance) -> dict:
    f = inst.map
    eps = inst.params["eps"]
    b = inst.data["b"]
    c_mid = inst.data["c_mid"]
    lo, hi = inst.data["escape_interval"]
    out = {}
    delta = 10.0 * math.sqrt(eps)
    w = f.num.deriv() * f.den - f.num * f.den.deriv()
    crit_near_b = sorted(
        r.real
        for r in roots_with_multiplicity(w)
        if abs(r.imag) <= 1e-7 and abs(r.real - b) <= max(delta, 0.2)
    )
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
