import itertools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from circledyn import Moebius, conjugate, parse_map
from circledyn import dynamics
from circledyn.algebra import (
    INF,
    RationalMap,
    SpherePoint,
    chart_split,
    chordal_distance,
    chordal_distances,
    pad_coeffs,
    sphere_array,
)
from circledyn.classifier import dichotomy_verdict, lattes_doubling_map
from circledyn.dynamics import (
    MaxEntropySample,
    _aberth_functional,
    backward_sample,
    cloud_array,
    cycle_multiplier,
    julia_cloud,
    lyapunov_exponent,
    periodic_points,
    preimage_points,
    projective_solution_count,
    real_multiplier_test,
)
from circledyn.errors import DerivativeSingular, PreimageSolveFailed, RootFindingFailed


def _orbit_index(orbits, key):
    for o in orbits:
        if o.points[0].sort_key() == pytest.approx(key, abs=1e-9):
            return o
    raise AssertionError(f"no orbit starting at {key}")


def test_squaring_fixed_points():
    f = parse_map("z^2")
    orbits = periodic_points(f, 1)
    got = {}
    for o in orbits:
        p = o.points[0]
        label = "inf" if p.infinite else round(p.re, 9)
        got[label] = o.multiplier
    assert set(got) == {0.0, 1.0, "inf"}
    assert abs(got[0.0]) < 1e-12
    assert abs(got[1.0] - 2.0) < 1e-12
    assert abs(got["inf"]) < 1e-12


def test_squaring_period_two():
    f = parse_map("z^2")
    orbits = periodic_points(f, 2)
    assert len(orbits) == 1
    o = orbits[0]
    assert abs(o.multiplier - 4.0) < 1e-10
    vals = sorted((p.value for p in o.points), key=lambda z: z.imag)
    assert abs(vals[0] - np.exp(4j * np.pi / 3)) < 1e-9
    assert abs(vals[1] - np.exp(2j * np.pi / 3)) < 1e-9


def test_quadratic_plus_one_fixed_points():
    f = parse_map("z^2+1")
    orbits = periodic_points(f, 1)
    finite = [o for o in orbits if not o.points[0].infinite]
    assert len(finite) == 2
    mults = sorted(o.multiplier.imag for o in finite)
    assert mults[0] == pytest.approx(-math.sqrt(3), abs=1e-10)
    assert mults[1] == pytest.approx(math.sqrt(3), abs=1e-10)


EX2_MAP = "((z-2)*(z+0.9)*(z-0.9))/((z-1)*(z+1))"


@pytest.mark.parametrize(
    "expr, point, n, mult",
    [
        # multiplier -1: the period-2 cycle collapses onto the fixed point
        ("z^2-0.75", -0.5, 2, 3),
        # multiplier 1, one petal
        ("z^2+z", 0.0, 4, 2),
        # EX2's infinity: multiplier 1, one petal, read in the chart 1/z
        (EX2_MAP, "inf", 5, 2),
    ],
)
def test_parabolic_fixed_point_multiplicity(expr, point, n, mult):
    f = parse_map(expr)
    target = INF if point == "inf" else SpherePoint.of(point)
    (orbit,) = [o for o in periodic_points(f, 1) if chordal_distance(o.points[0], target) < 1e-9]
    assert dynamics._multiplicity(f, orbit, n) == mult
    assert projective_solution_count(f, n) == f.degree**n + 1


def _mobius_mu(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def test_seeded_real_polynomials_meet_the_dynatomic_count():
    # the number of cycles of exact period n is
    # sum_{k | n} mu(n / k) (d^k + 1) / n (Morton-Silverman)
    rng = np.random.default_rng(5)
    maps = [RationalMap([c, 0.0, 1.0], [1.0]) for c in rng.uniform(-2.5, 1.0, 16)]
    maps += [RationalMap([b, a, 0.0, 1.0], [1.0]) for a, b in rng.uniform(-2.0, 2.0, (16, 2))]
    for f in maps:
        d = f.degree
        for n in range(1, 6):
            want = sum(_mobius_mu(n // k) * (d**k + 1) for k in range(1, n + 1) if n % k == 0)
            assert len(periodic_points(f, n)) * n == want, (f, n)


def test_exact_period_filtering_counts():
    # squaring map: number of exact-period-n orbits follows the necklace count
    f = parse_map("z^2")
    assert len(periodic_points(f, 3)) == 2
    assert len(periodic_points(f, 4)) == 3
    assert len(periodic_points(f, 6)) == 9


def test_projective_solution_count():
    for expr, n in (("z^2", 3), ("z^2-2", 4), ("(z^2-4)/(1+0.25*z)", 3)):
        f = parse_map(expr)
        assert projective_solution_count(f, n) == f.degree**n + 1


def test_multiplier_rotation_consistency():
    f = parse_map("z^2-2")
    for o in periodic_points(f, 3):
        lam = o.multiplier
        for k in range(1, o.exact_period):
            rotated = o.points[k:] + o.points[:k]
            lam2 = cycle_multiplier(f, rotated)
            assert abs(lam2 - lam) <= 1e-8 * max(1.0, abs(lam))


def test_real_multiplier_pass_squaring():
    rep = real_multiplier_test(parse_map("z^2"), 6)
    assert rep["passed"]
    # repelling multipliers of exact period n are 2^n
    for e in rep["table"]:
        if e["stability"] == "repelling":
            assert abs(e["multiplier_im"]) < 1e-10


def test_real_multiplier_fail_quadratic_plus_one():
    rep = real_multiplier_test(parse_map("z^2+1"), 1)
    assert not rep["passed"]
    assert rep["worst"]["period"] == 1
    assert rep["worst"]["im_abs"] == pytest.approx(math.sqrt(3), abs=1e-6)


def test_real_multiplier_blaschke_instance():
    rep = real_multiplier_test(parse_map("(z^2-4)/(1+0.6*z)"), 5)
    assert rep["passed"]


def test_real_multiplier_conjugation_invariance():
    f = parse_map("z^2-2")
    base = real_multiplier_test(f, 3)["passed"]
    g0 = parse_map("z^2+1")
    base_neg = real_multiplier_test(g0, 2)["passed"]
    rng = np.random.default_rng(31)
    done = 0
    while done < 10:
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        try:
            m = Moebius(a, b, c, d)
        except ValueError:
            continue
        assert real_multiplier_test(conjugate(f, m), 3)["passed"] == base
        assert real_multiplier_test(conjugate(g0, m), 2)["passed"] == base_neg
        done += 1


def test_backward_sample_unit_circle():
    f = parse_map("z^2")
    s = backward_sample(f, 1000, seed=7)
    arr = np.array([p.value for p in s.points])
    assert np.max(np.abs(np.abs(arr) - 1.0)) < 1e-6


def test_backward_sample_chebyshev_interval():
    f = parse_map("z^2-2")
    s = backward_sample(f, 1000, seed=7)
    arr = np.array([p.value for p in s.points])
    assert np.max(np.abs(arr.imag)) < 1e-6
    assert np.min(arr.real) > -2.0 - 1e-9
    assert np.max(arr.real) < 2.0 + 1e-9


def test_backward_sample_ex1_real():
    f = parse_map("(z^2-4)/(1+0.25*z)")
    s = backward_sample(f, 1000, seed=7)
    arr = np.array([p.value for p in s.points])
    assert np.max(np.abs(arr.imag)) < 1e-6


def test_backward_sample_reproducible():
    f = parse_map("z^2-2")
    a = backward_sample(f, 200, seed=123)
    b = backward_sample(f, 200, seed=123)
    assert [(p.re, p.im) for p in a.points] == [(p.re, p.im) for p in b.points]


def test_preimages_with_multiplicity():
    f = parse_map("z^2")
    pre = preimage_points(f, 0.0)
    assert len(pre) == 2
    assert all(abs(p.value) < 1e-12 for p in pre)
    pre_inf = preimage_points(f, None)
    assert all(p.infinite for p in pre_inf)


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


def _preimages_by_np_roots(f, z):
    """The preimage rule solved with np.roots (degree >= 3), as a reference
    for the kernel: trim below 1e-13 of the largest coefficient, sort the
    finite roots by (re, im), then infinity by its multiplicity."""
    ln = max(len(f.num.coeffs), len(f.den.coeffs))
    nc, dc = pad_coeffs(f.num.coeffs, ln), pad_coeffs(f.den.coeffs, ln)
    if z is None:
        c, at_inf = f.den.coeffs.copy(), f.num.degree - f.den.degree
    else:
        c = dc - (1.0 / z) * nc if abs(z) > 1e8 else nc - z * dc
        at_inf = None
    size = np.abs(c)
    c = c[: np.nonzero(size > 1e-13 * float(np.max(size)))[0][-1] + 1]
    deg = len(c) - 1
    if at_inf is None:
        at_inf = f.degree - deg
    if deg == 1:
        rts = np.array([-c[0] / c[1]])
    elif deg == 2:
        rts = _quadratic_roots(c[2], c[1], c[0])
    else:
        rts = np.roots(c[::-1]).astype(complex)
    rts = rts[np.lexsort((rts.imag, rts.real))]
    return rts.tolist() + [None] * max(at_inf, 0)


@pytest.mark.parametrize(
    "expr, z",
    [
        ("z^2-2", None),
        ("z^2-2", 0.3 + 0.4j),
        ("z^3-3*z", None),
        ("z^3-3*z", 1e9 + 1e9j),
        # a zero constant term: np.roots strips it and appends the root 0
        ("z^3-3*z", 0j),
        ("z^3-3*z", 0.7 - 0.2j),
        ("lattes", None),
        ("lattes", -2e8 + 0j),
        ("lattes", 0.5 + 1.5j),
        # the degree drops, so infinity is a preimage
        ("(2*z^2+1)/(3*z^2+z)", 2.0 / 3.0 + 0j),
        # a leading coefficient below 1e-13 of the largest is trimmed too
        ("(2*z^2+1)/(3*z^2+z)", 2.0 / 3.0 + 1e-15 + 0j),
        ("(2*z^2+1)/(3*z^2+z)", None),
        ("(z^2-4)/(1+0.25*z)", 5e8 - 3e8j),
    ],
)
def test_preimage_kernel_matches_the_np_roots_rule_bit_for_bit(expr, z):
    f = lattes_doubling_map() if expr == "lattes" else parse_map(expr)
    got = dynamics._preimage_values(f, z)
    # repr tells the signs of zeros apart, and round-trips every float
    assert repr(got) == repr(_preimages_by_np_roots(f, z))


def test_zero_preimage_polynomial_raises():
    f = RationalMap([2.0], [1.0])
    with pytest.raises(PreimageSolveFailed, match="degenerate"):
        dynamics._preimage_values(f, 2.0 + 0j)
    with pytest.raises(PreimageSolveFailed, match="degenerate"):
        preimage_points(f, 2.0)


@pytest.mark.parametrize(
    "expr", ["z^2-2", "z^3-3*z", "lattes", "(z^2-4)/(1+0.25*z)"]
)
def test_backward_sample_is_the_batched_walk_bit_for_bit(expr):
    # some Lattes chains start at infinity, a degenerate row of the batch
    f = lattes_doubling_map() if expr == "lattes" else parse_map(expr)
    got = backward_sample(f, 2000, seed=8).points
    assert repr(sphere_array(got).tolist()) == repr(
        dynamics._sampler_points(f, 2000, seed=8).tolist()
    )


def test_lyapunov_squaring():
    f = parse_map("z^2")
    s = backward_sample(f, 2000, seed=3)
    est = lyapunov_exponent(f, s)
    assert est.chi == pytest.approx(math.log(2), rel=0.02)
    assert est.chi_stderr >= 0.0
    assert est.hd_mu_estimate == pytest.approx(1.0, rel=0.02)


def test_lyapunov_chebyshev():
    f = parse_map("z^2-2")
    s = backward_sample(f, 4000, seed=3)
    est = lyapunov_exponent(f, s)
    assert est.chi == pytest.approx(math.log(2), rel=0.05)


def test_lyapunov_bound_for_line_map():
    f = parse_map("(z^2-4)/(1+0.25*z)")
    s = backward_sample(f, 4000, seed=3)
    est = lyapunov_exponent(f, s)
    assert est.chi >= math.log(2) - 0.02
    assert est.hd_mu_estimate <= 1.0 + 1e-6


def _scalar_chi(f, points):
    """chi and its standard error point by point: log of |f'| in the
    spherical metric, with f evaluated at each SpherePoint."""
    z_inv, u = chart_split(sphere_array(points))
    w_inv, v = chart_split(sphere_array(f(p) for p in points))
    slopes = dynamics._chart_slopes(f)(z_inv, w_inv, u).tolist()
    logs = [
        math.log(abs(s) * (1.0 + abs(a) ** 2) / (1.0 + abs(b) ** 2))
        for a, b, s in zip(u.tolist(), v.tolist(), slopes)
    ]
    return float(np.mean(logs)), float(np.std(logs, ddof=1) / math.sqrt(len(logs)))


@pytest.mark.parametrize("expr", ["z^2", "z^2-2", "z^3-3*z", "lattes"])
def test_array_lyapunov_matches_the_scalar_formula(expr):
    f = lattes_doubling_map() if expr == "lattes" else parse_map(expr)
    sample = backward_sample(f, 2000, seed=15)
    est = lyapunov_exponent(f, sample)
    chi, stderr = _scalar_chi(f, sample.points)
    assert abs(est.chi - chi) <= 1e-12 * abs(chi)
    assert abs(est.chi_stderr - stderr) <= 1e-12 * abs(chi)


def test_lyapunov_names_the_first_critical_point_in_the_sample():
    f = parse_map("z^2")
    # 0 and infinity are both critical; 0 comes first
    points = [SpherePoint.of(1.0), SpherePoint.of(1j), SpherePoint.of(0.0), INF]
    sample = MaxEntropySample(points=points, burn_in=0, count=len(points), seed=0)
    with pytest.raises(DerivativeSingular, match=r"degenerate at SpherePoint\(0j\)"):
        lyapunov_exponent(f, sample)


def test_julia_cloud_circle():
    cloud = julia_cloud(parse_map("z^2"), 1200, seed=5)
    arr, n_inf = cloud_array(cloud)
    assert n_inf == 0
    assert np.max(np.abs(np.abs(arr) - 1.0)) < 1e-6


def test_julia_cloud_dendrite_leaves_line():
    cloud = julia_cloud(parse_map("z^2+1"), 1200, seed=5)
    arr, _ = cloud_array(cloud)
    assert np.max(arr.imag) > 0.1


def test_julia_cloud_ex2_real():
    f = parse_map("((z-2)*(z+0.9)*(z-0.9))/((z-1)*(z+1))")
    cloud = julia_cloud(f, 1500, seed=5)
    arr, _ = cloud_array(cloud)
    scale = np.maximum(1.0, np.abs(arr))
    assert np.max(np.abs(arr.imag) / scale) < 1e-6


def test_julia_cloud_reproducible():
    f = parse_map("z^2-2")
    a = julia_cloud(f, 400, seed=77)
    b = julia_cloud(f, 400, seed=77)
    assert [(p.re, p.im) for p in a] == [(p.re, p.im) for p in b]

def test_periodic_points_degree_cap():
    from circledyn.errors import DegreeCapExceeded

    with pytest.raises(DegreeCapExceeded):
        periodic_points(parse_map("z^2"), 13)


def test_aberth_zero_step_emits_no_runtime_warning():
    # the start at the centroid gets a zero fallback step, which the step
    # tempering must not divide by
    z0 = np.array([0, 1 + 1j, -1 - 1j, 2 + 2j, -2 - 2j], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = _aberth_functional(parse_map("z^2"), 2, z0)
    assert np.all(np.isfinite(z))


def test_dichotomy_verdict_solves_each_period_once(monkeypatch):
    # every solve reads the smaller periods' orbits, from the memo
    solves = Counter()
    solve = dynamics._solve_period

    def counted(f, n):
        solves[id(f), n] += 1
        return solve(f, n)

    monkeypatch.setattr(dynamics, "_solve_period", counted)
    f = parse_map("z^3-3*z")
    dichotomy_verdict(f)
    assert {n: solves[id(f), n] for n in range(1, 7)} == {n: 1 for n in range(1, 7)}


def test_failed_period_solve_is_remembered(monkeypatch):
    calls = []

    def failing(f):
        calls.append(f)
        raise RootFindingFailed("no fixed points")

    monkeypatch.setattr(dynamics, "_fixed_point_solutions", failing)
    f = parse_map("z^2-2")
    for solve in (periodic_points, projective_solution_count, periodic_points):
        with pytest.raises(RootFindingFailed, match="^no fixed points$"):
            solve(f, 1)
    assert calls == [f]


def test_mutating_periodic_points_leaves_the_memo_intact():
    f = parse_map("z^2-2")
    first = periodic_points(f, 2)
    want = [(o.multiplier, [p.sort_key() for p in o.points]) for o in first]
    first[0].points.reverse()
    first.clear()
    again = periodic_points(f, 2)
    assert [(o.multiplier, [p.sort_key() for p in o.points]) for o in again] == want


def _dense_aberth_sums(z):
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        return np.sum(1.0 / diff, axis=1)


def _dense_weighted_sums(z, k, w):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sum(w[None, :] / (z[:, None] - k[None, :]), axis=1)


def _bits(a):
    return np.asarray(a, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("extra", [-1, 0, 1, "double"])
def test_reciprocal_sums_equal_the_dense_sums_bit_for_bit(monkeypatch, extra):
    # 8 known points give 16 rows per block: cover one below, at and one
    # above a block, and two blocks plus one row
    monkeypatch.setattr(dynamics, "RECIPROCAL_BLOCK", 128)
    rows = 33 if extra == "double" else 16 + extra
    rng = np.random.default_rng(rows)
    k = rng.normal(size=8) + 1j * rng.normal(size=8)
    w = rng.integers(1, 4, size=8).astype(float)
    z = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    z[rows // 2] = k[3]  # an exact collision: that row is not finite
    got = dynamics._reciprocal_sums(z, k, w)
    assert np.array_equal(_bits(got), _bits(_dense_weighted_sums(z, k, w)))
    assert not np.isfinite(got[rows // 2])

    # the Aberth sum over the points themselves, 16 / rows per block
    monkeypatch.setattr(dynamics, "RECIPROCAL_BLOCK", 16 * rows)
    z[1] = z[rows - 1]  # two equal points
    got = dynamics._reciprocal_sums(z, z, skip=np.arange(rows))
    assert np.array_equal(_bits(got), _bits(_dense_aberth_sums(z)))
    assert not np.isfinite(got[1]) and not np.isfinite(got[rows - 1])


def test_reciprocal_sums_of_one_row_match_the_closure_sum():
    rng = np.random.default_rng(5)
    k = rng.normal(size=200) + 1j * rng.normal(size=200)
    w = np.ones(200)
    wz = np.array([0.3 + 0.1j])
    got = dynamics._reciprocal_sums(wz, k, w)
    assert got.shape == (1,)
    assert np.array_equal(_bits(got), _bits([np.sum(w / (wz[0] - k))]))
    assert np.array_equal(_bits(dynamics._reciprocal_sums(wz, k[:0], w[:0])), _bits([0]))


def test_aberth_memory_does_not_grow_with_the_square_of_the_degree(monkeypatch):
    # a dense m x m sum would allocate 16 m^2 bytes, ~77 MB at m = 2200
    monkeypatch.setattr(dynamics, "ABERTH_MAXITER", 2)
    m = 2200
    z0 = 2.0 * np.exp(2j * np.pi * np.arange(m) / m)
    tracemalloc.start()
    try:
        _aberth_functional(parse_map("z^2-1"), 11, z0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("block", [20, 40, 400])
def test_reciprocal_sums_over_active_rows_equal_the_dense_sums_bit_for_bit(monkeypatch, block):
    # rows for a subset of the points, each leaving out its own column:
    # 1, 2 and all 6 rows per block
    monkeypatch.setattr(dynamics, "RECIPROCAL_BLOCK", block)
    rng = np.random.default_rng(17)
    z = rng.normal(size=20) + 1j * rng.normal(size=20)
    active = np.array([0, 3, 4, 9, 17, 19])
    z[9] = z[2]  # an active point equal to a frozen one: that row is not finite
    got = dynamics._reciprocal_sums(z[active], z, skip=active)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = z[active][:, None] - z[None, :]
        diff[np.arange(len(active)), active] = np.inf
        want = np.sum(1.0 / diff, axis=1)
    assert np.array_equal(_bits(got), _bits(want))
    assert not np.isfinite(got[3]) and np.all(np.isfinite(np.delete(got, 3)))


def _full_aberth(f, n, z0, known, weights):
    """The Aberth iteration without freezing: every point is updated until
    all steps meet the stopping rule."""
    z = z0.astype(complex).copy()
    center = np.median(z.real) + 1j * np.median(z.imag)
    every = np.arange(len(z))
    for _ in range(dynamics.ABERTH_MAXITER):
        invr = dynamics._newton_correction(f, z, n)
        s = dynamics._reciprocal_sums(z, z, skip=every)
        s += dynamics._reciprocal_sums(z, known, weights)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            denom = 1.0 - invr * s
            step = np.where(np.abs(denom) > 1e-300, invr / denom, invr)
        step = np.where(np.isfinite(step), step, 0.25 * (z - center))
        mag = np.abs(step)
        cap = 1.0 + np.abs(z)
        step = np.where(mag > cap, step * (cap / np.maximum(mag, cap)), step)
        z = z - step
        if np.max(np.abs(step)) <= dynamics.ABERTH_TOL * (1.0 + np.max(np.abs(z))):
            return z
    raise AssertionError("the full iteration did not converge")


def test_aberth_sums_only_the_points_still_moving(monkeypatch):
    # every iteration of a full sum would send all m rows through the
    # kernel, about 43 m for this solve
    rows = []
    solves = []
    kernel, aberth = dynamics._reciprocal_sums, dynamics._aberth_functional

    def counted(z, known, *args, **kwargs):
        if kwargs.get("skip") is not None:
            rows.append(len(z))
        return kernel(z, known, *args, **kwargs)

    def recorded(f, n, z0, known=(), weights=()):
        z = aberth(f, n, z0, known, weights)
        if n == 6:
            solves.append((f, z0, known, weights, z))
        return z

    monkeypatch.setattr(dynamics, "_reciprocal_sums", counted)
    monkeypatch.setattr(dynamics, "_aberth_functional", recorded)
    f = parse_map("z^3-3*z")
    for n in range(1, 6):
        periodic_points(f, n)
    rows.clear()
    periodic_points(f, 6)
    ((f, z0, known, weights, z),) = solves
    m = len(z0)
    assert rows[0] == m
    assert sum(rows) < 12 * m
    ref = _full_aberth(f, 6, z0, known, weights)
    gap = np.abs(z[:, None] - ref[None, :])
    nearest = np.argmin(gap, axis=1)
    assert len(np.unique(nearest)) == m
    assert np.all(gap[np.arange(m), nearest] <= 1e-12 * np.maximum(1.0, np.abs(z)))


def _solutions(f, n):
    """The period-n points of f, and those of the periods properly dividing n."""
    new = sphere_array([p for o in periodic_points(f, n) for p in o.points])
    lower = [p for k in range(1, n) if n % k == 0 for o in periodic_points(f, k) for p in o.points]
    return new, np.concatenate([new, sphere_array(lower)])


@pytest.mark.parametrize(
    "f, n",
    [
        # the 2-cycle {0, infinity} through the pole 0
        (parse_map("1/z^2"), 2),
        # infinity parabolic, the poles +-1 among the images
        (parse_map(EX2_MAP), 5),
        (lattes_doubling_map(), 3),
    ],
    ids=["1/z^2", "EX2(0.9)", "lattes"],
)
def test_successors_follow_the_scalar_rule(f, n):
    new, pts = _solutions(f, n)
    assert len(new) > 0
    scalar = [int(np.argmin(chordal_distances(f(SpherePoint.of(z)), pts))) for z in new]
    assert dynamics._successors(f, new, pts).tolist() == scalar


def test_orbit_closing_memory_does_not_grow_with_the_square_of_the_degree():
    # the 2046 points of period 11 of z^2: an m x m distance matrix would
    # allocate 8 m^2 bytes, ~33 MB
    f = parse_map("z^2")
    new = np.exp(2j * np.pi * np.arange(1, 2047) / 2047)
    pool = np.array([0.0, 1.0, math.inf], dtype=complex)
    tracemalloc.start()
    try:
        orbits = dynamics._close_orbits(f, 11, new, pool, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(orbits) == 186
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# closed-form roots of the wide backward walk


def _monic_preimage_rows(f, zs):
    """Monic ascending rows of num(w) - z den(w), one per value z."""
    nc, dc = dynamics._preimage_coeffs(f)
    c = nc[None, :] - np.asarray(zs, dtype=complex)[:, None] * dc[None, :]
    return c / c[:, -1:]


def _wide(rows):
    """Each row repeated into a batch wide enough for the closed forms."""
    return np.repeat(rows, dynamics.CLOSED_FORM_ROWS, axis=0)


def _multiset_error(a, b) -> float:
    """Largest distance between the roots a and b matched as multisets,
    relative to max(1, |b|)."""
    best = min(
        np.max(np.abs(a - b[list(p)])) for p in itertools.permutations(range(len(b)))
    )
    return best / max(1.0, float(np.max(np.abs(b))))


@pytest.mark.parametrize(
    "d, odd", [(3, 1.0), (4, 1.0), (4, 0.0)], ids=["cubic", "quartic", "biquadratic"]
)
def test_closed_form_roots_equal_the_companion_eigenvalues(d, odd):
    rng = np.random.default_rng(3)
    shape = (2 * dynamics.CLOSED_FORM_ROWS, d + 1)
    c = rng.standard_normal(shape) * 10.0 ** rng.uniform(-2, 2, size=(shape[0], 1))
    c = c + 1j * rng.standard_normal(shape)
    c[:, 1::2] *= odd
    c[:, d] = 1.0
    roots = dynamics._monic_roots(c)
    eig = dynamics._companion_eigvals(c)
    assert max(_multiset_error(w, e) for w, e in zip(roots, eig)) <= 1e-12
    # the closed forms, not the fallback, produced (almost) every row
    assert sum(np.array_equal(w, e) for w, e in zip(roots, eig)) < len(c) // 100


@pytest.mark.parametrize(
    "expr, z, want, closed",
    [
        ("z^3-3*z", 2.0, [-1.0, -1.0, 2.0], True),
        ("z^3-3*z", -2.0, [-2.0, 1.0, 1.0], True),
        # the critical values of the Chebyshev quartic; at 2 the root 0 is
        # double and the row takes the eigensolve
        ("z^4-4*z^2+2", 2.0, [-2.0, 0.0, 0.0, 2.0], False),
        ("z^4-4*z^2+2", -2.0, [-math.sqrt(2.0)] * 2 + [math.sqrt(2.0)] * 2, True),
    ],
)
def test_closed_form_keeps_exact_double_roots(monkeypatch, expr, z, want, closed):
    # P' vanishes at a double root: the Newton step there is not taken, so
    # the closed-form roots pass the check without the eigensolve
    if closed:
        monkeypatch.setattr(dynamics, "_companion_eigvals", None)
    roots = dynamics._monic_roots(_wide(_monic_preimage_rows(parse_map(expr), [z])))
    assert _multiset_error(roots[0], np.array(want, dtype=complex)) <= 1e-7


@pytest.mark.parametrize("d", [3, 4])
def test_closed_form_keeps_random_double_roots_without_the_eigensolve(monkeypatch, d):
    # near a double root the Newton step divides rounding noise by rounding
    # noise; unguarded, it throws some rows onto the eigensolve
    monkeypatch.setattr(dynamics, "_companion_eigvals", None)
    rng = np.random.default_rng(5)
    rows = 2 * dynamics.CLOSED_FORM_ROWS
    double = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    others = rng.standard_normal((rows, d - 2)) + 1j * rng.standard_normal((rows, d - 2))
    want = np.concatenate([double[:, None], double[:, None], others], axis=1)
    c = np.array([np.poly(r)[::-1] for r in want])
    roots = dynamics._monic_roots(c)
    assert max(_multiset_error(w, r) for w, r in zip(roots, want)) <= 1e-6


@pytest.mark.parametrize(
    "f, z",
    [
        (lattes_doubling_map(), 1e8),
        (lattes_doubling_map(), 1e8 * (1.0 + 1.0j)),
        (lattes_doubling_map(), 1e200),
        (parse_map("z^3-3*z"), 1e200),
    ],
)
def test_huge_values_fall_back_to_the_eigensolve(f, z):
    rows = _wide(_monic_preimage_rows(f, [z]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = dynamics._monic_roots(rows)
    assert np.array_equal(roots, dynamics._companion_eigvals(rows))


@pytest.mark.parametrize("d", [3, 4])
def test_narrow_batches_take_the_eigensolve_bit_for_bit(d):
    rng = np.random.default_rng(4)
    shape = (dynamics.CLOSED_FORM_ROWS - 1, d + 1)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c[:, d] = 1.0
    assert np.array_equal(dynamics._monic_roots(c), dynamics._companion_eigvals(c))


def _arcsine_ks_distance(x) -> float:
    """Kolmogorov-Smirnov distance of the sample x from the arcsine law on
    [-2, 2], F(x) = 1/2 + arcsin(x/2)/pi."""
    x = np.sort(x)
    cdf = 0.5 + np.arcsin(np.clip(x / 2.0, -1.0, 1.0)) / np.pi
    n = len(x)
    return float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))


@pytest.mark.parametrize("expr", ["z^3-3*z", "z^4-4*z^2+2"])
@pytest.mark.parametrize("cloud", [False, True], ids=["narrow", "wide"])
def test_backward_walk_samples_the_arcsine_measure(expr, cloud):
    # both Chebyshev maps have J = [-2, 2] with the arcsine law as their
    # measure of maximal entropy.  Distances at seed 1, narrow / wide walk:
    # z^3-3z 0.0042 / 0.0064, z^4-4z^2+2 0.0047 / 0.0125
    z = dynamics._sampler_points(parse_map(expr), 20000, seed=1, cloud=cloud)
    assert np.max(np.abs(z.imag)) < 1e-12
    assert _arcsine_ks_distance(z.real) < 0.02


@pytest.mark.parametrize("expr", ["z^2-2", "z^5-5*z^3+5*z"])
def test_clouds_of_other_degrees_keep_the_narrow_walk(expr):
    f = parse_map(expr)
    wide = dynamics._sampler_points(f, 3000, seed=1, cloud=True)
    assert np.array_equal(wide, dynamics._sampler_points(f, 3000, seed=1))


def test_period_solves_never_reach_the_closed_forms(monkeypatch):
    def closed_form(c):
        raise AssertionError("a period seed walk reached the closed-form roots")

    monkeypatch.setattr(dynamics, "_cubic_rows", closed_form)
    monkeypatch.setattr(dynamics, "_quartic_rows", closed_form)
    assert real_multiplier_test(parse_map("z^3-3*z"), 6)["passed"]
    assert real_multiplier_test(lattes_doubling_map(), 4)["passed"]


def _dict_loop_cloud(batch_of_round, size):
    """julia_cloud's deduplication as a dict of grid cells, point by point:
    the reference for the array version."""
    seen = {}
    rounds = 0
    added = size
    while len(seen) < size and rounds < 40 and added >= max(1, size // 200):
        batch = batch_of_round(rounds)
        inverted, w = chart_split(batch)
        cells = zip(inverted, np.round(w.real / 1e-4), np.round(w.imag / 1e-4))
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


def _cloud_bits(cloud):
    return [(p.infinite, repr(p.re), repr(p.im)) for p in cloud]


CRAFTED_ROUNDS = [
    # infinity, then a huge value in its cell; -0.0 and 0.0 in one cell;
    # two values in one cell; the reciprocal chart beyond |z| = 1
    [complex(math.inf, 0.0), 1e300, complex(-0.0, -0.0), 0.0, 0.5, 0.50000001, 3.0, -1e-5j],
    [-2e300j, 0.5, 2.0, 3.0 + 1e-9j, complex(0.0, -0.0), 0.25 + 0.25j, 1e-5j, complex(-0.0, 0.3), 0.2j],
    [0.25 + 0.25j, 2.0],
]


@pytest.mark.parametrize("size", [3, 7, 11, 600])
def test_julia_cloud_dedup_equals_the_dict_loop_on_crafted_batches(monkeypatch, size):
    def batch_of_round(r):
        return np.array(CRAFTED_ROUNDS[min(r, len(CRAFTED_ROUNDS) - 1)], dtype=complex)

    monkeypatch.setattr(
        dynamics, "_sampler_points", lambda f, n, seed, cloud: batch_of_round((seed - 5) // 1009)
    )
    got = julia_cloud(parse_map("z^2"), size, seed=5)
    assert _cloud_bits(got) == _cloud_bits(_dict_loop_cloud(batch_of_round, size))


def test_julia_cloud_dedup_equals_the_dict_loop_on_a_saturating_cantor_set(monkeypatch):
    f = parse_map(EX2_MAP)
    rounds = []
    sampler = dynamics._sampler_points

    def counted(f, size, seed, cloud):
        rounds.append(seed)
        return sampler(f, size, seed, cloud)

    monkeypatch.setattr(dynamics, "_sampler_points", counted)
    got = julia_cloud(f, 3000, seed=5)
    assert 0 < len(got) < 3000 and len(rounds) >= 3
    want = _dict_loop_cloud(lambda r: sampler(f, 3000, 5 + 1009 * r, True), 3000)
    assert _cloud_bits(got) == _cloud_bits(want)
