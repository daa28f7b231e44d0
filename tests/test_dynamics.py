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
    chart_rows,
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
    critical_orbits,
    cycle_multiplier,
    julia_cloud,
    julia_points,
    lyapunov_exponent,
    periodic_points,
    preimage_points,
    projective_solution_count,
    real_multiplier_test,
)
from circledyn.errors import (
    DegreeCapExceeded,
    DerivativeSingular,
    PreimageSolveFailed,
    RootFindingFailed,
)
from circledyn.realjulia import construct_polynomial, random_valid_spec


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


def _dynatomic_cycles(d, n):
    return sum(_mobius_mu(n // k) * (d**k + 1) for k in range(1, n + 1) if n % k == 0) // n


@pytest.mark.parametrize("k, d, n_max", [(1, 5, 5), (0, 8, 4)])
def test_constructed_cantor_polynomials_meet_the_dynatomic_count(k, d, n_max):
    # real Cantor Julia sets, whose period-n points lie close together; the
    # walk-seeded solve found 3108 of 3126 and 4070 of 4097 solutions
    f = construct_polynomial(random_valid_spec(np.random.default_rng(k), d)).rational
    for n in range(1, n_max + 1):
        assert len(periodic_points(f, n)) == _dynatomic_cycles(d, n), n


def _tree_level(f, depth):
    """Level `depth` of the backward tree of `_tree_root`, whole."""
    root = dynamics._tree_root(f)
    return np.concatenate([pts for k, pts, _ in dynamics._tree_batches(f, root, depth=depth) if k == depth])


@pytest.mark.parametrize("expr, n_max", [("z^2-2", 9), ("z^3-3*z", 7), ("lattes", 5)])
def test_seed_levels_are_the_tree_levels_bit_for_bit(expr, n_max):
    f = lattes_doubling_map() if expr == "lattes" else parse_map(expr)
    root = dynamics._tree_root(f)
    for n in range(1, n_max + 1):
        got, want = dynamics._seed_level(f, root, n), _tree_level(f, n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n
    assert f"tree-level-{n_max}" in f.memo


@pytest.mark.parametrize(
    "expr, n", [("z^2-2", 6), ("z^3-3*z", 5), (EX2_MAP, 3), ("lattes", 3)]
)
def test_period_seeds_are_m_distinct_finite_points(expr, n):
    f = lattes_doubling_map() if expr == "lattes" else parse_map(expr)
    # every new orbit is simple and finite, so m counts its points
    m = sum(len(o.points) for o in periodic_points(f, n))
    seeds = dynamics._period_seeds(f, n, m)
    assert seeds.shape == (m,) and np.all(np.isfinite(seeds))
    gaps = np.abs(seeds[:, None] - seeds[None, :]) + np.eye(m)
    assert np.min(gaps) > 1e-6


def test_critical_orbits_of_a_power_map():
    # z^4: the critical points 0 and infinity, each of multiplicity 3, are
    # fixed, so the rows stop after one step
    orbits, degrees = critical_orbits(parse_map("z^4"), 60)
    assert orbits.shape == (2, 2)
    assert orbits[0, 0] == 0 and np.isinf(orbits[0, 1])
    assert degrees.tolist() == [4, 4]
    orbits, degrees = critical_orbits(parse_map("z^2"), 60)
    assert orbits.shape == (2, 2) and np.array_equal(orbits[0], orbits[1])
    assert degrees.tolist() == [2, 2]


def test_critical_orbits_of_the_lattes_map_reach_infinity_exactly():
    # six simple critical points; their values -1, 0 and 1 are poles, which
    # map to infinity exactly, and infinity is fixed
    orbits, degrees = critical_orbits(lattes_doubling_map(), 60)
    assert orbits.shape == (4, 6)
    assert degrees.tolist() == [2] * 6
    np.testing.assert_allclose(np.sort(orbits[1].real), [-1, -1, 0, 0, 1, 1], atol=1e-12)
    assert np.all(orbits[2:] == complex(math.inf, 0.0))


def test_period_seeds_start_away_from_the_postcritical_set():
    # the critical points +-1 of z^3 - 3z land on the fixed points -+2 and stay
    assert dynamics._tree_root(parse_map("z^3-3*z")) == 0.0


def test_tree_root_is_kept_once_found_and_a_none_is_not():
    # z^2 + 1/4 has no repelling fixed point: while its period-2 points are
    # being solved there is no root yet, and after that solve a period-2 one
    f = parse_map("z^2+0.25")
    assert len(julia_points(f, 500, 2024)) == 500
    root = f.memo["tree-root"]
    assert abs(root**2 + 0.25 - root) > 0.1
    assert dynamics._tree_root(f) is root


def test_period_seed_surplus_is_trimmed_at_parabolic_infinity():
    # EX2's fixed point infinity is parabolic: of the 27 tree points, two go
    # for the repelling fixed points and one, the farthest out, for infinity
    f = parse_map(EX2_MAP)
    m = sum(len(o.points) for o in periodic_points(f, 3))
    tree = _tree_level(f, 3)
    assert (len(tree), m) == (27, 24)
    seeds = dynamics._period_seeds(f, 3, m)
    assert np.max(np.abs(seeds)) < np.max(np.abs(tree)) - 1.0


def test_period_seeds_take_the_ring_without_a_repelling_point(monkeypatch):
    # z^2 + 1/4 has no repelling fixed point, and period 2 is being solved
    seeds = []
    period_seeds = dynamics._period_seeds

    def recorded(f, n, m):
        seeds.append(period_seeds(f, n, m))
        return seeds[-1]

    monkeypatch.setattr(dynamics, "_period_seeds", recorded)
    periodic_points(parse_map("z^2+0.25"), 2)
    assert len(seeds) == 1 and len(seeds[0]) == 2
    assert np.allclose(np.abs(seeds[0]), 2.0, atol=3e-3)


@pytest.mark.parametrize(
    "expr", ["z^2-2", "z^3-3*z", "lattes", "(2*z^2+1)/(3*z^2+z)", "(z^2-4)/(1+0.25*z)"]
)
def test_preimage_rows_match_the_scalar_preimages(expr):
    f = lattes_doubling_map() if expr == "lattes" else parse_map(expr)
    z = np.array([0.3 - 0.2j, 2.0 / 3.0, -1.5 + 0.7j, complex(math.inf, 0.0), 5e8 - 3e8j])
    rows = dynamics._preimage_rows(f, z)
    for w, row in zip(z, rows):
        want = sphere_array(preimage_points(f, w if np.isfinite(w) else INF))
        got = sphere_array([SpherePoint.of(r) for r in row])
        dist = chordal_distances(got[:, None], want[None, :])
        assert np.max(np.min(dist, axis=1)) < 1e-9 and np.max(np.min(dist, axis=0)) < 1e-9


def test_orbits_through_the_pole_are_tested_in_charts():
    # the period-2 cycle {0, inf} of 1/z^3: (f^2)' is inf * 0 in one chart
    f = parse_map("1/z^3")
    for n in range(1, 5):
        assert projective_solution_count(f, n) == 3**n + 1
    (cycle,) = [o for o in periodic_points(f, 2) if any(p.infinite for p in o.points)]
    assert min(chordal_distance(p, SpherePoint.of(0.0)) for p in cycle.points) < 1e-12


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
    "expr", ["z^2-2", "z^3-3*z", "lattes", "(z^2-4)/(1+0.25*z)", "lattes-from-infinity"]
)
def test_backward_sample_is_a_seeded_subset_of_a_tree_level_bit_for_bit(monkeypatch, expr):
    # 2000 points of the first level of at least 2000, grown whole; from the
    # repelling fixed point infinity of the Lattes map, every level holds
    # infinity, a degenerate row of each batch
    f = lattes_doubling_map() if expr.startswith("lattes") else parse_map(expr)
    if expr == "lattes-from-infinity":
        monkeypatch.setattr(dynamics, "_tree_root", lambda f: complex(math.inf, 0.0))
    depth = {2: 11, 3: 7, 4: 6}[f.degree]
    level = _tree_level(f, depth)
    assert len(level) == f.degree**depth and f.degree ** (depth - 1) < 2000 <= len(level)
    assert np.all(np.isfinite(level)) == (expr != "lattes-from-infinity")
    pick = np.sort(np.random.default_rng(8).choice(len(level), 2000, replace=False))
    got = backward_sample(f, 2000, seed=8)
    assert repr(sphere_array(got.points).tolist()) == repr(level[pick].tolist())
    assert (got.burn_in, got.count, got.seed) == (0, 2000, 8)


def test_tree_samples_without_a_tree_root_raise(monkeypatch):
    monkeypatch.setattr(dynamics, "_tree_root", lambda f: None)
    with pytest.raises(PreimageSolveFailed, match="no repelling low-period point"):
        backward_sample(parse_map("z^2-2"), 100, seed=1)
    with pytest.raises(PreimageSolveFailed, match="no repelling low-period point"):
        julia_points(parse_map("z^2-2"), 100, seed=1)


@pytest.mark.parametrize("expr", ["z^2", "z^2-2", "z^3-3*z", "lattes"])
def test_lyapunov_estimates_hold_at_twenty_seeds(expr):
    # chi = log d for the polynomials, (1/2) log d for the Lattes map, within
    # 3 standard errors (and 1e-12 for z^2, whose estimates are all equal)
    f = lattes_doubling_map() if expr == "lattes" else parse_map(expr)
    want = math.log(f.degree) / (2.0 if expr == "lattes" else 1.0)
    for seed in range(1, 21):
        est = lyapunov_exponent(f, backward_sample(f, 10000, seed))
        assert abs(est.chi - want) <= 3.0 * est.chi_stderr + 1e-12, (seed, est)


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
    slopes = dynamics._chart_slopes(f, z_inv, w_inv, u).tolist()
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
    arr = julia_points(parse_map("z^2"), 1200, seed=5)
    assert np.all(np.isfinite(arr))
    assert np.max(np.abs(np.abs(arr) - 1.0)) < 1e-6


def test_julia_cloud_dendrite_leaves_line():
    arr = julia_points(parse_map("z^2+1"), 1200, seed=5)
    assert np.max(arr.imag) > 0.1


def test_julia_cloud_ex2_real():
    f = parse_map("((z-2)*(z+0.9)*(z-0.9))/((z-1)*(z+1))")
    arr = julia_points(f, 1500, seed=5)
    arr = arr[np.isfinite(arr)]
    scale = np.maximum(1.0, np.abs(arr))
    assert np.max(np.abs(arr.imag) / scale) < 1e-6


def test_julia_cloud_reproducible():
    f = parse_map("z^2-2")
    a = julia_cloud(f, 400, seed=77)
    b = julia_cloud(f, 400, seed=77)
    assert [(p.re, p.im) for p in a] == [(p.re, p.im) for p in b]

def test_a_stopped_multiplier_test_keeps_the_periods_it_solved(monkeypatch):
    # period 4 of a quadratic needs degree 2^4 + 1 = 17
    monkeypatch.setattr(dynamics, "PERIOD_DEGREE_CAP", 9)
    with pytest.raises(DegreeCapExceeded, match="^period 4 needs degree 17 > cap 9$") as info:
        real_multiplier_test(parse_map("z^2-2"), 5)
    partial = info.value.partial
    assert list(partial) == ["passed", "n_max", "tol", "worst", "table", "n_solved"]
    assert (partial["passed"], partial["n_max"], partial["n_solved"]) == (True, 5, 3)
    assert sorted({e["period"] for e in partial["table"]}) == [1, 2, 3]


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


def _sums(z, known, weights=1.0, skip=None):
    """`_reciprocal_sums` through a fresh block buffer."""
    buf = dynamics._block_buffer(len(z), len(known))
    return dynamics._reciprocal_sums(z, known, weights, buf=buf, skip=skip)


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
    got = _sums(z, k, w)
    assert np.array_equal(_bits(got), _bits(_dense_weighted_sums(z, k, w)))
    assert not np.isfinite(got[rows // 2])

    # the Aberth sum over the points themselves, 16 / rows per block
    monkeypatch.setattr(dynamics, "RECIPROCAL_BLOCK", 16 * rows)
    z[1] = z[rows - 1]  # two equal points
    got = _sums(z, z, skip=np.arange(rows))
    assert np.array_equal(_bits(got), _bits(_dense_aberth_sums(z)))
    assert not np.isfinite(got[1]) and not np.isfinite(got[rows - 1])


def test_reciprocal_sums_of_one_row_match_the_closure_sum():
    rng = np.random.default_rng(5)
    k = rng.normal(size=200) + 1j * rng.normal(size=200)
    w = np.ones(200)
    wz = np.array([0.3 + 0.1j])
    got = _sums(wz, k, w)
    assert got.shape == (1,)
    assert np.array_equal(_bits(got), _bits([np.sum(w / (wz[0] - k))]))
    assert np.array_equal(_bits(_sums(wz, k[:0], w[:0])), _bits([0]))


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
    got = _sums(z[active], z, skip=active)
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
        s = _sums(z, z, skip=every)
        s += _sums(z, known, weights)
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


def _period_roots_inputs(monkeypatch, f, n):
    """The seeds, known roots and weights of the period-n solve of f, as
    `_solve_period` hands them to `_period_roots`."""
    solves = []
    period_roots = dynamics._period_roots

    def recorded(f, k, z0, known, weights):
        if k == n:
            solves.append((z0, known, weights))
        return period_roots(f, k, z0, known, weights)

    monkeypatch.setattr(dynamics, "_period_roots", recorded)
    periodic_points(f, n)
    monkeypatch.setattr(dynamics, "_period_roots", period_roots)
    ((z0, known, weights),) = solves
    return z0, known, weights


def test_aberth_sums_only_the_points_still_moving(monkeypatch):
    # the Aberth iteration on all seeds of the period-6 solve: every
    # iteration of a full sum would send all m rows through the kernel,
    # about 43 m for this solve
    f = parse_map("z^3-3*z")
    z0, known, weights = _period_roots_inputs(monkeypatch, f, 6)
    rows = []
    kernel = dynamics._reciprocal_sums

    def counted(z, known, *args, **kwargs):
        if kwargs.get("skip") is not None:
            rows.append(len(z))
        return kernel(z, known, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_reciprocal_sums", counted)
    z = _aberth_functional(f, 6, z0, known, weights)
    m = len(z0)
    assert rows[0] == m
    assert sum(rows) < 12 * m
    ref = _full_aberth(f, 6, z0, known, weights)
    gap = np.abs(z[:, None] - ref[None, :])
    nearest = np.argmin(gap, axis=1)
    assert len(np.unique(nearest)) == m
    assert np.all(gap[np.arange(m), nearest] <= 1e-12 * np.maximum(1.0, np.abs(z)))


def _chordal_match(z, ref):
    """The largest chordal distance from a point of z to the point of ref
    nearest it, and whether those nearest points are all distinct."""
    gap = chordal_distances(z[:, None], ref[None, :])
    nearest = np.argmin(gap, axis=1)
    return float(np.max(gap[np.arange(len(z)), nearest])), len(np.unique(nearest)) == len(z)


@pytest.mark.parametrize(
    "expr, n", [("z^3-3*z", 7), ("lattes", 5), ("z^2", 9), ("z^2-1", 10)]
)
def test_newton_phase_solves_as_aberth_alone(monkeypatch, expr, n):
    # the same roots, to 1e-10 chordal, as the Aberth iteration on all seeds
    f = lattes_doubling_map() if expr == "lattes" else parse_map(expr)
    z0, known, weights = _period_roots_inputs(monkeypatch, f, n)
    assert len(z0) * (len(z0) + len(known)) > dynamics.RECIPROCAL_BLOCK
    got = dynamics._period_roots(f, n, z0, known, weights)
    ref = _aberth_functional(f, n, z0, known, weights)
    worst, bijective = _chordal_match(got, ref)
    assert worst <= 1e-10 and bijective
    new = sphere_array([p for o in periodic_points(f, n) for p in o.points])
    worst, bijective = _chordal_match(new, ref)
    assert worst <= 1e-10 and bijective


def test_newton_phase_leaves_aberth_the_collisions(monkeypatch):
    # z^3 - 3z at period 7: Newton from the tree seeds converges to all but
    # a few of the 2184 new points, which the Aberth iteration gets with the
    # distinct converged points as known roots of weight 1
    calls = []
    aberth = dynamics._aberth_functional

    def recorded(f, n, z0, known=(), weights=()):
        if n == 7:
            calls.append((len(z0), len(known), np.asarray(weights)))
        return aberth(f, n, z0, known, weights)

    monkeypatch.setattr(dynamics, "_aberth_functional", recorded)
    f = parse_map("z^3-3*z")
    assert sum(len(o.points) for o in periodic_points(f, 7)) == 2184
    ((rest, known, weights),) = calls
    assert 0 < rest < 2184 // 10
    assert rest + known == 2184 + 3
    assert np.all(weights[3:] == 1.0)


def test_small_period_solves_take_aberth_alone(monkeypatch):
    # below one block of the coupling sum, all m seeds go to Aberth
    calls = []
    aberth = dynamics._aberth_functional

    def recorded(f, n, z0, known=(), weights=()):
        calls.append((n, len(z0), len(known)))
        return aberth(f, n, z0, known, weights)

    monkeypatch.setattr(dynamics, "_aberth_functional", recorded)
    periodic_points(parse_map("z^2-2"), 6)
    assert [c[0] for c in calls] == [2, 3, 6]
    assert all(m * (m + k) <= dynamics.RECIPROCAL_BLOCK for _, m, k in calls)
    assert calls[-1][1] == 54


def test_newton_phase_without_aberth_is_a_shortfall(monkeypatch):
    # past the periods below, an Aberth iteration that never moves its start
    # points: the points Newton leaves it (z^2 - 1 collides at period 9)
    # stay at their seeds and fail the quality test
    f = parse_map("z^2-1")
    for n in range(1, 9):
        periodic_points(f, n)
    monkeypatch.setattr(dynamics, "_aberth_functional", lambda f, n, z0, *known: z0)
    with pytest.raises(RootFindingFailed, match="^period-9 solve found "):
        periodic_points(f, 9)


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
    assert dynamics._successors(f, new, pts[len(new) :]).tolist() == scalar


def test_successors_are_assigned_in_ascending_distance():
    # two images nearest one target, 2.2e-15 and 4.9e-14 from it, the
    # second 5.8e-14 from its own (the period-7 solve of EX3): the nearer
    # image keeps the target, the other takes its own; the images of the
    # targets miss every new point and take the nearest of new + pool
    f = parse_map("2*z")
    target = np.array([0.5, 0.5 + 4.9e-14 + 5.8e-14])
    images = np.array([0.5 + 2.2e-15, 0.5 + 4.9e-14])
    new = np.concatenate([images / 2.0, target])
    pool = np.array([1.0, complex(math.inf, 0.0)])
    pts = np.concatenate([new, pool])
    nearest = [int(np.argmin(chordal_distances(w, pts))) for w in 2.0 * new]
    assert nearest == [2, 2, 4, 4]
    assert dynamics._successors(f, new, pool).tolist() == [2, 3, 4, 4]
    # a row whose only near target is taken falls back to it, and so the
    # successors are not a permutation
    assert dynamics._successors(f, new[[0, 1, 2]], pool).tolist() == [2, 2, 3]


def test_a_known_point_nearest_an_image_claims_its_row():
    # a stray copy of the known point 0.5 lies 1e-9 from it: the image
    # 0.5 + 1e-15 is nearest the known point, so its row takes that point
    # and the successors are not a permutation of the new points
    f = parse_map("2*z")
    new = np.array([0.25 + 5e-16, 0.5 + 1e-9])
    pool = np.array([0.5, 1.0])
    assert dynamics._successors(f, new, pool).tolist() == [2, 3]


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


def _kernel_points():
    """Sphere points for the neighbour kernel: infinity, 0 and the poles
    +-1 of EX2, both sides of |z| = 1, points 1e-13 apart, exact copies
    (ties go to the lowest index) and a wide spread of moduli, up to 1e300,
    whose lift 1 + |z|^2 overflows."""
    rng = np.random.default_rng(21)
    spread = (rng.normal(size=1500) + 1j * rng.normal(size=1500)) * np.exp(4.0 * rng.normal(size=1500))
    circle = np.exp(2j * np.pi * rng.random(300))
    return np.concatenate(
        [
            [complex(math.inf, 0.0), 0.0, 1.0, -1.0, 1e-300, 1e30j, 1e300],
            circle * (1.0 - 1e-12),
            circle * (1.0 + 1e-12),
            spread,
            spread[:200] + 1e-13,
            spread[200:300],
        ]
    )


def test_nearest_is_the_brute_force_argmin_bit_for_bit():
    pts = _kernel_points()
    a, b = pts[::2], pts[1::2]
    assert len(a) * len(b) > dynamics.RECIPROCAL_BLOCK
    for x, y in ((a, b), (b, a), (pts, pts[:2000])):
        want = np.array([np.argmin(chordal_distances(p, y)) for p in x])
        assert np.array_equal(dynamics._nearest(x, y), want)


@pytest.mark.parametrize("radius", [0.0, 1e-13, 1e-6, 1e-3, 0.3])
def test_near_pairs_are_every_pair_within_the_radius(radius):
    pts = _kernel_points()
    a, b = pts[:900], pts[700:]
    i, j, d = dynamics._near_pairs(a, b, radius)
    dense = chordal_distances(a[:, None], b[None, :])
    want = set(zip(*np.nonzero(dense <= radius)))
    assert set(zip(i.tolist(), j.tolist())) == {(int(p), int(q)) for p, q in want}
    assert len(i) == len(want)
    assert np.array_equal(d.view(np.uint64), dense[i, j].view(np.uint64))


@pytest.mark.parametrize("radius", [1e-6, 0.3])
def test_near_pairs_compare_all_pairs_and_the_grid_alike(monkeypatch, radius):
    # 60 x 90 pairs are compared all at once; a block of 64 sends the same
    # sets through the grid.  Infinity and points of modulus 1e154 to 1e300
    # lie within 1e-6 of each other
    rng = np.random.default_rng(8)
    a = (rng.normal(size=60) + 1j * rng.normal(size=60)) * np.exp(3.0 * rng.normal(size=60))
    a[:4] = [complex(math.inf, 0.0), 1e154 * np.exp(1j), -3e300j, 2e200]
    b = np.concatenate([a[:40] + 1e-9 * rng.normal(size=40), rng.normal(size=50) + 1j * rng.normal(size=50)])
    b[40:43] = [complex(math.inf, 0.0), 5e154, 1e300j]
    assert len(a) * len(b) <= dynamics.RECIPROCAL_BLOCK // 4

    def triples(i, j, d):
        return sorted(zip(i.tolist(), j.tolist(), d.view(np.uint64).tolist()))

    dense = dynamics._near_pairs(a, b, radius)
    monkeypatch.setattr(dynamics, "RECIPROCAL_BLOCK", 64)
    grid = dynamics._near_pairs(a, b, radius)
    assert np.all(np.diff(dense[0]) >= 0)
    assert {(0, 40), (1, 41), (2, 42), (3, 40)} <= set(zip(dense[0].tolist(), dense[1].tolist()))
    assert triples(*dense) == triples(*grid)


def test_neighbour_kernel_memory_is_linear_in_the_points():
    # the 4094 points z^4095 = 1, z != 1, which z^2 permutes, and 4000 points
    # of the plane, whose nearest of them lie 1e-3 to 1e-1 away: an
    # all-pairs distance block would allocate 8 m^2 bytes, ~128 MB
    f = parse_map("z^2")
    z = np.exp(2j * np.pi * np.arange(1, 4095) / 4095)
    plane = np.array([1.0, 1j]) @ np.random.default_rng(4).normal(size=(2, 4000))
    tracemalloc.start()
    try:
        i, j, _ = dynamics._near_pairs(z * z, z, dynamics.DUPLICATE_CLUSTER)
        succ = dynamics._successors(f, z, np.zeros(0, dtype=complex))
        nearest = dynamics._nearest(plane, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(np.sort(i), np.arange(4094))
    assert np.array_equal(succ, (2 * np.arange(1, 4095)) % 4095 - 1)
    assert len(nearest) == 4000
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# closed-form roots of the wide backward walk


def _monic_preimage_rows(f, zs):
    """Monic ascending rows of num(w) - z den(w), one per value z."""
    nc, dc = chart_rows(f)[0, :2]
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


@pytest.mark.parametrize("d", [3, 4])
def test_closed_form_keeps_an_exact_root_zero_without_the_eigensolve(monkeypatch, d):
    # random rows with a simple root 0, and at degree 3 the preimages of the
    # fixed point 0 of z^3 - 3z, which its backward tree meets on every
    # level: the relative bound vanishes there, and its absolute floor keeps
    # the rows
    monkeypatch.setattr(dynamics, "_companion_eigvals", None)
    rng = np.random.default_rng(6)
    rows = dynamics.CLOSED_FORM_ROWS
    others = rng.standard_normal((rows, d - 1)) + 1j * rng.standard_normal((rows, d - 1))
    want = np.concatenate([np.zeros((rows, 1)), others], axis=1)
    if d == 3:
        want[0] = [0.0, math.sqrt(3.0), -math.sqrt(3.0)]
    c = np.array([np.poly(r)[::-1] for r in want])
    c[:, 0] = 0.0
    roots = dynamics._monic_roots(c)
    assert np.all(np.min(np.abs(roots), axis=1) < 1e-15)
    assert max(_multiset_error(w, r) for w, r in zip(roots, want)) <= 1e-9
    val = dynamics._horner(c, roots)[0]
    size = dynamics._horner(np.abs(c), np.abs(roots))[0]
    floor = np.finfo(float).eps * np.max(np.abs(c), axis=1)[:, None]
    assert np.all(np.abs(val) <= 1e-12 * (size + floor))


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


# the level L of the tree whose d^L points the arcsine test reads
ARCSINE_LEVELS = {"z^3-3*z": 9, "z^4-4*z^2+2": 7, "z^2-2": 14}


@pytest.mark.parametrize("expr", list(ARCSINE_LEVELS))
@pytest.mark.parametrize("walk", ["narrow", "tree"])
def test_backward_walk_samples_the_arcsine_measure(expr, walk):
    # the three Chebyshev maps have J = [-2, 2] with the arcsine law as their
    # measure of maximal entropy.  Distances of `backward_sample`'s 20000
    # points at seed 1 / of the whole tree level: z^3-3z 0.0049 / 2.5e-5,
    # z^4-4z^2+2 0.0033 / 3.7e-5, z^2-2 0.0033 / 4.1e-5
    f = parse_map(expr)
    if walk == "narrow":
        z, tol = sphere_array(backward_sample(f, 20000, seed=1).points), 0.02
    else:
        z, tol = _tree_level(f, ARCSINE_LEVELS[expr]), 1e-3
        assert len(z) == f.degree ** ARCSINE_LEVELS[expr]
    assert np.max(np.abs(z.imag)) < 1e-12
    assert _arcsine_ks_distance(z.real) < tol


def test_tree_levels_wider_than_the_width_are_thinned_to_a_seeded_subset():
    f = parse_map("z^3-3*z")
    root = dynamics._tree_root(f)

    def levels(seed):
        out = {}
        for k, pts, _ in dynamics._tree_batches(f, root, width=100, seed=seed, depth=7):
            out.setdefault(k, []).append(pts)
        return [np.concatenate(out[k]) for k in sorted(out)]

    got = levels(3)
    # 3, 9, 27, 81 whole, 243 thinned to 100 before it is expanded, and so on
    assert [len(z) for z in got] == [3, 9, 27, 81, 243, 300, 300]
    for upper, lower in zip(got, got[1:]):
        # every point of a level is a preimage of a point of the level above
        images = lower**3 - 3.0 * lower
        assert np.max(np.min(np.abs(images[:, None] - upper[None, :]), axis=1)) < 1e-9
    # the 100 points expanded are distinct points of the level above
    expanded = np.unique(np.round((got[5] ** 3 - 3.0 * got[5]).real, 9))
    assert len(expanded) == 100 and np.all(np.isin(expanded, np.round(got[4].real, 9)))
    again, other = levels(3), levels(4)
    assert all(np.array_equal(x, y) for x, y in zip(got, again))
    assert np.array_equal(got[4], other[4]) and not np.array_equal(got[5], other[5])


def test_period_solves_never_reach_the_closed_forms(monkeypatch):
    def closed_form(c):
        raise AssertionError("a period seed walk reached the closed-form roots")

    monkeypatch.setattr(dynamics, "_cubic_rows", closed_form)
    monkeypatch.setattr(dynamics, "_quartic_rows", closed_form)
    assert real_multiplier_test(parse_map("z^3-3*z"), 6)["passed"]
    assert real_multiplier_test(lattes_doubling_map(), 4)["passed"]


def _dict_loop_cloud(levels, size):
    """julia_points' deduplication and stopping rule as a dict of grid
    cells, point by point: the reference for the array version.  `levels`
    lists each level's batches; returns the cloud and the levels read."""
    seen = {}
    quiet = 0
    read = 0
    for level in levels:
        read += 1
        before = len(seen)
        batch = np.concatenate([np.asarray(b, dtype=complex) for b in level])
        inverted, w = chart_split(batch)
        for z, key in zip(batch, zip(inverted, np.round(w.real / 1e-4), np.round(w.imag / 1e-4))):
            if key not in seen:
                seen[key] = z
            if len(seen) >= size:
                break
        if len(seen) >= size:
            break
        full = len(batch) >= max(size, 512)
        quiet = quiet + 1 if full and len(seen) - before < max(1, size // 200) else 0
        if quiet == 2:
            break
    pts = [
        INF if not (math.isfinite(z.real) and math.isfinite(z.imag)) else SpherePoint.of(z)
        for z in seen.values()
    ]
    pts.sort(key=lambda p: p.sort_key())
    return pts, read


def _cloud_bits(cloud):
    return [(p.infinite, repr(p.re), repr(p.im)) for p in cloud]


CRAFTED_LEVELS = [
    # infinity, then a huge value in its cell; -0.0 and 0.0 in one cell;
    # two values in one cell; the reciprocal chart beyond |z| = 1.  The
    # first level comes in two batches.
    [
        [complex(math.inf, 0.0), 1e300, complex(-0.0, -0.0), 0.0, 0.5, 0.50000001, 3.0, -1e-5j],
        [-2e300j, 0.5, 2.0, 3.0 + 1e-9j, complex(0.0, -0.0), 0.25 + 0.25j, 1e-5j, complex(-0.0, 0.3), 0.2j],
    ],
    [[0.25 + 0.25j, 2.0]],
    # full-width levels of 600 points: one new cell, then four, then none
    [[2.0] * 599 + [7.0]],
    [[8.0, 9.0, 10.0, 11.0] + [2.0] * 596],
] + [[[2.0] * 600]] * 6


@pytest.mark.parametrize("size", [3, 7, 11, 600])
def test_julia_cloud_dedup_equals_the_dict_loop_on_crafted_batches(monkeypatch, size):
    read = []

    def crafted(f, root, width, seed):
        for k, level in enumerate(CRAFTED_LEVELS, start=1):
            read.append(k)
            for i, batch in enumerate(level):
                yield k, np.array(batch, dtype=complex), i == len(level) - 1

    monkeypatch.setattr(dynamics, "_tree_batches", crafted)
    got = julia_cloud(parse_map("z^2"), size, seed=5)
    want, levels = _dict_loop_cloud(CRAFTED_LEVELS, size)
    assert _cloud_bits(got) == _cloud_bits(want)
    assert len(read) == levels
    if size == 600:
        # one quiet full-width level, a busy one, then two quiet ones in a row
        assert levels == 6


def _recorded_cloud(monkeypatch, f, size, seed):
    """julia_cloud, and the batches it read with their `last` flags, grouped
    by level."""
    levels = []
    tree = dynamics._tree_batches

    def recorded(*args):
        for k, pts, last in tree(*args):
            if k > len(levels):
                levels.append([])
            levels[-1].append((pts, last))
            yield k, pts, last

    monkeypatch.setattr(dynamics, "_tree_batches", recorded)
    return julia_cloud(f, size, seed), levels


def test_julia_cloud_dedup_equals_the_dict_loop_on_a_saturating_cantor_set(monkeypatch):
    got, levels = _recorded_cloud(monkeypatch, parse_map(EX2_MAP), 3000, 5)
    batches = [[pts for pts, _ in level] for level in levels]
    assert 0 < len(got) < 3000
    assert levels[-1][-1][1] and sum(sum(map(len, level)) >= 3000 for level in batches) >= 2
    want, read = _dict_loop_cloud(batches, 3000)
    assert _cloud_bits(got) == _cloud_bits(want) and read == len(levels)


@pytest.mark.parametrize("expr, size", [("z^3-3*z", 20000), ("z^2-2", 20000), ("lattes", 30000)])
def test_filling_cloud_stops_inside_its_last_level(monkeypatch, expr, size):
    f = lattes_doubling_map() if expr == "lattes" else parse_map(expr)
    got, levels = _recorded_cloud(monkeypatch, f, size, 1)
    assert len(got) == size
    # the batch that fills the cloud is not the last of its level
    assert not levels[-1][-1][1]
    assert len(got) == len(set(_cloud_bits(got)))
