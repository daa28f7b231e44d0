import math
import warnings

import numpy as np
import pytest

from circledyn import Moebius, conjugate, parse_map
from circledyn.dynamics import (
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
        z = _aberth_functional(parse_map("z^2"), 2, 5, z0)
    assert np.all(np.isfinite(z))
