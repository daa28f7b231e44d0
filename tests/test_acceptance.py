"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <name>: PASS/FAIL` line (run with -s to see
them live).  Tolerances are pinned here, not configurable.
"""

import math

import numpy as np
import pytest

from circledyn import parse_map
from circledyn.classifier import (
    detect_exceptional,
    lattes_doubling_map,
    postcritical_analysis,
    dichotomy_verdict,
)
from circledyn.cli import main as cli_main
from circledyn.dynamics import (
    backward_sample,
    julia_cloud,
    lyapunov_exponent,
    real_multiplier_test,
)
from circledyn.geometry import REAL_LINE, containment_residual
from circledyn.linearizer import (
    functional_equation_residual,
    nonvanishing_witness,
    periodic_shadow_witness,
    poincare_coeffs,
    valiron_order,
)
from circledyn.realjulia import (
    build_example,
    construct_polynomial,
    ex1_completely_invariant_real_line,
    random_valid_spec,
    verify_example_claims,
)


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# -- criterion 1: EX1 Blaschke threshold ------------------------------------


def test_criterion_1_ex1_blaschke_threshold():
    inv_quarter = ex1_completely_invariant_real_line(build_example("EX1", c=0.25).map)
    inv_blaschke = ex1_completely_invariant_real_line(build_example("EX1", c=0.6).map)
    lo, hi = 0.25, 0.6
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if ex1_completely_invariant_real_line(build_example("EX1", c=mid).map):
            hi = mid
        else:
            lo = mid
    flip = 0.5 * (lo + hi)
    # the discriminant criterion 16 - 64 c^2 changes sign at exactly 1/2
    disc_flip = 0.5
    ok = (
        (not inv_quarter)
        and inv_blaschke
        and abs(flip - disc_flip) <= 0.01
    )
    report(
        "1-ex1-blaschke-threshold",
        ok,
        f"invariance(0.25)={inv_quarter} invariance(0.6)={inv_blaschke} flip={flip:.4f}",
    )


# -- criterion 2: the case suite ---------------------------------------------


def _case_flags(rep):
    return [rep.verdict == f"CIRCLE_CASE_{k}" for k in ("I", "II", "III")]


def test_criterion_2_case_suite():
    details = []
    ok = True

    rep = dichotomy_verdict(parse_map("z^2"), n_max=3)
    ok &= rep.verdict == "CIRCLE_CASE_I" and rep.julia_is_circle is True
    ok &= sum(_case_flags(rep)) == 1
    details.append(f"z^2={rep.verdict}/circle={rep.julia_is_circle}")

    rep = dichotomy_verdict(build_example("EX1", c=0.6).map, n_max=3)
    ok &= rep.verdict == "CIRCLE_CASE_I" and rep.julia_is_circle is False
    ok &= sum(_case_flags(rep)) == 1
    details.append(f"ex1(0.6)={rep.verdict}/circle={rep.julia_is_circle}")

    rep = dichotomy_verdict(parse_map("z^2-2"), n_max=3)
    a, b = rep.interval_I
    escapes = list(rep.escape_times.values())
    ok &= rep.verdict == "CIRCLE_CASE_II"
    ok &= abs(a + 2.0) <= 1e-8 and abs(b - 2.0) <= 1e-8
    ok &= len(escapes) == 1 and escapes[0]["N"] == 1
    ok &= sum(_case_flags(rep)) == 1
    details.append(f"z^2-2={rep.verdict}/I=[{a:.9f},{b:.9f}]/N={escapes[0]['N']}")

    for label, f in (
        ("ex1(0.25)", build_example("EX1", c=0.25).map),
        ("ex2(0.9)", build_example("EX2", c=0.9).map),
    ):
        rep = dichotomy_verdict(f, n_max=3)
        cloud = julia_cloud(f, 2000, seed=2024)
        resid = containment_residual(REAL_LINE, cloud)
        ok &= rep.verdict == "CIRCLE_CASE_III" and resid < 1e-6
        ok &= sum(_case_flags(rep)) == 1
        details.append(f"{label}={rep.verdict}/resid={resid:.1e}")

    report("2-case-suite", ok, " ".join(details))


# -- criterion 3: positive and negative multiplier tests ---------------------


def test_criterion_3_real_multiplier_tests():
    ok = True
    details = []

    rep = real_multiplier_test(parse_map("z^2+1"), 1, tol=1e-8)
    worst = rep["worst"]["im_abs"]
    ok &= (not rep["passed"]) and abs(worst - math.sqrt(3)) <= 1e-6
    ok &= rep["worst"]["period"] == 1
    details.append(f"z^2+1 worst|Im|={worst:.9f}")

    for label, f in (
        ("z^2", parse_map("z^2")),
        ("z^2-2", parse_map("z^2-2")),
        ("ex1(0.25)", build_example("EX1", c=0.25).map),
        ("ex1(0.6)", build_example("EX1", c=0.6).map),
    ):
        rep = real_multiplier_test(f, 6, tol=1e-8)
        ok &= rep["passed"]
        details.append(f"{label}=pass" if rep["passed"] else f"{label}=FAIL")

    lat = lattes_doubling_map()
    rep = real_multiplier_test(lat, 4, tol=1e-8)
    analysis = postcritical_analysis(lat)
    exc = detect_exceptional(lat, analysis)
    ok &= rep["passed"] and exc == "LATTES"
    ok &= analysis.orbifold_signature == (2, 2, 2, 2)
    details.append(f"lattes=pass/{exc}/{analysis.orbifold_signature}")

    report("3-dichotomy-positive-negative", ok, " ".join(details))


# -- criterion 4: linearizer -------------------------------------------------


def test_criterion_4_linearizer():
    ok = True
    f = parse_map("z^2")
    s = poincare_coeffs(f, 1.0, 64)
    fact = np.array([1.0 / math.factorial(n) for n in range(1, 21)])
    coeff_err = float(np.max(np.abs(s.coeffs[:20] - fact)))
    ok &= coeff_err <= 1e-10
    resid = functional_equation_residual(s, f)
    ok &= resid < 1e-8
    rho_f, rho_m = valiron_order(s, f)
    ok &= rho_f == pytest.approx(1.0) and abs(rho_m - 1.0) <= 0.1

    g = parse_map("2*z^2-1")
    sg = poincare_coeffs(g, 1.0, 64)
    rho_f2, rho_m2 = valiron_order(sg, g)
    ok &= rho_f2 == pytest.approx(0.5) and abs(rho_m2 - 0.5) <= 0.1
    resid2 = functional_equation_residual(sg, g)
    ok &= resid2 < 1e-8

    report(
        "4-linearizer",
        ok,
        f"coeff_err={coeff_err:.1e} resid={resid:.1e} orders=({rho_m:.3f},{rho_m2:.3f})",
    )


# -- criterion 5: ergodic bound ----------------------------------------------


def test_criterion_5_ergodic_bound():
    ok = True
    details = []
    suite = [
        ("z^2", parse_map("z^2")),
        ("ex1(0.6)", build_example("EX1", c=0.6).map),
        ("z^2-2", parse_map("z^2-2")),
        ("ex1(0.25)", build_example("EX1", c=0.25).map),
        ("ex2(0.9)", build_example("EX2", c=0.9).map),
    ]
    for label, f in suite:
        rep = dichotomy_verdict(f, n_max=2)
        assert rep.verdict.startswith("CIRCLE_CASE")
        sample = backward_sample(f, 10000, seed=424242)
        est = lyapunov_exponent(f, sample)
        bound = math.log(f.degree) - 3.0 * est.chi_stderr
        ok &= est.chi >= bound
        details.append(f"{label}:chi={est.chi:.4f}>={bound:.4f}")
        if label == "z^2":
            ok &= abs(est.chi - math.log(2)) <= 0.02 * math.log(2)
    report("5-ergodic-bound", ok, " ".join(details))


# -- criterion 6: constructor round trip ------------------------------------


def test_criterion_6_constructor_roundtrip():
    rng = np.random.default_rng(20260809)
    ok = True
    n_boundary = 0
    details = []
    for k in range(20):
        d = int(rng.integers(2, 5))
        all_boundary = k % 4 == 3  # a quarter of the sweep is Chebyshev-type
        spec = random_valid_spec(rng, d, all_boundary=all_boundary)
        result = construct_polynomial(spec)
        value_err = float(np.max(np.abs(result.achieved_values - np.array(spec.values))))
        hull_err = max(abs(result.hull[0]), abs(result.hull[1] - 1.0))
        ok &= value_err <= 1e-8 and hull_err <= 1e-8

        f = result.rational
        v0 = f(0.0).value.real
        v1 = f(1.0).value.real
        if d % 2 == 0:
            ok &= abs(v0 - v1) <= 1e-9 and min(abs(v0), abs(v0 - 1.0)) <= 1e-9
        else:
            ok &= min(abs(v0), abs(v0 - 1.0)) <= 1e-9
            ok &= min(abs(v1), abs(v1 - 1.0)) <= 1e-9

        cloud = julia_cloud(f, 1500, seed=11)
        ok &= containment_residual(REAL_LINE, cloud) < 1e-6

        rep = dichotomy_verdict(f, n_max=2, cloud_size=1500)
        boundary_spec = all(v in (0.0, 1.0) for v in spec.values)
        n_boundary += boundary_spec
        want = "CIRCLE_CASE_II" if boundary_spec else "CIRCLE_CASE_III"
        if rep.verdict != want:
            ok = False
            details.append(f"spec{k}:{spec.values}->{rep.verdict}(want {want})")
    ok &= n_boundary >= 3
    report(
        "6-constructor-roundtrip",
        ok,
        f"20 specs, {n_boundary} boundary-valued {' '.join(details)}",
    )


# -- criterion 7: EX3 second-iterate escape ----------------------------------


def test_criterion_7_ex3():
    inst = build_example("EX3", p=0.2, a=0.5, eps=1e-3)
    rep = dichotomy_verdict(inst.map, n_max=3)
    escapes = rep.escape_times or {}
    b = inst.data["b"]
    near_b = {
        k: v for k, v in escapes.items() if abs(float(k) - b) < 0.1
    }
    ok = rep.verdict == "CIRCLE_CASE_III"
    ok &= len(near_b) == 2 and all(v["N"] == 2 for v in near_b.values())
    devs = []
    for eps in (1e-2, 1e-3, 1e-4):
        claims = verify_example_claims(build_example("EX3", p=0.2, a=0.5, eps=eps))
        devs.append(max(claims["two_critical_values_near_c"]["deviations"]))
    ok &= devs[0] > devs[1] > devs[2]
    report(
        "7-ex3-second-iterate",
        ok,
        f"escapes={[v['N'] for v in near_b.values()]} deviations={[f'{d:.4f}' for d in devs]}",
    )


# -- criterion 8: linearizer witnesses --------------------------------------------


def test_criterion_8_linearizer_witnesses():
    ok = True
    f = parse_map("z^2")
    s = poincare_coeffs(f, 1.0, 64)
    w1 = nonvanishing_witness(s, f, count=5)
    ok &= w1["passed"] and len(w1["solutions"]) >= 5 and w1["min_abs_dpsi"] > 1e-6
    w3 = periodic_shadow_witness(s, f, 8)
    ok &= w3["found"] and w3["stability"] == "repelling"

    g = parse_map("z^2-2")
    sg = poincare_coeffs(g, -1.0, 64)
    w1g = nonvanishing_witness(sg, g, count=5)
    ok &= w1g["passed"] and w1g["min_abs_dpsi"] > 1e-6
    w3g = periodic_shadow_witness(sg, g, 6)
    ok &= w3g["found"]

    report(
        "8-linearizer-witnesses",
        ok,
        f"minDPsi=({w1['min_abs_dpsi']:.3f},{w1g['min_abs_dpsi']:.3f}) "
        f"period8_dist={w3.get('distance', -1):.2e} period6_dist={w3g.get('distance', -1):.2e}",
    )


# -- criterion 9: determinism ------------------------------------------------


def test_criterion_9_byte_identical_artifacts(tmp_path, capsys):
    jobs = [
        ["classify", "--map", "z^2-2", "--nmax", "3", "--seed", "11"],
        ["classify", "--example", "EX1", "--c", "0.25", "--nmax", "3", "--seed", "11"],
        ["classify", "--example", "EX2", "--c", "0.9", "--nmax", "2", "--seed", "11"],
        ["julia", "--map", "z^2", "--size", "500", "--seed", "5"],
        ["poincare", "--map", "2*z^2-1", "--at", "1", "--order", "32"],
        ["examples", "--family", "EX3", "--p", "0.2", "--a", "0.5", "--eps", "0.001"],
    ]
    ok = True
    for i, job in enumerate(jobs):
        a = tmp_path / f"a{i}"
        b = tmp_path / f"b{i}"
        cli_main(job + ["--out", str(a)])
        cli_main(job + ["--out", str(b)])
        capsys.readouterr()
        if a.read_bytes() != b.read_bytes():
            ok = False
    report("9-determinism", ok, f"{len(jobs)} artifact pairs byte-compared")