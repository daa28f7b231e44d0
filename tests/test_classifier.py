import math

import numpy as np
import pytest

from circledyn import Moebius, classifier, conjugate, dynamics, parse_map
from circledyn.classifier import (
    circle_case_classify,
    critical_escape_times,
    detect_exceptional,
    lattes_doubling_map,
    postcritical_analysis,
    dichotomy_verdict,
)
from circledyn.dynamics import preimage_points
from circledyn.errors import DegeneratePoints, DegreeCapExceeded
from circledyn.geometry import REAL_LINE, UNIT_CIRCLE, real_line_degree


def test_postcritical_squaring():
    an = postcritical_analysis(parse_map("z^2"))
    assert an.finite
    labels = {("inf" if p.infinite else round(p.re, 9)) for p in an.postcritical_set}
    assert labels == {0.0, "inf"}


def test_postcritical_chebyshev_orbit():
    an = postcritical_analysis(parse_map("z^2-2"))
    assert an.finite
    finite_pts = sorted(p.re for p in an.postcritical_set if not p.infinite)
    assert finite_pts == pytest.approx([-2.0, 2.0], abs=1e-9)


def test_postcritical_aperiodic_not_finite():
    an = postcritical_analysis(parse_map("z^2+0.3"))
    assert not an.finite


def test_detect_power():
    assert detect_exceptional(parse_map("z^3")) == "POWER"
    assert detect_exceptional(parse_map("z^2")) == "POWER"


def test_detect_chebyshev():
    assert detect_exceptional(parse_map("2*z^2-1")) == "CHEBYSHEV"
    assert detect_exceptional(parse_map("z^2-2")) == "CHEBYSHEV"


def test_detect_lattes_signature():
    lat = lattes_doubling_map()
    # duplication on y^2 = 4x^3 - 4x gives (z^2+1)^2 / (4z(z^2-1))
    want_num = np.array([0.25, 0.0, 0.5, 0.0, 0.25])
    np.testing.assert_allclose(lat.num.coeffs.real, want_num, atol=1e-12)
    an = postcritical_analysis(lat)
    assert an.finite
    assert an.orbifold_signature == (2, 2, 2, 2)
    assert detect_exceptional(lat, an) == "LATTES"


def test_detect_generic_none():
    assert detect_exceptional(parse_map("z^2+0.3")) == "NONE"


def test_verdict_no_real_structure():
    rep = dichotomy_verdict(parse_map("z^2+1"), n_max=1)
    assert rep.verdict == "NO_REAL_STRUCTURE"
    assert rep.exit_code == 4
    assert rep.real_multiplier["worst"]["im_abs"] == pytest.approx(
        math.sqrt(3), abs=1e-6
    )


def test_verdict_case_i_circle():
    rep = dichotomy_verdict(parse_map("z^2"), n_max=3)
    assert rep.verdict == "CIRCLE_CASE_I"
    assert rep.julia_is_circle is True
    assert rep.exit_code == 0
    circ = rep.circle
    assert circ.normalized().A == pytest.approx(1.0)
    # complete invariance evidence: preimages of circle samples stay on it
    f = parse_map("z^2")
    for p in circ.sample_points(64):
        for q in preimage_points(f, p):
            assert circ.point_residual(q) < 1e-6


def test_verdict_case_i_cantor():
    rep = dichotomy_verdict(parse_map("(z^2-4)/(1+0.6*z)"), n_max=3)
    assert rep.verdict == "CIRCLE_CASE_I"
    assert rep.julia_is_circle is False


def test_verdict_case_ii_chebyshev_conjugate():
    rep = dichotomy_verdict(parse_map("z^2-2"), n_max=3)
    assert rep.verdict == "CIRCLE_CASE_II"
    a, b = rep.interval_I
    assert a == pytest.approx(-2.0, abs=1e-8)
    assert b == pytest.approx(2.0, abs=1e-8)
    assert rep.x0.infinite
    assert rep.lambda_x0 == pytest.approx(0.0, abs=1e-12)
    assert len(rep.escape_times) == 1
    entry = next(iter(rep.escape_times.values()))
    assert entry["N"] == 1
    assert entry["preperiodic"]


def test_verdict_case_iii_ex1():
    rep = dichotomy_verdict(parse_map("(z^2-4)/(1+0.25*z)"), n_max=3)
    assert rep.verdict == "CIRCLE_CASE_III"
    assert rep.x0.infinite
    assert rep.lambda_x0 == pytest.approx(0.25, abs=1e-9)
    a, b = rep.interval_I
    # invariant endpoints: q = (1 + sqrt(13))/1.5 and its preimage
    q = (1.0 + math.sqrt(13.0)) / 1.5
    assert b == pytest.approx(q, abs=1e-9)
    c = 0.25
    p = (c * q - math.sqrt(c * c * q * q + 4 * q + 16)) / 2.0
    assert a == pytest.approx(p, abs=1e-9)
    assert all(v["N"] == 1 for v in rep.escape_times.values())


def test_verdict_case_iii_ex2_infinite_endpoint():
    f = parse_map("((z-2)*(z+0.9)*(z-0.9))/((z-1)*(z+1))")
    rep = dichotomy_verdict(f, n_max=3)
    assert rep.verdict == "CIRCLE_CASE_III"
    a, b = rep.interval_I
    assert a == pytest.approx(-1.0, abs=1e-9)
    assert math.isinf(b)
    assert rep.x0.infinite
    assert rep.lambda_x0 == pytest.approx(1.0, abs=1e-9)


def test_verdict_lattes():
    rep = dichotomy_verdict(lattes_doubling_map(), n_max=3)
    assert rep.verdict == "LATTES"
    assert rep.orbifold_signature == (2, 2, 2, 2)


def test_case_disjointness():
    # exactly one case flag per classified circle map
    for expr in ("z^2", "z^2-2", "(z^2-4)/(1+0.25*z)", "(z^2-4)/(1+0.6*z)"):
        rep = dichotomy_verdict(parse_map(expr), n_max=2)
        flags = [rep.verdict == f"CIRCLE_CASE_{k}" for k in ("I", "II", "III")]
        assert sum(flags) == 1
        if rep.verdict == "CIRCLE_CASE_II":
            assert rep.interval_I is not None
        if rep.verdict == "CIRCLE_CASE_I":
            assert rep.interval_I is None


def test_polished_endpoints_invariant():
    from circledyn.algebra import SpherePoint

    for expr in ("z^2-2", "(z^2-4)/(1+0.25*z)"):
        f = parse_map(expr)
        rep = dichotomy_verdict(f, n_max=2)
        g = rep.normalized_map
        a, b = rep.interval_I
        for x in (a, b):
            if math.isinf(x):
                continue
            img = g(SpherePoint.of(x))
            targets = [abs(img.value.real - a) if not img.infinite else math.inf]
            if math.isfinite(b):
                targets.append(abs(img.value.real - b) if not img.infinite else math.inf)
            else:
                targets.append(0.0 if img.infinite else abs(1.0 / img.value))
            assert min(targets) < 1e-9


def test_verdict_stability_under_conjugation():
    f = parse_map("z^2-2")
    base = dichotomy_verdict(f, n_max=2).verdict
    rng = np.random.default_rng(8)
    done = 0
    while done < 5:
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        try:
            m = Moebius(a, b, c, d)
        except ValueError:
            continue
        rep = dichotomy_verdict(conjugate(f, m), n_max=2)
        assert rep.verdict == base
        done += 1


def test_case_ii_cloud_density():
    # the case-(ii) Julia set fills its interval: relative gaps below 1e-3
    from circledyn.dynamics import julia_cloud, cloud_array

    f = parse_map("z^2-2")
    cloud = julia_cloud(f, 60000, seed=5)
    arr, _ = cloud_array(cloud)
    xs = np.sort(arr.real)
    assert xs[0] == pytest.approx(-2.0, abs=1e-3)
    assert xs[-1] == pytest.approx(2.0, abs=1e-3)
    max_gap = float(np.max(np.diff(xs)))
    assert max_gap <= 1e-3 * 4.0
    rep = dichotomy_verdict(f, n_max=2)
    from circledyn.geometry import containment_residual

    assert containment_residual(rep.circle, cloud) <= 1e-6


def test_report_json_fields_present_exactly_when_applicable():
    rep = dichotomy_verdict(parse_map("z^2"), n_max=2)
    d = rep.to_json_dict()
    assert "julia_is_circle" in d and "interval_I" not in d
    rep2 = dichotomy_verdict(parse_map("z^2-2"), n_max=2)
    d2 = rep2.to_json_dict()
    assert "interval_I" in d2 and "julia_is_circle" not in d2
    assert d2["x0"] == "inf"
    rep3 = dichotomy_verdict(parse_map("z^2+1"), n_max=1)
    d3 = rep3.to_json_dict()
    assert "circle" not in d3 and "interval_I" not in d3

def test_circle_case_classify_direct_surface():
    # the case analysis can be driven with an explicitly supplied circle
    f = parse_map("z^2-2")
    rep = circle_case_classify(f, REAL_LINE)
    assert rep.verdict == "CIRCLE_CASE_II"
    a, b = rep.interval_I
    assert a == pytest.approx(-2.0, abs=1e-8)
    assert b == pytest.approx(2.0, abs=1e-8)


def test_critical_escape_times_with_custom_cap():
    f = parse_map("(z^2-4)/(1+0.25*z)")
    rep = dichotomy_verdict(f, n_max=2)
    times = critical_escape_times(f, rep, cap=50)
    assert all(v["N"] == 1 for v in times.values())


def test_even_part_lift_lands_in_case_ii():
    # odd circle-preserving map whose square lifts to a map with Julia set
    # [0, inf]; the distinguished fixed point is finite and superattracting,
    # so this drives the relocate-x0-to-infinity path
    from circledyn import even_part_lift

    b = parse_map("(z^3-3*z)/(3*z^2-1)")
    f = even_part_lift(b)
    rep = dichotomy_verdict(f, n_max=3)
    assert rep.verdict == "CIRCLE_CASE_II"
    assert not rep.x0.infinite
    assert rep.x0.re == pytest.approx(-1.0, abs=1e-9)
    assert rep.lambda_x0 == pytest.approx(0.0, abs=1e-9)
    a, b_ = rep.interval_I
    assert a == pytest.approx(-1.0, abs=1e-9)
    assert b_ == pytest.approx(0.0, abs=1e-9)
    # the invariant-interval case forces first-step escape for Julia critical
    # points
    assert all(v["N"] == 1 for v in rep.escape_times.values())


def test_case_iii_verdict_stable_under_conjugation():
    f = parse_map("(z^2-4)/(1+0.25*z)")
    rng = np.random.default_rng(12)
    done = 0
    while done < 3:
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        try:
            m = Moebius(a, b, c, d)
        except ValueError:
            continue
        rep = dichotomy_verdict(conjugate(f, m), n_max=2)
        assert rep.verdict == "CIRCLE_CASE_III"
        done += 1


def test_detect_exceptional_rejects_basilica_and_accepts_inverse_power():
    # the superattracting-two-cycle quadratic is not exceptional even though
    # a totally ramified fixed point plus an invariant pair exist
    assert detect_exceptional(parse_map("z^2-1")) == "NONE"
    assert detect_exceptional(parse_map("1/(z^2)")) == "POWER"


def test_inconclusive_is_first_class():
    # low-period multipliers of the superattracting-two-cycle quadratic are
    # real, the Julia set is genuinely two-dimensional, and the map is not
    # exceptional: with n_max = 2 the evidence is insufficient
    rep = dichotomy_verdict(parse_map("z^2-1"), n_max=2)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.exit_code == 3
    assert rep.circle_residual > 1e-4
    assert rep.inconclusive_reason
    # one more period resolves it: complex multipliers appear
    rep3 = dichotomy_verdict(parse_map("z^2-1"), n_max=3)
    assert rep3.verdict == "NO_REAL_STRUCTURE"


def test_case_i_verdict_survives_conjugation():
    f = parse_map("z^2")
    rng = np.random.default_rng(21)
    done = 0
    while done < 3:
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        try:
            m = Moebius(a, b, c, d)
        except ValueError:
            continue
        rep = dichotomy_verdict(conjugate(f, m), n_max=2)
        assert rep.verdict == "CIRCLE_CASE_I"
        assert rep.julia_is_circle is True
        done += 1


# ---------------------------------------------------------------------------
# exact real-line decisions: signed degree, swap sign, Moebius conjugation

EX1_QUARTER = "(z^2-4)/(1+0.25*z)"
EX1_BLASCHKE = "(z^2-4)/(1+0.6*z)"
SWEEP_MAPS = ("z^2", "z^2-2", EX1_QUARTER, EX1_BLASCHKE)


def _seeded_conjugators(count):
    """Draws of numpy.random.default_rng(1): complex-normal (a, b, c, d)."""
    rng = np.random.default_rng(1)
    return [
        Moebius(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        for _ in range(count)
    ]


def test_real_line_degree_ex1_flips_at_one_half():
    cs = (0.25, 0.499, 0.5016, 0.6)
    degrees = [real_line_degree(parse_map(f"(z^2-4)/(1+{c}*z)")) for c in cs]
    assert degrees == [0, 0, 2, 2]
    assert real_line_degree(parse_map("(z^2-4)/(1-0.6*z)")) == -2


def test_ex1_quarter_conjugate_is_case_iii():
    m = Moebius(
        0.110464 + 1.358823j, 0.063782 - 1.547145j, -1.225056 + 0.859383j, 0.07614 + 0.119354j
    )
    rep = dichotomy_verdict(conjugate(parse_map(EX1_QUARTER), m), n_max=4)
    assert rep.verdict == "CIRCLE_CASE_III"


def test_verdicts_survive_seeded_conjugation():
    conjugators = _seeded_conjugators(16)
    for text in SWEEP_MAPS:
        f = parse_map(text)
        want = dichotomy_verdict(f, n_max=4).verdict
        for k, m in enumerate(conjugators):
            rep = dichotomy_verdict(conjugate(f, m), n_max=4)
            assert rep.verdict == want, (text, k, rep.inconclusive_reason)


@pytest.mark.parametrize("draw", [2, 29, 32])
def test_squaring_conjugate_at_default_nmax(draw):
    m = _seeded_conjugators(draw + 1)[draw]
    rep = dichotomy_verdict(conjugate(parse_map("z^2"), m))
    assert rep.verdict == "CIRCLE_CASE_I", rep.inconclusive_reason


def test_swap_components_is_the_sign_of_the_degree():
    f = parse_map("(4-z^2)/(1+0.6*z)")
    rep = dichotomy_verdict(f, n_max=3)
    assert rep.verdict == "CIRCLE_CASE_I"
    assert rep.swap_components is True
    rep = dichotomy_verdict(conjugate(f, _seeded_conjugators(2)[1]), n_max=3)
    assert rep.verdict == "CIRCLE_CASE_I"
    assert rep.swap_components is True
    assert dichotomy_verdict(parse_map(EX1_BLASCHKE), n_max=3).swap_components is False


def test_circle_case_failure_is_inconclusive(monkeypatch):
    def broken(circle):
        raise DegeneratePoints("could not pick three separated circle points")

    monkeypatch.setattr(classifier, "normalize_to_real_line", broken)
    rep = dichotomy_verdict(parse_map("z^2-2"), n_max=2)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.exit_code == 3
    assert rep.inconclusive_reason == "circle case: could not pick three separated circle points"
    assert rep.real_multiplier["passed"]
    assert rep.real_multiplier["table"]


def test_period_degree_cap_ends_inconclusive(monkeypatch):
    # period 4 of a quadratic needs degree 2^4 + 1 = 17
    monkeypatch.setattr(dynamics, "PERIOD_DEGREE_CAP", 9)
    rep = dichotomy_verdict(parse_map("z^2-2"), n_max=4)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.exit_code == 3
    assert rep.inconclusive_reason == "real-multiplier test: period 4 needs degree 17 > cap 9"


def test_degree_cap_in_circle_case_is_not_inconclusive(monkeypatch):
    def capped(circle):
        raise DegreeCapExceeded("composition degree exceeds cap")

    monkeypatch.setattr(classifier, "normalize_to_real_line", capped)
    with pytest.raises(DegreeCapExceeded):
        dichotomy_verdict(parse_map("z^2-2"), n_max=2)
