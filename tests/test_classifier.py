import math

import numpy as np
import pytest

from circledyn import INF, Moebius, RationalMap, classifier, conjugate, dynamics, parse_map
from circledyn.classifier import (
    circle_case_classify,
    critical_escape_times,
    detect_exceptional,
    lattes_doubling_map,
    postcritical_analysis,
    dichotomy_verdict,
)
from circledyn.dynamics import julia_cloud, julia_points, preimage_points
from circledyn.errors import DegeneratePoints, DegreeCapExceeded, PreimageSolveFailed, RootFindingFailed
from circledyn.geometry import (
    REAL_LINE,
    UNIT_CIRCLE,
    best_circle,
    containment_residual,
    real_line_degree,
)
from circledyn.realjulia import build_example, construct_polynomial, random_valid_spec


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
    # the orbit of 0 blows up toward the superattracting fixed point
    # infinity (z^2 + 0.3) or creeps up on an attracting 2-cycle (z^2 - 1.1):
    # it comes within CYCLE_MATCH_TOL of its cycle without ever landing
    for text in ("z^2+0.3", "z^2-1.1"):
        an = postcritical_analysis(parse_map(text))
        assert an.finite is False, text


def test_detect_power():
    for text in ("z^3", "z^2"):
        f = parse_map(text)
        an = postcritical_analysis(f)
        assert (detect_exceptional(f, an), an.orbifold_signature) == ("POWER", (math.inf, math.inf))


def test_detect_chebyshev():
    for text in ("2*z^2-1", "z^2-2"):
        f = parse_map(text)
        an = postcritical_analysis(f)
        assert (detect_exceptional(f, an), an.orbifold_signature) == ("CHEBYSHEV", (2, 2, math.inf))


def test_detect_lattes_signature():
    lat = lattes_doubling_map()
    # duplication on y^2 = 4x^3 - 4x gives (z^2+1)^2 / (4z(z^2-1))
    want_num = np.array([0.25, 0.0, 0.5, 0.0, 0.25])
    np.testing.assert_allclose(lat.num.coeffs.real, want_num, atol=1e-12)
    an = postcritical_analysis(lat)
    assert an.finite
    # the critical values -1, 0 and 1 are poles: their images snap to
    # infinity exactly instead of growing to about 1e15
    assert [p.infinite for p in an.postcritical_set] == [False, False, False, True]
    finite_pts = [p.value for p in an.postcritical_set[:3]]
    np.testing.assert_allclose(finite_pts, [-1.0, 0.0, 1.0], atol=1e-12)
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
            assert containment_residual(circ, [q]) < 1e-6


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
    f = parse_map("z^2-2")
    cloud = julia_points(f, 60000, seed=5)
    xs = np.sort(cloud.real)
    assert xs[0] == pytest.approx(-2.0, abs=1e-3)
    assert xs[-1] == pytest.approx(2.0, abs=1e-3)
    max_gap = float(np.max(np.diff(xs)))
    assert max_gap <= 1e-3 * 4.0
    rep = dichotomy_verdict(f, n_max=2)
    assert containment_residual(rep.circle, cloud) <= 1e-6


EDGE_CONJUGATOR = Moebius(0.364572 - 0.736454j, 0.294132 - 0.16291j, 0.028422 - 0.482119j, 0.546713 + 0.598846j)
EDGE_MAPS = {
    "z^2-2": parse_map("z^2-2"),
    "z^2": parse_map("z^2"),
    "EX1(0.25)": build_example("EX1", c=0.25).map,
    "z^2-2 conjugate": conjugate(parse_map("z^2-2"), EDGE_CONJUGATOR),
}


@pytest.mark.parametrize("key", list(EDGE_MAPS))
def test_cloud_as_spherepoints_and_as_array_gives_the_same_results(key):
    # julia_cloud is julia_points at the API edge, and the circle stage
    # reads either form of the cloud to the same bits
    f = EDGE_MAPS[key]
    arr = julia_points(f, 3000, seed=2024)
    pts = julia_cloud(f, 3000, seed=2024)
    finite = np.isfinite(arr)
    assert [p == INF for p in pts] == (~finite).tolist()
    got = np.array([complex(p.re, p.im) for p in pts if not p.infinite], dtype=complex)
    assert got.tobytes() == arr[finite].tobytes()

    anchors = classifier._repelling_anchor_points(f)
    fit = best_circle(arr, anchors=anchors)
    assert best_circle(pts, anchors=anchors) == fit
    circle = fit[0]
    assert containment_residual(circle, pts) == containment_residual(circle, arr)
    from_points = circle_case_classify(f, circle, cloud=pts).to_json_dict()
    from_array = circle_case_classify(f, circle, cloud=arr).to_json_dict()
    assert repr(from_points) == repr(from_array)


def test_report_json_fields_present_exactly_when_applicable(monkeypatch):
    head = ["verdict", "degree", "real_multiplier"]
    d = dichotomy_verdict(parse_map("z^2"), n_max=3).to_json_dict()
    assert list(d) == head + [
        "circle", "circle_residual", "normalizer", "swap_components", "julia_is_circle", "residuals",
    ]
    d = dichotomy_verdict(parse_map("z^2-2"), n_max=3).to_json_dict()
    assert list(d) == head + [
        "circle", "circle_residual", "normalizer", "interval_I", "x0", "lambda_x0", "escape_times", "residuals",
    ]
    assert d["x0"] == "inf"
    assert list(dichotomy_verdict(parse_map("z^2+1"), n_max=3).to_json_dict()) == head
    d = dichotomy_verdict(lattes_doubling_map(), n_max=3).to_json_dict()
    assert list(d) == head + ["circle_residual", "exceptional", "orbifold_signature"]
    assert d["exceptional"] == "LATTES" and d["orbifold_signature"] == [2, 2, 2, 2]
    monkeypatch.setattr(dynamics, "PERIOD_DEGREE_CAP", 9)
    d = dichotomy_verdict(parse_map("z^2-2"), n_max=4).to_json_dict()
    assert list(d) == head + ["inconclusive_reason"]
    assert list(d["real_multiplier"]) == ["passed", "n_max", "tol", "worst", "n_solved"]
    assert (d["real_multiplier"]["n_max"], d["real_multiplier"]["n_solved"]) == (4, 3)


def test_circle_case_classify_direct_surface():
    # the case analysis can be driven with an explicitly supplied circle
    f = parse_map("z^2-2")
    rep = circle_case_classify(f, REAL_LINE, julia_points(f, 3000, 2024))
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
    for f, label, signature in (
        (parse_map("z^2-1"), "NONE", (math.inf, math.inf, math.inf)),
        (RationalMap([1j, 0, 1], [1]), "NONE", (2, 2, 2, math.inf)),  # z^2 + i
        (parse_map("1/(z^2)"), "POWER", (math.inf, math.inf)),
    ):
        an = postcritical_analysis(f)
        assert (detect_exceptional(f, an), an.orbifold_signature) == (label, signature)


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


@pytest.mark.parametrize("text", ["z^2-2", "z^3-3*z"])
def test_conjugates_keep_their_degree(text):
    # conjugate does not deflate common roots; a coprimality solve of each
    # conjugate finds none either
    f = parse_map(text)
    for m in _seeded_conjugators(16):
        g = conjugate(f, m)
        assert g.degree == f.degree
        assert RationalMap(g.num.coeffs, g.den.coeffs).degree == f.degree


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


@pytest.mark.parametrize("draw", range(10))
@pytest.mark.parametrize(
    "name, label, signature",
    [
        ("z^3", "POWER", (math.inf, math.inf)),
        ("4*z^3-3*z", "CHEBYSHEV", (2, 2, math.inf)),
        ("lattes", "LATTES", (2, 2, 2, 2)),
    ],
    ids=["z^3", "T3", "lattes"],
)
def test_exceptional_conjugates_keep_label_and_signature(name, label, signature, draw):
    # the local degrees come from the critical points, not from clustered
    # preimages, whose triple roots spread past any merge radius
    f = lattes_doubling_map() if name == "lattes" else parse_map(name)
    g = conjugate(f, _seeded_conjugators(10)[draw])
    an = postcritical_analysis(g)
    assert (detect_exceptional(g, an), an.orbifold_signature) == (label, signature)


@pytest.mark.parametrize("text", ["4*z^3-3*z", "2*z^2-1"])
@pytest.mark.parametrize("m", [Moebius(0, 1, 1, -1), Moebius(0, 1, 1, 1)], ids=["1/(z-1)", "1/(z+1)"])
def test_chebyshev_conjugate_with_a_postcritical_point_at_infinity(text, m):
    # the conjugate sends the postcritical point 1 or -1 to infinity
    g = conjugate(parse_map(text), m)
    an = postcritical_analysis(g)
    assert any(p.infinite for p in an.postcritical_set)
    assert (detect_exceptional(g, an), an.orbifold_signature) == ("CHEBYSHEV", (2, 2, math.inf))


@pytest.mark.parametrize("draw", [2, 29, 32])
def test_squaring_conjugate_at_default_nmax(draw):
    m = _seeded_conjugators(draw + 1)[draw]
    rep = dichotomy_verdict(conjugate(parse_map("z^2"), m))
    assert rep.verdict == "CIRCLE_CASE_I", rep.inconclusive_reason


def test_ex3_conjugate_at_default_nmax():
    # draw 2 ended INCONCLUSIVE ("not permuted") with seeds from a backward
    # walk: the period-6 Aberth iteration ran into its 400-step cap among
    # the period-6 points packed within 1e-9 of the fixed point of
    # multiplier -204
    ex3 = build_example("EX3", p=0.2, a=0.5, eps=1e-3).map
    rep = dichotomy_verdict(conjugate(ex3, _seeded_conjugators(3)[2]))
    assert rep.verdict == "CIRCLE_CASE_III", rep.inconclusive_reason


def test_ex3_conjugate_draw_10_closes_its_orbits():
    # draw 10 ended INCONCLUSIVE ("period-6 solutions are not permuted by
    # the map"): two period-6 points lie 4.2e-12 apart, and the image of a
    # third lands 4.4e-12 from one of them, so the nearest-image rule gave
    # two points one successor; successors are now assigned
    ex3 = build_example("EX3", p=0.2, a=0.5, eps=1e-3).map
    rep = dichotomy_verdict(conjugate(ex3, _seeded_conjugators(11)[10]))
    assert rep.verdict == "CIRCLE_CASE_III", rep.inconclusive_reason


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
    def broken(circle, points=None):
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


def test_a_failed_cloud_is_inconclusive_and_names_its_stage(monkeypatch):
    def failed(f, size, seed):
        raise PreimageSolveFailed("no repelling low-period point to grow the tree from")

    monkeypatch.setattr(classifier, "julia_points", failed)
    rep = dichotomy_verdict(parse_map("z^2-2"), n_max=2)
    assert (rep.verdict, rep.exit_code) == ("INCONCLUSIVE", 3)
    assert rep.inconclusive_reason == "julia cloud: no repelling low-period point to grow the tree from"
    assert rep.real_multiplier["passed"]


@pytest.mark.parametrize("stage", ["postcritical_analysis", "detect_exceptional"])
def test_a_failed_exceptional_stage_is_inconclusive_and_names_it(monkeypatch, stage):
    # the Lattes map has no containing circle, so it reaches this stage
    def failed(*args):
        raise RootFindingFailed("critical point residual too large")

    monkeypatch.setattr(classifier, stage, failed)
    rep = dichotomy_verdict(lattes_doubling_map(), n_max=3)
    assert (rep.verdict, rep.exit_code) == ("INCONCLUSIVE", 3)
    assert rep.inconclusive_reason == "exceptional: critical point residual too large"
    assert rep.circle_residual is not None


def test_degree_cap_in_circle_case_is_not_inconclusive(monkeypatch):
    def capped(circle, points=None):
        raise DegreeCapExceeded("composition degree exceeds cap")

    monkeypatch.setattr(classifier, "normalize_to_real_line", capped)
    with pytest.raises(DegreeCapExceeded):
        dichotomy_verdict(parse_map("z^2-2"), n_max=2)


# ---------------------------------------------------------------------------
# real polynomials of high degree: the normalizer and the interval endpoints
# come from solved periodic points, so the real line keeps its coordinates


def _chebyshev_map(d):
    """(1 + T_d(2x - 1)) / 2, whose Julia set is [0, 1]."""
    t = np.polynomial.Chebyshev.basis(d, domain=[0, 1])
    coeffs = t.convert(kind=np.polynomial.Polynomial).coef / 2.0
    coeffs[0] += 0.5
    return RationalMap(coeffs, [1.0], reduce=False)


def _spec_map(k, d, all_boundary=False):
    spec = random_valid_spec(np.random.default_rng(k), d, all_boundary=all_boundary)
    return construct_polynomial(spec).rational


@pytest.mark.parametrize(
    "build, want",
    [
        pytest.param(lambda d=d: _chebyshev_map(d), "CIRCLE_CASE_II", id=f"chebyshev-{d}")
        for d in range(2, 11)
    ]
    + [
        pytest.param(lambda: _spec_map(6, 6), "CIRCLE_CASE_III", id="spec-d6-k6"),
        pytest.param(lambda: _spec_map(2, 7), "CIRCLE_CASE_III", id="spec-d7-k2"),
        pytest.param(lambda: _spec_map(0, 8, True), "CIRCLE_CASE_II", id="boundary-d8-k0"),
        pytest.param(lambda: _spec_map(1, 8, True), "CIRCLE_CASE_II", id="boundary-d8-k1"),
        pytest.param(lambda: _spec_map(2, 9), "CIRCLE_CASE_III", id="spec-d9-k2"),
    ],
)
def test_real_polynomial_circle_case(build, want):
    rep = dichotomy_verdict(build(), n_max=2)
    assert rep.verdict == want, rep.inconclusive_reason
    assert rep.x0.infinite
    if want == "CIRCLE_CASE_II":
        a, b = rep.interval_I
        assert abs(a) <= 1e-10 and abs(b - 1.0) <= 1e-10
