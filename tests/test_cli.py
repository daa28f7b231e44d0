import json

import numpy as np
import pytest

from circledyn import dynamics
from circledyn.cli import main
from circledyn.realjulia import random_valid_spec


LATTES = "(z^4+2*z^2+1)/(4*z^3-4*z)"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_case_ii(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["classify", "--map", "z^2-2", "--nmax", "3", "--out", str(out)], capsys
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "CIRCLE_CASE_II"
    assert data["interval_I"][0] == pytest.approx(-2.0, abs=1e-8)
    assert data["interval_I"][1] == pytest.approx(2.0, abs=1e-8)


def test_classify_example_flag(capsys):
    code, out, _ = run_cli(
        ["classify", "--example", "EX1", "--c", "0.25", "--nmax", "2"], capsys
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "CIRCLE_CASE_III"


def test_classify_no_real_structure_exit_code(capsys):
    code, out, _ = run_cli(["classify", "--map", "z^2+1", "--nmax", "1"], capsys)
    assert code == 4
    assert json.loads(out)["verdict"] == "NO_REAL_STRUCTURE"


def test_classify_usage_errors(capsys):
    code, _, _ = run_cli(["classify"], capsys)
    assert code == 2
    code, _, _ = run_cli(["classify", "--map", "z^2", "--example", "EX1"], capsys)
    assert code == 2
    code, _, _ = run_cli(["classify", "--map", "z^2 + $"], capsys)
    assert code == 2


def test_julia_csv_on_unit_circle(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    code, _, _ = run_cli(
        ["julia", "--map", "z^2", "--size", "1000", "--seed", "7", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 1000
    for row in rows:
        re_s, im_s = row.split(",")
        assert abs(abs(complex(float(re_s), float(im_s))) - 1.0) < 1e-6


def test_julia_pgm_window_excluding_everything(tmp_path, capsys):
    csv = tmp_path / "c.csv"
    pgm = tmp_path / "c.pgm"
    code, _, _ = run_cli(
        [
            "julia", "--map", "z^2", "--size", "200", "--seed", "7",
            "--out", str(csv), "--pgm", str(pgm),
            "--window", "10,10,11,11", "--res", "32,32",
        ],
        capsys,
    )
    assert code == 0
    blob = pgm.read_bytes()
    header, pixels = blob.split(b"\n255\n", 1)
    assert header.startswith(b"P5")
    assert set(pixels) == {0}


def test_julia_pgm_lights_the_pixels_of_the_csv_points(tmp_path, capsys):
    csv = tmp_path / "c.csv"
    pgm = tmp_path / "c.pgm"
    (x0, y0, x1, y1), (w, h) = (-1.5, -1.5, 1.5, 1.5), (64, 64)
    code, _, _ = run_cli(
        [
            "julia", "--map", "z^2", "--size", "500", "--seed", "7",
            "--out", str(csv), "--pgm", str(pgm),
            "--window=-1.5,-1.5,1.5,1.5", "--res", "64,64",
        ],
        capsys,
    )
    assert code == 0
    want = set()
    for row in csv.read_text().splitlines():
        x, y = (float(v) for v in row.split(","))
        col = int((x - x0) / (x1 - x0) * (w - 1))
        want.add((h - 1 - int((y - y0) / (y1 - y0) * (h - 1)), col))
    header, pixels = pgm.read_bytes().split(b"\n255\n", 1)
    assert header == b"P5\n64 64"
    img = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)
    assert set(np.unique(img)) == {0, 255}
    assert set(zip(*np.nonzero(img))) == want


def test_julia_ex2_csv_real(tmp_path, capsys):
    out = tmp_path / "ex2.csv"
    code, _, _ = run_cli(
        ["julia", "--example", "EX2", "--c", "0.9", "--size", "400",
         "--seed", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    for row in out.read_text().strip().splitlines():
        re_s, im_s = row.split(",")
        assert abs(float(im_s)) / max(1.0, abs(float(re_s))) < 1e-6


def test_poincare_command(capsys):
    code, out, _ = run_cli(
        ["poincare", "--map", "z^2", "--at", "1", "--order", "20"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == [2.0, 0.0]
    got = [c[0] for c in data["coeffs"][:5]]
    want = [1.0, 0.5, 1 / 6, 1 / 24, 1 / 120]
    assert np.allclose(got, want, atol=1e-10)
    assert data["rho_formula"] == pytest.approx(1.0)
    assert abs(data["rho_measured"] - 1.0) <= 0.1


def test_poincare_guard_not_repelling(capsys):
    code, _, err = run_cli(["poincare", "--map", "z^2", "--at", "0"], capsys)
    assert code == 2


def test_construct_command(capsys):
    for values in ("-0.5", "0,1,0,1,0", "-2,0,0,3"):
        code, out, _ = run_cli(["construct", f"--values={values}"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["hull"][0] == pytest.approx(0.0, abs=1e-8)
        assert data["hull"][1] == pytest.approx(1.0, abs=1e-8)
        want = [float(v) for v in values.split(",")]
        np.testing.assert_allclose(data["achieved_values"], want, rtol=0, atol=1e-8)


def test_construct_rejects_bad_spec(capsys):
    code, _, _ = run_cli(["construct", "--values", "0.5"], capsys)
    assert code == 2


def test_examples_command(capsys):
    code, out, _ = run_cli(["examples", "--family", "EX1", "--c", "0.6"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"]


def test_byte_identical_reruns(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["classify", "--map", "z^2-2", "--nmax", "3", "--seed", "11"]
    assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()

    c = tmp_path / "c.csv"
    d = tmp_path / "d.csv"
    jargs = ["julia", "--map", "z^2", "--size", "300", "--seed", "5"]
    assert run_cli(jargs + ["--out", str(c)], capsys)[0] == 0
    assert run_cli(jargs + ["--out", str(d)], capsys)[0] == 0
    assert c.read_bytes() == d.read_bytes()

def test_classify_multiplier_table(tmp_path, capsys):
    rep = tmp_path / "r.json"
    table = tmp_path / "t.json"
    code, _, _ = run_cli(
        ["classify", "--map", "z^2", "--nmax", "2", "--out", str(rep),
         "--multipliers", str(table)],
        capsys,
    )
    assert code == 0
    rows = json.loads(table.read_text())
    assert rows and {"period", "points", "multiplier_re", "multiplier_im", "stability"} <= set(rows[0])


def test_construct_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"critical_values": [-0.5]}')
    code, out, _ = run_cli(["construct", "--spec-file", str(spec)], capsys)
    assert code == 0
    assert json.loads(out)["achieved_values"][0] == pytest.approx(-0.5, abs=1e-8)


def test_examples_file(tmp_path, capsys):
    cfg = tmp_path / "ex.json"
    cfg.write_text('{"family": "EX1", "c": 0.25}')
    code, out, _ = run_cli(["examples", "--file", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["params"]["c"] == 0.25


def test_maps_without_repelling_fixed_points_do_not_recurse(capsys):
    # z^2 + 1/4 (the cauliflower) has one parabolic fixed point, so period 2
    # must be solved without backward samples from a repelling fixed point
    code, out, _ = run_cli(["classify", "--map", "z^2+0.25"], capsys)
    assert code == 4
    assert json.loads(out)["verdict"] == "NO_REAL_STRUCTURE"
    code, _, _ = run_cli(["classify", "--map", "z^2+z"], capsys)
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize(
    "args, verdict, exit_code",
    [
        # parabolic fixed points: multiplier 1, and multiplier -1 (a triple
        # root of the period-2 equation)
        (["--map", "z^2+z"], "NO_REAL_STRUCTURE", 4),
        (["--map", "z^2-0.75"], "NO_REAL_STRUCTURE", 4),
        # the period-2 cycle {0, inf} passes through the pole
        (["--map", "1/z^2"], "CIRCLE_CASE_I", 0),
        # parabolic infinity, and EX3's period-5 roots 5e-10 apart
        (["--example", "EX2", "--c", "0.9"], "CIRCLE_CASE_III", 0),
        (["--example", "EX3", "--p", "0.2", "--a", "0.5", "--eps", "0.001"], "CIRCLE_CASE_III", 0),
        (["--map", "z^2-2", "--nmax", "8"], "CIRCLE_CASE_II", 0),
        # like 1/z^2: the period-2 points 0 and inf are tested in charts
        (["--map", "1/z^3"], "CIRCLE_CASE_I", 0),
    ],
)
def test_period_engine_inputs_end_in_a_verdict(args, verdict, exit_code, capsys):
    code, out, _ = run_cli(["classify", *args], capsys)
    data = json.loads(out)
    assert data["verdict"] == verdict, data.get("inconclusive_reason")
    assert code == exit_code


def test_ex3_at_nmax_7_closes_its_orbits(capsys):
    # two period-7 images lie 2.2e-15 and 4.9e-14 from one solution, and the
    # second 5.8e-14 from its own: the nearest-image rule gave both the
    # first ("not permuted"), the assignment gives each its own
    args = ["--example", "EX3", "--p", "0.2", "--a", "0.5", "--eps", "0.001", "--nmax", "7"]
    code, out, _ = run_cli(["classify", *args], capsys)
    data = json.loads(out)
    assert data["verdict"] == "CIRCLE_CASE_III", data.get("inconclusive_reason")
    assert code == 0


def test_a_failing_lower_period_is_final(tmp_path, capsys):
    # period 6 of a quintic needs degree 5^6 + 1 > PERIOD_DEGREE_CAP, but the
    # repelling 3-cycle with multiplier 865.6 + 654.1i already refutes the
    # real multipliers
    table = tmp_path / "table.json"
    code, out, _ = run_cli(["classify", "--map", "z^5-3*z", "--multipliers", str(table)], capsys)
    data = json.loads(out)
    assert (code, data["verdict"]) == (4, "NO_REAL_STRUCTURE")
    assert "inconclusive_reason" not in data
    block = data["real_multiplier"]
    assert (block["passed"], block["n_max"], block["n_solved"]) == (False, 6, 5)
    period_3 = [complex(e["multiplier_re"], e["multiplier_im"]) for e in json.loads(table.read_text()) if e["period"] == 3]
    assert any(abs(lam - (865.6 + 654.1j)) < 0.1 for lam in period_3)


def test_period_solve_shortfall_is_inconclusive(monkeypatch, capsys):
    # an Aberth iteration that never moves its start points
    monkeypatch.setattr(dynamics, "_aberth_functional", lambda f, n, z0, *known: z0)
    code, out, err = run_cli(["classify", "--map", "z^2-2"], capsys)
    assert code == 3
    data = json.loads(out)
    assert data["verdict"] == "INCONCLUSIVE"
    assert data["inconclusive_reason"].startswith(
        "real-multiplier test: period-2 solve found "
    )
    assert "verdict: INCONCLUSIVE" in err


def test_near_line_constructed_polynomial_classifies(tmp_path, capsys):
    # the fitted circle is the real line up to fit noise (A ~ 1e-12)
    spec = random_valid_spec(np.random.default_rng(3), 5)
    poly = tmp_path / "poly.json"
    values = ",".join(repr(v) for v in spec.values)
    code, _, _ = run_cli(["construct", f"--values={values}", "--out", str(poly)], capsys)
    assert code == 0
    coeffs = tmp_path / "coeffs.json"
    num = [[c, 0.0] for c in json.loads(poly.read_text())["coeffs"]]
    coeffs.write_text(json.dumps({"num": num, "den": [[1.0, 0.0]]}))
    code, out, _ = run_cli(["classify", "--coeffs", str(coeffs), "--nmax", "3"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "CIRCLE_CASE_III"


@pytest.mark.parametrize(
    "args, files",
    [
        pytest.param(["classify", "--map", "z"], {}, id="classify-degree-1"),
        pytest.param(["classify", "--map", "1e400*z^2+1"], {}, id="overflowing-literal"),
        pytest.param(["classify", "--map", "1e+"], {}, id="literal-exponent-without-digits"),
        pytest.param(["classify", "--map", "²"], {}, id="superscript-literal"),
        pytest.param(["classify", "--map", "z^²"], {}, id="superscript-exponent"),
        pytest.param(["classify", "--map", "1e5e3*z^2"], {}, id="literal-with-two-exponents"),
        pytest.param(["classify", "--map", "z^2+1e308*1e308"], {}, id="overflowing-product"),
        pytest.param(["classify", "--map", "(1e300*z)^2"], {}, id="overflowing-power"),
        pytest.param(["classify", "--map", "1e200*z^2/(1e-200)"], {}, id="overflowing-quotient"),
        pytest.param(["classify", "--map", "1^1000000"], {}, id="exponent-above-cap"),
        pytest.param(["julia", "--map", "z"], {}, id="julia-degree-1"),
        pytest.param(
            ["classify", "--coeffs", "{dir}/c.json"],
            {"c.json": '{"num": [[NaN, 0]], "den": [[1, 0]]}'},
            id="coeffs-nan",
        ),
        pytest.param(
            ["classify", "--coeffs", "{dir}/c.json"],
            {"c.json": '{"num": [[1e400, 0]], "den": [[1, 0]]}'},
            id="coeffs-overflow",
        ),
        pytest.param(
            ["classify", "--coeffs", "{dir}/c.json"], {"c.json": '{"num": [[1, 0]'}, id="coeffs-malformed"
        ),
        pytest.param(
            ["classify", "--coeffs", "{dir}/c.json"],
            {"c.json": '{"num": [[0, 0], [0, 0], [1, 0]]}'},
            id="coeffs-no-den",
        ),
        pytest.param(
            ["construct", "--spec-file", "{dir}/s.json"],
            {"s.json": '{"critical_values": [-0.5'},
            id="spec-malformed",
        ),
        pytest.param(
            ["construct", "--spec-file", "{dir}/s.json"], {"s.json": '{"values": [-0.5]}'}, id="spec-no-key"
        ),
        pytest.param(
            ["examples", "--file", "{dir}/e.json"], {"e.json": '{"family": "EX1"'}, id="example-malformed"
        ),
        pytest.param(["examples", "--file", "{dir}/e.json"], {"e.json": '{"c": 0.25}'}, id="example-no-key"),
        pytest.param(
            ["julia", "--map", "z^2-2", "--out", "{dir}/c.csv", "--pgm", "{dir}/c.pgm", "--window=-3,0,3,0"],
            {},
            id="window-flat",
        ),
        pytest.param(
            ["julia", "--map", "z^2-2", "--out", "{dir}/c.csv", "--pgm", "{dir}/c.pgm", "--window=-inf,-1,inf,1"],
            {},
            id="window-infinite",
        ),
        pytest.param(
            ["julia", "--map", "z^2-2", "--out", "{dir}/c.csv", "--pgm", "{dir}/c.pgm", "--res", "64,x"],
            {},
            id="res-not-a-number",
        ),
        pytest.param(["poincare", "--map", "z^2", "--at", "0", "--order", "0"], {}, id="order-0"),
        pytest.param(["classify", "--map", "z^2-2", "--nmax", "0"], {}, id="nmax-0"),
        pytest.param(["classify", "--map", "z^2-2", "--nmax", "-1"], {}, id="nmax-negative"),
        pytest.param(["classify", "--map", "z^2-2", "--cloud", "2"], {}, id="cloud-2"),
        pytest.param(["classify", "--map", "z^2+1", "--tol", "nan"], {}, id="tol-nan"),
        pytest.param(["classify", "--map", "z^2-2", "--tol=-1"], {}, id="tol-negative"),
        pytest.param(["classify", "--map", "z^2-2", "--seed=-1"], {}, id="classify-seed-negative"),
        pytest.param(["julia", "--map", "z^2-2", "--out", "{dir}/c.csv", "--seed=-1"], {}, id="julia-seed-negative"),
        pytest.param(["poincare", "--map", "z^2", "--at", "foo", "--out", "{dir}/p.json"], {}, id="at-not-a-number"),
        # the Lattes map linearizes at infinity, so a point read as infinity would succeed
        pytest.param(["poincare", "--map", LATTES, "--at", "nan", "--out", "{dir}/p.json"], {}, id="at-nan"),
        pytest.param(["poincare", "--map", LATTES, "--at", "1,inf", "--out", "{dir}/p.json"], {}, id="at-infinite-part"),
        pytest.param(["construct", "--values", "a,b", "--out", "{dir}/c.json"], {}, id="values-not-numbers"),
        pytest.param(
            ["construct", "--spec-file", "{dir}/s.json", "--out", "{dir}/c.json"],
            {"s.json": '{"critical_values": ["a"]}'},
            id="spec-value-not-a-number",
        ),
        pytest.param(
            ["construct", "--spec-file", "{dir}/s.json", "--out", "{dir}/c.json"],
            {"s.json": '{"critical_values": 5}'},
            id="spec-values-not-a-list",
        ),
        pytest.param(
            ["examples", "--file", "{dir}/e.json", "--out", "{dir}/x.json"],
            {"e.json": '{"family": "EX1", "c": "x"}'},
            id="example-param-not-a-number",
        ),
        pytest.param(
            ["examples", "--file", "{dir}/e.json", "--out", "{dir}/x.json"],
            {"e.json": '{"family": 3}'},
            id="example-family-not-a-string",
        ),
        pytest.param(["julia", "--map", "z^2-2", "--out", "{dir}/c.csv", "--size", "0"], {}, id="julia-size-0"),
        pytest.param(["examples", "--family", "EX1", "--out", "{dir}/x.json"], {}, id="example-family-no-param"),
        pytest.param(["classify", "--example", "EX1", "--out", "{dir}/r.json"], {}, id="classify-example-no-param"),
        pytest.param(
            ["classify", "--example", "EX3", "--p", "0.2", "--a", "0.5", "--out", "{dir}/r.json"],
            {},
            id="classify-example-missing-param",
        ),
        pytest.param(
            ["examples", "--file", "{dir}/e.json", "--out", "{dir}/x.json"],
            {"e.json": '{"family": "EX1", "c": 0.25, "q": 1}'},
            id="example-unknown-param",
        ),
    ],
)
def test_bad_outside_input_is_a_usage_error(args, files, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, _, err = run_cli([a.format(dir=tmp_path) for a in args], capsys)
    assert code == 2
    assert err.startswith("error: ")
    # and nothing was written
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_degree_one_map_still_linearizes(capsys):
    code, out, _ = run_cli(["poincare", "--map", "2*z", "--at", "0"], capsys)
    assert code == 0
    assert json.loads(out)["lambda"] == [2.0, 0.0]


def test_parser_is_built_once_per_process(capsys):
    # parsing leaves the one parser as it was: a usage error in between
    # changes neither the exit code nor the bytes of a later run
    from circledyn.cli import build_parser

    assert build_parser() is build_parser()
    args = ["classify", "--map", "z^2-2", "--nmax", "2"]
    first = run_cli(args, capsys)
    assert run_cli(["classify", "--map", "z^2-2", "--nmax"], capsys)[0] == 2
    assert run_cli(["classify", "--map", "z^2-2", "--bogus"], capsys)[0] == 2
    assert run_cli(args, capsys) == first
    assert first[0] == 0
