"""The benchmark's three workloads: their operations and output checks.

Each workload is a list of operations.  An operation calls into circledyn
the way a user would (the CLI in-process, or a public function), and its
check compares the outputs with `reference`, which is computed apart from
the package.  Calls go through module attributes (``cli.main``,
``dynamics.julia_cloud``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from circledyn import Moebius, cli, dynamics, linearizer, parse_map
from circledyn.algebra import conjugate
from circledyn.classifier import lattes_doubling_map
from circledyn.realjulia import CriticalValueSpec, build_example

CLOUD_SIZE = 20000
SAMPLE_SIZE = 10000
SERIES_ORDER = 128
SHADOW_PERIOD = 4

# Constructed polynomials: one seeded spec of each degree 2-5 with no
# critical value on the boundary values 0 and 1 (CIRCLE_CASE_III), and one
# fixed all-boundary spec of each degree (CIRCLE_CASE_II).  Specs that mix
# boundary and other values are left out: today's classifier exits 2 on
# some of them (see the benchmark README), so whether a run fails would
# depend on its seed.
SPEC_DEGREES = (2, 3, 4, 5)
BOUNDARY_SPECS = ((1.0,), (0.0, 1.0), (1.0, 0.0, 1.0), (0.0, 1.0, 0.0, 1.0))
# --nmax for a constructed polynomial of degree d: the largest n <= 6 (the
# CLI default) with d^n <= 256, which keeps each period solve below a second.
SPEC_NMAX = {2: 6, 3: 5, 4: 4, 5: 3}

# Conjugating Moebius maps (a, b, c, d).  They are fixed, not seeded: drawn
# with complex normal entries, about one draw in three makes today's
# classifier change some verdict (see the benchmark README), and a failure
# that depends on the seed cannot be counted steadily.  The first map is
# one such draw, kept on purpose: under it EX1(0.25) is misclassified, on
# every run.  The other three are draws 1, 6 and 7 of
# numpy.random.default_rng(1), rounded to 6 digits; draws 0 and 2-5 changed
# some verdict.
CONJUGATORS = (
    (0.110464 + 1.358823j, 0.063782 - 1.547145j, -1.225056 + 0.859383j, 0.07614 + 0.119354j),
    (0.364572 - 0.736454j, 0.294132 - 0.16291j, 0.028422 - 0.482119j, 0.546713 + 0.598846j),
    (0.593748 + 0.731652j, 0.891167 - 0.50144j, 0.320848 + 0.879161j, -0.81823 - 1.071787j),
    (0.914467 + 0.054102j, -0.020063 + 0.272791j, -1.248749 - 0.982188j, -0.313899 - 1.107373j),
)
# (map, conjugator index) of the one operation that fails on today's code,
# the one wrong verdict it is excused for, and why.  Only that symptom
# counts as the known fault: it goes into `failed` and leaves the run
# correct.  Any other wrong output of the operation makes the run incorrect.
KNOWN_FAULT_OP = ("EX1(0.25)", 0)
KNOWN_FAULT_VERDICT = "CIRCLE_CASE_I"
KNOWN_FAULT = (
    "geometry.invariance_check samples 64 circle points and misses the arc "
    "whose preimages leave the circle, so the verdict is CIRCLE_CASE_I"
)


class CheckFailed(Exception):
    pass


class KnownFault(Exception):
    """The documented symptom of KNOWN_FAULT_OP."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    ops: list
    # one untimed call on an input that no operation uses, so that nothing
    # it leaves behind in the process makes a timed operation cheaper
    warmup: Callable[[], object]


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _write_coeffs(f, path: Path) -> Path:
    data = {
        "num": [[c.real, c.imag] for c in f.num.coeffs],
        "den": [[c.real, c.imag] for c in f.den.coeffs],
    }
    path.write_text(json.dumps(data))
    return path


def _load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


# ---------------------------------------------------------------------------
# classify-suite


def _classify_op(name, source, want, tmp: Path, extra=None, known_fault=False, table=None):
    """`table`, when given, is where --multipliers writes the multiplier table.
    With `known_fault`, the documented wrong verdict raises KnownFault."""
    out = tmp / f"{_slug(name)}.json"
    argv = ["classify", *source, "--out", str(out)]
    if table:
        argv += ["--multipliers", str(table)]

    def run():
        out.unlink(missing_ok=True)
        if table:
            table.unlink(missing_ok=True)
        return _quiet_cli(argv)

    def check(rc):
        report = _load_json(out)
        if known_fault and rc == 0 and report["verdict"] == KNOWN_FAULT_VERDICT:
            raise KnownFault(KNOWN_FAULT)
        expect(report["verdict"] == want, f"verdict {report['verdict']}, want {want}")
        expect(rc == ref.VERDICT_EXIT.get(want, 0), f"exit code {rc}")
        if extra:
            extra(report, _load_json(table) if table else None)

    return Op(name, run, check)


def _interval_is_pm2(report, _table):
    a, b = report["interval_I"]
    expect(
        abs(a + 2.0) <= 1e-8 and abs(b - 2.0) <= 1e-8, f"interval_I [{a}, {b}], want [-2, 2]"
    )


def _julia_is_circle(flag):
    def check(report, _table):
        expect(report.get("julia_is_circle") is flag, f"julia_is_circle {report.get('julia_is_circle')}")

    return check


def _sqrt3_fixed_point(_report, table):
    ims = [abs(e["multiplier_im"]) for e in table if e["period"] == 1]
    expect(
        any(abs(v - math.sqrt(3.0)) <= 1e-6 for v in ims),
        f"period-1 |Im lambda| {ims}, want sqrt(3)",
    )


def _lattes_signature(report, _table):
    expect(report.get("orbifold_signature") == [2, 2, 2, 2], f"signature {report.get('orbifold_signature')}")


def seeded_spec(rng, d) -> CriticalValueSpec:
    """An admissible spec drawn as realjulia.random_valid_spec draws one,
    except that no value is put on the boundary values 0 or 1."""
    fam = 1 if rng.random() < 0.5 else -1
    vals = []
    for j in range(1, d):
        mag = float(rng.uniform(0.05, 1.5))
        low = (fam > 0) == (j % 2 == 1)
        vals.append(-mag if low else 1.0 + mag)
    return CriticalValueSpec(tuple(vals))


def _spec_op(index, spec, tmp: Path):
    name = f"construct+classify deg{spec.degree} #{index}"
    values = ",".join(repr(v) for v in spec.values)
    nmax = SPEC_NMAX[spec.degree]
    built = tmp / f"spec{index}.json"
    coeffs = tmp / f"spec{index}.coeffs.json"
    out = tmp / f"spec{index}.report.json"
    boundary = all(v in (0.0, 1.0) for v in spec.values)
    want = "CIRCLE_CASE_II" if boundary else "CIRCLE_CASE_III"

    def run():
        for path in (built, coeffs, out):
            path.unlink(missing_ok=True)
        rc = _quiet_cli(["construct", f"--values={values}", "--out", str(built)])
        if rc:
            return rc, None
        poly = _load_json(built)["coeffs"]
        coeffs.write_text(json.dumps({"num": [[c, 0.0] for c in poly], "den": [[1.0, 0.0]]}))
        argv = ["classify", "--coeffs", str(coeffs), "--nmax", str(nmax), "--out", str(out)]
        return rc, _quiet_cli(argv)

    def check(result):
        rc_construct, rc_classify = result
        expect(rc_construct == 0, f"construct {values} exit {rc_construct}")
        got = ref.critical_values(_load_json(built)["coeffs"])
        expect(len(got) == len(spec.values), f"{len(got)} critical values for {values}")
        err = float(np.max(np.abs(got - np.array(spec.values))))
        expect(err <= 1e-8, f"critical values off by {err:.2e} for {values}")
        verdict = _load_json(out)["verdict"]
        expect(verdict == want and rc_classify == 0, f"{values}: verdict {verdict}, want {want}")

    return Op(name, run, check)


def classify_suite(seed: int, tmp: Path) -> Workload:
    ex1a = build_example("EX1", c=0.25).map
    ex1b = build_example("EX1", c=0.6).map
    lattes = _write_coeffs(lattes_doubling_map(), tmp / "lattes.coeffs.json")
    v = ref.PAPER_VERDICTS
    ops = [
        _classify_op("z^2-2", ["--map", "z^2-2"], v["z^2-2"], tmp, _interval_is_pm2),
        _classify_op("z^3-3*z", ["--map", "z^3-3*z"], v["z^3-3*z"], tmp, _interval_is_pm2),
        _classify_op("z^2", ["--map", "z^2"], v["z^2"], tmp, _julia_is_circle(True)),
        _classify_op(
            "z^2+1", ["--map", "z^2+1"], v["z^2+1"], tmp, _sqrt3_fixed_point, table=tmp / "table.json"
        ),
        _classify_op("EX1(0.25)", ["--example", "EX1", "--c", "0.25"], v["EX1(0.25)"], tmp),
        _classify_op(
            "EX1(0.6)", ["--example", "EX1", "--c", "0.6"], v["EX1(0.6)"], tmp, _julia_is_circle(False)
        ),
        _classify_op(
            "EX2(0.9)", ["--example", "EX2", "--c", "0.9", "--nmax", "4"], v["EX2(0.9)"], tmp
        ),
        _classify_op(
            "EX3(0.2,0.5,0.001)",
            ["--example", "EX3", "--p", "0.2", "--a", "0.5", "--eps", "0.001", "--nmax", "3"],
            v["EX3(0.2,0.5,0.001)"],
            tmp,
        ),
        _classify_op(
            "lattes", ["--coeffs", str(lattes), "--nmax", "4"], v["lattes"], tmp, _lattes_signature
        ),
    ]
    rng = np.random.default_rng(seed)
    specs = [seeded_spec(rng, d) for d in SPEC_DEGREES]
    specs += [CriticalValueSpec(values) for values in BOUNDARY_SPECS]
    ops += [_spec_op(index, spec, tmp) for index, spec in enumerate(specs)]
    originals = (
        ("z^2-2", parse_map("z^2-2")),
        ("z^2", parse_map("z^2")),
        ("EX1(0.25)", ex1a),
        ("EX1(0.6)", ex1b),
    )
    for k, coeffs in enumerate(CONJUGATORS):
        m = Moebius(*coeffs)
        for key, f in originals:
            name = f"{key} conjugate #{k}"
            path = _write_coeffs(conjugate(f, m), tmp / f"{_slug(name)}.coeffs.json")
            fault = (key, k) == KNOWN_FAULT_OP
            ops.append(_classify_op(name, ["--coeffs", str(path)], v[key], tmp, known_fault=fault))
    warmup = ["classify", "--map", "z^2-3", "--out", str(tmp / "warmup.json")]
    return Workload(ops, warmup=lambda: _quiet_cli(warmup))


# ---------------------------------------------------------------------------
# periodic-deep


def _deep_op(key, f, degree, n_max):
    def run():
        return dynamics.real_multiplier_test(f, n_max)

    def check(result):
        expect(result["passed"], f"{key}: a repelling multiplier is not real")
        counts = Counter(e["period"] for e in result["table"])
        for n in range(1, n_max + 1):
            want = ref.dynatomic_cycle_count(degree, n)
            expect(counts[n] == want, f"{key}: {counts[n]} period-{n} cycles, want {want}")
        if key not in ref.MULTIPLIER_MODULI:
            return
        for e in result["table"]:
            if e["stability"] != "repelling":
                continue
            mod = abs(complex(e["multiplier_re"], e["multiplier_im"]))
            expect(
                ref.modulus_allowed(key, e["period"], mod),
                f"{key}: period-{e['period']} multiplier modulus {mod}",
            )

    return Op(f"real_multiplier_test {key} nmax {n_max}", run, check)


def periodic_deep(seed: int, tmp: Path) -> Workload:
    """No random inputs: the seed is accepted and has no effect here."""
    ops = [
        _deep_op("lattes", lattes_doubling_map(), 4, 5),
        _deep_op("z^3-3*z", parse_map("z^3-3*z"), 3, 7),
        _deep_op("z^2", parse_map("z^2"), 2, 9),
        _deep_op("EX1(0.25)", build_example("EX1", c=0.25).map, 2, 9),
    ]
    z2m2 = parse_map("z^2-2")
    return Workload(ops, warmup=lambda: dynamics.real_multiplier_test(z2m2, 6))


# ---------------------------------------------------------------------------
# sampling-linearizer


def _points(cloud):
    return np.array(
        [complex(math.inf, 0.0) if p.infinite else p.value for p in cloud], dtype=complex
    )


def _cloud_op(key, f, seed, residual, fills):
    def run():
        return dynamics.julia_cloud(f, CLOUD_SIZE, seed)

    def check(cloud):
        pts = _points(cloud)
        if fills:
            expect(len(pts) == CLOUD_SIZE, f"{key}: {len(pts)} cloud points, want {CLOUD_SIZE}")
        else:
            # a Cantor Julia set saturates the 1e-4 deduplication grid
            expect(0 < len(pts) < CLOUD_SIZE, f"{key}: {len(pts)} cloud points")
        if residual:
            err = residual(pts)
            expect(err <= 1e-6, f"{key}: cloud off its circle by {err:.2e}")

    return Op(f"julia_cloud {key}", run, check)


def _cli_cloud_op(expr, seed, tmp: Path):
    out = tmp / "cloud.csv"
    argv = ["julia", "--map", expr, "--size", str(CLOUD_SIZE), "--seed", str(seed), "--out", str(out)]

    def run():
        out.unlink(missing_ok=True)
        return _quiet_cli(argv)

    def check(rc):
        expect(rc == 0, f"julia exit {rc}")
        pts = []
        with open(out) as fh:
            for line in fh:
                re_part, im_part = line.split(",")
                pts.append(complex(float(re_part), float(im_part)))
        expect(len(pts) == CLOUD_SIZE, f"{expr}: {len(pts)} cloud points")
        err = ref.real_line_residual(pts)
        expect(err <= 1e-6, f"{expr}: cloud off the real line by {err:.2e}")

    return Op(f"cli julia {expr}", run, check)


def _lyapunov_op(key, f, degree, seed):
    def run():
        sample = dynamics.backward_sample(f, SAMPLE_SIZE, seed)
        return sample, dynamics.lyapunov_exponent(f, sample)

    def check(result):
        sample, est = result
        expect(len(sample.points) == SAMPLE_SIZE, f"{key}: {len(sample.points)} samples")
        want = ref.lyapunov_reference(key, degree)
        # 1e-12 absorbs rounding where every sample gives the same value
        # (z^2 on the unit circle), so that the standard error is 0
        tol = 3.0 * est.chi_stderr + 1e-12
        expect(abs(est.chi - want) <= tol, f"{key}: chi {est.chi}, want {want} +- {tol:.2e}")

    return Op(f"backward_sample+lyapunov {key}", run, check)


def _linearize(f, at):
    s = linearizer.poincare_coeffs(f, at, SERIES_ORDER)
    orders = linearizer.valiron_order(s, f)
    residual = linearizer.functional_equation_residual(s, f)
    witness = linearizer.nonvanishing_witness(s, f)
    shadow = linearizer.periodic_shadow_witness(s, f, SHADOW_PERIOD)
    return s, orders, residual, witness, shadow


def _linearizer_op(key, at):
    f = parse_map(key)
    phi, dphi = ref.LINEARIZERS[key]

    def run():
        return _linearize(f, at)

    def check(result):
        s, (rho_formula, rho_measured), residual, witness, shadow = result
        coeffs = np.asarray(s.coeffs)
        err = float(np.max(np.abs(coeffs - ref.linearizer_coeffs(key, len(coeffs)))))
        expect(len(coeffs) == SERIES_ORDER and err <= 1e-10, f"{key}: coefficients off by {err:.2e}")
        expect(abs(rho_formula - rho_measured) <= 0.1, f"{key}: orders {rho_formula}, {rho_measured}")
        expect(residual < 1e-8, f"{key}: functional-equation residual {residual:.2e}")
        expect(witness["solutions"], f"{key}: no nonvanishing witness")
        for (x, y), dpsi in zip(witness["solutions"], witness["derivatives"]):
            z = complex(x, y)
            expect(abs(phi(z) - at) <= 1e-8 * (1.0 + abs(z)), f"{key}: phi({z}) != {at}")
            want = abs(dphi(z))
            expect(abs(dpsi - want) <= 1e-6 * want, f"{key}: |phi'({z})| {dpsi}, want {want}")
        expect(shadow["found"], f"{key}: no period-{SHADOW_PERIOD} shadow")
        q = complex(*shadow["point"])
        expect(ref.exact_period(key, q, SHADOW_PERIOD), f"{key}: {q} is not of period {SHADOW_PERIOD}")
        expect(abs(ref.cycle_multiplier(key, q, SHADOW_PERIOD)) > 1.0, f"{key}: shadow not repelling")

    return Op(f"linearizer {key} at {at}", run, check)


def sampling_linearizer(seed: int, tmp: Path) -> Workload:
    line, circle = ref.real_line_residual, ref.unit_circle_residual
    maps = {
        "z^3-3*z": parse_map("z^3-3*z"),
        "z^2": parse_map("z^2"),
        "z^2-2": parse_map("z^2-2"),
        "lattes": lattes_doubling_map(),
        "EX2(0.9)": build_example("EX2", c=0.9).map,
        "EX3(0.2,0.5,0.001)": build_example("EX3", p=0.2, a=0.5, eps=1e-3).map,
        "EX1(0.6)": build_example("EX1", c=0.6).map,
    }
    ops = [
        _cloud_op("z^3-3*z", maps["z^3-3*z"], seed, line, True),
        _cloud_op("z^2", maps["z^2"], seed + 1, circle, True),
        _cloud_op("lattes", maps["lattes"], seed + 2, None, True),
        _cloud_op("EX2(0.9)", maps["EX2(0.9)"], seed + 3, line, False),
        _cloud_op("EX3(0.2,0.5,0.001)", maps["EX3(0.2,0.5,0.001)"], seed + 4, line, False),
        _cloud_op("EX1(0.6)", maps["EX1(0.6)"], seed + 5, line, False),
        _cli_cloud_op("z^2-2", seed + 6, tmp),
    ]
    for key, degree in (("z^2", 2), ("z^2-2", 2), ("z^3-3*z", 3), ("lattes", 4)):
        ops.append(_lyapunov_op(key, maps[key], degree, seed + 7))
    ops += [_linearizer_op("z^2", 1.0), _linearizer_op("z^2-2", -1.0), _linearizer_op("z^3-3*z", 0.0)]
    # z^2-1 at its repelling fixed point, the golden ratio
    z2m1 = parse_map("z^2-1")
    return Workload(ops, warmup=lambda: _linearize(z2m1, (1.0 + math.sqrt(5.0)) / 2.0))


WORKLOADS = {
    "classify-suite": classify_suite,
    "periodic-deep": periodic_deep,
    "sampling-linearizer": sampling_linearizer,
}
