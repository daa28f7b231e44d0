"""Command-line front end: classify maps, dump Julia clouds, linearizer
series, constructed polynomials and example verifications.

Machine-readable JSON goes to stdout (or --out); human notes go to stderr.
Exit codes: 0 classified/ok, 2 usage or guard violations, 3 inconclusive,
4 no real structure, 5 I/O failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .algebra import INF, RationalMap, SpherePoint
from .classifier import dichotomy_verdict
from .dynamics import cloud_array, julia_cloud
from .errors import CircledynError
from .linearizer import (
    functional_equation_residual,
    poincare_coeffs,
    valiron_order,
)
from .parser import map_from_coeff_json, parse_map
from .realjulia import (
    CriticalValueSpec,
    build_example,
    construct_polynomial,
    verify_example_claims,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_NO_REAL_STRUCTURE = 4
EXIT_IO = 5


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def emit(payload, out_path):
    text = json.dumps(_jsonable(payload), indent=2)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"cannot write {out_path}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        print(text)
    return EXIT_OK


def _load_map(args) -> RationalMap:
    sources = [s for s in (args.map, args.coeffs, args.example) if s]
    if len(sources) != 1:
        raise CircledynError("give exactly one of --map, --coeffs, --example")
    if args.map:
        return parse_map(args.map)
    if args.coeffs:
        with open(args.coeffs) as fh:
            return map_from_coeff_json(fh.read())
    params = {}
    for key in ("c", "p", "a", "eps"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return build_example(args.example, **params).map


def _add_map_args(sub):
    sub.add_argument("--map", help="map expression in z")
    sub.add_argument("--coeffs", help="JSON coefficient file")
    sub.add_argument("--example", help="example family id (EX1|EX2|EX3)")
    sub.add_argument("--c", type=float, help="parameter c for EX1/EX2")
    sub.add_argument("--p", type=float, help="parameter p for EX3")
    sub.add_argument("--a", type=float, help="parameter a for EX3")
    sub.add_argument("--eps", type=float, help="parameter eps for EX3")


def cmd_classify(args) -> int:
    f = _load_map(args)
    report = dichotomy_verdict(
        f, n_max=args.nmax, seed=args.seed, cloud_size=args.cloud, tol=args.tol
    )
    payload = report.to_json_dict()
    rc = emit(payload, args.out)
    if rc:
        return rc
    if args.multipliers:
        table = (report.real_multiplier or {}).get("table", [])
        rc = emit(table, args.multipliers)
        if rc:
            return rc
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return report.exit_code


def _parse_window(text):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise CircledynError("--window needs x0,y0,x1,y1")
    return parts


def _parse_res(text):
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 2 or parts[0] < 1 or parts[1] < 1:
        raise CircledynError("--res needs W,H")
    if parts[0] * parts[1] > 4096 * 4096:
        raise CircledynError("resolution above 4096x4096")
    return parts


def render_pgm(path, cloud, window, res):
    x0, y0, x1, y1 = window
    w, h = res
    img = np.zeros((h, w), dtype=np.uint8)
    finite, _ = cloud_array(cloud)
    for z in finite:
        if x0 <= z.real <= x1 and y0 <= z.imag <= y1:
            col = int((z.real - x0) / (x1 - x0) * (w - 1))
            row = int((z.imag - y0) / (y1 - y0) * (h - 1))
            img[h - 1 - row, col] = 255
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(img.tobytes())


def cmd_julia(args) -> int:
    f = _load_map(args)
    cloud = julia_cloud(f, args.size, args.seed)
    lines = []
    for p in cloud:
        if p.infinite:
            lines.append("inf,0.0")
        else:
            lines.append(f"{p.re!r},{p.im!r}")
    text = "\n".join(lines) + "\n"
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if args.pgm:
            window = _parse_window(args.window)
            res = _parse_res(args.res)
            render_pgm(args.pgm, cloud, window, res)
    except OSError as exc:
        print(f"output failed: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"cloud points: {len(cloud)}", file=sys.stderr)
    return EXIT_OK


def _parse_point(text) -> SpherePoint:
    if text.strip().lower() in ("inf", "infinity"):
        return INF
    parts = [float(v) for v in text.split(",")]
    if len(parts) == 1:
        return SpherePoint.of(parts[0])
    if len(parts) == 2:
        return SpherePoint.of(complex(parts[0], parts[1]))
    raise CircledynError("--at needs re[,im] or inf")


def cmd_poincare(args) -> int:
    f = _load_map(args)
    p = _parse_point(args.at)
    series = poincare_coeffs(f, p, args.order)
    rho_formula, rho_measured = valiron_order(series, f)
    payload = {
        "p": "inf" if series.base_point.infinite else [series.base_point.re, series.base_point.im],
        "lambda": [series.multiplier.real, series.multiplier.imag],
        "coeffs": [[c.real, c.imag] for c in series.coeffs],
        "conv_radius_estimate": series.conv_radius_estimate,
        "functional_equation_residual": functional_equation_residual(series, f),
        "rho_formula": rho_formula,
        "rho_measured": rho_measured,
    }
    rc = emit(payload, args.out)
    return rc or EXIT_OK


def cmd_construct(args) -> int:
    if bool(args.values) == bool(args.spec_file):
        raise CircledynError("give exactly one of --values, --spec-file")
    if args.spec_file:
        with open(args.spec_file) as fh:
            values = tuple(float(v) for v in json.load(fh)["critical_values"])
    else:
        values = tuple(float(v) for v in args.values.split(","))
    spec = CriticalValueSpec(values)
    result = construct_polynomial(spec)
    payload = {
        "degree": spec.degree,
        "coeffs": [float(c.real) for c in result.poly.coeffs],
        "critical_points": [float(x) for x in result.critical_points],
        "achieved_values": [float(v) for v in result.achieved_values],
        "hull": [result.hull[0], result.hull[1]],
        "family": result.family,
        "increasing_at_right_endpoint": result.increasing_at_right_endpoint,
        "residual": result.residual,
    }
    return emit(payload, args.out)


def cmd_examples(args) -> int:
    if bool(args.family) == bool(args.file):
        raise CircledynError("give exactly one of --family, --file")
    if args.file:
        with open(args.file) as fh:
            data = json.load(fh)
        family = data.pop("family")
        params = {k: float(v) for k, v in data.items()}
    else:
        family = args.family
        params = {}
        for key in ("c", "p", "a", "eps"):
            val = getattr(args, key, None)
            if val is not None:
                params[key] = val
    inst = build_example(family, **params)
    claims = verify_example_claims(inst)
    payload = {
        "family": inst.family,
        "params": inst.params,
        "claims": claims,
        "all_passed": all(v.get("passed", False) for v in claims.values()),
    }
    return emit(payload, args.out)


def build_parser():
    ap = argparse.ArgumentParser(prog="circledyn")
    sub = ap.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="run the full dichotomy classifier")
    _add_map_args(p_cls)
    p_cls.add_argument("--nmax", type=int, default=6)
    p_cls.add_argument("--tol", type=float, default=1e-8)
    p_cls.add_argument("--seed", type=int, default=2024)
    p_cls.add_argument("--cloud", type=int, default=3000)
    p_cls.add_argument("--out")
    p_cls.add_argument("--multipliers", help="write the multiplier table JSON here")
    p_cls.set_defaults(func=cmd_classify)

    p_jul = sub.add_parser("julia", help="backward-iteration Julia cloud")
    _add_map_args(p_jul)
    p_jul.add_argument("--size", type=int, default=1000)
    p_jul.add_argument("--seed", type=int, default=2024)
    p_jul.add_argument("--out", help="CSV path (stdout when omitted)")
    p_jul.add_argument("--pgm", help="optional PGM render path")
    p_jul.add_argument("--window", default="-2,-2,2,2")
    p_jul.add_argument("--res", default="512,512")
    p_jul.set_defaults(func=cmd_julia)

    p_poi = sub.add_parser("poincare", help="linearizer series and growth order")
    _add_map_args(p_poi)
    p_poi.add_argument("--at", required=True, help="fixed point: re[,im] or inf")
    p_poi.add_argument("--order", type=int, default=64)
    p_poi.add_argument("--out")
    p_poi.set_defaults(func=cmd_poincare)

    p_con = sub.add_parser("construct", help="polynomial from critical values")
    p_con.add_argument("--values", help="comma-separated critical values")
    p_con.add_argument("--spec-file", help='JSON file {"critical_values": [...]}')
    p_con.add_argument("--out")
    p_con.set_defaults(func=cmd_construct)

    p_ex = sub.add_parser("examples", help="build and verify an example family")
    p_ex.add_argument("--family")
    p_ex.add_argument("--file", help='JSON file {"family": "EX1", "c": 0.25}')
    p_ex.add_argument("--c", type=float)
    p_ex.add_argument("--p", type=float)
    p_ex.add_argument("--a", type=float)
    p_ex.add_argument("--eps", type=float)
    p_ex.add_argument("--out")
    p_ex.set_defaults(func=cmd_examples)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CircledynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
