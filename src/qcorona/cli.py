"""Command-line front end.

Reports go to stdout as canonical JSON with every number rendered as an
exact rational string, so output is deterministic byte-for-byte and
re-verification never passes through floating point.  Exit codes: 0 on
success, 1 on obstruction or failed verification, 2 only on a usage error
or a malformed or missing input file.  solve and diagnose always decide:
the right Euclidean algorithm either proves a solution exists, which solve
then constructs, or names the common zeros.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .corona import (
    CommonZeroObstruction,
    CoronaInstance,
    DiagnosisReport,
    decide,
    diagnose_common_zero,
    solve_corona,
    verify_identity,
)
from .cpoly import CPoly
from .formats import (
    InstanceFormatError,
    certificate_combination_holds,
    parse_instance,
    parse_quat_brackets,
    parse_solution,
    serialize_solution,
)
from .generate import sample_slice_points
from .hpoly import HPoly, classify_zeros
from .polymatrix import rank_at
from .scalars import GaussRat, Quat
from .syzygy import build_koszul, check_three_term, kernel_dimension_at, natural_syzygy


def quat_json(q: Quat) -> list[str]:
    return [str(c) for c in q.components()]


def hpoly_json(f: HPoly) -> list[list[str]]:
    coeffs = f.coeffs if f.coeffs else (Quat(),)
    return [quat_json(c) for c in coeffs]


def cpoly_json(p: CPoly) -> list[list[str]]:
    coeffs = p.coeffs if p.coeffs else (GaussRat(0),)
    return [[str(c.re), str(c.im)] for c in coeffs]


def sphere_json(sphere) -> dict:
    return {"x": str(sphere.x), "y_squared": str(sphere.y_squared)}


def emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _load_instance(path: str) -> CoronaInstance:
    return parse_instance(path)


def _pick(inst: CoronaInstance, name: str) -> HPoly:
    for n, f in zip(inst.names, inst.fs):
        if n == name:
            return f
    raise InstanceFormatError(f"no polynomial named {name!r} in instance")


def cmd_star(args) -> int:
    inst = _load_instance(args.instance)
    left, right = _pick(inst, args.left), _pick(inst, args.right)
    product = left * right
    emit({
        "command": "star",
        "left": args.left,
        "right": args.right,
        "product": hpoly_json(product),
        "text": str(product),
    })
    return 0


def cmd_conj(args) -> int:
    inst = _load_instance(args.instance)
    f = _pick(inst, args.name)
    result = f.conjugate()
    emit({
        "command": "conj",
        "name": args.name,
        "conjugate": hpoly_json(result),
        "text": str(result),
    })
    return 0


def cmd_sym(args) -> int:
    inst = _load_instance(args.instance)
    f = _pick(inst, args.name)
    result = f.symmetrize()
    emit({
        "command": "sym",
        "name": args.name,
        "symmetrization": hpoly_json(result),
        "text": str(result),
    })
    return 0


def cmd_eval(args) -> int:
    inst = _load_instance(args.instance)
    f = _pick(inst, args.name)
    points = parse_quat_brackets(args.point)
    if len(points) != 1:
        raise InstanceFormatError("eval expects exactly one [x0, x1, x2, x3] point")
    value = f.eval(points[0])
    emit({
        "command": "eval",
        "name": args.name,
        "point": quat_json(points[0]),
        "value": quat_json(value),
        "text": str(value),
    })
    return 0


def cmd_split(args) -> int:
    inst = _load_instance(args.instance)
    f = _pick(inst, args.name)
    pair = f.split()
    emit({
        "command": "split",
        "name": args.name,
        "F": cpoly_json(pair.F),
        "G": cpoly_json(pair.G),
    })
    return 0


def cmd_zeros(args) -> int:
    inst = _load_instance(args.instance)
    f = _pick(inst, args.name)
    zs = classify_zeros(f)
    emit({
        "command": "zeros",
        "name": args.name,
        "spherical": [sphere_json(s) for s in zs.spherical],
        "isolated": [
            {"sphere": sphere_json(s), "point": quat_json(p)} for s, p in zs.isolated
        ],
        "residual": cpoly_json(zs.residual),
        "residual_text": str(zs.residual),
    })
    return 0


def cmd_syzygy(args) -> int:
    inst = _load_instance(args.instance)
    pair = build_koszul(inst.fs)
    combined = pair.combined()
    p = pair.p_vector()
    w = pair.w_vector()
    a_ok = all(
        sum((p[r] * pair.A.at(r, c) for r in range(pair.A.rows)), CPoly()).is_zero()
        for c in range(pair.A.cols)
    )
    b_ok = all(
        sum((w[r] * pair.B.at(r, c) for r in range(pair.B.rows)), CPoly()).is_zero()
        for c in range(pair.B.cols)
    )
    naturals = []
    n = inst.n
    for r in range(n):
        for t in range(r + 1, n):
            syz = natural_syzygy(inst.fs, r, t)
            naturals.append({"r": r, "t": t, "annihilates": syz.annihilates(inst.fs)})
    three_term = []
    for pidx in range(n):
        for r in range(pidx + 1, n):
            for t in range(r + 1, n):
                res = check_three_term(inst.fs, pidx, r, t)
                three_term.append({
                    "p": pidx, "r": r, "t": t,
                    "holds": res.holds,
                    "has_reduction": res.reduction is not None,
                })
    emit({
        "command": "syzygy",
        "n": n,
        "shape_A": [pair.A.rows, pair.A.cols],
        "shape_B": [pair.B.rows, pair.B.cols],
        "shape_combined": [combined.rows, combined.cols],
        "A_columns_annihilate": a_ok,
        "B_columns_annihilate": b_ok,
        "natural_syzygies": naturals,
        "three_term": three_term,
    })
    return 0


def cmd_rank(args) -> int:
    inst = _load_instance(args.instance)
    pair = build_koszul(inst.fs)
    combined = pair.combined()
    n = inst.n
    points = sample_slice_points(args.sample_points)
    rows = []
    expected = {"A": 2 * n - 1, "B": 2 * n - 1, "combined": 2 * n}
    expected_null = [4 * n * n - 4 * n, 4 * n * n - 6 * n + 2]
    all_match = True
    for z in points:
        ra = rank_at(pair.A, z)
        rb = rank_at(pair.B, z)
        rc = rank_at(combined, z)
        null_ab, null_a_b = kernel_dimension_at(pair, z)
        match = (
            ra == expected["A"] and rb == expected["B"] and rc == expected["combined"]
            and [null_ab, null_a_b] == expected_null
        )
        all_match = all_match and match
        rows.append({
            "z": [str(z.re), str(z.im)],
            "rank_A": ra,
            "rank_B": rb,
            "rank_combined": rc,
            "nullity_combined": null_ab,
            "nullity_A_plus_B": null_a_b,
        })
    emit({
        "command": "rank",
        "n": n,
        "expected_ranks": expected,
        "expected_nullities": expected_null,
        "sample_points": len(points),
        "all_match_expected": all_match,
        "samples": rows,
    })
    return 0


def _diagnosis_json(inst: CoronaInstance, report: DiagnosisReport) -> dict:
    entries = []
    for entry in report.entries:
        per_poly = []
        for name, res in zip(inst.names, entry.per_poly):
            item = {"name": name, "kind": res.kind}
            if res.kind == "point":
                item["point"] = quat_json(res.point)
            per_poly.append(item)
        entries.append({
            "sphere": sphere_json(entry.sphere),
            "whole_sphere_common": entry.whole_sphere,
            "common_points": [quat_json(p) for p in entry.common_points],
            "per_polynomial": per_poly,
        })
    return {
        "found_common_zero": report.found_common_zero(),
        "spheres": entries,
        "unresolved_factor": cpoly_json(report.unresolved),
        "unresolved_text": str(report.unresolved),
    }


def _obstruction_json(command: str, inst: CoronaInstance, obstruction: CommonZeroObstruction) -> dict:
    return {
        "command": command,
        "status": "obstruction",
        "gcd": cpoly_json(obstruction.gcd),
        "gcd_text": str(obstruction.gcd),
        "diagnosis": _diagnosis_json(inst, diagnose_common_zero(inst, obstruction)),
    }


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    result = solve_corona(inst)
    if isinstance(result, CommonZeroObstruction):
        emit(_obstruction_json("solve", inst, result))
        return 1
    out_path = args.output or os.path.splitext(args.instance)[0] + ".sol"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(serialize_solution(result))
    report = {
        "command": "solve",
        "status": "solved",
        "identity": "verified",
        "solution_file": out_path,
        "h_degrees": list(result.h_degrees()),
        "certificate_minors": len(result.certificate.minors),
        "minors_examined": result.certificate.minors_examined,
    }
    if args.trace:
        report["trace"] = {
            "euclid_remainders": [hpoly_json(r) for r in result.trace.remainders],
        }
    emit(report)
    return 0


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    sol = parse_solution(args.solution)
    report = {"command": "verify", "instance": args.instance, "solution": args.solution}
    if len(sol.hs) != inst.n:
        report["result"] = "FAIL"
        report["reason"] = (
            f"instance has {inst.n} polynomials, solution has {len(sol.hs)}"
        )
        emit(report)
        print("FAIL")
        return 1
    identity = verify_identity(inst.fs, sol.hs)
    report["identity_holds"] = identity
    if sol.has_certificate():
        report["certificate_combination_holds"] = certificate_combination_holds(sol)
    report["result"] = "PASS" if identity else "FAIL"
    emit(report)
    print(report["result"])
    return 0 if identity else 1


def cmd_diagnose(args) -> int:
    inst = _load_instance(args.instance)
    result = decide(inst)
    if not isinstance(result, CommonZeroObstruction):
        emit({"command": "diagnose", "status": "no_obstruction"})
        return 0
    emit(_obstruction_json("diagnose", inst, result))
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorona",
        description="Exact algebra and Bezout solving for quaternionic slice polynomials.",
    )
    parser.add_argument("--version", action="version", version=f"qcorona {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("instance", help="instance file")
        return p

    p = add("star", cmd_star, "star product of two declared polynomials")
    p.add_argument("left")
    p.add_argument("right")

    p = add("conj", cmd_conj, "regular conjugate of a declared polynomial")
    p.add_argument("name")

    p = add("sym", cmd_sym, "symmetrization of a declared polynomial")
    p.add_argument("name")

    p = add("eval", cmd_eval, "evaluate a polynomial at a quaternion point")
    p.add_argument("name")
    p.add_argument("point", help="quaternion as [x0, x1, x2, x3]")

    p = add("split", cmd_split, "slice components of a declared polynomial")
    p.add_argument("name")

    p = add("zeros", cmd_zeros, "exact zero classification of a polynomial")
    p.add_argument("name")

    add("syzygy", cmd_syzygy, "Koszul matrices and syzygy identity checks")

    p = add("rank", cmd_rank, "pointwise rank and kernel dimension report")
    p.add_argument("--sample-points", type=int, default=20, metavar="N")

    p = add("solve", cmd_solve, "solve sum f_l * h_l = 1 and write a solution file")
    p.add_argument("--output", "-o", default=None, help="solution file path")
    p.add_argument("--trace", action="store_true", help="include the Euclid remainders")

    p = add("verify", cmd_verify, "re-check a solution file against an instance")
    p.add_argument("solution", help="solution file")

    add("diagnose", cmd_diagnose, "explain why an instance is obstructed")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
