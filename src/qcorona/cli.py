"""Command-line front end.

It has two entry points, the installed ``qcorona`` console script and
``python -m qcorona.cli``; there is no ``python -m qcorona``.

Reports go to stdout as canonical JSON with every number rendered as an
exact rational string, so output is deterministic byte-for-byte and
re-verification never passes through floating point.  Exit codes: 0 on
success, 1 on obstruction or failed verification, 2 only on a usage error,
a malformed input file or a path that cannot be read or written.  A closed
stdout loses the report only: stderr stays empty, and the solution file
and the exit code are as with stdout open.  solve and diagnose always decide:
the right Euclidean algorithm either proves a solution exists, which solve
then constructs, or names the common zeros.  verify fails a solution whose
identity does not hold, or whose certificate section, when present, does
not recompute from the instance's own Koszul matrix.
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
from .cpoly import dot
from .formats import (
    InstanceFormatError,
    coefficient_strings,
    parse_instance,
    parse_quat_brackets,
    parse_solution,
    serialize_solution,
)
from .generate import sample_slice_points
from .hpoly import HPoly, classify_zeros
from .polymatrix import rank_at
from .scalars import Quat
from .syzygy import build_koszul, check_three_term, hat_swap, natural_syzygy


def quat_json(q: Quat) -> list[str]:
    return [str(c) for c in q.components()]


def sphere_json(sphere) -> dict:
    return {"x": str(sphere.x), "y_squared": str(sphere.y_squared)}


def emit(report: dict, *lines: str) -> None:
    """Print the report as JSON, then any further lines; a closed stdout loses them only.

    A closed stdout raises here, in the flush, and then moves to the null
    device, so the flush at exit succeeds and the command keeps its exit code.
    """
    try:
        print(json.dumps(report, indent=2), *lines, sep="\n", flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _pick(inst: CoronaInstance, name: str) -> HPoly:
    for n, f in zip(inst.names, inst.fs):
        if n == name:
            return f
    raise InstanceFormatError(f"no polynomial named {name!r} in instance")


def _named(args) -> HPoly:
    """The polynomial args.name of the instance file args.instance."""
    return _pick(parse_instance(args.instance), args.name)


def cmd_star(args) -> int:
    inst = parse_instance(args.instance)
    left, right = _pick(inst, args.left), _pick(inst, args.right)
    product = left * right
    emit({
        "command": "star",
        "left": args.left,
        "right": args.right,
        "product": coefficient_strings(product),
        "text": str(product),
    })
    return 0


# The one-polynomial operations: command -> (report key, operation).
_UNARY = {"conj": ("conjugate", HPoly.conjugate), "sym": ("symmetrization", HPoly.symmetrize)}


def cmd_unary(args) -> int:
    key, operation = _UNARY[args.command]
    result = operation(_named(args))
    emit({
        "command": args.command,
        "name": args.name,
        key: coefficient_strings(result),
        "text": str(result),
    })
    return 0


def cmd_eval(args) -> int:
    f = _named(args)
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
    f = _named(args)
    emit({
        "command": "split",
        "name": args.name,
        "F": coefficient_strings(f.F),
        "G": coefficient_strings(f.G),
    })
    return 0


def cmd_zeros(args) -> int:
    zs = classify_zeros(_named(args))
    emit({
        "command": "zeros",
        "name": args.name,
        "spherical": [sphere_json(s) for s in zs.spherical],
        "isolated": [
            {"sphere": sphere_json(s), "point": quat_json(p)} for s, p in zs.isolated
        ],
        "residual": coefficient_strings(zs.residual),
        "residual_text": str(zs.residual),
    })
    return 0


def cmd_syzygy(args) -> int:
    inst = parse_instance(args.instance)
    pair = build_koszul(inst.fs)
    p = pair.p
    w = hat_swap(p)
    a_ok = all(dot(p, pair.A.column(c)).is_zero() for c in range(pair.A.cols))
    b_ok = all(dot(w, pair.B.column(c)).is_zero() for c in range(pair.B.cols))
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
        "shape_combined": [pair.combined.rows, pair.combined.cols],
        "A_columns_annihilate": a_ok,
        "B_columns_annihilate": b_ok,
        "natural_syzygies": naturals,
        "three_term": three_term,
    })
    return 0


def cmd_rank(args) -> int:
    inst = parse_instance(args.instance)
    pair = build_koszul(inst.fs)
    combined = pair.combined
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
        null_ab, null_a_b = combined.cols - rc, (pair.A.cols - ra) + (pair.B.cols - rb)
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
        "unresolved_factor": coefficient_strings(report.unresolved),
        "unresolved_text": str(report.unresolved),
    }


def _obstruction_json(command: str, inst: CoronaInstance, obstruction: CommonZeroObstruction) -> dict:
    return {
        "command": command,
        "status": "obstruction",
        "gcd": coefficient_strings(obstruction.gcd),
        "gcd_text": str(obstruction.gcd),
        "diagnosis": _diagnosis_json(inst, diagnose_common_zero(inst, obstruction)),
    }


def cmd_solve(args) -> int:
    inst = parse_instance(args.instance)
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
        "h_degrees": [h.degree for h in result.hs],
        "certificate_minors": len(result.certificate.minors),
        "minors_examined": result.certificate.minors_examined,
    }
    if args.trace:
        report["trace"] = {
            "euclid_remainders": [coefficient_strings(r) for r in result.remainders],
        }
    emit(report)
    return 0


def cmd_verify(args) -> int:
    inst = parse_instance(args.instance)
    sol = parse_solution(args.solution)
    report = {"command": "verify", "instance": args.instance, "solution": args.solution}
    if len(sol.hs) != inst.n:
        report["result"] = "FAIL"
        report["reason"] = f"instance has {inst.n} polynomials, solution has {len(sol.hs)}"
        emit(report, "FAIL")
        return 1
    passed = verify_identity(inst.fs, sol.hs)
    report["identity_holds"] = passed
    cert = sol.certificate
    if cert.minors:
        report["certificate_combination_holds"] = cert.combination().is_one()
        report["certificate_matches_instance"] = cert.verify(build_koszul(inst.fs).combined)
        passed = passed and report["certificate_matches_instance"]
    report["result"] = "PASS" if passed else "FAIL"
    emit(report, report["result"])
    return 0 if passed else 1


def cmd_diagnose(args) -> int:
    inst = parse_instance(args.instance)
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

    def add(name, func, help_text, *positionals):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("instance", help="instance file")
        for positional in positionals:
            p.add_argument(positional)
        return p

    add("star", cmd_star, "star product of two declared polynomials", "left", "right")
    add("conj", cmd_unary, "regular conjugate of a declared polynomial", "name")
    add("sym", cmd_unary, "symmetrization of a declared polynomial", "name")
    p = add("eval", cmd_eval, "evaluate a polynomial at a quaternion point", "name")
    p.add_argument("point", help="quaternion as [x0, x1, x2, x3]")
    add("split", cmd_split, "slice components of a declared polynomial", "name")
    add("zeros", cmd_zeros, "exact zero classification of a polynomial", "name")
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
    except (ValueError, OSError) as exc:
        # InstanceFormatError is a ValueError; an unusable path is an OSError.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
