import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from qcorona import cli
from qcorona.corona import CoronaInstance, koszul_solve
from qcorona.cpoly import CP_ZERO
from qcorona.formats import parse_instance, parse_solution_text, serialize_instance, serialize_solution
from qcorona.polymatrix import det_bareiss
from qcorona.scalars import Q_I, Q_J, Q_K
from qcorona.syzygy import build_koszul, certificate_column_order

from conftest import q_minus

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = ROOT / "instances"
GOLDEN_SOLVE_DUP = Path(__file__).resolve().parent / "data" / "solve_dup.stdout"


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def common_points(report):
    return [p for entry in report["diagnosis"]["spheres"] for p in entry["common_points"]]


@pytest.mark.parametrize("name,code", [
    ("dup.inst", 1), ("easy.inst", 0), ("hard.inst", 0), ("triple.inst", 0),
])
def test_shipped_instances_exit_codes(capsys, tmp_path, name, code):
    got, out, _ = run(capsys, "solve", INSTANCES / name, "-o", tmp_path / "out.sol")
    assert got == code
    report = json.loads(out)
    if code:
        assert report["status"] == "obstruction"
        assert common_points(report) == [["0", "0", "1", "0"]]  # j
    else:
        assert report["status"] == "solved"
        assert (tmp_path / "out.sol").is_file()


def test_diagnose_uses_the_same_decider(capsys):
    assert run(capsys, "diagnose", INSTANCES / "easy.inst")[0] == 0
    code, out, _ = run(capsys, "diagnose", INSTANCES / "dup.inst")
    assert code == 1
    assert common_points(json.loads(out)) == [["0", "0", "1", "0"]]


def test_shared_point_of_three_is_named(capsys, tmp_path):
    qi = q_minus(Q_I)
    inst = CoronaInstance.from_polys([qi, qi * q_minus(Q_J), qi * q_minus(Q_K)])
    path = tmp_path / "three.inst"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    for command in ("solve", "diagnose"):
        code, out, _ = run(capsys, command, path)
        assert code == 1
        assert common_points(json.loads(out)) == [["0", "1", "0", "0"]]  # i


def test_solve_then_verify_passes_and_a_tamper_fails(capsys, tmp_path):
    sol = tmp_path / "easy.sol"
    assert run(capsys, "solve", INSTANCES / "easy.inst", "-o", sol)[0] == 0
    code, out, _ = run(capsys, "verify", INSTANCES / "easy.inst", sol)
    assert code == 0 and out.splitlines()[-1] == "PASS"

    text = sol.read_text(encoding="utf-8")
    tampered = text.replace("h1 = [0, 0, 0, 0]", "h1 = [1, 0, 0, 0]", 1)
    assert tampered != text
    sol.write_text(tampered, encoding="utf-8")
    code, out, _ = run(capsys, "verify", INSTANCES / "easy.inst", sol)
    assert code == 1 and out.splitlines()[-1] == "FAIL"


def test_malformed_file_reports_its_line(capsys, tmp_path):
    path = tmp_path / "bad.inst"
    path.write_text("# comment\nf1 = [0, 1, 0, 0] [1, 0, 0, 0]\nf2 = [1, 2, 3]\n", encoding="utf-8")
    code, out, err = run(capsys, "solve", path)
    assert code == 2 and out == ""
    assert "line 3" in err


def test_malformed_solution_reports_its_line(capsys, tmp_path):
    path = tmp_path / "bad.sol"
    path.write_text("h1 = [0, 1/5, -2/5, 0]\nh2 = [0, -1/5, 2/5, 0,]\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", INSTANCES / "easy.inst", path)
    assert code == 2 and out == ""
    assert "line 2" in err


def test_malformed_point_has_no_line(capsys):
    # The point is a command-line argument, not a line of a file.
    code, out, err = run(capsys, "eval", INSTANCES / "easy.inst", "f1", "[1, 2]")
    assert code == 2 and out == ""
    assert err == "error: expected 4 components per bracket, got 2\n"
    assert "line" not in err


@pytest.mark.parametrize("count", ["0", "-5"])
def test_rank_rejects_a_sample_count_below_one(capsys, count):
    code, out, err = run(capsys, "rank", INSTANCES / "easy.inst", "--sample-points", count)
    assert code == 2 and out == ""
    assert err == f"error: sample point count must be between 1 and 7225, got {count}\n"


def test_rank_rejects_more_sample_points_than_the_draws_reach():
    # 85 distinct coordinates a/b give 7225 points; asking for more must not loop forever.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "qcorona.cli", "rank", str(INSTANCES / "easy.inst"), "--sample-points", "7226"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=10)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "error: sample point count must be between 1 and 7225, got 7226\n"


def test_missing_files_exit_2(capsys, tmp_path):
    # Each case names the path its error line must quote.
    for argv, path in (
        (("solve", tmp_path / "absent.inst"), tmp_path / "absent.inst"),
        (("verify", INSTANCES / "easy.inst", tmp_path / "absent.sol"), tmp_path / "absent.sol"),
        # A directory where a file is read or written; -o fails only after the solve.
        (("solve", INSTANCES), INSTANCES),
        (("verify", INSTANCES / "easy.inst", INSTANCES), INSTANCES),
        (("solve", INSTANCES / "easy.inst", "-o", tmp_path), tmp_path),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"'{path}'" in err


@pytest.mark.parametrize("command, instance, code", [
    ("solve", "easy.inst", 0), ("diagnose", "dup.inst", 1),
])
def test_a_closed_stdout_loses_the_report_and_nothing_else(tmp_path, command, instance, code):
    # The reader closes its end before the child writes, as `qcorona ... | true` can.
    sol = tmp_path / "easy.sol"
    argv = [sys.executable, "-m", "qcorona.cli", command, str(INSTANCES / instance)]
    if command == "solve":
        argv += ["-o", str(sol)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == code
    assert err == b""
    assert sol.is_file() == (command == "solve")


def test_solution_without_certificate_parses_and_verifies(capsys, tmp_path):
    sol = tmp_path / "plain.sol"
    sol.write_text("h1 = [0, 1/5, -2/5, 0]\nh2 = [0, -1/5, 2/5, 0]\n", encoding="utf-8")
    assert not parse_solution_text(sol.read_text(encoding="utf-8")).certificate.minors
    code, out, _ = run(capsys, "verify", INSTANCES / "easy.inst", sol)
    assert code == 0
    report = json.loads(out[:out.rindex("}") + 1])
    assert report["identity_holds"] and "certificate_combination_holds" not in report


def test_koszul_solution_with_certificate_verifies(capsys, tmp_path):
    inst_path = INSTANCES / "hard.inst"
    solution = koszul_solve(parse_instance(str(inst_path)))
    sol = tmp_path / "koszul.sol"
    sol.write_text(serialize_solution(solution), encoding="utf-8")
    assert parse_solution_text(sol.read_text(encoding="utf-8")).certificate.minors
    code, out, _ = run(capsys, "verify", inst_path, sol)
    assert code == 0
    assert json.loads(out[:out.rindex("}") + 1])["certificate_combination_holds"]


def test_certificate_with_a_zero_witness_minor_verifies(capsys, tmp_path):
    """A certificate that also lists a genuine minor with a zero witness still passes.

    solve writes no such minor, but a file that holds one is still a valid certificate.
    """
    inst_path = INSTANCES / "easy.inst"
    inst = parse_instance(str(inst_path))
    solution = koszul_solve(inst)
    cert = solution.certificate
    pair = build_koszul(inst.fs)
    cols, minor = next(
        (cols, minor) for cols in certificate_column_order(pair)
        if cols not in cert.minor_indices and (minor := det_bareiss(pair.combined.submatrix(cols)))
    )
    older = replace(
        cert,
        minor_indices=(cols,) + cert.minor_indices,
        minors=(minor,) + cert.minors,
        witnesses=(CP_ZERO,) + cert.witnesses,
    )
    sol = tmp_path / "older.sol"
    sol.write_text(serialize_solution(replace(solution, certificate=older)), encoding="utf-8")
    assert "minor 0 witness = [0, 0]" in sol.read_text(encoding="utf-8")
    code, report, verdict = _verify_report(capsys, inst_path, sol)
    assert (code, verdict) == (0, "PASS") and report["certificate_matches_instance"]


def _verify_report(capsys, inst_path, sol):
    code, out, _ = run(capsys, "verify", inst_path, sol)
    return code, json.loads(out[:out.rindex("}") + 1]), out.splitlines()[-1]


def _solved_text(capsys, tmp_path, name):
    sol = tmp_path / f"{name}.sol"
    assert run(capsys, "solve", INSTANCES / f"{name}.inst", "-o", sol)[0] == 0
    return sol.read_text(encoding="utf-8")


def _certificate_lines(text):
    return [line for line in text.splitlines() if line.startswith("minor ")]


def test_genuine_certificate_matches_its_instance(capsys, tmp_path):
    sol = tmp_path / "hard.sol"
    sol.write_text(_solved_text(capsys, tmp_path, "hard"), encoding="utf-8")
    code, report, last = _verify_report(capsys, INSTANCES / "hard.inst", sol)
    assert code == 0 and last == "PASS"
    assert report["identity_holds"] and report["certificate_matches_instance"]


def test_changed_minor_coefficient_fails(capsys, tmp_path):
    lines = _solved_text(capsys, tmp_path, "hard").splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("minor 0 det = ["))
    head, _, tail = lines[k].partition("[")
    first, _, rest = tail.partition(",")
    lines[k] = f"{head}[{Fraction(first) + 1},{rest}"
    sol = tmp_path / "tampered.sol"
    sol.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, report, last = _verify_report(capsys, INSTANCES / "hard.inst", sol)
    assert code == 1 and last == "FAIL"
    assert report["identity_holds"] and not report["certificate_matches_instance"]


def test_certificate_of_another_instance_fails(capsys, tmp_path):
    easy = _solved_text(capsys, tmp_path, "easy")
    hs = [line for line in easy.splitlines() if line.startswith("h")]
    borrowed = hs + _certificate_lines(_solved_text(capsys, tmp_path, "hard"))
    sol = tmp_path / "borrowed.sol"
    sol.write_text("\n".join(borrowed) + "\n", encoding="utf-8")
    code, report, last = _verify_report(capsys, INSTANCES / "easy.inst", sol)
    assert code == 1 and last == "FAIL"
    assert report["identity_holds"] and report["certificate_combination_holds"]
    assert not report["certificate_matches_instance"]


@pytest.mark.parametrize("cols", ["0 1 2 99", "0 1 2", "-1 0 1 2"])
def test_column_set_outside_the_matrix_fails_without_raising(capsys, tmp_path, cols):
    text = _solved_text(capsys, tmp_path, "hard")
    old = next(line for line in text.splitlines() if line.startswith("minor 0 cols = "))
    sol = tmp_path / "cols.sol"
    sol.write_text(text.replace(old, f"minor 0 cols = {cols}"), encoding="utf-8")
    code, report, last = _verify_report(capsys, INSTANCES / "hard.inst", sol)
    assert code == 1 and last == "FAIL"
    assert not report["certificate_matches_instance"]


def test_trace_lists_the_euclid_remainders(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", INSTANCES / "hard.inst", "-o", tmp_path / "h.sol", "--trace")
    assert code == 0
    report = json.loads(out)
    assert report["trace"]["euclid_remainders"][-1] == [["1", "0", "0", "0"]]
    assert 0 < report["certificate_minors"] <= report["minors_examined"]


PAIR_INST = """\
f1 = [0, 0, 1, 0] [0, 1, 0, 0] [0, 0, 0, 0] [1, 0, 0, 0]
f2 = [0, 0, 0, 1] [1, 0, 0, 0] [1, 0, 0, 0]
"""


@pytest.mark.parametrize("name,remainders", [
    ("hard.inst", [[["1", "0", "0", "0"]]]),
    ("pair.inst", [[["-1/3", "1/3", "0", "2/3"], ["1", "0", "0", "0"]], [["1", "0", "0", "0"]]]),
])
def test_trace_of_a_pair_is_pinned(capsys, tmp_path, name, remainders):
    # For n = 2 the remainders do not depend on which member the fold starts from.
    (tmp_path / "pair.inst").write_text(PAIR_INST, encoding="utf-8")
    path = INSTANCES / name if name == "hard.inst" else tmp_path / name
    code, out, _ = run(capsys, "solve", "--trace", path, "-o", tmp_path / "out.sol")
    assert code == 0
    assert json.loads(out)["trace"]["euclid_remainders"] == remainders


def test_solve_dup_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "solve", INSTANCES / "dup.inst")
    assert code == 1
    assert out == GOLDEN_SOLVE_DUP.read_text(encoding="utf-8")


def _inspection_runs(command):
    """argv lists of one inspection command over every shipped instance."""
    for path in sorted(INSTANCES.glob("*.inst")):
        names = parse_instance(str(path)).names
        if command == "star":
            for left in names:
                for right in names:
                    yield ["star", path, left, right]
        elif command == "eval":
            for name in names:
                for point in ("[0, 0, 1, 0]", "[1/2, -1, 2, 3/4]"):
                    yield ["eval", path, name, point]
        elif command in ("syzygy", "rank"):
            extra = ["--sample-points", "4"] if command == "rank" else []
            yield [command, path, *extra]
        else:
            for name in names:
                yield [command, path, name]


# sha256 over the stdout of every run of _inspection_runs(command), in order.
INSPECTION_DIGESTS = {
    "star": "79a3519d587c1993a69f5a3ab4ab43b0c39fa166f2fa9c8a5a56cd6a7daf948b",
    "conj": "8a4a47efe3854052aba1d253f50e3dbc75370f6871b12ca5e0b6cd51e6fac6ef",
    "sym": "9d66f7be76261eeb95c7ae37b1b57b44ffaeac749be58c4ed3696f07203110f8",
    "split": "e53db1c5a60e77b191f0400249163da2420ed50feed29f67287b428f83a3e496",
    "eval": "8fea00215fe2bd2d2ab233782924e9e670174bbe4141383f220f7cb7fd596044",
    "zeros": "6e147c083c2ad595f5aa8ff050d330fa0e81c1c0cf155556412b58c8eb7eec91",
    "syzygy": "ce230f9964d3484eaa646ba06f222a2a2aebfb8d3869c9cf9ae47daa1a3675e2",
    "rank": "0e0f2c225cc73a858141794bf49fa7d3b5d38d48eaabe28ad8844836a438b9b9",
}


@pytest.mark.parametrize("command", sorted(INSPECTION_DIGESTS))
def test_inspection_stdout_is_pinned(capsys, command):
    h = hashlib.sha256()
    for argv in _inspection_runs(command):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        h.update(out.encode("utf-8"))
    assert h.hexdigest() == INSPECTION_DIGESTS[command]


def test_importing_the_cli_leaves_sympy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, qcorona.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
