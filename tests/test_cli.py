import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcorona import cli
from qcorona.corona import CoronaInstance, koszul_solve
from qcorona.formats import parse_instance, parse_solution_text, serialize_instance, serialize_solution
from qcorona.scalars import Q_I, Q_J, Q_K

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


def test_solution_without_certificate_parses_and_verifies(capsys, tmp_path):
    sol = tmp_path / "plain.sol"
    sol.write_text("h1 = [0, 1/5, -2/5, 0]\nh2 = [0, -1/5, 2/5, 0]\n", encoding="utf-8")
    assert not parse_solution_text(sol.read_text(encoding="utf-8")).has_certificate()
    code, out, _ = run(capsys, "verify", INSTANCES / "easy.inst", sol)
    assert code == 0
    report = json.loads(out[:out.rindex("}") + 1])
    assert report["identity_holds"] and "certificate_combination_holds" not in report


def test_koszul_solution_with_certificate_verifies(capsys, tmp_path):
    inst_path = INSTANCES / "hard.inst"
    solution = koszul_solve(parse_instance(str(inst_path)))
    sol = tmp_path / "koszul.sol"
    sol.write_text(serialize_solution(solution), encoding="utf-8")
    assert parse_solution_text(sol.read_text(encoding="utf-8")).has_certificate()
    code, out, _ = run(capsys, "verify", inst_path, sol)
    assert code == 0
    assert json.loads(out[:out.rindex("}") + 1])["certificate_combination_holds"]


def test_trace_lists_the_euclid_remainders(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", INSTANCES / "hard.inst", "-o", tmp_path / "h.sol", "--trace")
    assert code == 0
    report = json.loads(out)
    assert report["trace"]["euclid_remainders"][-1] == [["1", "0", "0", "0"]]
    assert 0 < report["certificate_minors"] <= report["minors_examined"]


def test_solve_dup_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "solve", INSTANCES / "dup.inst")
    assert code == 1
    assert out == GOLDEN_SOLVE_DUP.read_text(encoding="utf-8")


def test_importing_the_cli_leaves_sympy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, qcorona.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
