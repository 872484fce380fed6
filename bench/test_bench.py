"""The benchmark's own tests: smoke runs, metric names and units, the oracle.

Run with `python3 -m pytest -q bench` from the repository root.  Smoke runs
go through run.main with each workload cut down to its smallest items.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALLEST = {
    "solve-grid": ("grid-n2-d1-0", "easy.inst"),
    "obstructed": ("planted-n2-d1-0",),
    "verify-roundtrip": ("roundtrip-n2-b256-0", "roundtrip-n2-b256-0-tampered"),
}


def smoke(monkeypatch, capsys, workload: str, trace: int) -> dict:
    build = workloads.build

    def smallest(name, seed, out, instances):
        return [item for item in build(name, seed, out, instances) if item.name in SMALLEST[name]]

    monkeypatch.setattr(workloads, "build", smallest)
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_reports_every_end_to_end_metric_with_its_unit(monkeypatch, capsys, workload):
    result = smoke(monkeypatch, capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_reports_every_layer_metric_with_its_unit(monkeypatch, capsys):
    result = smoke(monkeypatch, capsys, "solve-grid", 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["polymatrix.det_bareiss.count"] == (
        metrics["polymatrix.det_bareiss.under_certificate.count"]
        + metrics["polymatrix.det_bareiss.under_solve.count"]
    )
    assert 0 < metrics["polymatrix.minors_kept"] <= metrics["polymatrix.minors_examined"]


def test_oracle_flags_one_changed_coefficient(tmp_path):
    items = workloads.build("solve-grid", 3, tmp_path, run.INSTANCES)
    item = next(i for i in items if i.name == "grid-n2-d2-0")
    workloads.write_inputs([item])
    import qcorona.cli

    assert qcorona.cli.main(item.argv) == 0
    sol_path = Path(item.argv[item.argv.index("-o") + 1])
    assert run.check(item, 0, "", "", 0, 0.0).ok

    hs = oracle.parse_polys(sol_path.read_text(encoding="utf-8"))
    h = hs["h2"]
    changed = list(h[3])
    changed[1] += 1
    hs["h2"] = h[:3] + [tuple(changed)] + h[4:]
    assert not oracle.identity_holds(item.fs, list(hs.values()))

    tampered = "".join(f"{name} = {oracle.format_poly(f)}\n" for name, f in hs.items())
    sol_path.write_text(tampered, encoding="utf-8")
    assert not run.check(item, 0, "", "", 0, 0.0).ok


def test_oracle_rejects_a_diagnosis_that_misses_the_planted_point():
    q_minus_i = [tuple(-x for x in workloads.I), oracle.ONE]
    fs = [q_minus_i, q_minus_i]
    sphere = {"x": "0", "y_squared": "1"}
    named = {"status": "obstruction", "diagnosis": {"spheres": [
        {"sphere": sphere, "whole_sphere_common": False, "common_points": [["0", "1", "0", "0"]]}
    ]}}
    wrong = {"status": "obstruction", "diagnosis": {"spheres": [
        {"sphere": sphere, "whole_sphere_common": False, "common_points": [["0", "0", "1", "0"]]}
    ]}}
    assert oracle.obstruction_names_point(named, fs, workloads.I)
    assert not oracle.obstruction_names_point(wrong, fs, workloads.I)


def test_inputs_repeat_for_a_seed(tmp_path):
    first = workloads.build("verify-roundtrip", 5, tmp_path / "a", run.INSTANCES)
    second = workloads.build("verify-roundtrip", 5, tmp_path / "b", run.INSTANCES)
    assert [i.fs for i in first] == [i.fs for i in second]
    other = workloads.build("verify-roundtrip", 6, tmp_path / "c", run.INSTANCES)
    assert [i.fs for i in first] != [i.fs for i in other]


def test_exits_nonzero_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "solve-grid", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_rescaler_samples_during_a_span_and_restores_the_signal_handler():
    handler = signal.getsignal(signal.SIGALRM)
    rescale = run.Rescaler()
    with rescale.sampling():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert rescale.samples
    assert signal.getsignal(signal.SIGALRM) is handler
    assert rescale.close() > 0
    assert rescale.samples == []
