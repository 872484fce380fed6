#!/usr/bin/env python3
"""Record a baseline: every workload over several seeds, plus one traced run.

    python3 bench/baseline.py --seeds 1-10 --out bench/BASELINE.json

Runs bench/run.py once per (workload, seed) with tracing off, sequentially,
then once per workload with tracing on.  For each end-to-end metric it keeps
the ten values, their median and quartiles, and the spread (third minus
first quartile, over the median) next to the metric's bound from
BENCHMARK.json.  Run from the repository root on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line for line in lines if line.startswith("#")]
    result["wall_s"] = time.monotonic() - start
    print(f"{workload} seed {seed} trace {trace} ({result['wall_s']:.1f} s): {lines[0]}",
          file=sys.stderr, flush=True)
    return result


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default="bench/BASELINE.json")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, {platform.system()}, "
                   f"Python {platform.python_version()}",
        "seconds": seconds,
        "seeds": seed_range(args.seeds),
        "workloads": {},
    }
    for name in names:
        runs = [run(name, seed, seconds, 0) for seed in record["seeds"]]
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            summary[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
                "bound": bound,
                "values": values,
            }
        entry = {
            "end_to_end": summary,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "wall_s": [r["wall_s"] for r in runs],
            "notes": runs[0]["notes"],
        }
        traced = run(name, record["seeds"][0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_notes"] = traced["notes"]
        entry["per_layer_wall_s"] = traced["wall_s"]
        record["workloads"][name] = entry
        for metric, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread above a third of the bound"
            print(f"{name:17s} {metric:20s} median {s['median']:.6g} {s['unit']} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{flag}", file=sys.stderr)
    (ROOT / args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
