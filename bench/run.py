#!/usr/bin/env python3
"""qcorona benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload solve-grid --seed 1 --seconds 15 --trace 0

Run from the repository root.  Load is a closed loop in one process and one
thread with one item in flight: each item is one in-process call of
qcorona.cli.main on files the set-up step generated from the seed.  Items
run in passes over the workload's item list, so every pass has the same
mix; passes continue while they fit the --seconds budget (at least one).
Each output is checked by oracle.py outside the timed region.  Reported
times are rescaled to a fixed machine speed measured around and during each
item (see Rescaler); the wall-clock figures are printed on a comment line.

--trace 0 reports the end-to-end metrics, --trace 1 a per-layer breakdown:
an untraced and a traced phase over the same items, the traced one with
wrappers from tracing.py around the package's public functions.  The last
line of stdout is one JSON object; the lines before it repeat every metric
by name with its unit.  Workloads, metrics and the layer-to-metric map are
described in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INSTANCES = ROOT / "instances"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
# Run in a fresh interpreter with the source and benchmark directories as
# arguments: prints the wall time of importing qcorona.cli and its slowdown
# factor, sampled during the import (see Rescaler).
IMPORT_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:]
import run
rescale = run.Rescaler()
start = time.perf_counter()
with rescale.sampling():
    import qcorona.cli
wall = time.perf_counter() - start
print(wall, rescale.close())
"""


# The machine the benchmark was tuned on (2-core x86_64 KVM guest) runs the
# same code up to twice as slow for stretches from a tenth of a second to
# minutes, both cores together.  Every timed figure is therefore rescaled by the speed of a fixed
# reference loop measured around it and, for long items, during it:
# seconds * nominal reference time / measured reference time.  UNIT_S is
# one loop's time on that machine when it runs fast, so rescaled times read
# as seconds there.
UNIT_S = 0.0011
REFERENCE_UNITS = 12
SAMPLE_EVERY_S = 0.2


def reference_seconds(units: int) -> float:
    """Time of `units` fixed loops of stdlib Fraction arithmetic, collector off.

    The loop shares no code with qcorona, so nothing a commit changes moves
    it; the collector is off so that objects the program keeps alive cannot
    slow it down either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(units):
            acc = Fraction(0)
            for k in range(1, 400):
                acc += Fraction(k % 7 - 3, k)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Rescaler:
    """Slowdown factors of wall-clock spans timed one after another.

    The reference runs REFERENCE_UNITS loops between spans.  Inside
    sampling(), a timer signal also runs one loop every SAMPLE_EVERY_S, so a
    long item is rescaled by the speed during it, not only at its ends; the
    samples cost under 1% of the item's time.  A span's wall time divided by
    its factor is its time at the reference speed.
    """

    def __init__(self):
        self.before = reference_seconds(REFERENCE_UNITS)
        self.samples: list[float] = []

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(
            signal.SIGALRM, lambda *_: self.samples.append(reference_seconds(1))
        )
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def close(self) -> float:
        """The slowdown factor of a span that ended just now."""
        after = reference_seconds(REFERENCE_UNITS)
        measured = self.before + after + sum(self.samples)
        nominal = (2 * REFERENCE_UNITS + len(self.samples)) * UNIT_S
        self.before, self.samples = after, []
        return measured / nominal


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


@dataclass
class Outcome:
    seconds: float
    decided: bool
    ok: bool
    out_bytes: int
    degree: int
    bits: int
    note: str = ""
    wall: float = 0.0


def run_item(item, cli) -> tuple[float, object, str, str, int]:
    """Time one item; returns (seconds, exit code or exception, stdout, stderr, bytes written)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    written = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if item.prepare is not None:
                written = item.prepare()
            rc = cli.main(item.argv)
        except Exception:  # a raising item is a failed item, not a crashed run
            rc = traceback.format_exc()
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue(), written


def check(item, rc, stdout: str, stderr: str, written: int, seconds: float) -> Outcome:
    """Compare one item's result with its construction label, independently of qcorona."""
    try:
        return _judge(item, rc, stdout, stderr, written, seconds)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return Outcome(seconds, False, False, written + len(stdout), 0, 0, f"unreadable output: {exc!r}")


def _judge(item, rc, stdout: str, stderr: str, written: int, seconds: float) -> Outcome:
    out_bytes = written + len(stdout.encode("utf-8"))
    if not isinstance(rc, int):
        return Outcome(seconds, False, False, out_bytes, 0, 0, f"raised:\n{rc}")
    if rc == 2 and "undecided within minor budget" in stderr:
        return Outcome(seconds, False, True, out_bytes, 0, 0, "undecided")
    if item.expect in ("PASS", "FAIL"):
        lines = stdout.strip().splitlines()
        verdict = lines[-1] if lines else ""
        ok = verdict == item.expect and rc == (0 if item.expect == "PASS" else 1)
        # Sizes of the h_l as the item's own serialize step wrote them.
        sol_text = Path(item.argv[2]).read_text(encoding="utf-8")
        degree, bits = oracle.poly_size(oracle.parse_polys(sol_text).values())
        return Outcome(seconds, True, ok, out_bytes, degree, bits, f"exit {rc}, {verdict}")
    if item.expect == "solved":
        if rc != 0:
            return Outcome(seconds, True, False, out_bytes, 0, 0, f"exit {rc}: {stderr.strip()}")
        sol_path = Path(item.argv[item.argv.index("-o") + 1])
        sol_text = sol_path.read_text(encoding="utf-8")
        hs = list(oracle.parse_polys(sol_text).values())
        degree, bits = oracle.poly_size(hs)
        # Checked against the family as drawn, not as serialized, so a
        # writer that changes the instance cannot pass.
        ok = oracle.identity_holds(item.fs, hs)
        return Outcome(seconds, True, ok, out_bytes + len(sol_text.encode("utf-8")), degree, bits,
                       "" if ok else "identity fails")
    # expect == "obstruction"
    if rc != 1:
        return Outcome(seconds, True, False, out_bytes, 0, 0, f"exit {rc}: {stderr.strip()}")
    report = json.loads(stdout)
    gcd = [[Fraction(x) for x in c] for c in report["gcd"]]
    bits = max(max(x.numerator.bit_length(), x.denominator.bit_length()) for c in gcd for x in c)
    ok = oracle.obstruction_names_point(report, item.fs, item.planted)
    return Outcome(seconds, True, ok, out_bytes, len(gcd) - 1, bits,
                   "" if ok else "planted zero not named")


def run_passes(items, budget: float, cli, new_tracer=None):
    """Closed loop over whole passes; another pass starts while it is expected
    to end less than half a pass past the budget (in wall time).  With
    new_tracer, each pass runs under a fresh installed tracer."""
    outcomes: list[Outcome] = []
    pass_times: list[float] = []
    tracers = []
    rescale = Rescaler()
    while not pass_times or sum(pass_times) + pass_times[-1] / 2 < budget:
        timed = 0.0
        if new_tracer:
            tracers.append(new_tracer())
            tracers[-1].install()
        try:
            for item in items:
                with rescale.sampling():
                    seconds, rc, stdout, stderr, written = run_item(item, cli)
                timed += seconds
                outcome = check(item, rc, stdout, stderr, written, seconds / rescale.close())
                outcome.wall = seconds
                outcomes.append(outcome)
        finally:
            if new_tracer:
                tracers[-1].uninstall()
        pass_times.append(timed)
    return outcomes, tracers


def setup(workload: str, seed: int, workdir: Path, repeats: int):
    """Draw the inputs once, then `repeats` times import qcorona in a fresh
    interpreter and write the input files; returns the items and the median
    set-up time, rescaled and as wall time.  The import is rescaled in the
    interpreter that runs it.  Drawing the inputs, and the benchmark's own
    arithmetic in it, is not timed."""
    import workloads

    items = workloads.build(workload, seed, workdir, INSTANCES)
    walls, scaled = [], []
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        import_s, import_slowdown = map(float, probe.stdout.split())
        write = Rescaler()
        write_s = workloads.write_inputs(items)
        walls.append(import_s + write_s)
        scaled.append(import_s / import_slowdown + write_s / write.close())
    return items, statistics.median(scaled), statistics.median(walls)


def tail(latencies: list[float]):
    """Highest of a few percentiles with at least ten samples beyond it:
    (percentile, value, samples beyond), or None when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90):
        k = math.ceil(n * pct / 100) - 1
        if n - 1 - k >= 10:
            return pct, ordered[k], n - 1 - k
    return None


def end_to_end(outcomes: list[Outcome], setup_s: float) -> dict:
    latencies = [o.seconds for o in outcomes]
    return {
        "setup_s": setup_s,
        "items_per_s": len(outcomes) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "decided_frac": sum(o.decided and o.ok for o in outcomes) / len(outcomes),
        "out_max_degree": max(o.degree for o in outcomes),
        "out_coeff_bits": statistics.fmean([o.bits for o in outcomes if o.bits] or [0]),
        "out_bytes_per_item": statistics.fmean(o.out_bytes for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(items, budget: float, cli, span_dir: Path, tag: str) -> tuple[list[Outcome], dict]:
    """Untraced then traced passes over the same items; per-layer medians and overhead.

    Span times are rescaled like the end-to-end times, by the pass's
    rescaled time over its wall time, and so is the overhead: the two
    phases can fall in different machine-speed phases.
    """
    import tracing

    plain, _ = run_passes(items, budget / 2, cli)
    traced_outcomes, tracers = run_passes(items, budget / 2, cli, tracing.Tracer)
    n = len(items)
    per_pass = []
    for k, tracer in enumerate(tracers):
        chunk = traced_outcomes[k * n:(k + 1) * n]
        speed = sum(o.seconds for o in chunk) / sum(o.wall for o in chunk)
        per_pass.append({name: value * speed if tracing.is_time(name) else value
                         for name, value in tracer.metrics().items()})
    metrics = tracing.median_metrics(per_pass)
    untraced_pass = statistics.median(
        sum(o.seconds for o in plain[k:k + n]) for k in range(0, len(plain), n))
    traced_pass = statistics.median(
        sum(o.seconds for o in traced_outcomes[k:k + n]) for k in range(0, len(traced_outcomes), n))
    metrics["trace.untraced_pass_s"] = untraced_pass
    metrics["trace.traced_pass_s"] = traced_pass
    metrics["trace.overhead_s"] = traced_pass - untraced_pass
    span_dir.mkdir(parents=True, exist_ok=True)
    spans = sum(t.dump(span_dir / f"{tag}-pass{k}.tsv.gz") for k, t in enumerate(tracers))
    print(f"# {spans} spans from {len(tracers)} traced pass(es) written to {span_dir}/{tag}-pass*.tsv.gz")
    return plain + traced_outcomes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-grid", "obstructed", "verify-roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qcorona" / "__init__.py").is_file():
        print(f"error: no qcorona sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qcorona.cli as cli
    import workloads

    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    try:
        items, setup_s, setup_wall = setup(args.workload, args.seed, workdir,
                                           1 if args.trace else SETUP_REPEATS)
        warm = workloads.warmup_item(workdir / "warm-up", INSTANCES)
        warm_outcome = check(warm, *run_item(warm, cli)[1:], 0.0)
        if args.trace:
            outcomes, metrics = traced(items, args.seconds, cli, OUT / "trace", tag)
            units = metric_units("per_layer")
        else:
            outcomes, _ = run_passes(items, args.seconds, cli)
            metrics = end_to_end(outcomes, setup_s)
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # attempted and failed count the timed items; a failed warm-up item
    # makes the run incorrect on its own.
    failed = [o for o in outcomes if not o.ok]
    undecided = sum(o.note == "undecided" for o in outcomes)
    unfinished = sum(not (o.decided and o.ok) for o in outcomes)
    print(f"# workload {args.workload}, seed {args.seed}, {len(items)} items per pass, "
          f"{len(outcomes)} timed items, {undecided} undecided, {len(failed)} failed checks; "
          f"fail_frac (undecided or failed) {unfinished / len(outcomes):.4f}")
    for o in ([] if warm_outcome.ok else [warm_outcome]) + failed[:5]:
        print("# FAILED: " + " | ".join(o.note.splitlines()))
    if not args.trace:
        walls = [o.wall for o in outcomes]
        print(f"# wall clock: setup_s {setup_wall:.6g}, items_per_s {len(walls) / sum(walls):.6g}, "
              f"latency_p50_ms {statistics.median(walls) * 1000:.6g}; "
              f"median slowdown {statistics.median(o.wall / o.seconds for o in outcomes):.4g}")
        t = tail([o.seconds for o in outcomes])
        if t:
            print(f"# latency p{t[0]:g} {t[1] * 1000:.3f} ms ({len(outcomes)} samples, {t[2]} beyond)")
        else:
            print(f"# latency tail omitted: {len(outcomes)} samples are too few")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": warm_outcome.ok and not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
