"""Spans and counts around qcorona's public functions, installed from outside.

Tracer.install() replaces selected functions and methods of the qcorona
modules with recording wrappers (every module attribute bound to a wrapped
function is replaced, so calls through `from .x import f` names are seen
too); uninstall() puts the originals back.  Nothing under src/ changes.

A span is (name, start, end, parent).  Spans live in compact arrays while
the run lasts and are written out by dump().  A span's self time is its
duration minus the time covered by its child spans.  Layers are named after
the modules.
"""

from __future__ import annotations

import gzip
import statistics
import time
from array import array
from collections import Counter

import qcorona.cli
import qcorona.corona
import qcorona.cpoly
import qcorona.formats
import qcorona.hpoly
import qcorona.polymatrix
import qcorona.scalars
import qcorona.syzygy
from qcorona.cpoly import CPoly
from qcorona.hpoly import HPoly
from qcorona.polymatrix import MinorBudgetExceeded
from qcorona.scalars import GaussRat, Quat

MODULES = (
    qcorona.scalars, qcorona.cpoly, qcorona.hpoly, qcorona.polymatrix,
    qcorona.syzygy, qcorona.corona, qcorona.formats, qcorona.cli,
)

# Span name -> (owner, attribute).  Methods get the layer's own name.
SPANNED = {
    "cpoly.mul": (CPoly, "__mul__"),
    "cpoly.divmod": (CPoly, "__divmod__"),
    "cpoly.gcd_monic": (qcorona.cpoly, "gcd_monic"),
    "cpoly.bezout_multi": (qcorona.cpoly, "bezout_multi"),
    "hpoly.star": (HPoly, "__mul__"),
    "hpoly.split": (HPoly, "split"),
    "hpoly.real_poly_sphere_factors": (qcorona.hpoly, "real_poly_sphere_factors"),
    "hpoly.zeros_on_sphere": (qcorona.hpoly, "zeros_on_sphere"),
    "polymatrix.det_bareiss": (qcorona.polymatrix, "det_bareiss"),
    "polymatrix.minor_gcd_certificate": (qcorona.polymatrix, "minor_gcd_certificate"),
    "polymatrix.solve_full_rank": (qcorona.polymatrix, "solve_full_rank"),
    "syzygy.build_koszul": (qcorona.syzygy, "build_koszul"),
    "corona.solve_corona": (qcorona.corona, "solve_corona"),
    "corona.particular_solution": (qcorona.corona, "particular_solution"),
    "corona.correct_and_assemble": (qcorona.corona, "correct_and_assemble"),
    "corona.verify_identity": (qcorona.corona, "verify_identity"),
    "corona.diagnose_common_zero": (qcorona.corona, "diagnose_common_zero"),
    "formats.serialize_instance": (qcorona.formats, "serialize_instance"),
    "formats.serialize_solution": (qcorona.formats, "serialize_solution"),
    "formats.parse_instance": (qcorona.formats, "parse_instance"),
    "formats.parse_solution": (qcorona.formats, "parse_solution"),
    "cli.main": (qcorona.cli, "main"),
}
COUNTED = {
    "scalars.gaussrat": (GaussRat, "__init__"),
    "scalars.quat": (Quat, "__init__"),
}
# Spans whose results carry a coefficient size worth recording.
MAX_BITS = ("cpoly.bezout_multi", "polymatrix.solve_full_rank", "corona.particular_solution")

# solve_corona is reported inclusive (corona.solve_corona.s); every other
# span by its self time.
SELF_TIMES = tuple(name for name in SPANNED if name != "corona.solve_corona")
SPAN_COUNTS = ("cpoly.mul", "cpoly.divmod", "cpoly.gcd_monic", "hpoly.star", "polymatrix.det_bareiss")


def _bits(value) -> int:
    """Largest numerator or denominator bit length in a CPoly or a list of them."""
    if isinstance(value, CPoly):
        return max(
            (max(x.numerator.bit_length(), x.denominator.bit_length())
             for c in value.coeffs for x in (c.re, c.im)),
            default=0,
        )
    if isinstance(value, (list, tuple)):
        return max((_bits(v) for v in value), default=0)
    return 0


class Tracer:
    """Records spans and counters while installed; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = list(SPANNED)
        self.name_id = {name: k for k, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_bits: Counter = Counter()
        self.kept_state: list[bool] = []  # per open certificate: a nonzero minor seen
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name, (owner, attr) in SPANNED.items():
            self._replace(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for name, (owner, attr) in COUNTED.items():
            self._replace(owner, attr, self._count_wrapper(name, getattr(owner, attr)))
        gen = qcorona.syzygy.certificate_column_order
        self._replace(qcorona.syzygy, "certificate_column_order", self._counting_generator(gen))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper) -> None:
        original = getattr(owner, attr)
        targets = [owner]
        if not isinstance(owner, type):
            # Also rebind names other modules imported with `from .mod import f`.
            targets += [m for m in MODULES if m is not owner and getattr(m, attr, None) is original]
        for target in targets:
            self._saved.append((target, attr, original))
            setattr(target, attr, wrapper)

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_generator(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for value in fn(*args, **kwargs):
                counts["syzygy.certificate_column_order.yielded"] += 1
                yield value

        return wrapper

    def _span_wrapper(self, name, fn):
        nid = self.name_id[name]
        stack, clock = self.stack, time.perf_counter
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        observe = self._observer(name)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except MinorBudgetExceeded:
                if name == "corona.solve_corona":
                    self.counts["corona.undecided"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, result)
            return result

        if name == "polymatrix.minor_gcd_certificate":
            def certificate(*args, **kwargs):
                self.kept_state.append(False)
                try:
                    return wrapper(*args, **kwargs)
                finally:
                    self.kept_state.pop()
            return certificate
        return wrapper

    def _parent_is_certificate(self, idx: int) -> bool:
        parent = self.span_parent[idx]
        return parent >= 0 and self.names[self.span_name[parent]] == "polymatrix.minor_gcd_certificate"

    def _observer(self, name):
        """Hook run after a span closes, for counts that need its arguments or result."""
        if name in MAX_BITS:
            key = name

            def bits(idx, args, result):
                self.max_bits[key] = max(self.max_bits[key], _bits(result))
            return bits
        if name == "polymatrix.det_bareiss":
            # The certificate keeps its first nonzero minor unconditionally.
            def first_minor(idx, args, result):
                if self._parent_is_certificate(idx) and not result.is_zero() and not self.kept_state[-1]:
                    self.kept_state[-1] = True
                    self.counts["polymatrix.minors_kept"] += 1
            return first_minor
        if name == "cpoly.gcd_monic":
            # Later minors are kept exactly when they shrink the running gcd.
            def shrink(idx, args, result):
                if self._parent_is_certificate(idx) and result != args[0]:
                    self.counts["polymatrix.minors_kept"] += 1
            return shrink
        return None

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[list[float], list[float]]:
        """Per-span durations and self times."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        durations = [e - s for s, e in zip(starts, ends)]
        covered = [0.0] * len(durations)
        for idx, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += durations[idx]
        return durations, [d - c for d, c in zip(durations, covered)]

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over everything this tracer recorded."""
        durations, selfs = self.self_times()
        out: dict[str, float] = {}
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = 0.0
        for name in SPAN_COUNTS:
            out[f"{name}.count"] = 0
        for under in ("under_certificate", "under_solve"):
            out[f"polymatrix.det_bareiss.{under}.count"] = 0
            out[f"polymatrix.det_bareiss.{under}.self_s"] = 0.0
            out[f"polymatrix.det_bareiss.{under}.s"] = 0.0
        out["corona.solve_corona.s"] = 0.0
        parent_kind = {
            self.name_id["polymatrix.minor_gcd_certificate"]: "under_certificate",
            self.name_id["polymatrix.solve_full_rank"]: "under_solve",
        }
        det_id = self.name_id["polymatrix.det_bareiss"]
        solve_id = self.name_id["corona.solve_corona"]
        for idx, nid in enumerate(self.span_name):
            name = self.names[nid]
            if name in SELF_TIMES:
                out[f"{name}.self_s"] += selfs[idx]
            if name in SPAN_COUNTS:
                out[f"{name}.count"] += 1
            if nid == solve_id:
                out["corona.solve_corona.s"] += durations[idx]
            elif nid == det_id:
                parent = self.span_parent[idx]
                under = parent_kind.get(self.span_name[parent]) if parent >= 0 else None
                if under:
                    out[f"polymatrix.det_bareiss.{under}.count"] += 1
                    out[f"polymatrix.det_bareiss.{under}.self_s"] += selfs[idx]
                    out[f"polymatrix.det_bareiss.{under}.s"] += durations[idx]
        examined = out["polymatrix.det_bareiss.under_certificate.count"]
        kept = self.counts["polymatrix.minors_kept"]
        out["polymatrix.minors_examined"] = examined
        out["polymatrix.minors_kept"] = kept
        out["polymatrix.minor_yield"] = kept / examined if examined else 0.0
        out["scalars.gaussrat.count"] = self.counts["scalars.gaussrat"]
        out["scalars.quat.count"] = self.counts["scalars.quat"]
        out["syzygy.certificate_column_order.yielded"] = self.counts[
            "syzygy.certificate_column_order.yielded"
        ]
        out["corona.undecided.count"] = self.counts["corona.undecided"]
        for name in MAX_BITS:
            out[f"{name}.max_bits"] = self.max_bits[name]
        return out

    def dump(self, path) -> int:
        """Write every span recorded so far as gzipped TSV; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for idx in range(len(self.span_start)):
                fh.write(
                    f"{idx}\t{self.names[self.span_name[idx]]}\t{self.span_start[idx]:.9f}"
                    f"\t{self.span_end[idx]:.9f}\t{self.span_parent[idx]}\n"
                )
        return len(self.span_start)


def is_time(name: str) -> bool:
    """Whether a metric from metrics() is a time in seconds."""
    return name.endswith("_s") or name.endswith(".s")


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """One value per metric over several traced passes of the same items.

    Counts and sizes repeat exactly from pass to pass and are taken as they
    are; times are medians.
    """
    out = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        out[key] = statistics.median(values) if is_time(key) else values[0]
    return out
