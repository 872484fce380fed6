"""Seeded inputs for the three workloads.

Each workload is a list of items; one item is one call of the public CLI
entry point, qcorona.cli.main, on files the set-up step wrote.  Every item
carries its construction label (the answer it must get) and what the
independent check in oracle.py needs.  build() draws the inputs;
write_inputs() writes them through qcorona.formats, and only that part is
timed as set-up.  Why each workload exists, and which grid cells were left
out, is written down in README.md.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Union

from qcorona import formats, generate
from qcorona.corona import CoronaInstance, CoronaSolution
from qcorona.hpoly import HP_Q, HPoly
from qcorona.polymatrix import FullRankCertificate
from qcorona.scalars import Quat

import oracle

# (n, degree, draws) on the grid n in {2,3,4} x degree in {1,2,3,5}.  With
# the shipped instances, eight items are cheaper than a (3,1) solve and
# eight dearer, so the latency median sits in the middle of the five (3,1)
# draws instead of on the edge between two groups of different cost.  The
# costly cells get two draws so that one unusually cheap or dear draw does
# not set a run's throughput.
GRID = (
    (2, 1, 3), (2, 2, 2), (3, 1, 5), (2, 3, 2),
    (3, 2, 2), (4, 1, 2), (2, 5, 2),
)
# Left out because their solves would take most of a run (seconds per solve
# at the seed commit): (3,3) 3.3-5.8 s, (3,5) 15 s, (4,2) 5.5-7 s, (4,3) 15 s,
# (4,5) not finished.
SHIPPED_SOLVABLE = ("easy.inst", "hard.inst", "triple.inst")

# obstructed: (degree, index into generate.RATIONAL_AXES) of each planted
# n=2 family.  Degree 1 on every rational axis and degree 2 on i, j and k,
# so every seed has the same mix of planted points; the seed draws the g_l.
# Degree 3 is left out: one family adds about 5 s to the pass, and its draw
# alone made throughput spread from seed to seed.
PLANTED = tuple((1, k) for k in range(len(generate.RATIONAL_AXES))) + ((2, 0), (2, 1), (2, 2))
UNITS = (Quat(1, 0, 0, 0), Quat(0, 1, 0, 0), Quat(0, 0, 1, 0), Quat(0, 0, 0, 1))

# verify-roundtrip: n, degree of the f_l drawn at random, degree of the h_l,
# and bit sizes of the h_l coefficients, chosen to resemble solve outputs.
VERIFY_F_DEGREE = 3
VERIFY_H_DEGREE = 40
# (n, bits, draws): six items are cheaper than an (n=3, 256-bit) pair and
# six dearer, so the latency median sits inside that group.
VERIFY = ((2, 256, 1), (2, 768, 2), (3, 256, 2), (2, 1536, 1), (3, 768, 1), (3, 1536, 1))

I = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
J = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
K = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))


@dataclass
class Item:
    """One CLI call and the answer its construction demands.

    expect is "solved" or "obstruction" for solve items, "PASS" or "FAIL"
    for verify items.  source is what write_inputs() puts at the input path
    argv[1]: an instance to serialize, or a shipped file to copy.  prepare,
    when set, runs inside the timed region just before the call; verify
    items use it to serialize and write their files.
    """

    name: str
    expect: str
    argv: list[str]
    fs: list = field(default_factory=list)
    planted: Optional[tuple] = None
    prepare: Optional[Callable[[], int]] = None
    source: Union[CoronaInstance, Path, None] = None


def _hpoly(f) -> HPoly:
    return HPoly([Quat(*c) for c in f])


def _tuples(f: HPoly) -> list:
    return [c.components() for c in f.coeffs]


def _solve_item(name, expect, inst: Path, source, fs, planted=None) -> Item:
    sol = inst.with_suffix(".sol")
    return Item(name, expect, ["solve", str(inst), "-o", str(sol)], fs, planted, source=source)


def _shipped_item(instances: Path, out: Path, name: str, expect: str, planted=None) -> Item:
    shipped = instances / name
    fs = list(oracle.parse_polys(shipped.read_text(encoding="utf-8")).values())
    return _solve_item(name, expect, out / name, shipped, fs, planted)


def _instance_item(name, expect, inst: Path, fs, planted=None) -> Item:
    source = CoronaInstance.from_polys([_hpoly(f) for f in fs])
    return _solve_item(name, expect, inst, source, fs, planted)


def solve_grid(rng: random.Random, out: Path, instances: Path) -> list[Item]:
    items = []
    for n, d, draws in GRID:
        for copy in range(draws):
            while True:
                fs = [_tuples(f) for f in generate.random_coprime_instance(rng, n, d).fs]
                if oracle.sphere_free(fs):
                    break
            stem = f"grid-n{n}-d{d}-{copy}"
            items.append(_instance_item(stem, "solved", out / f"{stem}.inst", fs))
    items += [_shipped_item(instances, out, name, "solved") for name in SHIPPED_SOLVABLE]
    return items


def _minus(c):
    return [tuple(-x for x in c), oracle.ONE]


def _unit_hpoly(rng: random.Random, degree: int) -> HPoly:
    """Every coefficient one of +-1, +-i, +-j, +-k.

    Drawn g_l of this shape keep the cost of deciding a family within a
    narrow band for each planted point; g_l with random fractions spread it
    over a factor of two from seed to seed.
    """
    return HPoly([rng.choice(UNITS) * rng.choice((1, -1)) for _ in range(degree + 1)])


def obstructed(rng: random.Random, out: Path, instances: Path) -> list[Item]:
    """Families with a planted common zero c: f_l = (q - c) * g_l."""
    items = []
    for d, axis in PLANTED:
        c = generate.RATIONAL_AXES[axis]
        q_c = HP_Q - HPoly.const(c)
        # The g_l share no sphere with each other or with c, so c's sphere
        # is the family's only common one and the obstruction has the same
        # degree for every seed.
        while True:
            gs = [_unit_hpoly(rng, d - 1) for _ in range(2)]
            tuples = [_tuples(g) for g in gs]
            if d == 1 or (oracle.sphere_free(tuples)
                          and all(oracle.sphere_free([g, _tuples(q_c)]) for g in tuples)):
                break
        fs = [_tuples(q_c * g) for g in gs]
        stem = f"planted-n2-d{d}-{axis}"
        items.append(_instance_item(stem, "obstruction", out / f"{stem}.inst", fs, c.components()))
    items.append(_shipped_item(instances, out, "dup.inst", "obstruction", J))
    qi = _minus(I)
    fs = [qi, oracle.star(qi, _minus(J)), oracle.star(qi, _minus(K))]
    # The long n=3 item goes mid-pass, so the short items that set the
    # latency median are timed both before and after it.
    n3 = _instance_item("planted-n3-ijk", "obstruction", out / "planted-n3-ijk.inst", fs, I)
    items.insert(len(items) // 2, n3)
    return items


def _big_poly(rng: random.Random, degree: int, bits: int) -> list:
    """Coefficients over one large common denominator, like a Cramer solve's."""
    den = rng.getrandbits(bits) | (1 << (bits - 1))
    return [
        tuple(
            Fraction(rng.getrandbits(bits) - (1 << (bits - 1)), den * rng.randint(1, 9))
            for _ in range(4)
        )
        for _ in range(degree + 1)
    ]


def _verify_item(name, expect, base: Path, fs, hs) -> Item:
    inst_path, sol_path = base.with_suffix(".inst"), base.with_suffix(".sol")
    inst = CoronaInstance.from_polys([_hpoly(f) for f in fs])
    sol = CoronaSolution(
        tuple(_hpoly(h) for h in hs), FullRankCertificate((), (), (), 0), None
    )

    def prepare() -> int:
        inst_text = formats.serialize_instance(inst)
        sol_text = formats.serialize_solution(sol)
        inst_path.write_text(inst_text, encoding="utf-8")
        sol_path.write_text(sol_text, encoding="utf-8")
        return len(inst_text) + len(sol_text)

    return Item(name, expect, ["verify", str(inst_path), str(sol_path)], fs, None, prepare)


def verify_roundtrip(rng: random.Random, out: Path, instances: Path) -> list[Item]:
    """Solution files built without the solver, each with a tampered copy.

    f_1..f_{n-1} and h_1..h_{n-1} are random, f_n = 1 - sum f_l h_l and
    h_n = 1.  The copy changes one coefficient of one h_l by one, which
    breaks the identity because every f_l is nonzero.
    """
    items = []
    for n, bits, draws in VERIFY:
        for copy in range(draws):
            fs = [_tuples(generate.random_hpoly(rng, VERIFY_F_DEGREE)) for _ in range(n - 1)]
            hs = [_big_poly(rng, VERIFY_H_DEGREE, bits) for _ in range(n - 1)]
            rest = [oracle.ONE]
            for f, h in zip(fs, hs):
                rest = oracle.padd(rest, [tuple(-x for x in c) for c in oracle.star(f, h)])
            fs.append(rest)
            hs.append([oracle.ONE])
            tampered = [list(h) for h in hs]
            ell = rng.randrange(n)
            m = rng.randrange(len(tampered[ell]))
            comp = rng.randrange(4)
            coeff = list(tampered[ell][m])
            coeff[comp] += 1
            tampered[ell][m] = tuple(coeff)
            stem = f"roundtrip-n{n}-b{bits}-{copy}"
            items.append(_verify_item(stem, "PASS", out / stem, fs, hs))
            items.append(_verify_item(stem + "-tampered", "FAIL", out / (stem + "-t"), fs, tampered))
    return items


BUILDERS = {
    "solve-grid": solve_grid,
    "obstructed": obstructed,
    "verify-roundtrip": verify_roundtrip,
}


def build(workload: str, seed: int, out: Path, instances: Path) -> list[Item]:
    """The workload's items for a seed; their input files are not written yet."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), out, instances)


def write_inputs(items: list[Item]) -> float:
    """Write each item's input file; returns the seconds it took."""
    start = time.perf_counter()
    for item in items:
        path = Path(item.argv[1])
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(item.source, CoronaInstance):
            path.write_text(formats.serialize_instance(item.source), encoding="utf-8")
        elif item.source is not None:
            shutil.copyfile(item.source, path)
    return time.perf_counter() - start


def warmup_item(out: Path, instances: Path) -> Item:
    """A cheap solve run once, untimed, before measuring."""
    item = _shipped_item(instances, out, "easy.inst", "solved")
    item.name = "warm-up"
    write_inputs([item])
    return item
