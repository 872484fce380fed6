"""Constructive solution of f1*h1 + ... + fn*hn = 1.

The extended right Euclidean algorithm in H[q] (hpoly.right_bezout)
decides.  It returns the monic generator g of the right ideal of the
family.  When g != 1 no solution exists: g left-divides every f_l and lies
in their right ideal, so its zeros are exactly the family's common zeros,
and they are named from its symmetrization.

When g = 1 the paper's construction solves (koszul_solve): split the
inputs onto the fixed slice, certify that the stacked Koszul matrix
(A, -B) has full rank everywhere via the minor-gcd certificate, solve the
first split equation with a Bezout combination, correct it through the
(A, -B) system so the second equation holds too, reassemble, extend off
the slice and re-verify the identity by exact coefficient equality.  The
Euclid decision guarantees the certificate exists, so the enumeration
runs without a budget; a Koszul obstruction after it is an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from .cpoly import CPoly, bezout_multi
from .hpoly import (
    HP_ONE,
    HPoly,
    RightBezout,
    Sphere,
    SphereZero,
    SplitPair,
    real_poly_sphere_factors,
    right_bezout,
    zeros_on_sphere,
)
from .polymatrix import (
    FullRankCertificate,
    RankObstruction,
    minor_gcd_certificate,
    solve_full_rank,
)
from .scalars import Quat
from .syzygy import (
    SyzygyPair,
    build_koszul,
    certificate_column_order,
    hat_swap,
    interleave_splits,
)


@dataclass(frozen=True)
class CoronaInstance:
    """A family of quaternionic polynomials, at least one nonzero."""

    fs: tuple[HPoly, ...]
    names: tuple[str, ...]

    @classmethod
    def from_polys(cls, fs: Sequence[HPoly], names: Optional[Sequence[str]] = None) -> "CoronaInstance":
        fs = tuple(fs)
        if names is None:
            names = tuple(f"f{k + 1}" for k in range(len(fs)))
        else:
            names = tuple(names)
            if len(names) != len(fs):
                raise ValueError("one name per polynomial")
        return cls(fs, names)

    @property
    def n(self) -> int:
        return len(self.fs)

    def degrees(self) -> tuple[int, ...]:
        return tuple(f.degree for f in self.fs)

    def check_not_all_zero(self) -> None:
        if not self.fs:
            raise ValueError("empty instance")
        if all(f.is_zero() for f in self.fs):
            raise ValueError("all polynomials are zero")


@dataclass(frozen=True)
class CommonZeroObstruction:
    """The family generates a proper right ideal, so the unit is out of reach.

    generator is the monic generator g of that ideal; its zeros are exactly
    the common zeros of the family.  gcd is the monic real slice polynomial
    of g's symmetrization, whose roots are the slice points of the spheres
    carrying those zeros.
    """

    gcd: CPoly
    generator: HPoly


class InternalCheckError(RuntimeError):
    """A mandatory exact post-check failed; indicates a convention bug."""


@dataclass(frozen=True)
class SolveTrace:
    """The Euclid remainder sequence of one solver run, kept for inspection."""

    remainders: tuple[HPoly, ...]


@dataclass(frozen=True)
class CoronaSolution:
    """The h_l, with the minor certificate they were solved under (may be empty)."""

    hs: tuple[HPoly, ...]
    certificate: FullRankCertificate
    trace: Optional[SolveTrace]

    def h_degrees(self) -> tuple[int, ...]:
        return tuple(h.degree for h in self.hs)


def verify_identity(fs: Sequence[HPoly], hs: Sequence[HPoly]) -> bool:
    """Exact check that sum f_l * h_l equals the constant one."""
    acc = HPoly()
    for f, h in zip(fs, hs):
        acc = acc + f * h
    return acc == HP_ONE


def decide(inst: CoronaInstance) -> Union[RightBezout, CommonZeroObstruction]:
    """Right Euclid: its Bezout data when the family generates the unit, else the obstruction."""
    inst.check_not_all_zero()
    euclid = right_bezout(inst.fs)
    if euclid.gcd != HP_ONE:
        return CommonZeroObstruction(euclid.gcd.symmetrize().split().F, euclid.gcd)
    return euclid


def solve_corona(inst: CoronaInstance) -> Union[CoronaSolution, CommonZeroObstruction]:
    """Decide by right Euclid, solve by the Koszul construction; solutions are re-verified."""
    decision = decide(inst)
    if isinstance(decision, CommonZeroObstruction):
        return decision
    outcome = koszul_solve(inst)
    if isinstance(outcome, RankObstruction):
        raise InternalCheckError("Koszul minors share a zero the Euclid generator rules out")
    return replace(outcome, trace=SolveTrace(decision.remainders))


# ---------------------------------------------------------------------------
# The paper's Koszul construction


def particular_solution(splits: Sequence[SplitPair]) -> list[CPoly]:
    """Vector u with <(F1, G1, ..., Fn, Gn), u> = 1 from a Bezout combination.

    Odd slots of u play the H components, even slots the negated hatted K
    components of the first split equation.
    """
    p = interleave_splits(splits)
    gcd, witnesses = bezout_multi(p)
    if not gcd.is_one():
        raise ValueError(
            f"split components share the slice zeros of {gcd}; no solution exists"
        )
    return witnesses


def correct_and_assemble(
    splits: Sequence[SplitPair],
    u: Sequence[CPoly],
    pair: SyzygyPair,
    cert: FullRankCertificate,
) -> list[HPoly]:
    """Fix up a first-equation solution so both split equations hold.

    Solving (A, -B) (alpha; beta) = hat_swap(u) and adding A*hat(beta) to u
    leaves the first equation untouched (columns of A are syzygies) and
    makes the hat-swapped vector land in the column span of A, which is the
    second equation.  Components are then reassembled and extended.
    """
    h_rhs = hat_swap(u)
    x = solve_full_rank(pair.combined(), h_rhs, cert)
    beta = x[pair.A.cols:]
    correction = pair.A.mul_vector([b.hat() for b in beta])
    v = [ui + ci for ui, ci in zip(u, correction)]

    p = interleave_splits(splits)
    first = sum((pi * vi for pi, vi in zip(p, v)), CPoly())
    second = sum((pi * wi for pi, wi in zip(p, hat_swap(v))), CPoly())
    if not first.is_one() or not second.is_zero():
        raise InternalCheckError("corrected vector does not satisfy the split system")

    hs = []
    for ell in range(len(splits)):
        h_comp = v[2 * ell]
        k_comp = (-v[2 * ell + 1]).hat()
        hs.append(SplitPair(h_comp, k_comp).extend())
    return hs


def koszul_solve(inst: CoronaInstance) -> Union[CoronaSolution, RankObstruction]:
    """The paper's split/Koszul construction; every returned solution is re-verified.

    A found certificate proves the stacked matrix has full rank at every
    point, which rules out common zeros; a common zero forces every maximal
    minor to vanish at the matching slice point, so the obstruction gcd
    stays nonconstant.  The minors are enumerated without a budget.
    """
    inst.check_not_all_zero()
    pair = build_koszul(inst.fs)
    outcome = minor_gcd_certificate(
        pair.combined(),
        budget=None,
        column_order=certificate_column_order(pair),
    )
    if isinstance(outcome, RankObstruction):
        return outcome
    u = particular_solution(pair.splits)
    hs = correct_and_assemble(pair.splits, u, pair, outcome)
    if not verify_identity(inst.fs, hs):
        raise InternalCheckError("assembled solution failed the star identity")
    return CoronaSolution(tuple(hs), outcome, None)


# ---------------------------------------------------------------------------
# Diagnosis of obstructed instances


@dataclass(frozen=True)
class SphereDiagnosis:
    """Zero structure of every input polynomial on one obstructing sphere."""

    sphere: Sphere
    per_poly: tuple[SphereZero, ...]
    common_points: tuple[Quat, ...]
    whole_sphere: bool


@dataclass(frozen=True)
class DiagnosisReport:
    entries: tuple[SphereDiagnosis, ...]
    unresolved: CPoly  # real-coefficient factor with no rational sphere data

    def found_common_zero(self) -> bool:
        return any(e.whole_sphere or e.common_points for e in self.entries)


def diagnose_common_zero(
    inst: CoronaInstance, obstruction: CommonZeroObstruction
) -> DiagnosisReport:
    """Name the common zeros behind an obstruction when the data is rational.

    The obstruction gcd is a real polynomial whose roots are the slice
    points of the obstructing spheres; its rational sphere factors are
    extracted exactly.  Each such sphere is then resolved against every
    input polynomial.  Factors without rational sphere data are reported
    unresolved instead of being approximated.
    """
    spheres, unresolved = real_poly_sphere_factors(obstruction.gcd)
    entries = []
    for sphere, _ in spheres:
        per_poly = tuple(zeros_on_sphere(f, sphere) for f in inst.fs)
        whole = all(res.kind == "spherical" for res in per_poly)
        common: tuple[Quat, ...] = ()
        if not whole and all(res.kind != "none" for res in per_poly):
            points = {res.point for res in per_poly if res.kind == "point"}
            if len(points) == 1:
                common = (points.pop(),)
        entries.append(SphereDiagnosis(sphere, per_poly, common, whole))
    return DiagnosisReport(tuple(entries), unresolved)
