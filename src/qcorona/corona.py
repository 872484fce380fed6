"""Constructive solution of f1*h1 + ... + fn*hn = 1.

The extended right Euclidean algorithm in H[q] (hpoly.right_bezout)
decides.  It returns the monic generator g of the right ideal of the
family.  When g != 1 no solution exists: g left-divides every f_l and lies
in their right ideal, so its zeros are exactly the family's common zeros,
and they are named from its symmetrization.

When g = 1 the paper's construction solves (koszul_solve), and it runs
only on families Euclid has proved solvable.  Every HPoly is stored as its
split f = F + G j on the fixed slice, so the construction reads the
interleaved vector p = (F1, G1, ..., Fn, Gn) directly: certify that the
stacked Koszul matrix (A, -B) has full rank everywhere from the minors of
the rank argument, solve the first split equation <p, u> = 1 with a Bezout
combination, correct u through the (A, -B) system so the second equation
holds too, assemble each h_l = H_l + K_l j from the corrected vector and
re-verify the identity by exact coefficient equality.  Those minors are
coprime for every family without common zeros, so a certificate that
fails to close is an internal error, never an obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from .cpoly import CPoly, bezout_multi, dot
from .hpoly import (
    HP_ONE,
    HPoly,
    RightBezout,
    Sphere,
    SphereZero,
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
class CoronaSolution:
    """The h_l, with the minor certificate they were solved under (may be empty).

    remainders is the remainder sequence of the right Euclid that decided
    the family, which solve_corona fills in; it is None where no Euclid
    ran, as in koszul_solve alone and in a solution parsed from a file.
    """

    hs: tuple[HPoly, ...]
    certificate: FullRankCertificate
    remainders: Optional[tuple[HPoly, ...]]


def verify_identity(fs: Sequence[HPoly], hs: Sequence[HPoly]) -> bool:
    """Exact check that sum f_l * h_l equals the constant one."""
    return dot(fs, hs) == HP_ONE


def decide(inst: CoronaInstance) -> Union[RightBezout, CommonZeroObstruction]:
    """Right Euclid: its Bezout data when the family generates the unit, else the obstruction."""
    inst.check_not_all_zero()
    euclid = right_bezout(inst.fs)
    if euclid.gcd != HP_ONE:
        return CommonZeroObstruction(euclid.gcd.symmetrize().F, euclid.gcd)
    return euclid


def solve_corona(inst: CoronaInstance) -> Union[CoronaSolution, CommonZeroObstruction]:
    """Decide by right Euclid, solve by the Koszul construction; solutions are re-verified."""
    decision = decide(inst)
    if isinstance(decision, CommonZeroObstruction):
        return decision
    return replace(koszul_solve(inst), remainders=decision.remainders)


# ---------------------------------------------------------------------------
# The paper's Koszul construction


def particular_solution(p: Sequence[CPoly]) -> list[CPoly]:
    """Vector u with <p, u> = 1 for p = (F1, G1, ..., Fn, Gn), from a Bezout combination.

    Odd slots of u play the H components, even slots the negated hatted K
    components of the first split equation.
    """
    gcd, witnesses = bezout_multi(p)
    if not gcd.is_one():
        raise ValueError(
            f"split components share the slice zeros of {gcd}; no solution exists"
        )
    return witnesses


def correct_and_assemble(
    u: Sequence[CPoly], pair: SyzygyPair, cert: FullRankCertificate
) -> list[HPoly]:
    """Fix up a first-equation solution so both split equations hold.

    Solving (A, -B) (alpha; beta) = hat_swap(u) and adding A*hat(beta) to u
    leaves the first equation untouched (columns of A are syzygies) and
    makes the hat-swapped vector land in the column span of A, which is the
    second equation.  Each h_l is then assembled from its split
    H_l + K_l j.
    """
    h_rhs = hat_swap(u)
    x = solve_full_rank(pair.combined, h_rhs, cert)
    beta = x[pair.A.cols:]
    correction = pair.A.mul_vector([b.hat() for b in beta])
    v = [ui + ci for ui, ci in zip(u, correction)]

    first = dot(pair.p, v)
    second = dot(pair.p, hat_swap(v))
    if not first.is_one() or not second.is_zero():
        raise InternalCheckError("corrected vector does not satisfy the split system")

    return [HPoly.from_split(h, (-k).hat()) for h, k in zip(v[0::2], v[1::2])]


def koszul_solve(inst: CoronaInstance) -> CoronaSolution:
    """The paper's split/Koszul construction for a family Euclid proved solvable.

    The certificate comes from the rank-argument minors of
    syzygy.certificate_column_order, which are coprime for every family
    without common zeros.  If their gcd stays nonconstant the family has a
    common zero that the caller should have ruled out, and
    InternalCheckError is raised.  Every returned solution is re-verified.
    """
    inst.check_not_all_zero()
    pair = build_koszul(inst.fs)
    cert = minor_gcd_certificate(pair.combined, certificate_column_order(pair))
    if isinstance(cert, RankObstruction):
        raise InternalCheckError(
            f"rank-argument minors share the factor {cert.gcd} after {cert.minors_examined} minors"
        )
    u = particular_solution(pair.p)
    hs = correct_and_assemble(u, pair, cert)
    if not verify_identity(inst.fs, hs):
        raise InternalCheckError("assembled solution failed the star identity")
    return CoronaSolution(tuple(hs), cert, None)


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
