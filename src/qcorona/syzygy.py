"""Koszul syzygy matrices for split polynomial vectors, and their quaternionic
counterparts.

An HPoly f_l is stored as its split F_l + G_l j, so a family of n
quaternionic polynomials gives the length-2n vector
P = (F1, G1, ..., Fn, Gn) directly; SyzygyPair keeps it as p, and the
stacked system matrix (A, -B) as combined.  Matrix A
collects the standard Koszul relations of P, one column per index pair;
matrix B is obtained from A by the hat-swap operator and collects (up to
sign) the Koszul relations of the swapped vector
W = (-hat(G1), hat(F1), ..., -hat(Gn), hat(Fn)).  Taking B columnwise from
A is exactly what makes the linkage identity
hat_swap(A * hat(beta)) = B * beta hold with no sign bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .cpoly import CP_ZERO, CPoly, dot
from .hpoly import HPoly
from .polymatrix import PolyMatrix


def hat_swap(v: Sequence[CPoly]) -> list[CPoly]:
    """Map (v1, v2, v3, v4, ...) to (-hat(v2), hat(v1), -hat(v4), hat(v3), ...).

    Applied to a solution of the first split equation this produces the
    vector that the second split equation constrains to be a syzygy; applied
    twice it gives -v.
    """
    if len(v) % 2:
        raise ValueError("hat_swap needs a vector of even length")
    out = []
    for first, second in zip(v[0::2], v[1::2]):
        out.append(-second.hat())
        out.append(first.hat())
    return out


def koszul_matrix(vec: Sequence[CPoly]) -> PolyMatrix:
    """Matrix whose columns are the standard relations v_s e_r - v_r e_s.

    Column order is lexicographic in the pair (r, s), r < s; every column is
    annihilated by the dot product with vec.
    """
    m = len(vec)
    pairs = list(combinations(range(m), 2))
    entries = [CP_ZERO] * (m * len(pairs))
    for col, (r, s) in enumerate(pairs):
        entries[r * len(pairs) + col] = vec[s]
        entries[s * len(pairs) + col] = -vec[r]
    return PolyMatrix(m, len(pairs), entries)


@dataclass(frozen=True)
class SyzygyPair:
    """The two Koszul matrices attached to a family of quaternionic polynomials.

    combined is the stacked system matrix (A, -B), and p the interleaved
    split vector (F1, G1, ..., Fn, Gn).
    """

    A: PolyMatrix
    B: PolyMatrix
    combined: PolyMatrix
    n: int
    p: tuple[CPoly, ...]
    pairs: tuple[tuple[int, int], ...]


def build_koszul(fs: Sequence[HPoly]) -> SyzygyPair:
    """Assemble A, B and the stacked matrix (A, -B) for the given polynomials.

    A is the Koszul matrix of the interleaved splits P; B applies hat_swap to
    each column of A, which lands on signed Koszul relations of the swapped
    vector in the order that makes the linkage identity exact.
    """
    if not fs:
        raise ValueError("need at least one polynomial")
    n = len(fs)
    p = tuple(c for f in fs for c in f.split())
    a = koszul_matrix(p)
    b_cols = [hat_swap(a.column(c)) for c in range(a.cols)]
    b = PolyMatrix(a.rows, a.cols,
                   [b_cols[c][r] for r in range(a.rows) for c in range(a.cols)])
    pairs = tuple(combinations(range(2 * n), 2))
    return SyzygyPair(a, b, a.hstack(b.negate()), n, p, pairs)


def certificate_column_order(pair: SyzygyPair):
    """Column sets of the rank argument for the minor-gcd certificate of (A, -B).

    For each index ell of P, the 2n-1 relations of A through ell plus one
    column of the B block: 2n * C(2n, 2) sets, the same set twice for n = 1.
    Such a minor equals -P_ell^(2n-2) * <P, b>, where P_ell is the split
    component ell and b the minor's column of B (not of -B).  For a family
    without common zeros those dot products are coprime, so these sets
    certify every solvable family.  They prove no obstruction: a family with
    a common zero is decided by right Euclid before this order is used.
    """
    two_n = 2 * pair.n
    k = len(pair.pairs)
    index_of = {p: i for i, p in enumerate(pair.pairs)}
    for ell in range(two_n):
        base = [index_of[(min(ell, m), max(ell, m))] for m in range(two_n) if m != ell]
        for extra in range(k):
            yield tuple(sorted(base + [k + extra]))


@dataclass(frozen=True)
class NaturalSyzygy:
    """The relation (f_t^c * f_r^s) e_t - (f_r^c * f_t^s) e_r, indices 0-based."""

    r: int
    t: int
    entries: tuple[HPoly, ...]

    def annihilates(self, fs: Sequence[HPoly]) -> bool:
        return dot(fs, self.entries).is_zero()


def natural_syzygy(fs: Sequence[HPoly], r: int, t: int) -> NaturalSyzygy:
    if not 0 <= r < t < len(fs):
        raise ValueError("need indices 0 <= r < t < n")
    entries = [HPoly() for _ in fs]
    entries[t] = fs[t].conjugate() * fs[r].symmetrize()
    entries[r] = -(fs[r].conjugate() * fs[t].symmetrize())
    return NaturalSyzygy(r, t, tuple(entries))


@dataclass(frozen=True)
class ThreeTermResult:
    """Outcome of the three-index relation among natural syzygies.

    holds reports the identity
    syz(r,t) * f_p^s = syz(p,t) * f_r^s - syz(p,r) * f_t^s componentwise;
    witness carries the first failing component if any.  reduction, when the
    two right-hand products are componentwise divisible by f_p^s, carries
    the exact quotients expressing syz(r,t) through syz(p,t) and syz(p,r).
    """

    holds: bool
    witness: Optional[tuple[int, HPoly]]
    reduction: Optional[tuple[tuple[HPoly, ...], tuple[HPoly, ...]]]


def check_three_term(fs: Sequence[HPoly], p: int, r: int, t: int) -> ThreeTermResult:
    if not 0 <= p < r < t < len(fs):
        raise ValueError("need indices 0 <= p < r < t < n")
    sym_p = fs[p].symmetrize()
    sym_r = fs[r].symmetrize()
    sym_t = fs[t].symmetrize()
    syz_rt = natural_syzygy(fs, r, t)
    syz_pt = natural_syzygy(fs, p, t)
    syz_pr = natural_syzygy(fs, p, r)

    holds = True
    witness = None
    for idx in range(len(fs)):
        lhs = syz_rt.entries[idx] * sym_p
        rhs = syz_pt.entries[idx] * sym_r - syz_pr.entries[idx] * sym_t
        if lhs != rhs:
            holds = False
            witness = (idx, lhs - rhs)
            break

    # f_p^s has real coefficients, so it is central and right division by it is two-sided.
    divided = [divmod(e * s, sym_p)
               for syz, s in ((syz_pt, sym_r), (syz_pr, sym_t)) for e in syz.entries]
    reduction = None
    if not any(rem for _, rem in divided):
        quotients = tuple(quo for quo, _ in divided)
        reduction = (quotients[:len(fs)], quotients[len(fs):])
    return ThreeTermResult(holds, witness, reduction)
