"""Matrices of slice-plane polynomials: rank, determinants, certified solving.

The central object is the full-rank certificate: Bezout witnesses proving
that the maximal minors of a wide matrix are coprime, hence that the matrix
has full row rank at every point of the plane.  Given such a certificate,
M x = H is solved constructively by Cramer's rule on each certified minor
and a witness-weighted combination of the partial solutions.

Determinants (det_bareiss) run on the integer form of CPoly: each row's
numerators are brought to one denominator and everything stays in Z[i][z].
Rows and columns with a single nonzero entry are expanded first: the entry
joins a running factor, with the cofactor sign, and its row and column are
deleted.  The rank-argument minors of the Koszul certificate are arrowhead
matrices, and on them this leaves Bareiss elimination a 2 x 2 or 3 x 3
core (seen for n = 2, 3, 4).  The determinant is built from the factor
times the remaining determinant and the signed product of the row
denominators, with one content reduction.  The exact division of each
Bareiss step is cpoly._zi_exact_div, the one long-division kernel of
cpoly with a check that the quotient lies in Z[i][z] and leaves no
remainder.  det_bareiss builds no GaussRat.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

from .cpoly import (
    CP_ZERO,
    CPoly,
    _zi_exact_div,
    _zi_mul,
    _zi_sub,
    bezout_multi,
    dot,
    gcd_monic,
)
from .scalars import GaussRat


class PolyMatrix:
    """Rectangular matrix with CPoly entries, row-major storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[CPoly]):
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def at(self, i: int, j: int) -> CPoly:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[CPoly, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[CPoly, ...]:
        return tuple(self.at(i, j) for i in range(self.rows))

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def negate(self) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [-e for e in self.entries])

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        flat = []
        for i in range(self.rows):
            flat.extend(self.row(i))
            flat.extend(other.row(i))
        return PolyMatrix(self.rows, self.cols + other.cols, flat)

    def submatrix(self, col_indices: Sequence[int]) -> "PolyMatrix":
        flat = [self.at(i, j) for i in range(self.rows) for j in col_indices]
        return PolyMatrix(self.rows, len(col_indices), flat)

    def replace_column(self, j: int, column: Sequence[CPoly]) -> "PolyMatrix":
        flat = list(self.entries)
        for i in range(self.rows):
            flat[i * self.cols + j] = column[i]
        return PolyMatrix(self.rows, self.cols, flat)

    def mul_vector(self, xs: Sequence[CPoly]) -> list[CPoly]:
        if len(xs) != self.cols:
            raise ValueError("vector length mismatch")
        return [dot(self.row(i), xs) for i in range(self.rows)]

    def evaluate(self, z: GaussRat) -> list[list[GaussRat]]:
        return [[self.at(i, j).eval(z) for j in range(self.cols)] for i in range(self.rows)]

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


def _sparse_line(a: list[list]) -> list[tuple[int, int]] | None:
    """Nonzero positions of the first row, else column, of a with at most one; None if none has.

    a is a square list of Z[i][z] entries (re, im); an entry is zero when re is empty.
    """
    for r, row in enumerate(a):
        hits = [(r, c) for c, e in enumerate(row) if e[0]]
        if len(hits) < 2:
            return hits
    for c in range(len(a)):
        hits = [(r, c) for r, row in enumerate(a) if row[c][0]]
        if len(hits) < 2:
            return hits
    return None


def det_bareiss(m: PolyMatrix) -> CPoly:
    """Determinant by expansion along sparse lines, then fraction-free elimination over Z[i][z].

    Row i is multiplied once by the lcm d_i of its entries' denominators,
    so everything runs on Gaussian-integer coefficient lists.  While some
    row or column holds a single nonzero entry a_rc, that entry goes into a
    running factor with the sign (-1)^(r+c), r and c counted in the matrix
    that remains, and its row and column are deleted; a row or column with
    no nonzero entry makes the determinant zero.  Bareiss elimination runs
    on what is left.  Each Bareiss quotient is a minor of that integer
    matrix, so every division is exact in Z[i][z] (a remainder raises
    ValueError).  The determinant is the factor times the remaining
    determinant, divided by the product of the d_i, with the sign, once.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    a = []
    scale = 1
    for i in range(m.rows):
        row = [e._ints for e in m.row(i)]
        d = lcm(*(de for de, _, _ in row))
        scale *= d
        a.append([
            ([x * (d // de) for x in re], [y * (d // de) for y in im])
            for de, re, im in row
        ])
    factor = ([1], [0])
    while (hits := _sparse_line(a)) is not None:
        if not hits:  # a zero row or column
            return CP_ZERO
        (r, c), = hits
        factor = _zi_mul(factor, a[r][c])
        if (r + c) % 2:
            scale = -scale
        del a[r]
        for row in a:
            del row[c]
    n = len(a)
    prev = ([1], [0])  # step k divides by the pivot of step k - 1, step 0 by 1
    for k in range(n - 1):
        if not a[k][k][0]:  # an empty coefficient list is the zero polynomial
            pivot_row = next((r for r in range(k + 1, n) if a[r][k][0]), None)
            if pivot_row is None:
                return CP_ZERO
            a[k], a[pivot_row] = a[pivot_row], a[k]
            scale = -scale
        row_k = a[k]
        pivot = row_k[k]
        for row_i in a[k + 1:]:
            for j in range(k + 1, n):
                num = _zi_sub(_zi_mul(row_i[j], pivot), _zi_mul(row_i[k], row_k[j]))
                row_i[j] = _zi_exact_div(num, prev) if k else num
        prev = pivot
    re, im = _zi_mul(factor, a[-1][-1]) if a else factor
    return CPoly._from_ints(scale, re, im)


def rank_of_scalar(rows: list[list[GaussRat]]) -> int:
    """Rank over the Gaussian rationals by straightforward elimination."""
    if not rows or not rows[0]:
        return 0
    work = [row[:] for row in rows]
    nrows, ncols = len(work), len(work[0])
    rank = 0
    pivot_col = 0
    while rank < nrows and pivot_col < ncols:
        pivot = next((r for r in range(rank, nrows) if work[r][pivot_col]), None)
        if pivot is None:
            pivot_col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = work[rank][pivot_col].inverse()
        work[rank] = [v * inv for v in work[rank]]
        for r in range(nrows):
            if r != rank and work[r][pivot_col]:
                factor = work[r][pivot_col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[rank])]
        rank += 1
        pivot_col += 1
    return rank


def rank_at(m: PolyMatrix, z: GaussRat) -> int:
    """Rank of the evaluated matrix at one slice point."""
    return rank_of_scalar(m.evaluate(z))


@dataclass(frozen=True)
class FullRankCertificate:
    """Proof that a wide matrix has full row rank at every point.

    The stored maximal minors are coprime: sum(witness_k * minor_k) = 1.
    Each minor records the column set that produced it, which is exactly
    what the Cramer-based solver consumes.  minor_gcd_certificate stores
    only minors with a nonzero witness; verify accepts a zero one too.
    """

    minor_indices: tuple[tuple[int, ...], ...]
    minors: tuple[CPoly, ...]
    witnesses: tuple[CPoly, ...]
    minors_examined: int

    def combination(self) -> CPoly:
        """sum(witness_k * minor_k), zero for a certificate with no minors, which proves nothing."""
        return dot(self.witnesses, self.minors) if self.minors else CP_ZERO

    def verify(self, m: PolyMatrix) -> bool:
        """Recompute every stored minor from m and check the Bezout identity.

        A column set that is not m.rows indices in 0 .. m.cols - 1 names no
        maximal minor of m: it makes the check false, and nothing raises.
        """
        for cols, minor in zip(self.minor_indices, self.minors):
            if len(cols) != m.rows or not all(0 <= c < m.cols for c in cols):
                return False
            if det_bareiss(m.submatrix(cols)) != minor:
                return False
        return self.combination().is_one()


@dataclass(frozen=True)
class RankObstruction:
    """Nonconstant gcd of the maximal minors examined.

    When the caller's column order covers every maximal minor, its roots
    are the rank-drop points; over fewer minors they only contain them.
    """

    gcd: CPoly
    minors_examined: int


class MinorBudgetExceeded(RuntimeError):
    """No longer raised; kept only because bench/tracing.py imports it."""


def minor_gcd_certificate(
    m: PolyMatrix, column_order: Iterable[tuple[int, ...]]
) -> FullRankCertificate | RankObstruction:
    """Accumulate the gcd of maximal minors, in the caller's column order, until it reaches 1.

    Each column set in column_order names one maximal minor; repeats are
    skipped.  Only minors that strictly shrink the running gcd are
    retained, so the certificate stays small.  When the gcd reaches 1 the
    retained minors get Bezout witnesses, and those with a nonzero witness
    form the certificate.  When
    the order runs out first, the running gcd is returned as a
    RankObstruction; that proves an obstruction only when the order
    covers every maximal column set, combinations(range(m.cols), m.rows).
    """
    if m.rows > m.cols:
        raise ValueError("matrix must have at least as many columns as rows")
    running = CP_ZERO
    kept_cols: list[tuple[int, ...]] = []
    kept_minors: list[CPoly] = []
    seen: set[tuple[int, ...]] = set()
    for cols in column_order:
        cols = tuple(sorted(cols))
        if cols in seen:
            continue
        seen.add(cols)
        minor = det_bareiss(m.submatrix(cols))
        if minor.is_zero():
            continue
        refined = gcd_monic(running, minor) if not running.is_zero() else minor.monic()
        if refined != running:
            kept_cols.append(cols)
            kept_minors.append(minor)
            running = refined
        if running.is_one():
            _, witnesses = bezout_multi(kept_minors)
            used = [(c, d, w) for c, d, w in zip(kept_cols, kept_minors, witnesses) if w]
            return FullRankCertificate(*map(tuple, zip(*used)), len(seen))
    # A zero gcd means every examined minor vanishes identically.
    return RankObstruction(running, len(seen))


class CertificateMismatch(ValueError):
    """The supplied certificate does not belong to this matrix."""


def solve_full_rank(
    m: PolyMatrix, h: Sequence[CPoly], cert: FullRankCertificate
) -> list[CPoly]:
    """Solve M x = H given a full-rank certificate for M.

    For each certified minor D_k on column set S_k, Cramer's rule yields a
    vector x_k supported on S_k with M x_k = D_k * H (the usual denominators
    cancel, so no division happens).  The witness combination then gives
    M (sum w_k x_k) = (sum w_k D_k) H = H.  The result is checked against M
    before being returned.
    """
    if len(h) != m.rows:
        raise ValueError("right-hand side length mismatch")
    if not cert.verify(m):
        raise CertificateMismatch("certificate minors do not match the matrix")
    solution = [CP_ZERO] * m.cols
    h_col = list(h)
    for cols, witness in zip(cert.minor_indices, cert.witnesses):
        sub = m.submatrix(cols)
        for slot, col in enumerate(cols):
            solution[col] = solution[col] + witness * det_bareiss(sub.replace_column(slot, h_col))
    if m.mul_vector(solution) != h_col:
        raise CertificateMismatch("solution failed the exact post-check")
    return solution
