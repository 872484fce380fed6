"""Matrices of slice-plane polynomials: rank, determinants, certified solving.

The central object is the full-rank certificate: Bezout witnesses proving
that the maximal minors of a wide matrix are coprime, hence that the matrix
has full row rank at every point of the plane.  Given such a certificate,
M x = H is solved constructively by Cramer's rule on each certified minor
and a witness-weighted combination of the partial solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .cpoly import CP_ZERO, CPoly, bezout_multi, gcd_monic
from .scalars import GR_ZERO, GaussRat


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

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[CPoly]]) -> "PolyMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(nrows, ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        one = CPoly.const(1)
        return cls(n, n, [one if i == j else CP_ZERO for i in range(n) for j in range(n)])

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
        out = []
        for i in range(self.rows):
            acc = CP_ZERO
            for j, x in enumerate(xs):
                acc = acc + self.at(i, j) * x
            out.append(acc)
        return out

    def evaluate(self, z: GaussRat) -> list[list[GaussRat]]:
        return [[self.at(i, j).eval(z) for j in range(self.cols)] for i in range(self.rows)]

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


def det_bareiss(m: PolyMatrix) -> CPoly:
    """Determinant by fraction-free elimination; divisions are exact."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return CPoly.const(1)
    a = [[m.at(i, j) for j in range(n)] for i in range(n)]
    sign = 1
    prev = CPoly.const(1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if pivot_row is None:
                return CP_ZERO
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
            a[i][k] = CP_ZERO
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def det_cofactor(m: PolyMatrix) -> CPoly:
    """Determinant by cofactor expansion; independent cross-check for small sizes."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return CPoly.const(1)
    if n == 1:
        return m.at(0, 0)
    total = CP_ZERO
    cols = list(range(n))
    for j in range(n):
        entry = m.at(0, j)
        if entry.is_zero():
            continue
        rest = PolyMatrix.from_rows([
            [m.at(i, c) for c in cols if c != j] for i in range(1, n)
        ])
        term = entry * det_cofactor(rest)
        total = total - term if j % 2 else total + term
    return total


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


def nullity_at(m: PolyMatrix, z: GaussRat) -> int:
    return m.cols - rank_at(m, z)


@dataclass(frozen=True)
class FullRankCertificate:
    """Proof that a wide matrix has full row rank at every point.

    The stored maximal minors are coprime: sum(witness_k * minor_k) = 1.
    Each minor records the column set that produced it, which is exactly
    what the Cramer-based solver consumes.
    """

    minor_indices: tuple[tuple[int, ...], ...]
    minors: tuple[CPoly, ...]
    witnesses: tuple[CPoly, ...]
    minors_examined: int

    def combination(self) -> CPoly:
        acc = CP_ZERO
        for w, d in zip(self.witnesses, self.minors):
            acc = acc + w * d
        return acc

    def verify(self, m: PolyMatrix) -> bool:
        """Recompute every stored minor from m and check the Bezout identity."""
        for cols, minor in zip(self.minor_indices, self.minors):
            if det_bareiss(m.submatrix(cols)) != minor:
                return False
        return self.combination().is_one()


@dataclass(frozen=True)
class RankObstruction:
    """Nonconstant gcd of all maximal minors; its roots are the rank-drop points."""

    gcd: CPoly
    minors_examined: int


class MinorBudgetExceeded(RuntimeError):
    """Enumeration budget ran out before the minor gcd was decided.

    Distinct from a proven obstruction: the matrix may still have full rank
    everywhere, we just did not find a coprime minor subset in time.
    """


def iter_maximal_minors(m: PolyMatrix) -> Iterator[tuple[tuple[int, ...], CPoly]]:
    """Maximal minors in lexicographic column-set order, computed lazily."""
    for cols in combinations(range(m.cols), m.rows):
        yield cols, det_bareiss(m.submatrix(cols))


def minor_gcd_certificate(
    m: PolyMatrix,
    budget: int | None = 2000,
    column_order: Iterable[tuple[int, ...]] | None = None,
) -> FullRankCertificate | RankObstruction:
    """Decide full-rank-everywhere by accumulating the gcd of maximal minors.

    Column sets come from column_order when given (it must eventually cover
    every maximal column set for obstructions to be proven; repeats are
    skipped), otherwise from plain lexicographic enumeration.  Only minors
    that strictly shrink the running gcd are retained, so the certificate
    stays small.  When the gcd reaches 1 the retained minors get Bezout
    witnesses and form the certificate.  When the enumeration finishes with
    a nonconstant gcd, that gcd is returned as a proven obstruction.  If a
    budget is given and runs out first, MinorBudgetExceeded is raised.
    """
    if m.rows > m.cols:
        raise ValueError("matrix must have at least as many columns as rows")
    if column_order is None:
        column_order = combinations(range(m.cols), m.rows)
    running = CP_ZERO
    kept_cols: list[tuple[int, ...]] = []
    kept_minors: list[CPoly] = []
    seen: set[tuple[int, ...]] = set()
    examined = 0
    exhausted = True
    for cols in column_order:
        cols = tuple(sorted(cols))
        if cols in seen:
            continue
        seen.add(cols)
        if budget is not None and examined >= budget:
            exhausted = False
            break
        examined += 1
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
            return FullRankCertificate(
                tuple(kept_cols), tuple(kept_minors), tuple(witnesses), examined
            )
    if exhausted:
        if running.is_zero():
            # Every maximal minor vanishes identically.
            return RankObstruction(CP_ZERO, examined)
        return RankObstruction(running, examined)
    raise MinorBudgetExceeded(
        f"gcd still {running} after {examined} minors (budget {budget})"
    )


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
        if witness.is_zero():
            continue
        sub = m.submatrix(cols)
        for slot, col in enumerate(cols):
            component = det_bareiss(sub.replace_column(slot, h_col))
            if component.is_zero():
                continue
            solution[col] = solution[col] + witness * component
    if m.mul_vector(solution) != h_col:
        raise CertificateMismatch("solution failed the exact post-check")
    return solution
