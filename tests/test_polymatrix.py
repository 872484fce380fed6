import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qcorona.cpoly import CP_ONE, CP_ZERO, CPoly, _zi_exact_div
from qcorona.polymatrix import (
    CertificateMismatch,
    FullRankCertificate,
    PolyMatrix,
    RankObstruction,
    det_bareiss,
    minor_gcd_certificate,
    rank_at,
    solve_full_rank,
)
from qcorona.scalars import GaussRat
from qcorona.syzygy import koszul_matrix

from conftest import CP_Z, cpolys, every_maximal_minor, poly_matrix

I = GaussRat(0, 1)
Z_MINUS_I = CPoly([-I, 1])
ONE_MINUS_Z = CPoly([1, -1])


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
        rest = poly_matrix([
            [m.at(i, c) for c in cols if c != j] for i in range(1, n)
        ])
        term = entry * det_cofactor(rest)
        total = total - term if j % 2 else total + term
    return total


def identity_matrix(n: int) -> PolyMatrix:
    return poly_matrix([[CP_ONE if i == j else CP_ZERO for j in range(n)] for i in range(n)])


def _koszul_of_example():
    # Splits of (q - i, q - j): the vector (z - i, 0, z, -1).
    return koszul_matrix([Z_MINUS_I, CPoly(), CP_Z, CPoly([GaussRat(-1)])])


class TestRankAt:
    def test_koszul_example(self):
        assert rank_at(_koszul_of_example(), GaussRat(0)) == 3

    def test_identity(self):
        m = identity_matrix(4)
        assert rank_at(m, GaussRat(7, 5)) == 4

    def test_zero_matrix(self):
        m = PolyMatrix(2, 3, [CPoly()] * 6)
        assert rank_at(m, GaussRat(1)) == 0


class TestDeterminants:
    def test_unimodular_2x2(self):
        m = poly_matrix([
            [CP_ONE, CP_Z],
            [CP_Z, CPoly([1, 0, 1])],
        ])
        assert det_bareiss(m) == CP_ONE

    def test_singular(self):
        m = poly_matrix([[CP_Z, CP_Z], [CP_Z, CP_Z]])
        assert det_bareiss(m).is_zero()

    def test_row_swap_sign(self):
        m = poly_matrix([
            [CPoly(), CP_ONE],
            [CP_ONE, CPoly()],
        ])
        assert det_bareiss(m) == CPoly([GaussRat(-1)])

    @pytest.mark.parametrize("size", [3, 4])
    def test_bareiss_matches_cofactor(self, size):
        rng = random.Random(size * 101)
        for _ in range(8):
            entries = [
                CPoly([GaussRat(rng.randint(-2, 2), rng.randint(-2, 2))
                       for _ in range(rng.randint(1, 3))])
                for _ in range(size * size)
            ]
            m = PolyMatrix(size, size, entries)
            assert det_bareiss(m) == det_cofactor(m)

    @staticmethod
    def _rows_with_own_denominators(rng, size):
        """Gaussian-rational rows; row r draws its denominators from a prime of its own."""
        rows = []
        for prime in (1, 2, 3, 5, 7, 11)[:size]:
            rows.append([
                CPoly([
                    GaussRat(Fraction(rng.randint(-4, 4), prime ** rng.randint(0, 2)),
                             Fraction(rng.randint(-4, 4), prime ** rng.randint(0, 2)))
                    for _ in range(rng.randint(1, 3))
                ])
                for _ in range(size)
            ])
        return rows

    @pytest.mark.parametrize("size", [4, 5])
    def test_bareiss_matches_cofactor_with_row_denominators_and_swaps(self, size):
        rng = random.Random(size * 4099)
        for trial in range(4):
            rows = self._rows_with_own_denominators(rng, size)
            rows[0][0] = CPoly()  # the first pivot is zero: a row swap
            if trial % 2:
                rows[1][1] = CPoly()  # and, often, a later one too
            m = poly_matrix(rows)
            det = det_bareiss(m)
            assert not det.is_zero()
            assert det == det_cofactor(m)

    @pytest.mark.parametrize("size", [4, 5])
    def test_bareiss_of_a_singular_matrix_is_zero(self, size):
        rows = self._rows_with_own_denominators(random.Random(size), size)
        c = CPoly([GaussRat(Fraction(1, 3), -2), GaussRat(0, Fraction(1, 2))])
        rows[-1] = [x * c + y for x, y in zip(rows[0], rows[1])]
        m = poly_matrix(rows)
        assert det_cofactor(m).is_zero()
        assert det_bareiss(m).is_zero()

    def test_integer_division_raises_on_a_remainder(self):
        z2_plus_1 = ([1, 0, 1], [0, 0, 0])
        assert _zi_exact_div(([-1, 0, 1], [0, 0, 0]), ([1, 1], [0, 0])) == ([-1, 1], [0, 0])
        assert _zi_exact_div(z2_plus_1, ([0, 1], [1, 0])) == ([0, 1], [-1, 0])  # (z - i)
        with pytest.raises(ValueError):
            _zi_exact_div(z2_plus_1, ([1, 1], [0, 0]))  # remainder 2
        with pytest.raises(ValueError):
            _zi_exact_div(([1], [0]), ([2], [0]))  # quotient 1/2 is not in Z[i]
        with pytest.raises(ValueError):
            _zi_exact_div(([1, 1], [0, 0]), z2_plus_1)  # lower degree, nonzero

    @settings(max_examples=20)
    @given(st.lists(cpolys(2), min_size=9, max_size=9))
    def test_bareiss_matches_cofactor_hypothesis(self, entries):
        m = PolyMatrix(3, 3, entries)
        assert det_bareiss(m) == det_cofactor(m)


class TestSparseLines:
    """Single-entry and empty rows and columns, which det_bareiss expands first."""

    rows_with_own_denominators = staticmethod(TestDeterminants._rows_with_own_denominators)

    @pytest.mark.parametrize("size", [2, 3, 4])
    @pytest.mark.parametrize("line", ["row", "column"])
    def test_single_entry_and_zero_lines_at_every_position(self, size, line):
        """A single-entry row or column through (r, c); then one more line of that kind emptied."""
        rng = random.Random(f"{line}:{size}")
        for r in range(size):
            for c in range(size):
                rows = self.rows_with_own_denominators(rng, size)
                entry = CPoly([GaussRat(Fraction(1, 2 + r), c - 1), 1])
                for k in range(size):
                    if line == "row":
                        rows[r][k] = entry if k == c else CPoly()
                    else:
                        rows[k][c] = entry if k == r else CPoly()
                m = poly_matrix(rows)
                det = det_bareiss(m)
                assert not det.is_zero()
                assert det == det_cofactor(m)
                for k in range(size):
                    if line == "row":
                        rows[(r + 1) % size][k] = CPoly()
                    else:
                        rows[k][(c + 1) % size] = CPoly()
                m = poly_matrix(rows)
                assert det_cofactor(m).is_zero()
                assert det_bareiss(m).is_zero()

    def test_permutation_matrices(self):
        rng = random.Random(24)
        for perm in permutations(range(4)):
            inversions = sum(perm[i] > perm[j] for i, j in combinations(range(4), 2))
            sign = CPoly.const(-1 if inversions % 2 else 1)
            plain = [[CP_ONE if j == perm[i] else CPoly() for j in range(4)] for i in range(4)]
            assert det_bareiss(poly_matrix(plain)) == sign
            weighted = [
                [CPoly([GaussRat(Fraction(rng.randint(1, 4), 1 + i), rng.randint(-2, 2)), 1])
                 if j == perm[i] else CPoly() for j in range(4)]
                for i in range(4)
            ]
            m = poly_matrix(weighted)
            assert det_bareiss(m) == det_cofactor(m)

    @pytest.mark.parametrize("size", [3, 6])
    @pytest.mark.parametrize("lower", [False, True])
    def test_triangular_matrices_expand_to_the_diagonal_product(self, size, lower):
        """Triangular, and with its columns reversed, which takes (-1)^(n(n-1)/2)."""
        rng = random.Random(f"triangular:{size}:{lower}")
        rows = self.rows_with_own_denominators(rng, size)
        diagonal = CP_ONE
        for i in range(size):
            rows[i][i] = rows[i][i] or CPoly([GaussRat(Fraction(1, 1 + i), 1)])
            diagonal = diagonal * rows[i][i]
            for j in range(i + 1, size):
                if lower:
                    rows[i][j] = CPoly()
                else:
                    rows[j][i] = CPoly()
        m = poly_matrix(rows)
        assert det_bareiss(m) == diagonal
        assert det_cofactor(m) == diagonal
        reversed_columns = poly_matrix([row[::-1] for row in rows])
        expected = -diagonal if size * (size - 1) // 2 % 2 else diagonal
        assert det_bareiss(reversed_columns) == expected
        assert det_cofactor(reversed_columns) == expected


class TestMinorGcdCertificate:
    def test_partition_of_unity_row(self):
        m = PolyMatrix(1, 2, [CP_Z, ONE_MINUS_Z])
        cert = minor_gcd_certificate(m, every_maximal_minor(m))
        assert isinstance(cert, FullRankCertificate)
        assert cert.minors == (CP_Z, ONE_MINUS_Z)
        assert cert.witnesses == (CP_ONE, CP_ONE)
        assert cert.combination().is_one()
        assert cert.verify(m)

    def test_obstruction_with_common_factor(self):
        m = PolyMatrix(1, 2, [CP_Z, CP_Z * CP_Z])
        out = minor_gcd_certificate(m, every_maximal_minor(m))
        assert isinstance(out, RankObstruction)
        assert out.gcd == CP_Z
        assert rank_at(m, GaussRat(0)) == 0
        assert rank_at(m, GaussRat(1)) == 1

    def test_zero_matrix_obstruction(self):
        m = PolyMatrix(1, 2, [CPoly(), CPoly()])
        out = minor_gcd_certificate(m, every_maximal_minor(m))
        assert isinstance(out, RankObstruction)
        assert out.gcd.is_zero()

    def test_too_tall_rejected(self):
        m = PolyMatrix(2, 1, [CP_Z, CP_ONE])
        with pytest.raises(ValueError):
            minor_gcd_certificate(m, every_maximal_minor(m))


# Column sets that name no maximal minor, each put in place of the last set
# of a genuine certificate.  The 1 x 2 row's flat index would read -1 as
# column 1, the same entry as the set it replaces.
FOREIGN_COLUMN_SETS = [
    pytest.param(1, (), id="1x2-too-short"),
    pytest.param(1, (2,), id="1x2-index-at-cols"),
    pytest.param(1, (-1,), id="1x2-negative-index"),
    pytest.param(2, (0,), id="2x3-too-short"),
    pytest.param(2, (0, 99), id="2x3-index-past-cols"),
]


def _foreign_certificate(rows, cols):
    m = PolyMatrix(1, 2, [CP_Z, ONE_MINUS_Z]) if rows == 1 else PolyMatrix(2, 3, [
        CP_ONE, CP_Z, CPoly(),
        CPoly(), CP_ONE, CP_Z,
    ])
    cert = minor_gcd_certificate(m, every_maximal_minor(m))
    return m, replace(cert, minor_indices=cert.minor_indices[:-1] + (cols,))


@pytest.mark.parametrize("rows, cols", FOREIGN_COLUMN_SETS)
def test_certificate_with_a_foreign_column_set_fails_verify_without_raising(rows, cols):
    m, cert = _foreign_certificate(rows, cols)
    assert cert.verify(m) is False


@pytest.mark.parametrize("rows, cols", FOREIGN_COLUMN_SETS)
def test_solve_full_rank_rejects_a_foreign_column_set(rows, cols):
    m, cert = _foreign_certificate(rows, cols)
    with pytest.raises(CertificateMismatch):
        solve_full_rank(m, [CP_ONE] * m.rows, cert)


class TestSolveFullRank:
    def test_partition_of_unity(self):
        m = PolyMatrix(1, 2, [CP_Z, ONE_MINUS_Z])
        cert = minor_gcd_certificate(m, every_maximal_minor(m))
        x = solve_full_rank(m, [CP_ONE], cert)
        assert x == [CP_ONE, CP_ONE]

    def test_identity_matrix(self):
        m = identity_matrix(3)
        cert = minor_gcd_certificate(m, every_maximal_minor(m))
        h = [CP_Z, CP_ONE, Z_MINUS_I]
        assert solve_full_rank(m, h, cert) == h

    def test_unit_column_row(self):
        m = PolyMatrix(1, 4, [Z_MINUS_I, CPoly(), CP_Z, CPoly([GaussRat(-1)])])
        cert = minor_gcd_certificate(m, every_maximal_minor(m))
        x = solve_full_rank(m, [CP_ONE], cert)
        assert m.mul_vector(x) == [CP_ONE]

    def test_wrong_certificate_rejected(self):
        m = PolyMatrix(1, 2, [CP_Z, ONE_MINUS_Z])
        other = PolyMatrix(1, 2, [CP_ONE, CP_Z])
        cert = minor_gcd_certificate(other, every_maximal_minor(other))
        with pytest.raises(CertificateMismatch):
            solve_full_rank(m, [CP_ONE], cert)

    def test_empty_certificate_proves_nothing(self):
        m = PolyMatrix(1, 2, [CP_Z, ONE_MINUS_Z])
        empty = FullRankCertificate((), (), (), 0)
        assert empty.combination().is_zero()
        assert empty.verify(m) is False
        with pytest.raises(CertificateMismatch):
            solve_full_rank(m, [CP_ONE], empty)

    @settings(max_examples=25)
    @given(st.lists(cpolys(2), min_size=2, max_size=2))
    def test_random_rhs_on_fixed_system(self, h):
        m = PolyMatrix(2, 3, [
            CP_ONE, CP_Z, CPoly(),
            CPoly(), CP_ONE, CP_Z,
        ])
        cert = minor_gcd_certificate(m, every_maximal_minor(m))
        x = solve_full_rank(m, h, cert)
        assert m.mul_vector(x) == list(h)
