from fractions import Fraction
from itertools import combinations

import hypothesis.strategies as st

from qcorona.cpoly import CPoly
from qcorona.hpoly import HPoly
from qcorona.polymatrix import PolyMatrix
from qcorona.scalars import GaussRat, Quat

CP_Z = CPoly([0, 1])

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)

gauss_rats = st.builds(GaussRat, small_fractions, small_fractions)

quats = st.builds(Quat, small_fractions, small_fractions, small_fractions, small_fractions)

nonzero_quats = quats.filter(bool)


def cpolys(max_degree: int = 4):
    return st.lists(gauss_rats, min_size=0, max_size=max_degree + 1).map(CPoly)


def nonzero_cpolys(max_degree: int = 4):
    return cpolys(max_degree).filter(lambda p: not p.is_zero())


def hpolys(max_degree: int = 4):
    return st.lists(quats, min_size=0, max_size=max_degree + 1).map(HPoly)


def nonzero_hpolys(max_degree: int = 4):
    return hpolys(max_degree).filter(lambda f: not f.is_zero())


def q_minus(c: Quat) -> HPoly:
    """The monic linear polynomial q - c."""
    return HPoly([-c, 1])


def poly_matrix(rows) -> PolyMatrix:
    """The matrix with these rows, each a list of CPolys of one length."""
    return PolyMatrix(len(rows), len(rows[0]), [e for row in rows for e in row])


def every_maximal_minor(m: PolyMatrix):
    """Every maximal column set of m, in lexicographic order."""
    return combinations(range(m.cols), m.rows)
