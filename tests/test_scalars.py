import operator
from fractions import Fraction

import pytest
from hypothesis import given

from qcorona.cpoly import CPoly
from qcorona.generate import RATIONAL_AXES
from qcorona.scalars import (
    GaussRat,
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    Quat,
)

from conftest import nonzero_quats, quats


class TestQuatMultiplication:
    def test_basis_table(self):
        assert Q_I * Q_J == Q_K
        assert Q_J * Q_I == -Q_K
        assert Q_J * Q_K == Q_I
        assert Q_K * Q_J == -Q_I
        assert Q_K * Q_I == Q_J
        assert Q_I * Q_K == -Q_J
        for unit in (Q_I, Q_J, Q_K):
            assert unit * unit == -Q_ONE

    def test_distributed_product(self):
        # (1+i)(1+j) = 1 + j + i + ij = 1 + i + j + k
        assert Quat(1, 1) * Quat(1, 0, 1) == Quat(1, 1, 1, 1)

    @given(quats)
    def test_one_is_neutral(self, q):
        assert q * Q_ONE == q
        assert Q_ONE * q == q

    @given(quats, quats)
    def test_conjugate_antihomomorphism(self, p, q):
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()

    @given(quats, quats)
    def test_norm_multiplicative(self, p, q):
        assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()

    @given(quats)
    def test_conjugate_sum_is_twice_real_part(self, q):
        assert q + q.conjugate() == Quat(2 * q.real_part())


class TestQuatInverse:
    def test_one_plus_i(self):
        assert Quat(1, 1).inverse() == Quat(Fraction(1, 2), Fraction(-1, 2))

    def test_one_plus_i_plus_j_plus_k(self):
        q = Quat(1, 1, 1, 1)
        quarter = Fraction(1, 4)
        assert q.inverse() == Quat(quarter, -quarter, -quarter, -quarter)

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Quat().inverse()

    @given(nonzero_quats)
    def test_two_sided_inverse(self, q):
        assert q * q.inverse() == Q_ONE
        assert q.inverse() * q == Q_ONE


def test_rational_axes_are_imaginary_units():
    for axis in RATIONAL_AXES:
        assert axis * axis == -Q_ONE
        assert axis.norm_sq() == 1
        assert axis.real_part() == 0


class TestGaussRat:
    def test_basic_field_ops(self):
        a = GaussRat(1, 2)
        b = GaussRat(Fraction(1, 3), -1)
        assert a * b == GaussRat(Fraction(1, 3) + 2, Fraction(2, 3) - 1)
        assert (a / b) * b == a

    def test_conjugation(self):
        a = GaussRat(2, -3)
        assert a.conjugate() == GaussRat(2, 3)
        assert a * a.conjugate() == GaussRat(a.norm_sq())

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            GaussRat(0).inverse()

    def test_scalar_times_cpoly_raises_type_error(self):
        with pytest.raises(TypeError):
            GaussRat(2) * CPoly([1])

    def test_other_operands_are_not_implemented(self):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(GaussRat(1), 1)


def test_quat_other_operands_are_not_implemented():
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(Quat(1), 1)
        with pytest.raises(TypeError):
            op(1, Quat(1))
        with pytest.raises(TypeError):
            op(Quat(1), GaussRat(1))
