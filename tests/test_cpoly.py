from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qcorona.cpoly import (
    CP_ONE,
    CP_Z,
    CPoly,
    bezout_multi,
    bezout_pair,
    cpoly_from_rationals,
    gcd_monic,
)
from qcorona.scalars import GaussRat

from conftest import cpolys, gauss_rats, nonzero_cpolys

I = GaussRat(0, 1)
Z_MINUS_I = CPoly([-I, 1])
Z_PLUS_I = CPoly([I, 1])


class TestArithmetic:
    def test_difference_of_squares(self):
        assert Z_MINUS_I * Z_PLUS_I == cpoly_from_rationals([1, 0, 1])

    def test_multiply_by_zero(self):
        assert CP_Z * CPoly() == CPoly()

    def test_addition(self):
        assert cpoly_from_rationals([1, 1]) + cpoly_from_rationals([-1, 1]) == cpoly_from_rationals([0, 2])

    def test_trailing_zeros_normalized(self):
        assert CPoly([GaussRat(1), GaussRat(0), GaussRat(0)]) == CPoly([GaussRat(1)])
        assert CPoly([GaussRat(0)]).is_zero()

    @given(cpolys(), cpolys(), cpolys())
    def test_ring_identities(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @given(cpolys(3), cpolys(3))
    def test_integer_kernels_match_scalar_arithmetic(self, a, b):
        product = [GaussRat(0)] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
        for m, x in enumerate(a.coeffs):
            for n, y in enumerate(b.coeffs):
                product[m + n] = product[m + n] + x * y
        assert a * b == CPoly(product)
        n = max(len(a.coeffs), len(b.coeffs))
        assert a - b == CPoly([a.coeff(m) - b.coeff(m) for m in range(n)])

    @given(cpolys(3), nonzero_cpolys(3))
    def test_divmod_is_exact(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


class TestHat:
    def test_conjugates_coefficients(self):
        assert CPoly([GaussRat(1), I]).hat() == CPoly([GaussRat(1), -I])

    def test_fixes_real_polynomials(self):
        p = cpoly_from_rationals([1, 0, 1])
        assert p.hat() == p

    def test_involution(self):
        p = CPoly([-I, GaussRat(3)])
        assert p.hat().hat() == p

    @given(cpolys(3), cpolys(3))
    def test_ring_automorphism(self, a, b):
        assert (a * b).hat() == a.hat() * b.hat()
        assert (a + b).hat() == a.hat() + b.hat()


class TestEval:
    def test_root_of_real_quadratic(self):
        assert cpoly_from_rationals([1, 0, 1]).eval(I) == GaussRat(0)

    def test_linear_at_zero(self):
        assert Z_MINUS_I.eval(GaussRat(0)) == -I

    @given(cpolys(4), gauss_rats)
    def test_hat_eval_duality(self, a, z):
        assert a.hat().eval(z) == a.eval(z.conjugate()).conjugate()

    @given(cpolys(3), cpolys(3), gauss_rats)
    def test_eval_is_ring_homomorphism(self, a, b, z):
        assert (a * b).eval(z) == a.eval(z) * b.eval(z)
        assert (a + b).eval(z) == a.eval(z) + b.eval(z)


class TestGcd:
    def test_common_factor(self):
        a = Z_MINUS_I * cpoly_from_rationals([-1, 1])
        b = Z_MINUS_I * cpoly_from_rationals([5, 1])
        assert gcd_monic(a, b) == Z_MINUS_I

    def test_coprime(self):
        assert gcd_monic(CP_Z, cpoly_from_rationals([-1, 1])).is_one()

    @given(cpolys(3), cpolys(3))
    def test_gcd_divides_both(self, a, b):
        g = gcd_monic(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
        else:
            assert (a % g).is_zero()
            assert (b % g).is_zero()


class TestBezout:
    def test_pair_identity_example(self):
        g, ws = bezout_multi([CP_Z, cpoly_from_rationals([-1, 1])])
        assert g.is_one()
        assert ws == [CP_ONE, CPoly([GaussRat(-1)])]

    def test_square_versus_linear(self):
        g, ws = bezout_multi([CP_Z * CP_Z, cpoly_from_rationals([-1, 1])])
        assert g.is_one()
        assert ws == [CP_ONE, cpoly_from_rationals([-1, -1])]

    def test_unit_entry_shortcut(self):
        ps = [Z_MINUS_I, CPoly(), CP_Z, CPoly([GaussRat(-1)])]
        g, ws = bezout_multi(ps)
        assert g.is_one()
        assert ws == [CPoly(), CPoly(), CPoly(), CPoly([GaussRat(-1)])]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            bezout_multi([CPoly(), CPoly()])

    def test_pair_with_zero(self):
        g, x, y = bezout_pair(CPoly(), Z_MINUS_I)
        assert g == Z_MINUS_I
        assert x * CPoly() + y * Z_MINUS_I == g

    @settings(max_examples=60)
    @given(st.lists(cpolys(3), min_size=1, max_size=4).filter(
        lambda ps: any(not p.is_zero() for p in ps)
    ))
    def test_witness_identity(self, ps):
        g, ws = bezout_multi(ps)
        combo = CPoly()
        for w, p in zip(ws, ps):
            combo = combo + w * p
        assert combo == g
        assert not g.is_zero()
        assert g.lead() == GaussRat(1)
        for p in ps:
            assert (p % g).is_zero()
