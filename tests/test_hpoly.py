import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qcorona.cpoly import CPoly, cpoly_from_rationals
from qcorona.hpoly import (
    _low_degree_sphere_factors,
    _sympy_sphere_factors,
    HP_ONE,
    HP_Q,
    HPoly,
    SplitPair,
    Sphere,
    classify_zeros,
    eval_on_sphere,
    extension_eval,
    real_poly_sphere_factors,
    reciprocal_pair,
    star_eval_pointwise,
    star_split,
    zeros_on_sphere,
)
from qcorona.generate import RATIONAL_AXES
from qcorona.scalars import GaussRat, Q_I, Q_J, Q_K, Q_ONE, Q_ZERO, Quat

from conftest import hpolys, nonzero_hpolys, q_minus, quats

F_QI = q_minus(Q_I)   # q - i
F_QJ = q_minus(Q_J)   # q - j
PRODUCT_IJ = HPoly([Q_K, -(Q_I + Q_J), Q_ONE])  # q^2 - q(i+j) + k

axes = st.sampled_from(RATIONAL_AXES)
small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


class TestStarProduct:
    def test_basic_convolution(self):
        assert F_QI * F_QJ == PRODUCT_IJ

    def test_split_route_agrees(self):
        # Independent route: multiply on slice components and extend back.
        assert star_split(F_QI.split(), F_QJ.split()).extend() == PRODUCT_IJ

    def test_one_is_neutral(self):
        assert PRODUCT_IJ * HP_ONE == PRODUCT_IJ
        assert HP_ONE * PRODUCT_IJ == PRODUCT_IJ

    def test_real_factor_commutes(self):
        real = HPoly([1, 0, 1])  # q^2 + 1
        assert real * F_QJ == F_QJ * real

    @given(hpolys(3), hpolys(3))
    def test_split_formula_matches_convolution(self, f, g):
        assert star_split(f.split(), g.split()).extend() == f * g

    @given(hpolys(4), hpolys(4), hpolys(4))
    def test_associativity(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(hpolys(3), hpolys(3), hpolys(3))
    def test_distributivity(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(hpolys(3), hpolys(3))
    def test_degree_additive(self, f, g):
        if f.is_zero() or g.is_zero():
            assert (f * g).is_zero()
        else:
            assert (f * g).degree == f.degree + g.degree


class TestConjugateAndSymmetrization:
    def test_conjugate_examples(self):
        assert F_QI.conjugate() == HPoly([Q_I, 1])
        assert PRODUCT_IJ.conjugate() == HPoly([-Q_K, Q_I + Q_J, Q_ONE])
        real = HPoly([2, 0, 5])
        assert real.conjugate() == real

    def test_symmetrization_examples(self):
        q_sq_plus_1 = HPoly([1, 0, 1])
        assert F_QI.symmetrize() == q_sq_plus_1
        assert F_QJ.symmetrize() == q_sq_plus_1
        real = HPoly([-2, 1])
        assert real.symmetrize() == real * real

    @given(hpolys(4), hpolys(4))
    def test_conjugate_antihomomorphism(self, f, g):
        assert (f * g).conjugate() == g.conjugate() * f.conjugate()

    @given(hpolys(4))
    def test_symmetrization_real_and_two_sided(self, f):
        sym = f.symmetrize()
        assert sym.has_real_coeffs()
        assert sym == f.conjugate() * f

    @given(hpolys(3), hpolys(3))
    def test_symmetrization_multiplicative(self, f, g):
        fs, gs = f.symmetrize(), g.symmetrize()
        assert (f * g).symmetrize() == fs * gs
        assert fs * gs == gs * fs


class TestSplitExtend:
    def test_split_examples(self):
        pair = F_QJ.split()
        assert pair.F == CPoly([GaussRat(0), GaussRat(1)])
        assert pair.G == CPoly([GaussRat(-1)])

        pair = HPoly([1, 0, 1]).split()
        assert pair.F == cpoly_from_rationals([1, 0, 1])
        assert pair.G.is_zero()

        pair = HPoly([0, Q_K]).split()
        assert pair.F.is_zero()
        assert pair.G == CPoly([GaussRat(0), GaussRat(0, 1)])

    def test_extend_examples(self):
        assert SplitPair(CPoly([GaussRat(0), GaussRat(1)]), CPoly([GaussRat(-1)])).extend() == F_QJ
        assert SplitPair(cpoly_from_rationals([1, 0, 1]), CPoly()).extend() == HPoly([1, 0, 1])

    @given(hpolys(4))
    def test_roundtrip(self, f):
        assert f.split().extend() == f

    @given(hpolys(4))
    def test_split_of_conjugate(self, f):
        pair = f.split()
        conj_pair = f.conjugate().split()
        assert conj_pair.F == pair.F.hat()
        assert conj_pair.G == -pair.G

    @given(hpolys(4))
    def test_split_of_symmetrization(self, f):
        pair = f.split()
        sym_pair = f.symmetrize().split()
        assert sym_pair.F == pair.F * pair.F.hat() + pair.G * pair.G.hat()
        assert sym_pair.G.is_zero()


class TestEval:
    def test_linear_at_j(self):
        assert F_QI.eval(Q_J) == Q_J - Q_I

    def test_star_at_real_point_multiplies(self):
        two = Quat(2)
        assert (F_QI * F_QJ).eval(two) == F_QI.eval(two) * F_QJ.eval(two)
        assert (F_QI * F_QJ).eval(two) == Quat(4, -2, -2, 1)

    def test_star_eval_differs_from_pointwise_product(self):
        assert (F_QI * F_QJ).eval(Q_J) == 2 * Q_K
        assert F_QI.eval(Q_J) * F_QJ.eval(Q_J) == Q_ZERO


class TestStarEvalPointwise:
    def test_conjugated_point_example(self):
        fq = F_QI.eval(Q_J)
        assert fq.inverse() * Q_J * fq == -Q_I
        assert star_eval_pointwise(F_QI, F_QJ, Q_J) == 2 * Q_K

    def test_vanishing_left_factor(self):
        assert star_eval_pointwise(F_QI, F_QJ, Q_I) == Q_ZERO

    def test_right_identity(self):
        assert star_eval_pointwise(F_QI, HP_ONE, Q_J) == F_QI.eval(Q_J)

    @given(hpolys(3), hpolys(3), quats)
    def test_matches_star_evaluation(self, f, g, q):
        assert star_eval_pointwise(f, g, q) == (f * g).eval(q)


class TestExtensionFormula:
    def test_linear_example(self):
        # f = q - j evaluated at x + y k from its two slice values.
        x, y = Fraction(2), Fraction(3)
        value = extension_eval(F_QJ, x, y, Q_K)
        assert value == Quat(2, 0, -1, 3)
        assert value == F_QJ.eval(Quat(2, 0, 0, 3))

    @settings(max_examples=50)
    @given(hpolys(4), small_fracs, small_fracs, axes)
    def test_agrees_with_direct_evaluation(self, f, x, y, axis):
        point = Quat(x) + axis * y
        assert extension_eval(f, x, y, axis) == f.eval(point)


class TestEvalOnSphere:
    def test_spherical_vanishing(self):
        assert eval_on_sphere(HPoly([1, 0, 1]), Sphere(0, 1)) == (Q_ZERO, Q_ZERO)

    def test_linear_unit_sphere(self):
        assert eval_on_sphere(F_QI, Sphere(0, 1)) == (-Q_I, Q_ONE)

    def test_shifted_sphere(self):
        f = q_minus(Quat(1, 1))  # q - (1 + i)
        assert eval_on_sphere(f, Sphere(1, 1)) == (-Q_I, Q_ONE)

    @settings(max_examples=50)
    @given(hpolys(4), small_fracs, small_fracs, axes)
    def test_matches_pointwise_evaluation(self, f, x, y, axis):
        a, c = eval_on_sphere(f, Sphere(x, y * y))
        point = Quat(x) + axis * y
        assert f.eval(point) == a + (axis * y) * c

    @given(hpolys(4), small_fracs, small_fracs)
    def test_symmetrization_has_scalar_parts(self, f, x, y):
        a, c = eval_on_sphere(f.symmetrize(), Sphere(x, y * y))
        assert a.is_real() and c.is_real()


class TestZerosOnSphere:
    def test_point_zero(self):
        out = zeros_on_sphere(F_QI, Sphere(0, 1))
        assert out.kind == "point" and out.point == Q_I

    def test_spherical_zero(self):
        assert zeros_on_sphere(HPoly([1, 0, 1]), Sphere(0, 1)).kind == "spherical"

    def test_product_contributes_single_point(self):
        out = zeros_on_sphere(F_QI * F_QJ, Sphere(0, 1))
        assert out.kind == "point" and out.point == Q_I

    def test_no_zero(self):
        assert zeros_on_sphere(F_QI, Sphere(0, 4)).kind == "none"

    def test_real_point(self):
        f = q_minus(Quat(2))
        assert zeros_on_sphere(f, Sphere(2, 0)).point == Quat(2)
        assert zeros_on_sphere(f, Sphere(3, 0)).kind == "none"


class TestClassifyZeros:
    def test_single_isolated(self):
        zs = classify_zeros(F_QI)
        assert zs.spherical == ()
        assert zs.isolated == ((Sphere(0, 1), Q_I),)
        assert zs.residual.is_one()

    def test_spherical(self):
        zs = classify_zeros(HPoly([1, 0, 1]))
        assert zs.spherical == (Sphere(0, 1),)
        assert zs.isolated == ()

    def test_product_keeps_only_realized_point(self):
        zs = classify_zeros(PRODUCT_IJ)
        assert zs.spherical == ()
        assert zs.isolated == ((Sphere(0, 1), Q_I),)

    def test_real_zero(self):
        zs = classify_zeros(q_minus(Quat(2)))
        assert zs.isolated == ((Sphere(2, 0), Quat(2)),)

    def test_irrational_real_roots_go_to_residual(self):
        zs = classify_zeros(HPoly([-2, 0, 1]))  # q^2 - 2
        assert zs.spherical == () and zs.isolated == ()
        assert (zs.residual % cpoly_from_rationals([-2, 0, 1])).is_zero()

    def test_repeated_factor_found_once(self):
        zs = classify_zeros(F_QI * F_QI)
        assert zs.isolated == ((Sphere(0, 1), Q_I),)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            classify_zeros(HPoly())

    def test_mixed_sphere_and_point(self):
        f = HPoly([1, 0, 1]) * q_minus(Quat(0, 0, 2))  # (q^2+1) * (q - 2j)
        zs = classify_zeros(f)
        assert zs.spherical == (Sphere(0, 1),)
        assert zs.isolated == ((Sphere(0, 4), Quat(0, 0, 2)),)

    def test_residual_completes_factorization(self):
        f = q_minus(Q_I) * HPoly([-2, 0, 1])
        sym_f = f.symmetrize().split().F.monic()
        spheres, residual = real_poly_sphere_factors(sym_f)
        product = residual
        for sphere, mult in spheres:
            for _ in range(mult):
                product = product * sphere.slice_min_poly()
        assert product == sym_f
        assert classify_zeros(f).residual == residual

    @settings(max_examples=30)
    @given(st.lists(quats, min_size=1, max_size=3))
    def test_product_zeros_lie_on_factor_spheres(self, roots):
        # Every zero of a product of linear factors sits on a sphere where
        # one of the factors vanishes.
        factors = [q_minus(c) for c in roots]
        product = HP_ONE
        for f in factors:
            product = product * f
        zs = classify_zeros(product)
        factor_spheres = set()
        for c in roots:
            factor_spheres.add((c.real_part(), c.imag_part().norm_sq()))
        for sphere in zs.spherical:
            assert (sphere.x, sphere.y_squared) in factor_spheres
        for sphere, point in zs.isolated:
            assert (sphere.x, sphere.y_squared) in factor_spheres
            assert product.eval(point) == Q_ZERO


def _low_degree_inputs():
    """Seeded real polynomials of degree 0-2, labelled by the factoring case."""
    rng = random.Random(2)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    def scaled(values):
        lead = frac() or Fraction(1)
        return cpoly_from_rationals([lead * v for v in values])

    cases = []
    for _ in range(3):
        a, b, y = frac(), frac(), frac() or Fraction(1)
        cases.append(("constant", scaled([1])))
        cases.append(("linear", scaled([-a, 1])))
        cases.append(("negative discriminant", scaled([a * a + y * y, -2 * a, 1])))
        cases.append(("zero discriminant", scaled([a * a, -2 * a, 1])))
        if a != b:
            cases.append(("rational roots", scaled([a * b, -(a + b), 1])))
        cases.append(("irrational roots", scaled([a * a - 2 * y * y, -2 * a, 1])))
    return cases


LOW_DEGREE = _low_degree_inputs()


@pytest.mark.parametrize("case,p", LOW_DEGREE, ids=[f"{k}-{case}" for k, (case, _) in enumerate(LOW_DEGREE)])
def test_closed_form_factors_match_sympy(case, p):
    expected = _sympy_sphere_factors(p)
    assert _low_degree_sphere_factors(p) == expected
    assert real_poly_sphere_factors(p) == expected
    spheres, residual = expected
    if case == "irrational roots":
        assert spheres == [] and residual.degree == 2
    else:
        assert residual.is_one()


class TestReciprocalPair:
    def test_linear(self):
        pair = reciprocal_pair(F_QI)
        assert pair.numerator == HPoly([Q_I, 1])
        assert pair.denominator == HPoly([1, 0, 1])

    def test_real(self):
        f = q_minus(Quat(2))
        pair = reciprocal_pair(f)
        assert pair.numerator == f
        assert pair.denominator == f * f

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_pair(HPoly())

    @given(nonzero_hpolys(4))
    def test_defining_identity(self, f):
        pair = reciprocal_pair(f)
        assert f * pair.numerator == pair.denominator


class TestDivideByReal:
    def test_exact_quotient(self):
        real = HPoly([1, 0, 1])
        f = PRODUCT_IJ * real
        assert f.divide_by_real(real) == PRODUCT_IJ

    def test_inexact_rejected(self):
        with pytest.raises(ValueError):
            PRODUCT_IJ.divide_by_real(HPoly([1, 0, 1]))

    def test_nonreal_divisor_rejected(self):
        with pytest.raises(ValueError):
            PRODUCT_IJ.divide_by_real(F_QI)
