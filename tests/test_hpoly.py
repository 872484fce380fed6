import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from qcorona.cpoly import CPoly
from qcorona.hpoly import (
    _low_degree_sphere_factors,
    _sympy_sphere_factors,
    HP_ONE,
    HP_Q,
    HPoly,
    Sphere,
    classify_zeros,
    eval_on_sphere,
    real_poly_sphere_factors,
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
# Polynomials whose middle coefficients are often exactly zero.
gapped_hpolys = st.lists(st.one_of(st.just(Q_ZERO), quats), max_size=5).map(HPoly)


def star_eval_pointwise(f: HPoly, g: HPoly, q: Quat) -> Quat:
    """Evaluate f*g at q through f(q) * g(f(q)^-1 q f(q)); 0 when f(q) = 0."""
    fq = f.eval(q)
    if not fq:
        return Q_ZERO
    moved = fq.inverse() * q * fq
    return fq * g.eval(moved)


def extension_eval(f: HPoly, x: Fraction, y: Fraction, axis: Quat) -> Quat:
    """Evaluate f at x + y*axis from its two values on the fixed slice.

    Combines f(x+yi) and f(x-yi) by the slice extension rule; agrees with
    direct evaluation and is used as an independent check of it.
    """
    plus = f.eval(Quat(x, y))
    minus = f.eval(Quat(x, -y))
    half = Fraction(1, 2)
    return (plus + minus) * half + axis * (Quat(0, half) * (minus - plus))


class TestStarProduct:
    def test_basic_convolution(self):
        assert F_QI * F_QJ == PRODUCT_IJ

    def test_one_is_neutral(self):
        assert PRODUCT_IJ * HP_ONE == PRODUCT_IJ
        assert HP_ONE * PRODUCT_IJ == PRODUCT_IJ

    def test_real_factor_commutes(self):
        real = HPoly([1, 0, 1])  # q^2 + 1
        assert real * F_QJ == F_QJ * real

    @given(gapped_hpolys, gapped_hpolys)
    def test_matches_per_coefficient_quat_convolution(self, f, g):
        out = [Q_ZERO] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
        for m, a in enumerate(f.coeffs):
            for n, b in enumerate(g.coeffs):
                out[m + n] = out[m + n] + a * b
        assert f * g == HPoly(out)

    @given(gapped_hpolys, quats, small_fracs, st.integers(-3, 3))
    def test_scalar_product_matches_quat_products(self, f, c, r, k):
        for s in (c, r, k):
            assert f * HPoly.const(s) == HPoly([a * s for a in f.coeffs])

    def test_lead(self):
        assert PRODUCT_IJ.lead() == Q_ONE
        assert HPoly([Q_I, Q_J]).lead() == Q_J
        with pytest.raises(ValueError):
            HPoly().lead()

    def test_other_operands_raise_type_error(self):
        f = HPoly([1])
        for op in (lambda: f + 1, lambda: f - 1, lambda: divmod(f, 1), lambda: f + CPoly([1]),
                   lambda: f * Quat(1)):
            with pytest.raises(TypeError):
                op()

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

    @given(gapped_hpolys)
    def test_conjugate_matches_per_coefficient_quat_conjugation(self, f):
        assert f.conjugate() == HPoly([c.conjugate() for c in f.coeffs])

    @given(hpolys(4), hpolys(4))
    def test_conjugate_antihomomorphism(self, f, g):
        assert (f * g).conjugate() == g.conjugate() * f.conjugate()

    @given(hpolys(4))
    def test_symmetrization_real_and_two_sided(self, f):
        sym = f.symmetrize()
        assert not sym.G and sym.F.has_real_coeffs()
        assert sym == f.conjugate() * f

    @given(hpolys(3), hpolys(3))
    def test_symmetrization_multiplicative(self, f, g):
        fs, gs = f.symmetrize(), g.symmetrize()
        assert (f * g).symmetrize() == fs * gs
        assert fs * gs == gs * fs


class TestSplitExtend:
    def test_split_examples(self):
        F, G = F_QJ.split()
        assert F == CPoly([GaussRat(0), GaussRat(1)])
        assert G == CPoly([GaussRat(-1)])

        F, G = HPoly([1, 0, 1]).split()
        assert F == CPoly([1, 0, 1])
        assert G.is_zero()

        F, G = HPoly([0, Q_K]).split()
        assert F.is_zero()
        assert G == CPoly([GaussRat(0), GaussRat(0, 1)])

    def test_extend_examples(self):
        assert HPoly.from_split(CPoly([GaussRat(0), GaussRat(1)]), CPoly([GaussRat(-1)])) == F_QJ
        assert HPoly.from_split(CPoly([1, 0, 1]), CPoly()) == HPoly([1, 0, 1])

    @given(hpolys(4))
    def test_roundtrip(self, f):
        assert HPoly.from_split(*f.split()) == f

    @given(hpolys(4))
    def test_split_of_conjugate(self, f):
        F, G = f.split()
        conj_F, conj_G = f.conjugate().split()
        assert conj_F == F.hat()
        assert conj_G == -G

    @given(hpolys(4))
    def test_split_of_symmetrization(self, f):
        F, G = f.split()
        sym_F, sym_G = f.symmetrize().split()
        assert sym_F == F * F.hat() + G * G.hat()
        assert sym_G.is_zero()


class TestCanonicalForm:
    """(F, G) is canonical, and coeffs are rebuilt from it on every read.

    An HPoly built from Quats, trailing zeros included, must be the one
    from_split gives for the same slice components.
    """

    @given(st.lists(quats, max_size=4), st.integers(0, 2))
    @example([], 0)
    @example([], 2)
    @example([Q_J], 0)
    @example([Quat(Fraction(1, 2), 0, Fraction(2, 3)), Q_I], 1)
    def test_quats_and_split_give_the_same_polynomial(self, cs, zeros):
        padded = cs + [Q_ZERO] * zeros
        f = HPoly(padded)
        g = HPoly.from_split(
            CPoly([GaussRat(c.x0, c.x1) for c in padded]),
            CPoly([GaussRat(c.x2, c.x3) for c in padded]),
        )
        while cs and not cs[-1]:
            cs = cs[:-1]
        assert f == g
        assert hash(f) == hash(g)
        assert f.coeffs == g.coeffs == tuple(cs)
        assert (str(f), repr(f)) == (str(g), repr(g))


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
        assert not (a.x1 or a.x2 or a.x3) and not (c.x1 or c.x2 or c.x3)


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


def _slice_min_poly(sphere: Sphere) -> CPoly:
    """Monic real polynomial whose slice roots are exactly this sphere."""
    if sphere.is_real_point():
        return CPoly([-sphere.x, 1])
    return CPoly([sphere.x * sphere.x + sphere.y_squared, -2 * sphere.x, 1])


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
        assert (zs.residual % CPoly([-2, 0, 1])).is_zero()

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
        sym_f = f.symmetrize().F.monic()
        spheres, residual = real_poly_sphere_factors(sym_f)
        product = residual
        for sphere, mult in spheres:
            for _ in range(mult):
                product = product * _slice_min_poly(sphere)
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
            factor_spheres.add((c.real_part(), c.norm_sq() - c.real_part() ** 2))
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
        return CPoly([lead * v for v in values])

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
    """The star inverse of f is f^c / f^s: f * f.conjugate() == f.symmetrize()."""

    def test_linear(self):
        assert F_QI.conjugate() == HPoly([Q_I, 1])
        assert F_QI.symmetrize() == HPoly([1, 0, 1])

    def test_real(self):
        f = q_minus(Quat(2))
        assert f.conjugate() == f
        assert f.symmetrize() == f * f

    @given(nonzero_hpolys(4))
    def test_defining_identity(self, f):
        assert f * f.conjugate() == f.symmetrize()

