import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from qcorona.cpoly import (
    CP_ONE,
    CPoly,
    _zi_divmod,
    bezout_multi,
    bezout_pair,
    gcd_monic,
)
from qcorona.polymatrix import det_bareiss
from qcorona.scalars import GaussRat

from conftest import CP_Z, cpolys, gauss_rats, nonzero_cpolys, poly_matrix

I = GaussRat(0, 1)
Z_MINUS_I = CPoly([-I, 1])
Z_PLUS_I = CPoly([I, 1])


def _bezout_lists():
    """Seeded C[z] lists for the bezout_multi digest.

    Random lists mix zero, constant and low-degree members; the structured
    ones add a zero last member, a constant in the middle, a coprime tail
    z - a, z - b that closes the fold before the head is reached, and a
    factor shared by every member, so the gcd is not one.
    """
    rng = random.Random("bezout_multi")

    def small():
        return GaussRat(Fraction(rng.randint(-6, 6), rng.randint(1, 3)), rng.randint(-3, 3))

    def poly(degree):
        if degree < 0:
            return CPoly()
        lead = GaussRat(rng.randint(1, 4), rng.randint(-2, 2))
        return CPoly([small() for _ in range(degree)] + [lead])

    def random_list(n):
        return [poly(rng.choice((-1, 0, 1, 2, 3))) for _ in range(n)]

    lists = []
    for _ in range(60):
        head = random_list(rng.randint(1, 4))
        if not any(head):
            head.append(poly(2))
        a = small()
        shared = CPoly([-a, 1])
        lists += [
            head,
            head + [CPoly()],
            head[:1] + [CPoly([small() or GaussRat(1)])] + head[1:],
            head + [CPoly([-a, 1]), CPoly([-a - GaussRat(1, 1), 1])],
            [p * shared for p in head],
        ]
    return lists


# sha256 over repr(bezout_multi(ps)) for every list of _bezout_lists(): the
# fold order, the witness updates and the monic rescaling all show in it.
BEZOUT_MULTI_DIGEST = "4a73eaf44524381cdff91b495181c201fbad728973dec3d24ec37fc019f9abcc"

# Per-coefficient GaussRat arithmetic on coefficient lists, ascending; the
# reference for the integer form in TestCanonicalForm.

gauss_lists = st.lists(gauss_rats, max_size=4)


def _stripped(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _gr_mul(a, b):
    out = [GaussRat(0)] * max(len(a) + len(b) - 1, 0)
    for m, x in enumerate(a):
        for n, y in enumerate(b):
            out[m + n] = out[m + n] + x * y
    return _stripped(out)


def _gr_sub(a, b):
    n = max(len(a), len(b))
    pad = [GaussRat(0)] * n
    return _stripped(x - y for x, y in zip(list(a) + pad[len(a):], list(b) + pad[len(b):]))


def _gr_divmod(a, b):
    """Long division of stripped lists, b nonzero."""
    a, b = _stripped(a), _stripped(b)
    if len(a) < len(b):
        return (), a
    rem, inv = list(a), b[-1].inverse()
    quo = [GaussRat(0)] * (len(a) - len(b) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] * inv
        quo[k] = c
        for m, y in enumerate(b):
            rem[k + m] = rem[k + m] - c * y
    return _stripped(quo), _stripped(rem[:len(b) - 1])


def _gr_det3(rows):
    """3 x 3 determinant by the rule of Sarrus."""
    total = ()
    for j in range(3):
        plus = _gr_mul(_gr_mul(rows[0][j], rows[1][(j + 1) % 3]), rows[2][(j + 2) % 3])
        minus = _gr_mul(_gr_mul(rows[0][j], rows[1][(j + 2) % 3]), rows[2][(j + 1) % 3])
        total = _gr_sub(total, _gr_sub(minus, plus))
    return total


class TestArithmetic:
    def test_difference_of_squares(self):
        assert Z_MINUS_I * Z_PLUS_I == CPoly([1, 0, 1])

    def test_multiply_by_zero(self):
        assert CP_Z * CPoly() == CPoly()

    def test_addition(self):
        assert CPoly([1, 1]) + CPoly([-1, 1]) == CPoly([0, 2])

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

    @given(cpolys(3), gauss_rats)
    def test_scalar_product_matches_scalar_arithmetic(self, a, c):
        assert a * CPoly.const(c) == CPoly([x * c for x in a.coeffs])
        for k in (c.re, c.im.numerator, 0):
            assert a * CPoly.const(k) == CPoly([x * GaussRat(k) for x in a.coeffs])
            assert CPoly.const(k) * a == a * CPoly.const(k)

    def test_scalar_product_with_zero(self):
        p = CPoly([GaussRat(Fraction(1, 2), 3), GaussRat(0), GaussRat(-1, Fraction(2, 3))])
        assert (p * CPoly.const(GaussRat(0))).is_zero() and (p * CPoly.const(0)).is_zero()
        assert (CPoly() * CPoly.const(GaussRat(2, -1))).is_zero()
        c = GaussRat(Fraction(-3, 2), Fraction(1, 5))
        assert p * CPoly.const(c) == CPoly([x * c for x in p.coeffs])
        assert (p * CPoly.const(c)).coeffs[0] == GaussRat(Fraction(-27, 20), Fraction(-22, 5))

    def test_other_operands_raise_type_error(self):
        p = CPoly([1])
        for op in (lambda: p + 1, lambda: p - 1, lambda: divmod(p, 1), lambda: p % 1,
                   lambda: p * 2, lambda: 2 * p):
            with pytest.raises(TypeError):
                op()

    @given(cpolys(3), nonzero_cpolys(3))
    def test_divmod_is_exact(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def _zi(pairs):
    """The Z[i][z] polynomial (re, im) with these (re, im) coefficients, stripped."""
    pairs = list(pairs)
    while pairs and pairs[-1] == (0, 0):
        pairs.pop()
    return [x for x, _ in pairs], [y for _, y in pairs]


def _cp(p):
    """The Z[i][z] polynomial p as a CPoly."""
    return CPoly(GaussRat(x, y) for x, y in zip(*p))


zi_coeffs = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
zi_polys = st.lists(zi_coeffs, max_size=7).map(_zi)
# Leading coefficients L with |L|^2 > 1, so that a step can need a scale.
zi_divisors = st.builds(
    lambda low, lead: _zi(low + [lead]),
    st.lists(zi_coeffs, max_size=3),
    st.sampled_from([(1, 1), (2, 1), (3, 0), (1, -2), (0, 2), (-2, -2)]),
)


class TestZiDivmod:
    """_zi_divmod(a, b) = (s, qr, qi, rr, ri): s*a = b*q + r, deg r < deg b, s > 0."""

    @given(zi_polys, zi_divisors)
    def test_scaled_division_identity(self, a, b):
        s, qr, qi, rr, ri = _zi_divmod(a, b)
        assert s > 0
        assert len(qr) == len(qi) == max(len(a[0]) - len(b[0]) + 1, 0)
        assert _cp(a) * CPoly.const(s) == _cp(b) * _cp((qr, qi)) + _cp((rr, ri))
        assert _cp((rr, ri)).degree < _cp(b).degree

    @given(zi_polys, zi_divisors, zi_polys)
    def test_quotient_in_z_i_needs_no_scale(self, q, b, r):
        """a = b*q + r with q in Z[i][z] and deg r < deg b, r = 0 included, gives s = 1."""
        r = _zi(list(zip(*r))[:len(b[0]) - 1])
        a = _cp(b) * _cp(q) + _cp(r)
        s, qr, qi, rr, ri = _zi_divmod(_zi((c.re.numerator, c.im.numerator) for c in a.coeffs), b)
        assert s == 1
        assert _cp((qr, qi)) == _cp(q) and _cp((rr, ri)) == _cp(r)

    def test_a_unit_quotient_by_a_non_unit_lead(self):
        # w = (1+i)(1-i) = 2 is divisible by |L|^2 = 2, while t = 1+i alone is not.
        assert _zi_divmod(([1], [1]), ([1], [1])) == (1, [1], [0], [], [])

    def test_non_integral_quotient_is_scaled(self):
        # z / (2z + 1): s = 2, q = 1, r = -1.
        assert _zi_divmod(([0, 1], [0, 0]), ([1, 2], [0, 0])) == (2, [1], [0], [-1], [0])


class TestCanonicalForm:
    """(d, re, im) is canonical: d > 0 and gcd(d, *re, *im) = 1.

    Equality compares that form, so these tests also compare the lazily
    built .coeffs with the GaussRats the arithmetic must produce.
    """

    @given(
        st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), max_size=4),
        st.integers(1, 30),
        st.integers(-6, 6).filter(bool),
        st.integers(0, 2),
    )
    @example([], 1, -2, 1)
    @example([(4, -6)], 2, -3, 0)
    def test_scaled_numerators_give_the_same_polynomial(self, nums, d, k, zeros):
        re = [x for x, _ in nums] + [0] * zeros
        im = [y for _, y in nums] + [0] * zeros
        p = CPoly._from_ints(k * d, [k * x for x in re], [k * y for y in im])
        q = CPoly([GaussRat(Fraction(x, d), Fraction(y, d)) for x, y in zip(re, im)])
        assert p == q
        assert hash(p) == hash(q)
        assert p.coeffs == q.coeffs == _stripped(q.coeffs)
        assert (str(p), repr(p)) == (str(q), repr(q))

    @settings(max_examples=50)
    @given(st.lists(st.tuples(gauss_rats, st.integers(1, 50), st.integers(1, 50)), max_size=4))
    @example([(GaussRat(Fraction(3, 2), 0), 2, 1), (GaussRat(0), 7, 7)])
    def test_unreduced_ratios_give_the_same_polynomial(self, draws):
        re = [(c.re.numerator * k, c.re.denominator * k) for c, k, _ in draws]
        im = [(c.im.numerator * k, c.im.denominator * k) for c, _, k in draws]
        p = CPoly.from_ratios(re, im)
        q = CPoly([c for c, _, _ in draws])
        assert p == q
        assert p.coeffs == q.coeffs == _stripped(q.coeffs)

    @given(gauss_lists, gauss_lists)
    @example([GaussRat(2), GaussRat(0, 4)], [GaussRat(Fraction(1, 2))])
    def test_arithmetic_matches_coefficientwise(self, xs, ys):
        a, b = CPoly(xs), CPoly(ys)
        for result, expected in (
            (a * b, _gr_mul(xs, ys)),
            (a - b, _gr_sub(xs, ys)),
            (a.hat(), _stripped(x.conjugate() for x in xs)),
        ):
            assert result.coeffs == expected
            assert result == CPoly(expected)
        if b:
            for result, expected in zip(divmod(a, b), _gr_divmod(xs, ys)):
                assert result.coeffs == expected
                assert result == CPoly(expected)

    @settings(max_examples=40)
    @given(st.lists(gauss_lists, min_size=9, max_size=9))
    @example([[]] + [[GaussRat(k, 1)] for k in range(1, 9)])
    def test_det_bareiss_matches_coefficientwise(self, entries):
        rows = [entries[3 * i:3 * i + 3] for i in range(3)]
        det = det_bareiss(poly_matrix([[CPoly(e) for e in row] for row in rows]))
        expected = _gr_det3(rows)
        assert det.coeffs == expected
        assert det == CPoly(expected)


class TestHat:
    def test_conjugates_coefficients(self):
        assert CPoly([GaussRat(1), I]).hat() == CPoly([GaussRat(1), -I])

    def test_fixes_real_polynomials(self):
        p = CPoly([1, 0, 1])
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
        assert CPoly([1, 0, 1]).eval(I) == GaussRat(0)

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
        a = Z_MINUS_I * CPoly([-1, 1])
        b = Z_MINUS_I * CPoly([5, 1])
        assert gcd_monic(a, b) == Z_MINUS_I

    def test_coprime(self):
        assert gcd_monic(CP_Z, CPoly([-1, 1])).is_one()

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
        g, ws = bezout_multi([CP_Z, CPoly([-1, 1])])
        assert g.is_one()
        assert ws == [CP_ONE, CPoly([GaussRat(-1)])]

    def test_square_versus_linear(self):
        g, ws = bezout_multi([CP_Z * CP_Z, CPoly([-1, 1])])
        assert g.is_one()
        assert ws == [CP_ONE, CPoly([-1, -1])]

    def test_unit_entry_shortcut(self):
        ps = [Z_MINUS_I, CPoly(), CP_Z, CPoly([GaussRat(-1)])]
        g, ws = bezout_multi(ps)
        assert g.is_one()
        assert ws == [CPoly(), CPoly(), CPoly(), CPoly([GaussRat(-1)])]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            bezout_multi([CPoly(), CPoly()])

    def test_witnesses_are_pinned(self):
        h = hashlib.sha256()
        for ps in _bezout_lists():
            h.update(repr(bezout_multi(ps)).encode("utf-8"))
        assert h.hexdigest() == BEZOUT_MULTI_DIGEST

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
