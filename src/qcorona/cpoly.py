"""Univariate polynomials over the Gaussian rationals.

These are the slice-plane components of quaternionic polynomials.  The ring
is a Euclidean domain, so gcds and Bezout witnesses exist and are computed
exactly; every remainder is normalized to monic form to keep coefficient
growth in check.

The extended Euclidean algorithm lives here once, for C[z] and for H[q]
alike: bezout_pair is the step and bezout_fold the fold over a family.
Both use only divmod, right products and right scalings, one scale per
step, built once as a constant polynomial, and C[z] is the
i-slice of H[q], where right division is ordinary division, so
bezout_multi and hpoly.right_bezout run the same code.  gcd_monic is the
witness-free gcd.

A CPoly is stored only as Gaussian-integer numerators over one positive
denominator, (d, re, im), with the content gcd(d, *re, *im) removed once
per polynomial when it is built; that form is canonical, so equality and
hashing compare it directly.  Products, sums, differences, negation, hat
and divmod run on the numerators in plain integer arithmetic and build
their result from (d, re, im).  A product takes two CPolys; a scalar
enters only through ``const``.  The GaussRat coefficients
(``coeffs``, ``coeff`` and ``lead``) are built from that form on every
read, and ``parts`` reads one coefficient as two Fractions.
``from_ratios`` builds a CPoly from (numerator, denominator) int pairs,
reduced or not, with no Fraction and no GaussRat; the file parser and
HPoly build theirs through it.  ``_scaled`` is the one routine that puts
such pairs over a common denominator, and __init__ uses it too.
``_mul_add`` forms a*b +- c*e on the numerators with one content removal,
which is each component of the star product.

Division has one kernel, ``_zi_divmod``: long division in Z[i][z] that
scales by a positive integer s only where a quotient coefficient would
leave Z[i], so s*a = b*q + r, and s = 1 exactly when the quotient lies in
Z[i][z].  divmod puts the denominators of both operands back around it,
and ``_zi_exact_div`` is the kernel plus a check that s = 1 and r = 0.
The coefficient-list helpers ``_zi_mul``, ``_zi_sub`` and
``_zi_exact_div`` work on Z[i][z] directly; ``polymatrix.det_bareiss``
runs its whole elimination on them.  Right division in H[q] runs on
divmod too, by the norm b^s = b^c * b of the divisor b on each slice
component, once ``_drop_low`` has cut off the unused low coefficients.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .scalars import GR_ZERO, GaussRat

CoeffLike = Union[GaussRat, Fraction, int]
Ratio = tuple[int, int]
ZiPoly = tuple[Sequence[int], Sequence[int]]


def _coeff(value: CoeffLike) -> GaussRat:
    if isinstance(value, GaussRat):
        return value
    return GaussRat(value)


def _scaled(re: Sequence[Ratio], im: Sequence[Ratio]) -> tuple[int, list[int], list[int]]:
    """(d, xs, ys) with re[m] = xs[m] / d and im[m] = ys[m] / d, d the lcm of the denominators.

    re and im hold (numerator, denominator) pairs with nonzero denominators,
    reduced or not.
    """
    d = lcm(*(q for _, q in re), *(q for _, q in im))
    return d, [p * (d // q) for p, q in re], [p * (d // q) for p, q in im]


# Polynomials over Z[i] as (re, im): two equally long sequences of integer
# coefficients, ascending, with no trailing zero coefficient; the zero
# polynomial is ([], []).

def _zi_mul(a: ZiPoly, b: ZiPoly) -> ZiPoly:
    """Product in Z[i][z]."""
    ar, ai = a
    br, bi = b
    if not ar or not br:
        return [], []
    re = [0] * (len(ar) + len(br) - 1)
    im = [0] * len(re)
    for m, (x, y) in enumerate(zip(ar, ai)):
        if not (x or y):
            continue
        for n, (u, v) in enumerate(zip(br, bi), m):
            re[n] += x * u - y * v
            im[n] += x * v + y * u
    return re, im


def _zi_sub(a: ZiPoly, b: ZiPoly) -> ZiPoly:
    """Difference in Z[i][z]."""
    (ar, ai), (br, bi) = a, b
    re = [x - u for x, u in zip_longest(ar, br, fillvalue=0)]
    im = [y - v for y, v in zip_longest(ai, bi, fillvalue=0)]
    while re and not (re[-1] or im[-1]):
        re.pop()
        im.pop()
    return re, im


def _zi_divmod(a: ZiPoly, b: ZiPoly) -> tuple[int, list[int], list[int], list[int], list[int]]:
    """(s, qr, qi, rr, ri) with s*a = b*q + r in Z[i][z], deg r < deg b and s > 0, for nonzero b.

    Step k cancels the leading coefficient t of the running remainder with
    q_k = t / L, L the leading coefficient of b.  As t / L = w / |L|^2 with
    w = t * conj(L), scaling the remainder, the quotient and s by
    |L|^2 / gcd(w_r, w_i, |L|^2) makes q_k = w / gcd(w_r, w_i, |L|^2) a
    Gaussian integer, and that scale is the least positive one that does.
    So s == 1 exactly when b divides a with a quotient in Z[i][z].  The
    quotient lists have length deg a - deg b + 1 (none when deg a < deg b),
    and the remainder lists length min(len(a), deg b), maybe with trailing
    zeros.
    """
    br, bi = b
    rr, ri = list(a[0]), list(a[1])
    bdeg = len(br) - 1
    u, v = br[-1], bi[-1]
    norm = u * u + v * v
    s = 1
    qr = [0] * max(len(rr) - bdeg, 0)
    qi = [0] * len(qr)
    for k in range(len(qr) - 1, -1, -1):
        x, y = rr[k + bdeg], ri[k + bdeg]
        if not (x or y):
            continue
        wr, wi = x * u + y * v, y * u - x * v
        # norm first: the running gcd then never exceeds |L|^2, usually far
        # smaller than w, where gcd(w_r, w_i) would work on two big integers.
        g = gcd(norm, wr, wi)
        scale = norm // g
        if scale != 1:
            rr = [scale * t for t in rr]
            ri = [scale * t for t in ri]
            qr = [scale * t for t in qr]
            qi = [scale * t for t in qi]
            s *= scale
        x, y = wr // g, wi // g
        qr[k], qi[k] = x, y
        for m, (p, w) in enumerate(zip(br, bi), k):
            rr[m] -= x * p - y * w
            ri[m] -= x * w + y * p
    return s, qr, qi, rr[:bdeg], ri[:bdeg]


def _zi_exact_div(a: ZiPoly, b: ZiPoly) -> ZiPoly:
    """Quotient a / b in Z[i][z] for nonzero b; ValueError unless b divides a there."""
    s, qr, qi, rr, ri = _zi_divmod(a, b)
    if s != 1 or any(rr) or any(ri):
        raise ValueError("division is not exact")
    return qr, qi


class CPoly:
    """Polynomial in one variable z, coefficients ascending, no trailing zeros.

    The state is ``_ints = (d, re, im)``: coefficient m is
    (re[m] + im[m]*i) / d with d > 0 and gcd(d, *re, *im) = 1, so d is the
    lcm of the reduced coefficient denominators and the form is canonical.
    """

    __slots__ = ("_ints",)

    def __init__(self, coeffs: Iterable[CoeffLike] = ()):
        cs = [_coeff(c) for c in coeffs]
        self._set_ints(*_scaled(
            [c.re.as_integer_ratio() for c in cs], [c.im.as_integer_ratio() for c in cs]
        ))

    @classmethod
    def from_ratios(cls, re: Sequence[Ratio], im: Sequence[Ratio]) -> "CPoly":
        """The polynomial with coefficients re[m] + im[m]*i, each a (numerator, denominator) pair.

        The pairs need not be reduced: the numerators go over the lcm of the
        denominators and the content is removed once.  Builds no Fraction
        and no GaussRat.
        """
        return cls._from_ints(*_scaled(re, im))

    @classmethod
    def _from_ints(cls, d: int, re: Sequence[int], im: Sequence[int]) -> "CPoly":
        """The polynomial with coefficients (re[m] + im[m]*i) / d, for any nonzero d."""
        p = object.__new__(cls)
        p._set_ints(d, re, im)
        return p

    def _set_ints(self, d: int, re: Sequence[int], im: Sequence[int]) -> None:
        """Store the canonical form: no trailing zeros, d > 0, content removed."""
        n = len(re)
        while n and not (re[n - 1] or im[n - 1]):
            n -= 1
        if not n:
            object.__setattr__(self, "_ints", (1, (), ()))
            return
        re, im = tuple(re[:n]), tuple(im[:n])
        g = gcd(d, *re, *im)
        if d < 0:
            g = -g
        if g != 1:
            d //= g
            re = tuple(x // g for x in re)
            im = tuple(y // g for y in im)
        object.__setattr__(self, "_ints", (d, re, im))

    def __setattr__(self, name, value):
        raise AttributeError("CPoly is immutable")

    @property
    def coeffs(self) -> tuple[GaussRat, ...]:
        """The coefficients as GaussRats, ascending, built from the integer form on every read."""
        return tuple(self.coeff(m) for m in range(self.degree + 1))

    @classmethod
    def const(cls, value: CoeffLike) -> "CPoly":
        return cls([value])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._ints[1]) - 1

    def is_zero(self) -> bool:
        return not self._ints[1]

    def is_one(self) -> bool:
        return self._ints == (1, (1,), (0,))

    def lead(self) -> GaussRat:
        if not self:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def parts(self, m: int) -> tuple[Fraction, Fraction]:
        """Real and imaginary part of coefficient m, read from the integer form."""
        d, re, im = self._ints
        if 0 <= m < len(re):
            return Fraction(re[m], d), Fraction(im[m], d)
        return Fraction(0), Fraction(0)

    def coeff(self, m: int) -> GaussRat:
        return GaussRat(*self.parts(m))

    def __eq__(self, other):
        if not isinstance(other, CPoly):
            return NotImplemented
        return self._ints == other._ints

    def __hash__(self):
        return hash(self._ints)

    def __bool__(self):
        return bool(self._ints[1])

    def __add__(self, other: "CPoly") -> "CPoly":
        if not isinstance(other, CPoly):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "CPoly") -> "CPoly":
        if not isinstance(other, CPoly):
            return NotImplemented
        return self._combine(other, -1)

    def _combine(self, other: "CPoly", sign: int) -> "CPoly":
        """self + sign * other."""
        if not other:
            return self
        if not self:
            return other if sign > 0 else -other
        da, ar, ai = self._ints
        db, br, bi = other._ints
        return _sum_ints(da, (ar, ai), db, (br, bi), sign)

    def __neg__(self) -> "CPoly":
        d, re, im = self._ints
        return CPoly._from_ints(d, [-x for x in re], [-y for y in im])

    def __mul__(self, other: "CPoly") -> "CPoly":
        if not isinstance(other, CPoly):
            return NotImplemented
        da, ar, ai = self._ints
        db, br, bi = other._ints
        re, im = _zi_mul((ar, ai), (br, bi))
        return CPoly._from_ints(da * db, re, im)

    def __divmod__(self, other: "CPoly") -> tuple["CPoly", "CPoly"]:
        if not isinstance(other, CPoly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        # With self = a / da, other = b / db and s*a = b*q + r, the quotient
        # is (q * db) / (s * da) and the remainder r / (s * da).
        da, ar, ai = self._ints
        db, br, bi = other._ints
        s, qr, qi, rr, ri = _zi_divmod((ar, ai), (br, bi))
        d = s * da
        quo = CPoly._from_ints(d, [t * db for t in qr], [t * db for t in qi])
        return quo, CPoly._from_ints(d, rr, ri)

    def __mod__(self, other: "CPoly") -> "CPoly":
        return divmod(self, other)[1]

    def monic(self) -> "CPoly":
        if self.is_zero():
            return self
        return self * CPoly.const(self.lead().inverse())

    def hat(self) -> "CPoly":
        """Coefficientwise conjugation; an involutive ring automorphism."""
        d, re, im = self._ints
        return CPoly._from_ints(d, re, [-y for y in im])

    def has_real_coeffs(self) -> bool:
        return not any(self._ints[2])

    def eval(self, z: GaussRat) -> GaussRat:
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __str__(self):
        if not self:
            return "0"
        terms = []
        for m in range(self.degree, -1, -1):
            c = self.coeff(m)
            if not c:
                continue
            if m == 0:
                terms.append(f"({c})")
            elif m == 1:
                terms.append(f"({c})z")
            else:
                terms.append(f"({c})z^{m}")
        return " + ".join(terms)

    def __repr__(self):
        return f"CPoly([{', '.join(repr(c) for c in self.coeffs)}])"


def _sum_ints(da: int, a: ZiPoly, db: int, b: ZiPoly, sign: int) -> CPoly:
    """a / da + sign * b / db, for Z[i][z] numerators a and b, with one content removal."""
    (ar, ai), (br, bi) = a, b
    d = lcm(da, db)
    sa, sb = d // da, sign * (d // db)
    re = [sa * x + sb * u for x, u in zip_longest(ar, br, fillvalue=0)]
    im = [sa * y + sb * v for y, v in zip_longest(ai, bi, fillvalue=0)]
    return CPoly._from_ints(d, re, im)


def _drop_low(p: CPoly, k: int) -> CPoly:
    """The polynomial sum_{m >= k} p_m z^(m-k), read off the integer form."""
    d, re, im = p._ints
    return CPoly._from_ints(d, re[k:], im[k:])


def _mul_add(a: CPoly, b: CPoly, c: CPoly, e: CPoly, sign: int) -> CPoly:
    """a*b + sign * c*e: both products and the sum on the numerators, one content removal."""
    (da, *a_zi), (db, *b_zi) = a._ints, b._ints
    (dc, *c_zi), (de, *e_zi) = c._ints, e._ints
    return _sum_ints(da * db, _zi_mul(a_zi, b_zi), dc * de, _zi_mul(c_zi, e_zi), sign)


CP_ZERO = CPoly()
CP_ONE = CPoly.const(1)


def gcd_monic(a: CPoly, b: CPoly) -> CPoly:
    """Monic gcd via Euclidean remainders; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, (a % b).monic()
    return a.monic()


def bezout_pair(a, b, remainders: list | None = None):
    """Extended Euclid in C[z] or H[q]: (g, x, y) with a*x + b*y = g, g monic (or zero).

    divmod is right division in both rings (in C[z] the ordinary one).  The
    invariant r_k = a*x_k + b*y_k carries each division
    r_{k-1} = r_k*q + r_{k+1} over to the witnesses on the right,
    x_{k+1} = x_{k-1} - x_k*q, which H[q] needs and C[z] does not notice.
    Each step builds one scale, the constant inverse of the remainder's
    leading coefficient, and multiplies the remainder and both witnesses on
    the right by it.  Monic remainders bound coefficient growth at the
    degrees this package works with; each is appended to remainders when a
    list is given.
    """
    one, zero = type(a).const(1), type(a)()
    r0, r1 = a, b
    x0, x1 = one, zero
    y0, y1 = zero, one
    while r1:
        q, r = divmod(r0, r1)
        x = x0 - x1 * q
        y = y0 - y1 * q
        if r:
            s = type(r).const(r.lead().inverse())
            r, x, y = r * s, x * s, y * s
            if remainders is not None:
                remainders.append(r)
        r0, r1, x0, x1, y0, y1 = r1, r, x1, x, y1, y
    if not r0:
        return zero, zero, zero
    s = type(r0).const(r0.lead().inverse())
    return r0 * s, x0 * s, y0 * s


def bezout_fold(ps: Sequence, remainders: list | None = None) -> tuple:
    """Monic generator g of the (right) ideal of ps, with witnesses: sum p_k*w_k = g.

    The fold starts from the last member.  Each earlier nonzero p is
    combined with the running generator g into p*x + g*y by bezout_pair,
    and the later witnesses are multiplied on the right by y.  Once g = 1
    the remaining earlier witnesses stay zero.  ps must not be empty; when
    every member is zero, so are g and the witnesses.
    """
    one, zero = type(ps[0]).const(1), type(ps[0])()
    g, ws = zero, [zero] * len(ps)
    for k in range(len(ps) - 1, -1, -1):
        if g == one:
            break
        if ps[k]:
            g, ws[k], y = bezout_pair(ps[k], g, remainders)
            ws[k + 1:] = [w * y for w in ws[k + 1:]]
    return g, ws


def bezout_multi(ps: Sequence[CPoly]) -> tuple[CPoly, list[CPoly]]:
    """Monic gcd of several polynomials plus witnesses w with sum(w*p) = gcd.

    The witnesses come from bezout_fold; no attempt is made to minimize
    their degrees.
    """
    if not ps:
        raise ValueError("empty input")
    if all(p.is_zero() for p in ps):
        raise ValueError("all input polynomials are zero")
    return bezout_fold(ps)


def dot(xs: Sequence, ys: Sequence):
    """x1*y1 + x2*y2 + ... in any ring, multiplied and added left to right.

    The sum starts from the first product, so xs and ys must not be empty.
    """
    return reduce(operator.add, map(operator.mul, xs, ys))
