"""Univariate polynomials over the Gaussian rationals.

These are the slice-plane components of quaternionic polynomials.  The ring
is a Euclidean domain, so gcds and Bezout witnesses exist and are computed
exactly; every remainder is normalized to monic form to keep coefficient
growth in check.

The extended Euclidean algorithm lives here once, for C[z] and for H[q]
alike: bezout_pair is the step and bezout_fold the fold over a family.
Both use only divmod, right products and right scalings, and C[z] is the
i-slice of H[q], where right division is ordinary division, so
bezout_multi and hpoly.right_bezout run the same code.  gcd_monic is the
witness-free gcd.

Products (by a polynomial or by a scalar), divisions, sums and differences
run on Gaussian-integer numerators over one common denominator per
polynomial (``CPoly._scaled``, computed once and cached), so the inner
loops do plain integer arithmetic and each result coefficient is reduced
to lowest terms once, when the result ``CPoly`` is built.  The
coefficient-list helpers ``_zi_mul``, ``_zi_sub`` and ``_zi_exact_div``
work on Z[i][z] directly; ``polymatrix.det_bareiss`` runs its whole
elimination on them.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .scalars import GR_ONE, GR_ZERO, GaussRat, RatLike

CoeffLike = Union[GaussRat, Fraction, int]
ZiPoly = tuple[Sequence[int], Sequence[int]]


def _coeff(value: CoeffLike) -> GaussRat:
    if isinstance(value, GaussRat):
        return value
    return GaussRat(value)


def _unscaled(d: int, re: Sequence[int], im: Sequence[int]) -> list[GaussRat]:
    return [GaussRat(Fraction(x, d), Fraction(y, d)) for x, y in zip(re, im)]


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


def _zi_exact_div(a: ZiPoly, b: ZiPoly) -> ZiPoly:
    """Quotient a / b in Z[i][z] for nonzero b; ValueError unless b divides a there."""
    br, bi = b
    rr, ri = list(a[0]), list(a[1])
    bdeg = len(br) - 1
    if len(rr) <= bdeg:
        if rr:
            raise ValueError("division is not exact")
        return [], []
    # (x + y*i) / (u + v*i) = (x + y*i)(u - v*i) / (u^2 + v^2).
    u, v = br[-1], bi[-1]
    norm = u * u + v * v
    qr = [0] * (len(rr) - bdeg)
    qi = [0] * len(qr)
    for k in range(len(qr) - 1, -1, -1):
        x, y = rr[k + bdeg], ri[k + bdeg]
        if not (x or y):
            continue
        s, rem_s = divmod(x * u + y * v, norm)
        t, rem_t = divmod(y * u - x * v, norm)
        if rem_s or rem_t:
            raise ValueError("division is not exact")
        qr[k], qi[k] = s, t
        for m, (p, w) in enumerate(zip(br, bi), k):
            rr[m] -= s * p - t * w
            ri[m] -= s * w + t * p
    if any(rr[:bdeg]) or any(ri[:bdeg]):
        raise ValueError("division is not exact")
    return qr, qi


class CPoly:
    """Polynomial in one variable z, coefficients ascending, no trailing zeros."""

    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs: Iterable[CoeffLike] = ()):
        cs = [_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("CPoly is immutable")

    def _scaled(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(d, re, im) with coeffs[m] = (re[m] + im[m]*i) / d, d > 0; computed once."""
        try:
            return self._ints
        except AttributeError:
            cs = self.coeffs
            d = lcm(*(x.denominator for c in cs for x in (c.re, c.im)))
            re = tuple(c.re.numerator * (d // c.re.denominator) for c in cs)
            im = tuple(c.im.numerator * (d // c.im.denominator) for c in cs)
            object.__setattr__(self, "_ints", (d, re, im))
            return self._ints

    @classmethod
    def const(cls, value: CoeffLike) -> "CPoly":
        return cls([value])

    @classmethod
    def monomial(cls, degree: int, coeff: CoeffLike = 1) -> "CPoly":
        return cls([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == GR_ONE

    def lead(self) -> GaussRat:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, m: int) -> GaussRat:
        return self.coeffs[m] if 0 <= m < len(self.coeffs) else GR_ZERO

    def __eq__(self, other):
        if not isinstance(other, CPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "CPoly") -> "CPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "CPoly") -> "CPoly":
        return self._combine(other, -1)

    def _combine(self, other: "CPoly", sign: int) -> "CPoly":
        """self + sign * other."""
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other if sign > 0 else -other
        da, ar, ai = self._scaled()
        db, br, bi = other._scaled()
        d = lcm(da, db)
        sa, sb = d // da, sign * (d // db)
        n = max(len(ar), len(br))
        pad_a, pad_b = (0,) * (n - len(ar)), (0,) * (n - len(br))
        re = [sa * x + sb * u for x, u in zip(ar + pad_a, br + pad_b)]
        im = [sa * y + sb * v for y, v in zip(ai + pad_a, bi + pad_b)]
        return CPoly(_unscaled(d, re, im))

    def __neg__(self) -> "CPoly":
        return CPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (GaussRat, Fraction, int)):
            # c = (u + v*i) / dc scales every numerator by one Gaussian integer.
            c = _coeff(other)
            if not (c and self.coeffs):
                return CPoly()
            da, ar, ai = self._scaled()
            dc = lcm(c.re.denominator, c.im.denominator)
            u = c.re.numerator * (dc // c.re.denominator)
            v = c.im.numerator * (dc // c.im.denominator)
            re = [x * u - y * v for x, y in zip(ar, ai)]
            im = [x * v + y * u for x, y in zip(ar, ai)]
            return CPoly(_unscaled(da * dc, re, im))
        if not isinstance(other, CPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return CPoly()
        da, ar, ai = self._scaled()
        db, br, bi = other._scaled()
        re, im = _zi_mul((ar, ai), (br, bi))
        return CPoly(_unscaled(da * db, re, im))

    def __rmul__(self, other):
        if isinstance(other, (GaussRat, Fraction, int)):
            return self * other
        return NotImplemented

    def __divmod__(self, other: "CPoly") -> tuple["CPoly", "CPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return CPoly(), self
        # self = (rr + ri*i) / dr.  Multiplying the divisor by the conjugate
        # of its leading numerator L gives (cr + ci*i) / db with the positive
        # integer leading coefficient |L|^2, so each step only rescales the
        # remainder by an integer.
        dr, rr, ri = self._scaled()
        rr, ri = list(rr), list(ri)
        db, br, bi = other._scaled()
        lr, li = br[-1], bi[-1]
        cr = [x * lr + y * li for x, y in zip(br, bi)]
        ci = [y * lr - x * li for x, y in zip(br, bi)]
        norm = cr[-1]
        bdeg = other.degree
        quo = [GR_ZERO] * (self.degree - bdeg + 1)
        for k in range(len(quo) - 1, -1, -1):
            x, y = rr[k + bdeg], ri[k + bdeg]
            if not (x or y):
                continue
            # The quotient coefficient is (x + y*i) * db * conj(L) / (dr * |L|^2).
            quo[k] = GaussRat(
                Fraction((x * lr + y * li) * db, dr * norm), Fraction((y * lr - x * li) * db, dr * norm)
            )
            g = gcd(x, y, norm)
            x, y, scale = x // g, y // g, norm // g
            if scale != 1:
                rr = [scale * t for t in rr]
                ri = [scale * t for t in ri]
                dr *= scale
            for m, (u, v) in enumerate(zip(cr, ci), k):
                rr[m] -= x * u - y * v
                ri[m] -= x * v + y * u
        return CPoly(quo), CPoly(_unscaled(dr, rr[:bdeg], ri[:bdeg]))

    def __mod__(self, other: "CPoly") -> "CPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "CPoly") -> "CPoly":
        quo, rem = divmod(self, other)
        if not rem.is_zero():
            raise ValueError("division is not exact")
        return quo

    def monic(self) -> "CPoly":
        if self.is_zero():
            return self
        return self * self.lead().inverse()

    def hat(self) -> "CPoly":
        """Coefficientwise conjugation; an involutive ring automorphism."""
        return CPoly([c.conjugate() for c in self.coeffs])

    def has_real_coeffs(self) -> bool:
        return all(not c.im for c in self.coeffs)

    def eval(self, z: GaussRat) -> GaussRat:
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __str__(self):
        if not self.coeffs:
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


CP_ZERO = CPoly()
CP_ONE = CPoly.const(1)
CP_Z = CPoly.monomial(1)


def cpoly_from_rationals(values: Sequence[RatLike]) -> CPoly:
    """Polynomial with real rational coefficients."""
    return CPoly([GaussRat(v) for v in values])


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
    Each remainder is rescaled on the right to monic, which bounds
    coefficient growth at the degrees this package works with, and appended
    to remainders when a list is given.
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
            s = r.coeffs[-1].inverse()
            r, x, y = r * s, x * s, y * s
            if remainders is not None:
                remainders.append(r)
        r0, r1, x0, x1, y0, y1 = r1, r, x1, x, y1, y
    if not r0:
        return zero, zero, zero
    s = r0.coeffs[-1].inverse()
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
