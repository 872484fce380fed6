"""Univariate polynomials over the Gaussian rationals.

These are the slice-plane components of quaternionic polynomials.  The ring
is a Euclidean domain, so gcds and Bezout witnesses exist and are computed
exactly; every remainder is normalized to monic form to keep coefficient
growth in check.

Products and divisions run on Gaussian-integer numerators over one common
denominator per polynomial, so the inner loops do plain integer arithmetic
and each result coefficient is reduced to lowest terms once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .scalars import GR_ONE, GR_ZERO, GaussRat, RatLike

CoeffLike = Union[GaussRat, Fraction, int]


def _coeff(value: CoeffLike) -> GaussRat:
    if isinstance(value, GaussRat):
        return value
    return GaussRat(value)


def _unscaled(d: int, re: Sequence[int], im: Sequence[int]) -> list[GaussRat]:
    return [GaussRat(Fraction(x, d), Fraction(y, d)) for x, y in zip(re, im)]


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
            c = _coeff(other)
            return CPoly([a * c for a in self.coeffs])
        if not isinstance(other, CPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return CPoly()
        da, ar, ai = self._scaled()
        db, br, bi = other._scaled()
        re = [0] * (len(ar) + len(br) - 1)
        im = [0] * len(re)
        for m, (x, y) in enumerate(zip(ar, ai)):
            if not (x or y):
                continue
            for n, (u, v) in enumerate(zip(br, bi), m):
                re[n] += x * u - y * v
                im[n] += x * v + y * u
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

    def __floordiv__(self, other: "CPoly") -> "CPoly":
        return divmod(self, other)[0]

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


def bezout_pair(a: CPoly, b: CPoly) -> tuple[CPoly, CPoly, CPoly]:
    """Extended Euclid: returns (g, x, y) with x*a + y*b = g, g monic (or zero).

    Each remainder is rescaled to monic, which bounds coefficient growth at
    the degrees this package works with.
    """
    r0, r1 = a, b
    x0, x1 = CP_ONE, CP_ZERO
    y0, y1 = CP_ZERO, CP_ONE
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        x = x0 - q * x1
        y = y0 - q * y1
        if not r.is_zero():
            s = r.lead().inverse()
            r, x, y = r * s, x * s, y * s
        r0, r1 = r1, r
        x0, x1 = x1, x
        y0, y1 = y1, y
    if r0.is_zero():
        return CP_ZERO, CP_ZERO, CP_ZERO
    scale = r0.lead().inverse()
    return r0 * scale, x0 * scale, y0 * scale


def bezout_multi(ps: Sequence[CPoly]) -> tuple[CPoly, list[CPoly]]:
    """Monic gcd of several polynomials plus witnesses w with sum(w*p) = gcd.

    Folds bezout_pair(p1, gcd(rest)) recursively and back-substitutes the
    tail witnesses.  No attempt is made to minimize witness degrees.
    """
    if not ps:
        raise ValueError("empty input")
    if all(p.is_zero() for p in ps):
        raise ValueError("all input polynomials are zero")
    return _bezout_fold(list(ps))


def _bezout_fold(ps: list[CPoly]) -> tuple[CPoly, list[CPoly]]:
    if len(ps) == 1:
        p = ps[0]
        if p.is_zero():
            return CP_ZERO, [CP_ZERO]
        inv = p.lead().inverse()
        return p.monic(), [CPoly.const(inv)]
    tail_gcd, tail_ws = _bezout_fold(ps[1:])
    g, x, y = bezout_pair(ps[0], tail_gcd)
    return g, [x] + [y * w for w in tail_ws]
