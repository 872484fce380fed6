"""Exact scalar arithmetic: Gaussian rationals and rational quaternions.

Every quantity in this package is built from ``fractions.Fraction``; nothing
is ever rounded.  ``GaussRat`` models the complex slice plane through the
imaginary unit i, ``Quat`` the full skew field with basis 1, i, j, k.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

RatLike = Union[int, Fraction]


def _frac(value: RatLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        raise ValueError("negative radicand")
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class GaussRat:
    """Element re + im*i of the slice plane, with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __eq__(self, other):
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other: "GaussRat") -> "GaussRat":
        if not isinstance(other, GaussRat):
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        if not isinstance(other, GaussRat):
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other: "GaussRat") -> "GaussRat":
        if not isinstance(other, GaussRat):
            return NotImplemented
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussRat") -> "GaussRat":
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self * other.inverse()

    def conjugate(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussRat":
        n = self.norm_sq()
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussRat(self.re / n, -self.im / n)

    def __str__(self):
        if not self.im:
            return str(self.re)
        im = "i" if self.im == 1 else "-i" if self.im == -1 else f"{self.im}i"
        if not self.re:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"


GR_ZERO = GaussRat(0)


class Quat:
    """Quaternion x0 + x1*i + x2*j + x3*k with exact rational components."""

    __slots__ = ("x0", "x1", "x2", "x3")

    def __init__(self, x0: RatLike = 0, x1: RatLike = 0, x2: RatLike = 0, x3: RatLike = 0):
        object.__setattr__(self, "x0", _frac(x0))
        object.__setattr__(self, "x1", _frac(x1))
        object.__setattr__(self, "x2", _frac(x2))
        object.__setattr__(self, "x3", _frac(x3))

    def __setattr__(self, name, value):
        raise AttributeError("Quat is immutable")

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.x0, self.x1, self.x2, self.x3)

    def __eq__(self, other):
        if not isinstance(other, Quat):
            return NotImplemented
        return self.components() == other.components()

    def __hash__(self):
        return hash(self.components())

    def __bool__(self):
        return bool(self.x0) or bool(self.x1) or bool(self.x2) or bool(self.x3)

    def __add__(self, other: "Quat") -> "Quat":
        if not isinstance(other, Quat):
            return NotImplemented
        return Quat(self.x0 + other.x0, self.x1 + other.x1,
                    self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "Quat") -> "Quat":
        if not isinstance(other, Quat):
            return NotImplemented
        return Quat(self.x0 - other.x0, self.x1 - other.x1,
                    self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "Quat":
        return Quat(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other):
        # Hamilton product: i*j = k = -j*i, j*k = i = -k*j, k*i = j = -i*k.
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return Quat(self.x0 * c, self.x1 * c, self.x2 * c, self.x3 * c)
        if not isinstance(other, Quat):
            return NotImplemented
        a0, a1, a2, a3 = self.components()
        b0, b1, b2, b3 = other.components()
        return Quat(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def conjugate(self) -> "Quat":
        return Quat(self.x0, -self.x1, -self.x2, -self.x3)

    def real_part(self) -> Fraction:
        return self.x0

    def norm_sq(self) -> Fraction:
        return self.x0**2 + self.x1**2 + self.x2**2 + self.x3**2

    def inverse(self) -> "Quat":
        n = self.norm_sq()
        if not n:
            raise ZeroDivisionError("inverse of zero quaternion")
        c = self.conjugate()
        return Quat(c.x0 / n, c.x1 / n, c.x2 / n, c.x3 / n)

    def __str__(self):
        parts = []
        for value, unit in zip(self.components(), ("", "i", "j", "k")):
            if not value:
                continue
            if unit and value == 1:
                text = unit
            elif unit and value == -1:
                text = f"-{unit}"
            else:
                text = f"{value}{unit}"
            if parts and not text.startswith("-"):
                parts.append("+" + text)
            else:
                parts.append(text)
        return "".join(parts) if parts else "0"

    def __repr__(self):
        return f"Quat({self.x0!r}, {self.x1!r}, {self.x2!r}, {self.x3!r})"


Q_ZERO = Quat()
Q_ONE = Quat(1)
Q_I = Quat(0, 1)
Q_J = Quat(0, 0, 1)
Q_K = Quat(0, 0, 0, 1)

