"""Quaternionic polynomials f(q) = sum_m q^m a_m with right coefficients.

The product is the star (Cauchy convolution) product, which keeps the class
closed and coincides with the pointwise product only when the left factor
has real coefficients.  The slice is fixed once and for all: splittings use
the plane through i, with j as the orthogonal unit, so every split is
canonical and directly comparable.

An HPoly is stored as that split: two CPolys F and G with every
coefficient a_m = F_m + G_m * j.  Since j z = hat(z) j for z on the slice,
for f = F + G j and g = H + K j

    f + g = (F + H) + (G + K) j
    f * g = (F H - G hat(K)) + (F K + G hat(H)) j
    f^c   = hat(F) - G j,

so H[q] runs on the Gaussian-integer arithmetic of cpoly and has no
arithmetic kernel of its own.  Each component of a star product, and the
symmetrization, is one cpoly._mul_add: two products and their sum on the
numerators, reduced once.  A product takes two HPolys; a scalar enters
only through ``const``, as the one scale of each Euclid step does.  The
Quat coefficients (``coeffs``) are built from the integer form of (F, G)
on every read and are not cached.

Because the variable is central and every nonzero coefficient is
invertible, H[q] has a right division algorithm, which is what divmod on
an HPoly computes: divmod(a, b) = (q, r) with a = b*q + r.  The norm
b^s = b^c * b is real, hence central, so q is the C[z] quotient of
b^c * a by b^s on F and on G, and r = a - b*q.  The extended Euclidean
algorithm is not repeated here: right_bezout runs the one in cpoly
(bezout_pair and bezout_fold) on HPolys, which yields a monic generator
of the right ideal of any family together with Bezout witnesses.

Zero sets are computed exactly.  A sphere of quaternions with center x and
squared radius y^2 is identified by the rational pair (x, y^2); isolated
zeros on such a sphere turn out to be rational quaternions even when the
radius itself is irrational, so the whole classification stays inside exact
arithmetic.  Spheres whose data is not rational are reported unresolved
rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .cpoly import CP_ONE, CP_ZERO, CPoly, _drop_low, _mul_add, bezout_fold
from .scalars import GaussRat, Q_ONE, Q_ZERO, Quat, _frac, rational_sqrt

QuatLike = Union[Quat, Fraction, int]


def _quat(value: QuatLike) -> Quat:
    if isinstance(value, Quat):
        return value
    return Quat(value)


class HPoly:
    """Polynomial with quaternion coefficients, stored as its split F + G*j.

    Powers of the variable stand on the left, coefficients on the right;
    multiplication is the star product.  F and G are CPolys in canonical
    form, so (F, G) is canonical too.
    """

    __slots__ = ("F", "G")

    def __init__(self, coeffs: Iterable[QuatLike] = ()):
        cs = [[x.as_integer_ratio() for x in _quat(c).components()] for c in coeffs]
        object.__setattr__(self, "F", CPoly.from_ratios([c[0] for c in cs], [c[1] for c in cs]))
        object.__setattr__(self, "G", CPoly.from_ratios([c[2] for c in cs], [c[3] for c in cs]))

    @classmethod
    def from_split(cls, F: CPoly, G: CPoly) -> "HPoly":
        """The polynomial F + G*j, with coefficient m equal to F_m + G_m * j."""
        f = object.__new__(cls)
        object.__setattr__(f, "F", F)
        object.__setattr__(f, "G", G)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("HPoly is immutable")

    @classmethod
    def const(cls, value: QuatLike) -> "HPoly":
        return cls([value])

    @property
    def coeffs(self) -> tuple[Quat, ...]:
        """The coefficients as Quats, ascending, built from (F, G) on every read."""
        return tuple(self.coeff(m) for m in range(self.degree + 1))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.F.degree, self.G.degree)

    def is_zero(self) -> bool:
        return not self

    def lead(self) -> Quat:
        if not self:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def coeff(self, m: int) -> Quat:
        return Quat(*self.F.parts(m), *self.G.parts(m))

    def __eq__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return self.F == other.F and self.G == other.G

    def __hash__(self):
        return hash((self.F, self.G))

    def __bool__(self):
        return bool(self.F) or bool(self.G)

    def __add__(self, other: "HPoly") -> "HPoly":
        if not isinstance(other, HPoly):
            return NotImplemented
        return HPoly.from_split(self.F + other.F, self.G + other.G)

    def __sub__(self, other: "HPoly") -> "HPoly":
        if not isinstance(other, HPoly):
            return NotImplemented
        return HPoly.from_split(self.F - other.F, self.G - other.G)

    def __neg__(self) -> "HPoly":
        return HPoly.from_split(-self.F, -self.G)

    def __mul__(self, other):
        """Star product (F + G j)(H + K j) = (F H - G hat(K)) + (F K + G hat(H)) j."""
        if not isinstance(other, HPoly):
            return NotImplemented
        F, G, H, K = self.F, self.G, other.F, other.G
        return HPoly.from_split(_mul_add(F, H, G, K.hat(), -1), _mul_add(F, K, G, H.hat(), 1))

    def __divmod__(self, divisor: "HPoly") -> tuple["HPoly", "HPoly"]:
        """Right division: (Q, R) with self = divisor * Q + R and deg R < deg divisor.

        For b = divisor, b^c * b = b^s is real and central, so
        b^c * self = b^s * Q + b^c * R with deg(b^c * R) < deg b^s: Q is the
        quotient of b^c * self by b^s, one C[z] division on F and one on G.
        Q depends only on the top deg self - deg b + 1 coefficients of self
        and of b, so the k = max(2 deg b - deg self, 0) lowest of both are
        dropped first, which keeps b^c * self small when the degrees are close.
        """
        if not isinstance(divisor, HPoly):
            return NotImplemented
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < divisor.degree:
            return HPoly(), self
        k = max(2 * divisor.degree - self.degree, 0)
        a, b = (HPoly.from_split(_drop_low(f.F, k), _drop_low(f.G, k)) for f in (self, divisor))
        num, norm = b.conjugate() * a, b.symmetrize().F
        quo = HPoly.from_split(divmod(num.F, norm)[0], divmod(num.G, norm)[0])
        return quo, self - divisor * quo

    def conjugate(self) -> "HPoly":
        """Regular conjugate: quaternion-conjugate every coefficient, hat(F) - G j."""
        return HPoly.from_split(self.F.hat(), -self.G)

    def symmetrize(self) -> "HPoly":
        """f * f^c = F hat(F) + G hat(G), a polynomial with real coefficients."""
        F, G = self.F, self.G
        return HPoly.from_split(_mul_add(F, F.hat(), G, G.hat(), 1), CP_ZERO)

    def split(self) -> tuple[CPoly, CPoly]:
        """Slice components (F, G) with every coefficient a_m = F_m + G_m * j."""
        return self.F, self.G

    def eval(self, q: Quat) -> Quat:
        """Evaluate sum q^m a_m, powers on the left of the coefficients."""
        acc = Q_ZERO
        for c in reversed(self.coeffs):
            acc = q * acc + c
        return acc

    def __str__(self):
        terms = []
        for m, c in reversed(list(enumerate(self.coeffs))):
            if not c:
                continue
            if m == 0:
                terms.append(f"({c})")
            elif m == 1:
                terms.append(f"q({c})" if c != Q_ONE else "q")
            else:
                head = f"q^{m}"
                terms.append(head if c == Q_ONE else f"{head}({c})")
        return " + ".join(terms) or "0"

    def __repr__(self):
        return f"HPoly([{', '.join(repr(c) for c in self.coeffs)}])"


HP_ONE = HPoly.const(1)
HP_Q = HPoly([0, 1])


@dataclass(frozen=True)
class RightBezout:
    """Outcome of the extended right Euclidean algorithm over f1..fn.

    gcd is the monic generator of the right ideal f1*H[q] + ... + fn*H[q]
    and sum f_l * witnesses[l] = gcd holds exactly.  remainders lists every
    nonzero remainder of every division, made monic, in the order computed.
    """

    gcd: HPoly
    witnesses: tuple[HPoly, ...]
    remainders: tuple[HPoly, ...]


def right_bezout(fs: Sequence[HPoly]) -> RightBezout:
    """Monic generator of the right ideal of fs, with witnesses (Ore's algorithm).

    H[q] with a central variable has a right division algorithm, so the
    extended Euclidean algorithm of cpoly.bezout_fold applies as it is.
    Zeros of the generator are exactly the common zeros of the family.
    """
    if all(f.is_zero() for f in fs):
        raise ValueError("all polynomials are zero")
    remainders: list[HPoly] = []
    g, ws = bezout_fold(fs, remainders)
    return RightBezout(g, tuple(ws), tuple(remainders))


# ---------------------------------------------------------------------------
# Zero sets


@dataclass(frozen=True)
class Sphere:
    """The sphere x + y*S of quaternions, identified by rational (x, y^2).

    y_squared = 0 denotes the single real point x.
    """

    x: Fraction
    y_squared: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _frac(self.x))
        object.__setattr__(self, "y_squared", _frac(self.y_squared))
        if self.y_squared < 0:
            raise ValueError("y_squared must be nonnegative")

    def is_real_point(self) -> bool:
        return not self.y_squared

    def __str__(self):
        if self.is_real_point():
            return f"point x={self.x}"
        return f"sphere x={self.x}, y^2={self.y_squared}"


def eval_on_sphere(f: HPoly, s: Sphere) -> tuple[Quat, Quat]:
    """Exact quaternions (A, C) with f(x + yI) = A + yI*C for every axis I.

    Powers of x + yI expand as p_m(x, y^2) + yI q_m(x, y^2) with real p, q,
    so both A and C are computable from (x, y^2) alone.
    """
    x, ysq = s.x, s.y_squared
    a_acc, c_acc = Q_ZERO, Q_ZERO
    p, qq = Fraction(1), Fraction(0)  # components of (x + yI)^m
    for m, coeff in enumerate(f.coeffs):
        if coeff:
            a_acc = a_acc + p * coeff
            c_acc = c_acc + qq * coeff
        p, qq = x * p - ysq * qq, p + x * qq
    return a_acc, c_acc


@dataclass(frozen=True)
class SphereZero:
    """Outcome of solving f = 0 on one sphere."""

    kind: str  # "spherical" | "point" | "none"
    point: Optional[Quat] = None

    def __str__(self):
        if self.kind == "point":
            return f"point {self.point}"
        return self.kind


SPHERICAL = SphereZero("spherical")
NO_ZERO = SphereZero("none")


def zeros_on_sphere(f: HPoly, s: Sphere) -> SphereZero:
    """Classify the zeros of f on one sphere: whole sphere, one point, or none.

    With f(x+yI) = A + yI*C: both zero means f vanishes identically there;
    C != 0 leaves the single candidate q0 = x - A*C^-1, accepted only when
    |A|^2 = y^2 |C|^2 and Re(A conj(C)) = 0, i.e. when the solved axis really
    lies on the unit imaginary sphere.  The candidate is rational even when
    the radius y is not.
    """
    a, c = eval_on_sphere(f, s)
    if s.is_real_point():
        return SphereZero("point", Quat(s.x)) if not a else NO_ZERO
    if not c:
        return SPHERICAL if not a else NO_ZERO
    if not a:
        return NO_ZERO
    if a.norm_sq() != s.y_squared * c.norm_sq():
        return NO_ZERO
    if (a * c.conjugate()).real_part():
        return NO_ZERO
    return SphereZero("point", Quat(s.x) - a * c.inverse())


@dataclass(frozen=True)
class ZeroSet:
    """Exact zero structure of a quaternionic polynomial.

    residual is the real-coefficient factor of the symmetrization whose
    spheres do not have rational (x, y^2) data; those zeros exist but are
    left unresolved by design.
    """

    spherical: tuple[Sphere, ...]
    isolated: tuple[tuple[Sphere, Quat], ...]
    residual: CPoly


def real_poly_sphere_factors(p: CPoly) -> tuple[list[tuple[Sphere, int]], CPoly]:
    """Factor a real-coefficient polynomial into rational sphere data.

    Returns ((sphere, multiplicity), ...) for every linear factor with a
    rational root and every irreducible quadratic with negative discriminant,
    sorted by sphere, plus the monic product of all remaining factors.
    Degrees up to two are factored in closed form; higher degrees are
    factored over the rationals by sympy, which is imported only then.
    Both are exact.
    """
    if not p.has_real_coeffs():
        raise ValueError("expected real coefficients")
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree <= 2:
        return _low_degree_sphere_factors(p)
    return _sympy_sphere_factors(p)


def _low_degree_sphere_factors(p: CPoly) -> tuple[list[tuple[Sphere, int]], CPoly]:
    """real_poly_sphere_factors for degree at most two, from the monic coefficients.

    z + c is the real point -c.  z^2 + bz + c has center x = -b/2 and
    x^2 - c = disc/4: below zero it is the sphere (x, c - x^2), at zero the
    double point x, above zero two rational points when disc/4 is a
    rational square and an unresolved factor otherwise.
    """
    lead = p.lead().re
    cs = [c.re / lead for c in p.coeffs]
    if len(cs) == 1:
        return [], CP_ONE
    if len(cs) == 2:
        return [(Sphere(-cs[0], Fraction(0)), 1)], CP_ONE
    x = -cs[1] / 2
    ysq = cs[0] - x * x
    if ysq > 0:
        return [(Sphere(x, ysq), 1)], CP_ONE
    if not ysq:
        return [(Sphere(x, Fraction(0)), 2)], CP_ONE
    r = rational_sqrt(-ysq)
    if r is None:
        return [], CPoly(cs)
    return [(Sphere(x - r, Fraction(0)), 1), (Sphere(x + r, Fraction(0)), 1)], CP_ONE


def _sympy_sphere_factors(p: CPoly) -> tuple[list[tuple[Sphere, int]], CPoly]:
    """real_poly_sphere_factors through sympy's factorization over the rationals."""
    import sympy

    z = sympy.Symbol("z")
    sp = sympy.Poly(
        {m: sympy.Rational(c.re.numerator, c.re.denominator)
         for m, c in enumerate(p.coeffs)},
        z,
        domain="QQ",
    )
    spheres: list[tuple[Sphere, int]] = []
    residual = CP_ONE
    _, factors = sp.factor_list()
    for factor, mult in factors:
        fc = [Fraction(c.p, c.q) for c in factor.monic().all_coeffs()]  # descending
        if len(fc) == 2:
            spheres.append((Sphere(-fc[1], Fraction(0)), mult))
            continue
        if len(fc) == 3:
            x = -fc[1] / 2
            ysq = fc[2] - x * x
            if ysq > 0:
                spheres.append((Sphere(x, ysq), mult))
                continue
        piece = CPoly([GaussRat(c) for c in reversed(fc)])
        for _ in range(mult):
            residual = residual * piece
    spheres.sort(key=lambda item: (item[0].x, item[0].y_squared))
    return spheres, residual


def classify_zeros(f: HPoly) -> ZeroSet:
    """Locate all zeros of f with rational sphere data.

    Candidate spheres are read off the symmetrization, which vanishes on a
    whole sphere wherever f has any zero; each candidate is then resolved on
    the original polynomial.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no meaningful zero set")
    spheres, residual = real_poly_sphere_factors(f.symmetrize().F)
    spherical: list[Sphere] = []
    isolated: list[tuple[Sphere, Quat]] = []
    for sphere, _ in spheres:
        outcome = zeros_on_sphere(f, sphere)
        if outcome.kind == "spherical":
            spherical.append(sphere)
        elif outcome.kind == "point":
            isolated.append((sphere, outcome.point))
        else:
            # The symmetrization vanishes on this sphere, so f must have a
            # zero there; reaching this branch would be an arithmetic bug.
            raise AssertionError(f"no zero found on {sphere} despite symmetrization root")
    return ZeroSet(tuple(spherical), tuple(isolated), residual)
