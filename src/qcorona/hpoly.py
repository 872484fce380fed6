"""Quaternionic polynomials f(q) = sum_m q^m a_m with right coefficients.

The product is the star (Cauchy convolution) product, which keeps the class
closed and coincides with the pointwise product only when the left factor
has real coefficients.  The slice is fixed once and for all: splittings use
the plane through i, with j as the orthogonal unit, so every split is
canonical and directly comparable.

Because the variable is central and every nonzero coefficient is
invertible, H[q] has a right division algorithm, and the extended right
Euclidean algorithm yields a monic generator of the right ideal of any
family together with Bezout witnesses (right_bezout).

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

from .cpoly import CP_ONE, CPoly
from .scalars import GaussRat, Q_ONE, Q_ZERO, Quat, _frac, rational_sqrt

QuatLike = Union[Quat, Fraction, int]


def _quat(value: QuatLike) -> Quat:
    if isinstance(value, Quat):
        return value
    return Quat(value)


class HPoly:
    """Polynomial with quaternion coefficients, ascending, no trailing zeros.

    Powers of the variable stand on the left, coefficients on the right;
    multiplication is the star product.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[QuatLike] = ()):
        cs = [_quat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("HPoly is immutable")

    @classmethod
    def const(cls, value: QuatLike) -> "HPoly":
        return cls([value])

    @classmethod
    def variable(cls) -> "HPoly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, m: int) -> Quat:
        return self.coeffs[m] if 0 <= m < len(self.coeffs) else Q_ZERO

    def __eq__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "HPoly") -> "HPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return HPoly([self.coeff(m) + other.coeff(m) for m in range(n)])

    def __sub__(self, other: "HPoly") -> "HPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return HPoly([self.coeff(m) - other.coeff(m) for m in range(n)])

    def __neg__(self) -> "HPoly":
        return HPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        """Star product: coefficient convolution c_n = sum a_m b_{n-m}."""
        if isinstance(other, (Quat, Fraction, int)):
            c = _quat(other)
            return HPoly([a * c for a in self.coeffs])
        if not isinstance(other, HPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return HPoly()
        out = [Q_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for m, a in enumerate(self.coeffs):
            if not a:
                continue
            for n, b in enumerate(other.coeffs):
                out[m + n] = out[m + n] + a * b
        return HPoly(out)

    def right_divmod(self, divisor: "HPoly") -> tuple["HPoly", "HPoly"]:
        """(Q, R) with self = divisor * Q + R and deg R < deg divisor.

        The variable is central, so divisor * q^k c has leading coefficient
        lead(divisor) * c; taking c = lead(divisor)^-1 times the leading
        coefficient of the running remainder cancels it exactly.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = divisor.degree
        if self.degree < d:
            return HPoly(), self
        rem = list(self.coeffs)
        lead_inv = divisor.coeffs[-1].inverse()
        quo = [Q_ZERO] * (self.degree - d + 1)
        for k in range(len(quo) - 1, -1, -1):
            factor = lead_inv * rem[k + d]
            if not factor:
                continue
            quo[k] = factor
            for m, b in enumerate(divisor.coeffs):
                rem[k + m] = rem[k + m] - b * factor
        return HPoly(quo), HPoly(rem)

    def conjugate(self) -> "HPoly":
        """Regular conjugate: quaternion-conjugate every coefficient."""
        return HPoly([c.conjugate() for c in self.coeffs])

    def symmetrize(self) -> "HPoly":
        """f * f^c, a polynomial with real coefficients."""
        return self * self.conjugate()

    def has_real_coeffs(self) -> bool:
        return all(c.is_real() for c in self.coeffs)

    def split(self) -> "SplitPair":
        """Slice components (F, G) with every coefficient a_m = F_m + G_m * j."""
        alphas, betas = [], []
        for c in self.coeffs:
            alpha, beta = c.slice_pair()
            alphas.append(alpha)
            betas.append(beta)
        return SplitPair(CPoly(alphas), CPoly(betas))

    def eval(self, q: Quat) -> Quat:
        """Evaluate sum q^m a_m, powers on the left of the coefficients."""
        acc = Q_ZERO
        for c in reversed(self.coeffs):
            acc = q * acc + c
        return acc

    def divide_by_real(self, divisor: "HPoly") -> "HPoly":
        """Exact quotient by a polynomial with real coefficients.

        Real-coefficient polynomials are central for the star product, so the
        quotient is two-sided; raises ValueError if the division is not exact.
        """
        if not divisor.has_real_coeffs():
            raise ValueError("divisor must have real coefficients")
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        num = self.split()
        den = divisor.split().F
        return SplitPair(num.F.exact_div(den), num.G.exact_div(den)).extend()

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
                terms.append(f"q({c})" if not c.is_real() or c != Q_ONE else "q")
            else:
                head = f"q^{m}"
                terms.append(head if c == Q_ONE else f"{head}({c})")
        return " + ".join(terms)

    def __repr__(self):
        return f"HPoly([{', '.join(repr(c) for c in self.coeffs)}])"


HP_ZERO = HPoly()
HP_ONE = HPoly.const(1)
HP_Q = HPoly.variable()


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


def _right_bezout_pair(a: HPoly, b: HPoly, remainders: list[HPoly]) -> tuple[HPoly, HPoly, HPoly]:
    """(g, x, y) with a*x + b*y = g monic, for b nonzero.

    Invariant: r_k = a*x_k + b*y_k.  Each division r_{k-1} = r_k*Q + r_{k+1}
    carries over to the witnesses as x_{k+1} = x_{k-1} - x_k*Q, and every
    remainder is rescaled on the right to monic to keep coefficients small.
    """
    r0, r1 = a, b
    x0, x1 = HP_ONE, HP_ZERO
    y0, y1 = HP_ZERO, HP_ONE
    while r1:
        quo, rem = r0.right_divmod(r1)
        x, y = x0 - x1 * quo, y0 - y1 * quo
        if rem:
            scale = rem.coeffs[-1].inverse()
            rem, x, y = rem * scale, x * scale, y * scale
            remainders.append(rem)
        r0, r1, x0, x1, y0, y1 = r1, rem, x1, x, y1, y
    scale = r0.coeffs[-1].inverse()
    return r0 * scale, x0 * scale, y0 * scale


def right_bezout(fs: Sequence[HPoly]) -> RightBezout:
    """Monic generator of the right ideal of fs, with witnesses (Ore's algorithm).

    H[q] with a central variable has a right division algorithm, so the
    extended Euclidean algorithm folds over the family: the running
    generator g is combined with each next nonzero f_l into g*x + f_l*y,
    so the earlier witnesses are multiplied on the right by x.  The fold
    stops once g = 1; later witnesses stay zero.  Zeros of g are exactly
    the common zeros of the family.
    """
    if all(f.is_zero() for f in fs):
        raise ValueError("all polynomials are zero")
    g = HP_ZERO
    ws = [HP_ZERO] * len(fs)
    remainders: list[HPoly] = []
    for ell, f in enumerate(fs):
        if g == HP_ONE:
            break
        if f.is_zero():
            continue
        if g.is_zero():
            scale = f.coeffs[-1].inverse()
            g, ws[ell] = f * scale, HPoly.const(scale)
            continue
        g, x, y = _right_bezout_pair(g, f, remainders)
        ws = [w * x for w in ws]
        ws[ell] = y
    return RightBezout(g, tuple(ws), tuple(remainders))


@dataclass(frozen=True)
class SplitPair:
    """Slice components of a quaternionic polynomial on the fixed plane."""

    F: CPoly
    G: CPoly

    def extend(self) -> HPoly:
        """Reassemble the unique quaternionic polynomial with these components."""
        n = max(len(self.F.coeffs), len(self.G.coeffs))
        return HPoly([
            Quat.from_slice_pair(self.F.coeff(m), self.G.coeff(m)) for m in range(n)
        ])


def star_split(f: SplitPair, g: SplitPair) -> SplitPair:
    """Star product expressed on slice components.

    For f = F + G j and g = H + K j the product splits as
    (F H - G hat(K)) + (F K + G hat(H)) j.  Used as an independent route to
    the coefficient convolution.
    """
    F, G = f.F, f.G
    H, K = g.F, g.G
    return SplitPair(F * H - G * K.hat(), F * K + G * H.hat())


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

    def slice_min_poly(self) -> CPoly:
        """Monic real polynomial whose slice roots are exactly this sphere."""
        if self.is_real_point():
            return CPoly([-self.x, 1])
        return CPoly([self.x * self.x + self.y_squared, -2 * self.x, 1])

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
    spheres, residual = real_poly_sphere_factors(f.symmetrize().split().F)
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


@dataclass(frozen=True)
class ReciprocalPair:
    """Numerator/denominator presentation of the star inverse.

    numerator is the regular conjugate, denominator the symmetrization;
    f * numerator = denominator holds exactly as polynomials.
    """

    numerator: HPoly
    denominator: HPoly


def reciprocal_pair(f: HPoly) -> ReciprocalPair:
    if f.is_zero():
        raise ValueError("zero polynomial has no reciprocal")
    return ReciprocalPair(f.conjugate(), f.symmetrize())
