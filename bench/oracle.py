"""Independent correctness checks for benchmark items.

Nothing here imports qcorona: files are parsed with a regex of their own and
the identity sum f_l * h_l = 1 is re-checked with a plain Hamilton product
over Fractions, so a defect in the package's arithmetic or parser cannot
hide behind the same defect in the check.  A quaternion is a 4-tuple of
Fractions, a polynomial a list of them in ascending degree.
"""

from __future__ import annotations

import re
from fractions import Fraction

ZERO = (Fraction(0),) * 4
ONE = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))

_BRACKET = re.compile(r"\[([^\[\]]*)\]")


def qmul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def qadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def star(f, g):
    """Product in H[q] with a central variable: c_n = sum a_m b_{n-m}."""
    if not f or not g:
        return []
    out = [ZERO] * (len(f) + len(g) - 1)
    for m, a in enumerate(f):
        for n, b in enumerate(g):
            out[m + n] = qadd(out[m + n], qmul(a, b))
    return trim(out)


def trim(f):
    f = list(f)
    while f and f[-1] == ZERO:
        f.pop()
    return f


def padd(f, g):
    n = max(len(f), len(g))
    return trim(
        qadd(f[k] if k < len(f) else ZERO, g[k] if k < len(g) else ZERO) for k in range(n)
    )


def evaluate(f, q):
    """f(q) = sum q^m a_m, powers of the variable on the left."""
    acc = ZERO
    for c in reversed(f):
        acc = qadd(qmul(q, acc), c)
    return acc


def _real_gcd(a, b):
    """Monic gcd of two real polynomials given as Fraction lists, ascending."""
    while b:
        a, b = b, _real_rem(a, b)
    return [c / a[-1] for c in a]


def _real_rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] -= factor * c
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def sphere_free(fs) -> bool:
    """No sphere carries a zero of every f_l, so the family is solvable.

    Any zero of f lies on a sphere where its symmetrization f * conj(f),
    a real polynomial, vanishes; coprime symmetrizations leave no sphere
    that all members share.
    """
    g = None
    for f in fs:
        conj = [(c[0], -c[1], -c[2], -c[3]) for c in f]
        sym = [c[0] for c in star(f, conj)]
        g = sym if g is None else _real_gcd(g, sym)
    return g is not None and len(g) == 1


def parse_polys(text: str) -> dict[str, list]:
    """Named polynomials of an instance or solution file; certificate lines skipped."""
    polys = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("minor "):
            continue
        name, _, rest = line.partition("=")
        coeffs = [
            tuple(Fraction(p.strip()) for p in body.split(","))
            for body in _BRACKET.findall(rest)
        ]
        if not coeffs or any(len(c) != 4 for c in coeffs):
            raise ValueError(f"unreadable polynomial line {line!r}")
        polys[name.strip()] = trim(coeffs)
    return polys


def format_poly(f) -> str:
    coeffs = f or [ZERO]
    return " ".join("[" + ", ".join(str(x) for x in c) + "]" for c in coeffs)


def identity_holds(fs, hs) -> bool:
    if len(fs) != len(hs):
        return False
    acc: list = []
    for f, h in zip(fs, hs):
        acc = padd(acc, star(f, h))
    return acc == [ONE]


def poly_size(polys) -> tuple[int, int]:
    """Largest degree, and largest numerator or denominator bit length."""
    degree, bits = 0, 0
    for f in polys:
        degree = max(degree, len(f) - 1)
        for c in f:
            for x in c:
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return degree, bits


def obstruction_names_point(report: dict, fs, planted) -> bool:
    """The diagnosis names the planted zero, and every f_l vanishes at the named zeros.

    Accepted forms: the planted point among an entry's common points, or the
    whole sphere through the planted point reported as a common zero.
    """
    if report.get("status") != "obstruction":
        return False
    x = planted[0]
    ysq = sum(c * c for c in planted[1:])
    named = False
    for entry in report["diagnosis"]["spheres"]:
        points = [tuple(Fraction(s) for s in p) for p in entry["common_points"]]
        on_sphere = (
            Fraction(entry["sphere"]["x"]) == x
            and Fraction(entry["sphere"]["y_squared"]) == ysq
        )
        if planted in points or (entry["whole_sphere_common"] and on_sphere):
            named = True
        for p in points:
            if any(evaluate(f, p) != ZERO for f in fs):
                return False
    return named and all(evaluate(f, planted) == ZERO for f in fs)
