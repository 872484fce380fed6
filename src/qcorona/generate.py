"""Deterministic random generators for tests, experiments, and reports.

Everything takes an explicit random.Random so runs are reproducible from a
seed.  Coefficients are kept small: exactness does not care, but gcd chains
and determinants stay readable and fast.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .corona import CoronaInstance
from .hpoly import HP_Q, HPoly
from .scalars import GaussRat, Quat

# Rational points of the unit imaginary sphere, for exact axis sampling.
RATIONAL_AXES: tuple[Quat, ...] = (
    Quat(0, 1, 0, 0),
    Quat(0, 0, 1, 0),
    Quat(0, 0, 0, 1),
    Quat(0, Fraction(3, 5), Fraction(4, 5), 0),
    Quat(0, Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)),
    Quat(0, Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)),
    Quat(0, Fraction(4, 9), Fraction(7, 9), Fraction(4, 9)),
)


def random_fraction(rng: random.Random, span: int = 3, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_quat(rng: random.Random, span: int = 3) -> Quat:
    return Quat(*(random_fraction(rng, span) for _ in range(4)))


def random_nonzero_quat(rng: random.Random, span: int = 3) -> Quat:
    while True:
        q = random_quat(rng, span)
        if q:
            return q


def random_hpoly(rng: random.Random, degree: int, span: int = 2) -> HPoly:
    """Random polynomial of degree exactly `degree`."""
    coeffs = [random_quat(rng, span) for _ in range(degree)]
    coeffs.append(random_nonzero_quat(rng, span))
    return HPoly(coeffs)


def random_coprime_instance(rng: random.Random, n: int = 2, degree: int = 3) -> CoronaInstance:
    """Instance built as f = (q - c) * g + d with d a nonzero constant.

    The additive constant pushes each polynomial off the zero set of the
    shared pattern, which makes common zeros rare; callers still validate.
    """
    fs = []
    for _ in range(n):
        c = random_quat(rng)
        g = random_hpoly(rng, max(degree - 1, 0))
        d = random_nonzero_quat(rng)
        fs.append((HP_Q - HPoly.const(c)) * g + HPoly.const(d))
    return CoronaInstance.from_polys(fs)


# Each coordinate of a slice point is drawn as a/b with |a| <= 12 and 1 <= b <= 5.
_POINT_POOL = len({Fraction(a, b) for a in range(-12, 13) for b in range(1, 6)}) ** 2


def sample_slice_points(count: int, seed: int = 2024) -> list[GaussRat]:
    """Deterministic distinct rational slice points for rank sampling.

    ValueError unless 1 <= count <= 7225, the number of points the draws reach.
    """
    if not 1 <= count <= _POINT_POOL:
        raise ValueError(f"sample point count must be between 1 and {_POINT_POOL}, got {count}")
    rng = random.Random(seed)
    points: list[GaussRat] = []
    seen = set()
    while len(points) < count:
        z = GaussRat(
            Fraction(rng.randint(-12, 12), rng.randint(1, 5)),
            Fraction(rng.randint(-12, 12), rng.randint(1, 5)),
        )
        key = (z.re, z.im)
        if key in seen:
            continue
        seen.add(key)
        points.append(z)
    return points
