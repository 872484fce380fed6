import random

import pytest

from qcorona import generate
from qcorona.scalars import Quat


@pytest.mark.parametrize("n, degree", [(1, 1), (2, 3), (3, 2), (4, 5)])
def test_random_coprime_instance_repeats_for_a_seed_and_has_the_degree(n, degree):
    first = generate.random_coprime_instance(random.Random(f"gen:{n}:{degree}"), n, degree)
    again = generate.random_coprime_instance(random.Random(f"gen:{n}:{degree}"), n, degree)
    assert first.fs == again.fs
    assert len(first.fs) == n
    assert [f.degree for f in first.fs] == [degree] * n


@pytest.mark.parametrize("degree", [0, 1, 2, 4])
def test_random_hpoly_has_a_nonzero_leading_coefficient(degree):
    rng = random.Random(degree)
    for _ in range(50):
        f = generate.random_hpoly(rng, degree, span=1)
        assert f.degree == degree
        assert f.coeffs[-1]


def test_sample_slice_points_are_deterministic_and_distinct():
    points = generate.sample_slice_points(40, seed=5)
    assert points == generate.sample_slice_points(40, seed=5)
    assert len(points) == 40
    assert len({(z.re, z.im) for z in points}) == 40


def test_rational_axes_are_distinct_unit_imaginary_quaternions():
    assert len(set(generate.RATIONAL_AXES)) == len(generate.RATIONAL_AXES)
    for axis in generate.RATIONAL_AXES:
        assert isinstance(axis, Quat)
        assert axis.x0 == 0
        assert axis.norm_sq() == 1
