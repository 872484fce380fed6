"""The paper's claims about the Koszul matrices A and B of a split family."""

import operator
import random
from functools import reduce
from pathlib import Path

import pytest

from qcorona import generate
from qcorona.cpoly import CP_ONE, dot
from qcorona.formats import parse_instance
from qcorona.hpoly import HPoly
from qcorona.polymatrix import det_bareiss, minor_gcd_certificate, rank_at
from qcorona.syzygy import (
    build_koszul,
    certificate_column_order,
    check_three_term,
    hat_swap,
    natural_syzygy,
)

# (n, degree): the rank-argument minors are 2n x 2n, up to 8 x 8.
FAMILIES = [(1, 1), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]


def kernel_dimension_at(pair, z):
    """Pointwise nullities: of the stacked matrix, and of A plus of B."""
    def nullity(m):
        return m.cols - rank_at(m, z)

    return nullity(pair.combined), nullity(pair.A) + nullity(pair.B)


def _pair(n, degree):
    fs = generate.random_coprime_instance(random.Random(f"syzygy:{n}:{degree}"), n, degree).fs
    return build_koszul(fs)


@pytest.mark.parametrize("n, degree", FAMILIES)
def test_rank_argument_minor_is_minus_p_ell_power_times_a_b_dot_product(n, degree):
    """Every set of the order gives det = -P_ell^(2n-2) * <P, b>, b its column of B.

    The minors are arrowhead matrices of (A, -B), so this also checks the
    sparse-line expansion of det_bareiss on matrices too large for a
    cofactor reference.
    """
    pair = _pair(n, degree)
    stacked = pair.combined
    k = len(pair.pairs)
    count = 0
    for cols in certificate_column_order(pair):
        a_pairs = [set(pair.pairs[c]) for c in cols if c < k]
        (b,) = [c - k for c in cols if c >= k]
        ell = min(set.intersection(*a_pairs))  # for n = 1 both indices give P_ell^0 = 1
        power = reduce(operator.mul, [pair.p[ell]] * (2 * n - 2), CP_ONE)
        minor = det_bareiss(stacked.submatrix(cols))
        assert minor == -(power * dot(pair.p, pair.B.column(b)))
        count += 1
    assert count == 2 * n * k


@pytest.mark.parametrize("n, degree", FAMILIES)
def test_columns_of_a_and_b_annihilate_p_and_w(n, degree):
    pair = _pair(n, degree)
    w = hat_swap(pair.p)
    for c in range(pair.A.cols):
        assert dot(pair.p, pair.A.column(c)).is_zero()
        assert dot(w, pair.B.column(c)).is_zero()


@pytest.mark.parametrize("n, degree", [(1, 2), (2, 2), (3, 1)])
def test_pointwise_nullities_of_a_family_without_common_zeros(n, degree):
    pair = _pair(n, degree)
    for z in generate.sample_slice_points(3):
        assert kernel_dimension_at(pair, z) == (4 * n * n - 4 * n, 4 * n * n - 6 * n + 2)


@pytest.mark.parametrize("n, degree", [family for family in FAMILIES if family[0] > 1])
def test_certificate_holds_only_minors_with_a_nonzero_witness(n, degree):
    pair = _pair(n, degree)
    cert = minor_gcd_certificate(pair.combined, certificate_column_order(pair))
    assert cert.minors and all(cert.witnesses)
    assert cert.verify(pair.combined)


INSTANCES = Path(__file__).resolve().parents[1] / "instances"


def _axis_family(seed):
    """triple.inst for seed None, else three q - u_l with u_l drawn from the rational axes."""
    if seed is None:
        return parse_instance(INSTANCES / "triple.inst").fs
    rng = random.Random(f"three-term-axes:{seed}")
    return [HPoly([-rng.choice(generate.RATIONAL_AXES), 1]) for _ in range(3)]


@pytest.mark.parametrize("seed", [None, *range(6)])
def test_three_term_reduction_through_rational_axes_gives_the_natural_syzygy(seed):
    fs = _axis_family(seed)
    result = check_three_term(fs, 0, 1, 2)
    assert result.holds and result.witness is None
    first, second = result.reduction
    assert [a - b for a, b in zip(first, second)] == list(natural_syzygy(fs, 1, 2).entries)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_three_term_holds_without_reduction_on_coprime_families(degree):
    rng = random.Random(f"three-term:{degree}")
    for _ in range(4):
        fs = generate.random_coprime_instance(rng, 3, degree).fs
        result = check_three_term(fs, 0, 1, 2)
        assert result.holds
        assert result.reduction is None
