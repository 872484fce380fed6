import random

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from qcorona import generate
from qcorona.corona import (
    CommonZeroObstruction,
    CoronaInstance,
    CoronaSolution,
    decide,
    diagnose_common_zero,
    koszul_solve,
    solve_corona,
    verify_identity,
)
from qcorona.hpoly import HP_ONE, HP_Q, HPoly, real_poly_sphere_factors, right_bezout
from qcorona.polymatrix import RankObstruction
from qcorona.scalars import Q_I, Q_J, Q_K, Quat

from conftest import hpolys, nonzero_hpolys, q_minus

SPHERE_I = HPoly([1, 0, 1])  # q^2 + 1, zero on the whole unit imaginary sphere


def _families():
    """Seeded families: (label, polynomials), solvable and obstructed."""
    rng = random.Random(1611)

    def coprime(n, d):
        return list(generate.random_coprime_instance(rng, n, d).fs)

    def const():
        return HPoly.const(generate.random_nonzero_quat(rng))

    axis = generate.random_axis(rng)
    return [
        ("n1-constant", [const()]),
        ("n1-degree2", [generate.random_hpoly(rng, 2)]),
        ("n2-degree1", coprime(2, 1)),
        ("n2-degree2", coprime(2, 2)),
        ("n2-degree3", coprime(2, 3)),
        ("n3-degree1", coprime(3, 1)),
        ("n3-zero-member", coprime(2, 1)[:1] + [HPoly()] + coprime(1, 1)),
        ("n2-constant-member", coprime(1, 3) + [const()]),
        ("n2-isolated", [q_minus(axis) * const(), q_minus(axis) * const()]),
        ("n2-spherical", [SPHERE_I * const(), SPHERE_I * const()]),
        ("n2-real-point", [q_minus(Quat(2)), q_minus(Quat(2)) * const()]),
        ("n2-zero-member-isolated", [HPoly(), q_minus(axis) * generate.random_hpoly(rng, 1)]),
    ]


FAMILIES = _families()


def _sphere_data(real_poly):
    spheres, residual = real_poly_sphere_factors(real_poly)
    return {sphere for sphere, _ in spheres}, residual.is_one()


class TestRightDivision:
    @settings(max_examples=60)
    @given(hpolys(5), nonzero_hpolys(3))
    def test_division_invariant(self, f, g):
        quo, rem = f.right_divmod(g)
        assert g * quo + rem == f
        assert rem.degree < g.degree

    def test_left_factor_divides_exactly(self):
        f = q_minus(Q_I) * q_minus(Q_J)
        quo, rem = f.right_divmod(q_minus(Q_I))
        assert rem.is_zero() and quo == q_minus(Q_J)
        # q - j is a right factor, not a left one: right division leaves a remainder.
        assert not f.right_divmod(q_minus(Q_J))[1].is_zero()

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            HP_Q.right_divmod(HPoly())


class TestRightBezout:
    @settings(max_examples=40)
    @given(st.lists(hpolys(3), min_size=1, max_size=3))
    def test_generator_left_divides_and_lies_in_the_ideal(self, fs):
        assume(any(fs))
        result = right_bezout(fs)
        g = result.gcd
        assert g.coeffs[-1] == Quat(1)
        acc = HPoly()
        for f, w in zip(fs, result.witnesses):
            acc = acc + f * w
        assert acc == g
        for f in fs:
            assert f.right_divmod(g)[1].is_zero()

    @settings(max_examples=40)
    @given(nonzero_hpolys(4), nonzero_hpolys(4))
    def test_pair_degree_bounds(self, f1, f2):
        assume(f1.degree >= 1 and f2.degree >= 1)
        result = right_bezout([f1, f2])
        assume(result.gcd == HP_ONE)
        h1, h2 = result.witnesses
        assert h1.degree < f2.degree
        assert h2.degree < f1.degree

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            right_bezout([HPoly(), HPoly()])

    def test_shared_left_factor_is_the_generator(self):
        c = Quat(1, 2, 0, -1)
        result = right_bezout([q_minus(Q_I), q_minus(Q_I) * q_minus(Q_J), q_minus(Q_I) * HPoly.const(c)])
        assert result.gcd == q_minus(Q_I)


class TestSolveCorona:
    def test_solution_verifies_under_its_certificate(self):
        inst = CoronaInstance.from_polys([q_minus(Q_I), q_minus(Q_J) * q_minus(Q_K)])
        sol = solve_corona(inst)
        assert isinstance(sol, CoronaSolution)
        assert verify_identity(inst.fs, sol.hs)
        assert sol.certificate.minors
        assert sol.trace.remainders[-1] == HP_ONE

    def test_decide_returns_the_euclid_witnesses_when_solvable(self):
        fs = [q_minus(Q_I), q_minus(Q_J) * q_minus(Q_K)]
        decision = decide(CoronaInstance.from_polys(fs))
        assert decision.gcd == HP_ONE
        assert verify_identity(fs, decision.witnesses)

    def test_obstruction_gcd_is_the_slice_polynomial_of_the_generator(self):
        inst = CoronaInstance.from_polys([q_minus(Q_J), q_minus(Q_J) * HPoly.const(Q_K)])
        result = solve_corona(inst)
        assert isinstance(result, CommonZeroObstruction)
        assert result.generator == q_minus(Q_J)
        assert result.gcd == SPHERE_I.split().F

    def test_shared_point_of_three_is_named(self):
        qi = q_minus(Q_I)
        inst = CoronaInstance.from_polys([qi, qi * q_minus(Q_J), qi * q_minus(Q_K)])
        result = solve_corona(inst)
        report = diagnose_common_zero(inst, result)
        assert [e.common_points for e in report.entries] == [(Q_I,)]

    def test_spherical_zero_is_named(self):
        inst = CoronaInstance.from_polys([SPHERE_I, SPHERE_I * q_minus(Q_J)])
        report = diagnose_common_zero(inst, solve_corona(inst))
        assert [e.whole_sphere for e in report.entries] == [True]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            solve_corona(CoronaInstance.from_polys([HPoly()]))


@pytest.mark.parametrize("label,fs", FAMILIES, ids=[label for label, _ in FAMILIES])
def test_euclid_and_koszul_routes_agree(label, fs):
    inst = CoronaInstance.from_polys(fs)
    euclid = decide(inst)
    koszul = koszul_solve(inst)
    if isinstance(koszul, CoronaSolution):
        assert not isinstance(euclid, CommonZeroObstruction)
        assert verify_identity(fs, euclid.witnesses)
        assert verify_identity(fs, koszul.hs)
        return
    assert isinstance(koszul, RankObstruction)
    assert isinstance(euclid, CommonZeroObstruction)
    # The Koszul gcd is Gaussian; times its hat it has the same spheres.
    koszul_spheres, koszul_resolved = _sphere_data((koszul.gcd * koszul.gcd.hat()).monic())
    assert _sphere_data(euclid.gcd) == (koszul_spheres, koszul_resolved)
    named = {entry.sphere for entry in diagnose_common_zero(inst, euclid).entries}
    assert named == koszul_spheres


def test_every_seeded_family_kind_is_covered():
    outcomes = {label: type(decide(CoronaInstance.from_polys(fs))).__name__ for label, fs in FAMILIES}
    assert outcomes["n3-zero-member"] == outcomes["n2-constant-member"] == "RightBezout"
    for label in ("n2-isolated", "n2-spherical", "n2-real-point", "n2-zero-member-isolated"):
        assert outcomes[label] == "CommonZeroObstruction"
