import hashlib
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from qcorona import corona, generate
from qcorona.corona import (
    CommonZeroObstruction,
    CoronaInstance,
    CoronaSolution,
    InternalCheckError,
    decide,
    diagnose_common_zero,
    koszul_solve,
    solve_corona,
    verify_identity,
)
from qcorona.formats import parse_instance, serialize_solution
from qcorona.cpoly import CPoly, bezout_multi
from qcorona.hpoly import HP_ONE, HP_Q, HPoly, real_poly_sphere_factors, right_bezout
from qcorona.polymatrix import RankObstruction, minor_gcd_certificate
from qcorona.scalars import Q_I, Q_J, Q_K, Q_ZERO, Quat
from qcorona.syzygy import build_koszul, certificate_column_order

from conftest import every_maximal_minor, hpolys, nonzero_hpolys, q_minus

INSTANCES = Path(__file__).resolve().parents[1] / "instances"
SPHERE_I = HPoly([1, 0, 1])  # q^2 + 1, zero on the whole unit imaginary sphere


def _families():
    """Seeded families: (label, polynomials), solvable and obstructed."""
    rng = random.Random(1611)

    def coprime(n, d):
        return list(generate.random_coprime_instance(rng, n, d).fs)

    def const():
        return HPoly.const(generate.random_nonzero_quat(rng))

    axis = rng.choice(generate.RATIONAL_AXES)
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


def _slice_families():
    """Seeded families whose coefficients all lie in the i-slice, not all zero."""
    rng = random.Random("i-slice")
    families = []
    while len(families) < 200:
        fs = [
            HPoly([Quat(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))])
            for _ in range(rng.randint(1, 4))
        ]
        if any(fs):
            families.append(fs)
    return families


def _sphere_data(real_poly):
    spheres, residual = real_poly_sphere_factors(real_poly)
    return {sphere for sphere, _ in spheres}, residual.is_one()


class TestRightDivision:
    @settings(max_examples=60)
    @given(hpolys(10), nonzero_hpolys(6))
    @example(HP_Q, SPHERE_I)  # deg f < deg g
    @example(HPoly(), q_minus(Q_I))  # zero dividend; next, a constant divisor
    @example(HPoly([Q_ZERO, Quat(1, 2, 0, -1), Quat(Fraction(1, 2), 3)]), HPoly([Quat(0, 2, -1)]))
    @example(SPHERE_I * q_minus(Q_K), HPoly([1, Q_J]))  # q j + 1, a pure j leading coefficient
    # The division drops the k = max(2 deg g - deg f, 0) lowest coefficients: k = 1, then k = deg g.
    @example(HPoly([Q_K, Q_I, 2, Q_J, 1, Quat(1, 1, 1, 1)]), HPoly([1, Q_J, Q_I, Quat(0, 1, 2)]))
    @example(q_minus(Q_I) * q_minus(Q_J), SPHERE_I * HPoly([Q_J]))
    def test_division_invariant(self, f, g):
        quo, rem = divmod(f, g)
        assert g * quo + rem == f
        assert rem.degree < g.degree
        if f.degree < g.degree:
            assert (quo, rem) == (HPoly(), f)

    def test_exact_quotient_by_a_real_polynomial(self):
        product = q_minus(Q_I) * q_minus(Q_J)
        assert divmod(product * SPHERE_I, SPHERE_I) == (product, HPoly())

    def test_left_factor_divides_exactly(self):
        f = q_minus(Q_I) * q_minus(Q_J)
        quo, rem = divmod(f, q_minus(Q_I))
        assert rem.is_zero() and quo == q_minus(Q_J)
        # q - j is a right factor, not a left one: right division leaves a remainder.
        assert not divmod(f, q_minus(Q_J))[1].is_zero()

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divmod(HP_Q, HPoly())


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
            assert divmod(f, g)[1].is_zero()

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

    def test_on_the_i_slice_it_is_bezout_multi(self):
        # One fold serves both rings: on i-slice families the H[q] generator
        # and witnesses are the C[z] ones, with zero G parts.
        for fs in _slice_families():
            result = right_bezout(fs)
            g, ws = bezout_multi([f.F for f in fs])
            assert result.gcd.split() == (g, CPoly())
            assert [w.split() for w in result.witnesses] == [(w, CPoly()) for w in ws]

    def test_shared_left_factor_is_the_generator(self):
        c = Quat(1, 2, 0, -1)
        result = right_bezout([q_minus(Q_I), q_minus(Q_I) * q_minus(Q_J), q_minus(Q_I) * HPoly.const(c)])
        assert result.gcd == q_minus(Q_I)


def _euclid_families():
    """Seeded families for the right_bezout digest.

    Coprime families for n in {2, 3, 4} at low degree, one pair of degree
    20, and coprime families multiplied on the left by a shared factor
    q - c, so the generator is not one.
    """
    rng = random.Random("right_bezout")
    families = [
        list(generate.random_coprime_instance(rng, n, d).fs)
        for n in (2, 3, 4) for d in (1, 2, 3)
    ]
    families.append(list(generate.random_coprime_instance(rng, 2, 20).fs))
    for n, d in ((2, 2), (3, 1)):
        shared = q_minus(generate.random_nonzero_quat(rng))
        families.append([shared * f for f in generate.random_coprime_instance(rng, n, d).fs])
    return families


# sha256 over repr(right_bezout(fs)) for every family of _euclid_families():
# generator, witnesses and every monic remainder.
RIGHT_BEZOUT_DIGEST = "66491fad917f918b87fa68f5dfce005b73cd439cc3bc1320da66888ccc25d454"


def test_right_bezout_is_pinned():
    h = hashlib.sha256()
    for fs in _euclid_families():
        h.update(repr(right_bezout(fs)).encode("utf-8"))
    assert h.hexdigest() == RIGHT_BEZOUT_DIGEST


class TestSolveCorona:
    def test_solution_verifies_under_its_certificate(self):
        inst = CoronaInstance.from_polys([q_minus(Q_I), q_minus(Q_J) * q_minus(Q_K)])
        sol = solve_corona(inst)
        assert isinstance(sol, CoronaSolution)
        assert verify_identity(inst.fs, sol.hs)
        assert sol.certificate.minors
        assert sol.remainders[-1] == HP_ONE

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
        assert result.gcd == SPHERE_I.F

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


def _rank_argument_bound(n):
    """2n * C(2n, 2): the column sets of the rank argument, counted with repeats."""
    return 2 * n * comb(2 * n, 2)


def _is_rank_argument_set(pair, cols):
    """2n-1 columns of A whose index pairs share one index, plus one column of B."""
    k = len(pair.pairs)
    a_pairs = [pair.pairs[c] for c in cols if c < k]
    through_one = any(all(ell in p for p in a_pairs) for ell in range(2 * pair.n))
    return len(a_pairs) == 2 * pair.n - 1 and len(cols) - len(a_pairs) == 1 and through_one


@pytest.mark.parametrize("label,fs", FAMILIES, ids=[label for label, _ in FAMILIES])
def test_euclid_and_koszul_routes_agree(label, fs):
    inst = CoronaInstance.from_polys(fs)
    euclid = decide(inst)
    pair = build_koszul(fs)
    if not isinstance(euclid, CommonZeroObstruction):
        koszul = koszul_solve(inst)
        assert verify_identity(fs, euclid.witnesses)
        assert verify_identity(fs, koszul.hs)
        assert all(_is_rank_argument_set(pair, cols) for cols in koszul.certificate.minor_indices)
        return
    # Every maximal minor, in lexicographic order: the gcd does not depend on the order.
    stacked = pair.combined
    reference = minor_gcd_certificate(stacked, every_maximal_minor(stacked))
    assert isinstance(reference, RankObstruction)
    # The Koszul gcd is Gaussian; times its hat it has the same spheres.
    koszul_spheres, koszul_resolved = _sphere_data((reference.gcd * reference.gcd.hat()).monic())
    assert _sphere_data(euclid.gcd) == (koszul_spheres, koszul_resolved)
    named = {entry.sphere for entry in diagnose_common_zero(inst, euclid).entries}
    assert named == koszul_spheres


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_order_is_the_rank_argument(n):
    fs = [q_minus(Q_I) + HPoly.const(Quat(m)) for m in range(n)]
    pair = build_koszul(fs)
    order = list(certificate_column_order(pair))
    assert len(order) == _rank_argument_bound(n)
    assert all(_is_rank_argument_set(pair, cols) for cols in order)


def test_q_and_one_are_certified_by_one_minor():
    cert = koszul_solve(CoronaInstance.from_polys([HP_Q, HP_ONE])).certificate
    assert len(cert.minors) == 1 and cert.minors_examined == 18


def test_koszul_solve_on_an_obstructed_family_is_an_internal_error(monkeypatch):
    fs = dict(FAMILIES)["n2-isolated"]
    outcomes = []

    def recording(*args):
        outcomes.append(minor_gcd_certificate(*args))
        return outcomes[-1]

    monkeypatch.setattr(corona, "minor_gcd_certificate", recording)
    with pytest.raises(InternalCheckError):
        koszul_solve(CoronaInstance.from_polys(fs))
    [outcome] = outcomes
    assert isinstance(outcome, RankObstruction) and not outcome.gcd.is_one()
    assert outcome.minors_examined <= _rank_argument_bound(len(fs))


def test_every_seeded_family_kind_is_covered():
    outcomes = {label: type(decide(CoronaInstance.from_polys(fs))).__name__ for label, fs in FAMILIES}
    assert outcomes["n3-zero-member"] == outcomes["n2-constant-member"] == "RightBezout"
    for label in ("n2-isolated", "n2-spherical", "n2-real-point", "n2-zero-member-isolated"):
        assert outcomes[label] == "CommonZeroObstruction"


# sha256 of serialize_solution(solve_corona(...)) for the shipped solvable
# instances and three seeded families.  The arithmetic kernels may change
# how a solution is computed, never a byte of it.
SOLUTION_DIGESTS = {
    "easy": "f945b42223d54d106a3762b683ebe8cae1a1c3092fef1f66d9cb06ae728077ff",
    "hard": "36441e6b58dc0faa483b44ae359f24ba6e21aac1d53bf7856d44b88a0b091653",
    "triple": "38e571b5b4b25a3ff746040dd6afe886bb426dd8557e1d7131dfea9140dbf8b5",
    "pin:2:2": "f8cc86cdea8a099779c64fc6fb02d45f4cdee6e4ce8262c751d1bf669591017a",
    "pin:3:1": "3914b4bc95776988d67b1a75b7a67e9b7fef7d2bee775455d5b60dee46319574",
    "pin:2:3": "2e383bd6a63af4f528507a73fc6658e58c6396c955d922c35d6ee7fdc9c80d3a",
}


@pytest.mark.parametrize("label", sorted(SOLUTION_DIGESTS))
def test_solution_files_are_byte_identical(label):
    if label.startswith("pin:"):
        _, n, d = label.split(":")
        inst = generate.random_coprime_instance(random.Random(label), int(n), int(d))
    else:
        inst = parse_instance(str(INSTANCES / f"{label}.inst"))
    text = serialize_solution(solve_corona(inst))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SOLUTION_DIGESTS[label]
