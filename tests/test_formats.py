from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qcorona.corona import CoronaInstance, CoronaSolution, koszul_solve
from qcorona.cpoly import CPoly
from qcorona.formats import (
    InstanceFormatError,
    parse_instance,
    parse_instance_text,
    parse_solution_text,
    serialize_instance,
    serialize_solution,
)
from qcorona.hpoly import HPoly
from qcorona.polymatrix import FullRankCertificate
from qcorona.scalars import GaussRat, Quat

from conftest import cpolys, hpolys, nonzero_hpolys

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

instances = st.lists(hpolys(3), min_size=1, max_size=3).filter(any).map(CoronaInstance.from_polys)


@st.composite
def certificates(draw, polys=cpolys(3)):
    """Nonempty certificates; det and witness polynomials, drawn from polys, may be zero."""
    k = draw(st.integers(1, 3))
    cols = draw(st.lists(
        st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True).map(lambda c: tuple(sorted(c))),
        min_size=k, max_size=k,
    ))
    dets = draw(st.lists(polys, min_size=k, max_size=k))
    witnesses = draw(st.lists(polys, min_size=k, max_size=k))
    return FullRankCertificate(tuple(cols), tuple(dets), tuple(witnesses), k)


# Reference writer: every component through its Fraction, since
# str(Fraction) is the file's rational syntax.

def quat_brackets(coeffs) -> str:
    if not coeffs:
        coeffs = [Quat()]
    return " ".join(
        "[" + ", ".join(str(c) for c in q.components()) + "]" for q in coeffs
    )


def cpoly_brackets(p: CPoly) -> str:
    coeffs = p.coeffs if p.coeffs else (GaussRat(0),)
    return " ".join(f"[{c.re}, {c.im}]" for c in coeffs)


def reference_instance_text(inst: CoronaInstance) -> str:
    return "".join(f"{name} = {quat_brackets(f.coeffs)}\n" for name, f in zip(inst.names, inst.fs))


def reference_solution_text(solution: CoronaSolution) -> str:
    lines = [f"h{k + 1} = {quat_brackets(h.coeffs)}" for k, h in enumerate(solution.hs)]
    cert = solution.certificate
    for k, (cols, minor, witness) in enumerate(
        zip(cert.minor_indices, cert.minors, cert.witnesses)
    ):
        lines.append(f"minor {k} cols = {' '.join(str(c) for c in cols)}")
        lines.append(f"minor {k} det = {cpoly_brackets(minor)}")
        lines.append(f"minor {k} witness = {cpoly_brackets(witness)}")
    return "\n".join(lines) + "\n"


# Rationals with numerators and denominators of up to about 2,000 bits,
# mixed with zeros, integers, small values and powers of ten, so that one
# polynomial's common denominator is huge while some components reduce to
# integers or to zero.
BIG = 2 ** 2000
numerators = st.one_of(
    st.integers(-BIG, BIG), st.integers(-3, 3), st.just(0),
    st.integers(0, 600).map(lambda k: -(10 ** k)), st.integers(0, 600).map(lambda k: 10 ** k),
)
denominators = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, BIG))
big_fractions = st.builds(Fraction, numerators, denominators)
big_quats = st.builds(Quat, big_fractions, big_fractions, big_fractions, big_fractions)
# A drawn coefficient list may end in zero quaternions, which HPoly drops;
# F and G of one polynomial then have different lengths whenever the last
# coefficients are complex or lie on the j, k plane.
sparse_quats = st.one_of(big_quats, st.just(Quat()), st.builds(Quat, big_fractions, big_fractions),
                         st.builds(lambda a, b: Quat(0, 0, a, b), big_fractions, big_fractions))
big_hpolys = st.lists(sparse_quats, max_size=4).map(HPoly)
big_cpolys = st.lists(
    st.one_of(st.builds(GaussRat, big_fractions, big_fractions), st.just(GaussRat(0))), max_size=4
).map(CPoly)


def _solution_roundtrip(solution: CoronaSolution):
    text = serialize_solution(solution)
    first = parse_solution_text(text)
    again = serialize_solution(CoronaSolution(first.hs, first.certificate, None))
    return text, first, again, parse_solution_text(again)


@given(instances)
def test_instance_roundtrip(inst):
    text = serialize_instance(inst)
    first = parse_instance_text(text)
    assert first == inst
    again = serialize_instance(first)
    assert again == text
    assert parse_instance_text(again) == first


@settings(max_examples=60)
@given(st.lists(nonzero_hpolys(3), min_size=1, max_size=3), certificates())
def test_solution_roundtrip_with_certificate(hs, cert):
    text, first, again, second = _solution_roundtrip(CoronaSolution(tuple(hs), cert, None))
    assert first.certificate.minors
    assert first.hs == tuple(hs)
    assert first.certificate.minors == cert.minors
    assert first.certificate.witnesses == cert.witnesses
    assert again == text
    assert second == first


@settings(max_examples=50, deadline=None)
@given(st.lists(big_hpolys, min_size=1, max_size=3).filter(any))
def test_instance_writer_matches_the_fraction_route(fs):
    inst = CoronaInstance.from_polys(fs)
    text = serialize_instance(inst)
    assert text == reference_instance_text(inst)
    assert parse_instance_text(text) == inst


@settings(max_examples=50, deadline=None)
@given(st.lists(big_hpolys, min_size=1, max_size=3), certificates(big_cpolys))
def test_solution_writer_matches_the_fraction_route(hs, cert):
    solution = CoronaSolution(tuple(hs), cert, None)
    text = serialize_solution(solution)
    assert text == reference_solution_text(solution)
    parsed = parse_solution_text(text)
    assert parsed.hs == tuple(hs)
    assert (parsed.certificate.minors, parsed.certificate.witnesses) == (cert.minors, cert.witnesses)


def _fraction_route(token: str) -> Fraction:
    """A token's value through Fraction, the reference for the integer-pair reader."""
    return Fraction(*(int(t) for t in token.split("/")))


@pytest.mark.parametrize("token", ["6/4", "-0/7", "+3", "007/010", "-12/8", "+0"])
def test_unreduced_and_signed_tokens_read_as_their_fraction(token):
    v = _fraction_route(token)
    inst = parse_instance_text(f"f1 = [{token}, 1, 0, 0] [0, 0, {token}, 1/2] [{token}, 0, 0, 0]\n")
    assert inst.fs[0] == HPoly([Quat(v, 1, 0, 0), Quat(0, 0, v, Fraction(1, 2)), Quat(v)])
    sol = parse_solution_text(
        f"h1 = [{token}, 0, 0, 0]\nminor 0 cols = 0 1\n"
        f"minor 0 det = [{token}, 1] [0, {token}]\nminor 0 witness = [{token}, 0]\n"
    )
    assert sol.hs == (HPoly([Quat(v)]),)
    assert sol.certificate.minors == (CPoly([GaussRat(v, 1), GaussRat(0, v)]),)
    assert sol.certificate.witnesses == (CPoly([GaussRat(v)]),)
    # The integer form is canonical, so the text written back is the Fraction's.
    assert serialize_instance(inst) == reference_instance_text(inst)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(big_fractions, st.integers(1, 10 ** 6), st.sampled_from(["", "+", "0"])),
                min_size=1, max_size=8))
def test_scaled_tokens_read_as_their_fraction(draws):
    """Each value written as (k*p)/(k*q), with a sign or leading zero, reads as p/q."""
    tokens, values = [], []
    for v, k, prefix in draws:
        num, den = v.numerator * k, v.denominator * k
        tokens.append(("-" if num < 0 else prefix) + f"{abs(num)}/{den}")
        values.append(v)
    tokens += ["0"] * (-len(tokens) % 4)
    values += [Fraction(0)] * (-len(values) % 4)
    text = " ".join("[" + ", ".join(tokens[m:m + 4]) + "]" for m in range(0, len(tokens), 4))
    expected = HPoly([Quat(*values[m:m + 4]) for m in range(0, len(values), 4)])
    assert parse_instance_text(f"f1 = {text}\n").fs[0] == expected


def test_solved_certificate_roundtrip():
    solution = koszul_solve(parse_instance(str(INSTANCES / "easy.inst")))
    text, first, again, second = _solution_roundtrip(solution)
    assert first.certificate.minors == solution.certificate.minors
    assert first.certificate.witnesses == solution.certificate.witnesses
    assert again == text
    assert second == first


# (case, text, line of the error or None for a whole-file error, message fragment).
# A declaration names its polynomial "{name}1"; each case runs on instance
# text (f1) and on solution text (h1).  Every text opens with a comment and a
# blank line, so the reported line counts the lines that are skipped.
DECLARATION_ERRORS = [
    ("no-equals", "{name}1 [1, 0, 0, 0]", 3, "expected 'name = coefficients'"),
    ("bad-name", "1{name} = [1, 0, 0, 0]", 3, "bad polynomial name"),
    ("duplicate-name", "{name}1 = [1, 0, 0, 0]\n{name}1 = [0, 1, 0, 0]", 4, "duplicate polynomial name"),
    ("wrong-arity", "{name}1 = [1, 2, 3]", 3, "expected 4 components per bracket, got 3"),
    ("stray-text", "{name}1 = [1, 0, 0, 0] q", 3, "unexpected text"),
    ("malformed-rational", "{name}1 = [1, 1.5, 0, 0]", 3, "malformed rational"),
    ("zero-denominator", "{name}1 = [1/0, 0, 0, 0]", 3, "zero denominator"),
    ("no-bracket-group", "{name}1 =", 3, "expected at least one bracketed group"),
    ("empty-component", "{name}1 = [1, 0, 0, 0] [1,,0,0,0]", 3, "empty component"),
    ("trailing-comma", "{name}1 = [1, 0, 0, 0,]", 3, "empty component"),
]
H1 = "h1 = [1, 0, 0, 0]\n"
CERTIFICATE_ERRORS = [
    ("no-polynomials", "", None, "solution file declares no polynomials"),
    ("bad-column-list", H1 + "minor 0 cols = 0 x", 4, "bad column list"),
    ("det-arity", H1 + "minor 0 det = [1, 0, 0]", 4, "expected 2 components per bracket, got 3"),
    ("witness-empty-component", H1 + "minor 0 witness = [1,]", 4, "empty component"),
    ("det-malformed-rational", H1 + "minor 0 det = [1, 0.5]", 4, "malformed rational '0.5'"),
    ("det-zero-denominator", H1 + "minor 0 det = [1/0, 0]", 4, "zero denominator in '1/0'"),
    ("witness-malformed-rational", H1 + "minor 0 witness = [x, 0]", 4, "malformed rational 'x'"),
    ("witness-zero-denominator", H1 + "minor 0 witness = [0, 3/00]", 4, "zero denominator in '3/00'"),
    ("incomplete-certificate", H1 + "minor 0 cols = 0 1\nminor 0 det = [1, 0]", None,
     "incomplete certificate section"),
] + [
    (f"repeated-minor-{kind}", H1 + f"minor 0 {kind} = {value}\nminor 0 {kind} = {value}", 5,
     f"repeated 'minor 0 {kind}' line")
    for kind, value in (("cols", "0 1"), ("det", "[1, 0]"), ("witness", "[2, 0]"))
]
FORMAT_ERRORS = (
    [(f"instance-{case}", parse_instance_text, text.format(name="f"), line, message)
     for case, text, line, message in DECLARATION_ERRORS]
    + [(f"solution-{case}", parse_solution_text, text.format(name="h"), line, message)
       for case, text, line, message in DECLARATION_ERRORS]
    + [("instance-empty", parse_instance_text, "", None, "empty instance: no polynomials declared")]
    + [(f"solution-{case}", parse_solution_text, text, line, message)
       for case, text, line, message in CERTIFICATE_ERRORS]
)


@pytest.mark.parametrize("parse,text,line,message", [case[1:] for case in FORMAT_ERRORS],
                         ids=[case[0] for case in FORMAT_ERRORS])
def test_format_error_names_its_line(parse, text, line, message):
    with pytest.raises(InstanceFormatError) as info:
        parse("# header\n\n" + text + "\n")
    assert info.value.line_no == line
    assert message in str(info.value)
    if line is not None:
        assert str(info.value).startswith(f"line {line}: ")
