from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qcorona.corona import CoronaInstance, CoronaSolution, koszul_solve
from qcorona.formats import (
    InstanceFormatError,
    parse_instance,
    parse_instance_text,
    parse_solution_text,
    serialize_instance,
    serialize_solution,
)
from qcorona.polymatrix import FullRankCertificate

from conftest import cpolys, hpolys, nonzero_hpolys

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

instances = st.lists(hpolys(3), min_size=1, max_size=3).filter(any).map(CoronaInstance.from_polys)


@st.composite
def certificates(draw):
    """Nonempty certificates; det and witness polynomials may be zero."""
    k = draw(st.integers(1, 3))
    cols = draw(st.lists(
        st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True).map(lambda c: tuple(sorted(c))),
        min_size=k, max_size=k,
    ))
    dets = draw(st.lists(cpolys(3), min_size=k, max_size=k))
    witnesses = draw(st.lists(cpolys(3), min_size=k, max_size=k))
    return FullRankCertificate(tuple(cols), tuple(dets), tuple(witnesses), k)


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
    assert first.has_certificate()
    assert first.hs == tuple(hs)
    assert first.certificate.minors == cert.minors
    assert first.certificate.witnesses == cert.witnesses
    assert again == text
    assert second == first


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
