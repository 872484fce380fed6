from pathlib import Path

from hypothesis import given, settings
import hypothesis.strategies as st

from qcorona.corona import CoronaInstance, CoronaSolution, koszul_solve
from qcorona.formats import (
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
