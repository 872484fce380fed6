"""Instance and solution files.

Both are line-oriented text.  An instance file declares named quaternionic
polynomials, one per line, coefficients ascending in degree, each
coefficient a bracketed quadruple of exact rationals:

    # comments and blank lines are ignored
    f1 = [0, -1, 0, 0] [1, 0, 0, 0]

A solution file mirrors the instance format for the produced polynomials
(named h1, h2, ... in instance order).  The certificate section after them
is optional: `solve` appends the minor-gcd certificate its solution was
built under, and a file without one is checked by the identity alone:

    minor 0 cols = 0 3
    minor 0 det = [1, 0] [0, -1/2]
    minor 0 witness = [2, 0]

Rationals are written as integer or "p/q" strings; nothing is ever rounded,
so parse -> serialize -> parse is the identity.  Lines that match no rule,
a bracket with an empty component and a repeated minor line are rejected
with their line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .corona import CoronaInstance, CoronaSolution
from .cpoly import CPoly
from .hpoly import HPoly
from .polymatrix import FullRankCertificate
from .scalars import GaussRat, Quat


class InstanceFormatError(ValueError):
    """Malformed instance or solution file; carries the offending line."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_BRACKET_RE = re.compile(r"\[([^\[\]]*)\]")


def parse_rational(token: str, line_no: Optional[int] = None) -> Fraction:
    token = token.strip()
    if not _RATIONAL_RE.match(token):
        raise InstanceFormatError(f"malformed rational {token!r}", line_no)
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise InstanceFormatError(f"zero denominator in {token!r}", line_no)
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def _parse_groups(text: str, line_no: int, arity: int) -> list[list[Fraction]]:
    stripped = _BRACKET_RE.sub("", text).strip()
    if stripped:
        raise InstanceFormatError(f"unexpected text {stripped!r}", line_no)
    groups = []
    for body in _BRACKET_RE.findall(text):
        parts = [s.strip() for s in body.split(",")] if body.strip() else []
        if "" in parts:
            raise InstanceFormatError(f"empty component in [{body}]", line_no)
        if len(parts) != arity:
            raise InstanceFormatError(
                f"expected {arity} components per bracket, got {len(parts)}", line_no
            )
        groups.append([parse_rational(p, line_no) for p in parts])
    if not groups:
        raise InstanceFormatError("expected at least one bracketed group", line_no)
    return groups


def parse_quat_brackets(text: str, line_no: int = 0) -> list[Quat]:
    return [Quat(*g) for g in _parse_groups(text, line_no, 4)]


def parse_cpoly_brackets(text: str, line_no: int = 0) -> CPoly:
    return CPoly([GaussRat(*g) for g in _parse_groups(text, line_no, 2)])


def quat_brackets(coeffs: Sequence[Quat]) -> str:
    if not coeffs:
        coeffs = [Quat()]
    return " ".join(
        "[" + ", ".join(str(c) for c in q.components()) + "]" for q in coeffs
    )


def cpoly_brackets(p: CPoly) -> str:
    coeffs = p.coeffs if p.coeffs else (GaussRat(0),)
    return " ".join(f"[{c.re}, {c.im}]" for c in coeffs)


def _declaration_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def _declaration(line: str, line_no: int, names: list[str]) -> HPoly:
    """The polynomial of one 'name = coefficients' line; its name is appended to names."""
    if "=" not in line:
        raise InstanceFormatError(f"expected 'name = coefficients', got {line!r}", line_no)
    name, _, rest = line.partition("=")
    name = name.strip()
    if not _NAME_RE.match(name):
        raise InstanceFormatError(f"bad polynomial name {name!r}", line_no)
    if name in names:
        raise InstanceFormatError(f"duplicate polynomial name {name!r}", line_no)
    names.append(name)
    return HPoly(parse_quat_brackets(rest, line_no))


def parse_instance_text(text: str) -> CoronaInstance:
    names: list[str] = []
    fs = [_declaration(line, line_no, names) for line_no, line in _declaration_lines(text)]
    if not fs:
        raise InstanceFormatError("empty instance: no polynomials declared")
    return CoronaInstance.from_polys(fs, names)


def parse_instance(path: str) -> CoronaInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance_text(fh.read())


def serialize_instance(inst: CoronaInstance) -> str:
    lines = [f"{name} = {quat_brackets(f.coeffs)}" for name, f in zip(inst.names, inst.fs)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SolutionFile:
    """Parsed solution: the h polynomials plus the certificate, empty when the file has none."""

    hs: tuple[HPoly, ...]
    certificate: FullRankCertificate

    def has_certificate(self) -> bool:
        return bool(self.certificate.minors)


_MINOR_RE = re.compile(r"^minor\s+(\d+)\s+(cols|det|witness)\s*=\s*(.*)$")


def serialize_solution(solution: CoronaSolution) -> str:
    lines = [
        f"h{k + 1} = {quat_brackets(h.coeffs)}" for k, h in enumerate(solution.hs)
    ]
    cert = solution.certificate
    for k, (cols, minor, witness) in enumerate(
        zip(cert.minor_indices, cert.minors, cert.witnesses)
    ):
        lines.append(f"minor {k} cols = {' '.join(str(c) for c in cols)}")
        lines.append(f"minor {k} det = {cpoly_brackets(minor)}")
        lines.append(f"minor {k} witness = {cpoly_brackets(witness)}")
    return "\n".join(lines) + "\n"


def parse_solution_text(text: str) -> SolutionFile:
    hs: list[HPoly] = []
    names: list[str] = []
    cols: dict[int, tuple[int, ...]] = {}
    dets: dict[int, CPoly] = {}
    wits: dict[int, CPoly] = {}
    for line_no, line in _declaration_lines(text):
        minor_match = _MINOR_RE.match(line)
        if not minor_match:
            hs.append(_declaration(line, line_no, names))
            continue
        idx = int(minor_match.group(1))
        kind = minor_match.group(2)
        rest = minor_match.group(3)
        section = {"cols": cols, "det": dets, "witness": wits}[kind]
        if idx in section:
            raise InstanceFormatError(f"repeated 'minor {idx} {kind}' line", line_no)
        if kind == "cols":
            try:
                section[idx] = tuple(int(t) for t in rest.split())
            except ValueError:
                raise InstanceFormatError(f"bad column list {rest!r}", line_no)
        else:
            section[idx] = parse_cpoly_brackets(rest, line_no)
    if not hs:
        raise InstanceFormatError("solution file declares no polynomials")
    if not (set(cols) == set(dets) == set(wits)):
        raise InstanceFormatError("incomplete certificate section")
    order = sorted(cols)
    cert = FullRankCertificate(
        tuple(cols[k] for k in order),
        tuple(dets[k] for k in order),
        tuple(wits[k] for k in order),
        len(order),
    )
    return SolutionFile(tuple(hs), cert)


def parse_solution(path: str) -> SolutionFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_solution_text(fh.read())
