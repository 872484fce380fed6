"""Instance and solution files.

Both are line-oriented text.  An instance file declares named quaternionic
polynomials, one per line, coefficients ascending in degree, each
coefficient a bracketed quadruple of exact rationals:

    # comments and blank lines are ignored
    f1 = [0, -1, 0, 0] [1, 0, 0, 0]

A solution file mirrors the instance format for the produced polynomials
(named h1, h2, ... in instance order).  The certificate section after them
is optional: `solve` appends the minor-gcd certificate its solution was
built under, whose minors all have a nonzero witness (a zero one still
verifies), and a file without one is checked by the identity alone:

    minor 0 cols = 0 3
    minor 0 det = [1, 0] [0, -1/2]
    minor 0 witness = [2, 0]

A solution file parses into a CoronaSolution whose certificate is empty
when the file has none; its remainders is None, since no Euclid ran.

Rationals are written as integer or "p/q" strings; nothing is ever rounded,
so parse -> serialize -> parse is the identity.  Lines that match no rule,
a bracket with an empty component and a repeated minor line are rejected
with their line number.

Coefficients are read into, and written from, the integer form (d, re, im)
that a CPoly stores, and no Fraction, GaussRat or Quat is built per
coefficient.  A token is read as a (numerator, denominator) int pair, and
each polynomial of a line is built once by CPoly.from_ratios, so unreduced
tokens such as 6/4 give the canonical polynomial.  A component is written
as x/d reduced by one gcd, which is exactly str(Fraction(x, d)).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .corona import CoronaInstance, CoronaSolution
from .cpoly import CPoly, Ratio
from .hpoly import HPoly
from .polymatrix import FullRankCertificate
from .scalars import Quat


class InstanceFormatError(ValueError):
    """Malformed instance or solution file; carries the offending line."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_BRACKET_RE = re.compile(r"\[([^\[\]]*)\]")


def _parse_groups(text: str, line_no: Optional[int], arity: int) -> list[list[Ratio]]:
    """The bracketed groups of text, each component a (numerator, denominator) pair."""
    pieces = _BRACKET_RE.split(text)
    stripped = "".join(pieces[::2]).strip()
    if stripped:
        raise InstanceFormatError(f"unexpected text {stripped!r}", line_no)
    groups = []
    for body in pieces[1::2]:
        parts = [s.strip() for s in body.split(",")] if body.strip() else []
        if "" in parts:
            raise InstanceFormatError(f"empty component in [{body}]", line_no)
        if len(parts) != arity:
            raise InstanceFormatError(
                f"expected {arity} components per bracket, got {len(parts)}", line_no
            )
        group = []
        for token in parts:
            match = _RATIONAL_RE.match(token)
            if not match:
                raise InstanceFormatError(f"malformed rational {token!r}", line_no)
            num, den = match.groups()
            den = int(den) if den else 1
            if not den:
                raise InstanceFormatError(f"zero denominator in {token!r}", line_no)
            group.append((int(num), den))
        groups.append(group)
    if not groups:
        raise InstanceFormatError("expected at least one bracketed group", line_no)
    return groups


def parse_quat_brackets(text: str, line_no: Optional[int] = None) -> list[Quat]:
    return [Quat(*(Fraction(*r) for r in g)) for g in _parse_groups(text, line_no, 4)]


def _parse_hpoly(text: str, line_no: int) -> HPoly:
    x0, x1, x2, x3 = zip(*_parse_groups(text, line_no, 4))
    return HPoly.from_split(CPoly.from_ratios(x0, x1), CPoly.from_ratios(x2, x3))


def _parse_cpoly(text: str, line_no: int) -> CPoly:
    return CPoly.from_ratios(*zip(*_parse_groups(text, line_no, 2)))


def _ratio(x: int, d: int) -> str:
    """str(Fraction(x, d)) for d > 0, with one gcd and no Fraction."""
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def coefficient_strings(f: Union[HPoly, CPoly]) -> list[tuple[str, ...]]:
    """Each coefficient of f, ascending, as its component strings; [0, ...] for f = 0.

    An HPoly coefficient F_m + G_m*j has four components, a CPoly
    coefficient two.  Each is written from the integer form (d, re, im).
    """
    n = max(f.degree + 1, 1)
    columns = []
    for p in (f.F, f.G) if isinstance(f, HPoly) else (f,):
        d, re, im = p._ints
        for xs in (re, im):
            columns.append([_ratio(x, d) for x in xs] + ["0"] * (n - len(xs)))
    return list(zip(*columns))


def _brackets(f: Union[HPoly, CPoly]) -> str:
    return " ".join("[" + ", ".join(row) + "]" for row in coefficient_strings(f))


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
    return _parse_hpoly(rest, line_no)


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
    lines = [f"{name} = {_brackets(f)}" for name, f in zip(inst.names, inst.fs)]
    return "\n".join(lines) + "\n"


_MINOR_RE = re.compile(r"^minor\s+(\d+)\s+(cols|det|witness)\s*=\s*(.*)$")


def serialize_solution(solution: CoronaSolution) -> str:
    lines = [
        f"h{k + 1} = {_brackets(h)}" for k, h in enumerate(solution.hs)
    ]
    cert = solution.certificate
    for k, (cols, minor, witness) in enumerate(
        zip(cert.minor_indices, cert.minors, cert.witnesses)
    ):
        lines.append(f"minor {k} cols = {' '.join(str(c) for c in cols)}")
        lines.append(f"minor {k} det = {_brackets(minor)}")
        lines.append(f"minor {k} witness = {_brackets(witness)}")
    return "\n".join(lines) + "\n"


def parse_solution_text(text: str) -> CoronaSolution:
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
            section[idx] = _parse_cpoly(rest, line_no)
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
    return CoronaSolution(tuple(hs), cert, None)


def parse_solution(path: str) -> CoronaSolution:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_solution_text(fh.read())
