"""Text input: rings, monomials, polynomials and comma-separated ideals."""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ParseError
from .ideals import MonomialIdeal
from .ring import Exp, Poly, RingSpec

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN = re.compile(rf"(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<name>{_NAME})|(?P<op>[\^*+\-])|(?P<ws>\s+)|(?P<bad>.)")


def parse_ring(names: str) -> RingSpec:
    parts = [p.strip() for p in names.split(",") if p.strip()]
    if not parts:
        raise ParseError("no variable names given")
    for part in parts:
        if not re.fullmatch(_NAME, part):
            raise ParseError(f"bad variable name {part!r} (letters, digits, _, no leading digit)")
    try:
        return RingSpec(len(parts), tuple(parts))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _int(digits: str, at: int) -> int:
    try:
        return int(digits)
    except ValueError:  # the digits are checked, so only the length can fail
        raise ParseError(f"number of more than {sys.get_int_max_str_digits()} digits", at) from None


def _tokens(text: str):
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "ws":
            continue
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        yield (m.lastgroup, m.group(), m.start())
    yield ("end", "", len(text))


def parse_polynomial(text: str, ring: RingSpec) -> Poly:
    """Grammar: ['-'] term (('+'|'-') term)*, term = factor ('*' factor)*,
    factor = number | name ['^' exponent]."""
    toks = list(_tokens(text))
    var_index = {name: i for i, name in enumerate(ring.names)}
    terms: dict[Exp, Fraction] = {}
    kind, value, at = toks[0]
    pos = 0
    coeff = Fraction(1)
    if kind == "op" and value == "-":
        pos = 1
        coeff = Fraction(-1)
    elif kind == "op":
        raise ParseError(f"term cannot start with {value!r}", at)
    mono = [0] * ring.n
    while True:  # one factor and the token after it per pass
        kind, value, at = toks[pos]
        pos += 1
        if kind == "num":
            num, _, den = value.partition("/")
            try:
                coeff *= Fraction(_int(num, at), _int(den, at) if den else 1)
            except ZeroDivisionError:
                raise ParseError("coefficient with a zero denominator", at) from None
        elif kind != "name":
            raise ParseError("expected a coefficient or variable", at)
        elif value not in var_index:
            raise ParseError(f"unknown variable {value!r}", at)
        elif toks[pos][1] == "^":
            kind, exponent, at = toks[pos + 1]
            if kind != "num" or "/" in exponent:
                raise ParseError("exponent must be a non-negative integer", at)
            mono[var_index[value]] += _int(exponent, at)
            pos += 2
        else:
            mono[var_index[value]] += 1
        kind, value, at = toks[pos]
        pos += 1
        if value == "*":
            continue
        key = tuple(mono)
        terms[key] = terms.get(key, Fraction(0)) + coeff
        if kind == "end":
            return Poly(ring.n, terms)
        if kind != "op" or value not in "+-":
            raise ParseError(f"expected '+' or '-', got {value!r}", at)
        coeff = Fraction(1) if value == "+" else Fraction(-1)
        mono = [0] * ring.n


def parse_monomial(text: str, ring: RingSpec) -> Exp:
    poly = parse_polynomial(text, ring)
    if len(poly.terms) != 1:
        raise ParseError(f"{text.strip()!r} is not a monomial")
    (mono, coeff), = poly.terms.items()
    if coeff != 1:
        raise ParseError(f"{text.strip()!r} is not a monomial (coefficient {coeff})")
    return mono


def parse_ideal(text: str, ring: RingSpec):
    """Comma-separated generators.  Pure monomial input yields a MonomialIdeal;
    anything with more than one term per generator yields a polynomial list."""
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    if not parts:
        return MonomialIdeal(ring)
    polys = [parse_polynomial(p, ring) for p in parts]
    if all(len(p.terms) <= 1 for p in polys):
        gens = tuple(next(iter(p.terms)) for p in polys if not p.is_zero())
        return MonomialIdeal(ring, gens)
    return polys


def parse_window(text: str):
    m = re.fullmatch(r"\s*(-?\d+)\s*:\s*(-?\d+)\s*", text)
    if not m:
        raise ParseError(f"window must look like lo:hi, got {text!r}")
    return _int(m.group(1), m.start(1)), _int(m.group(2), m.start(2))
