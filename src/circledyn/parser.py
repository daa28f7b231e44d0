"""Recursive-descent parser for map expressions in the variable z.

Grammar:
    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' exponent)?
    base     := 'z' | number | '(' expr ')'
    number   := (digits ['.' [digits]] | '.' digits) [('e'|'E') ['+'|'-'] digits]
    exponent := digits, at most DEGREE_CAP

Blanks (str.isspace) may stand between tokens; digits are Unicode decimal
digits.  Every node evaluates to a rational map, and sums, products and
quotients are reduced to lowest terms.  A power is not reduced again: a
root shared by a^e and b^e would be a root shared by a and b.  A
coefficient that is not finite, say an overflowing literal, is an error
(`Poly`); parse errors carry the offset of the offending token.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .algebra import DEGREE_CAP, Poly, RationalMap
from .errors import CircledynError, DegreeCapExceeded, DivisionByZeroPolynomial, MapSyntaxError

_BLANKS = re.compile(r"\s*")
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_EXPONENT = re.compile(r"\d+")


def _check_cap(m: RationalMap) -> RationalMap:
    if m.degree > DEGREE_CAP:
        raise DegreeCapExceeded(f"expression degree {m.degree} exceeds {DEGREE_CAP}")
    return m


def _mul(a: RationalMap, b: RationalMap, reduce=True) -> RationalMap:
    return _check_cap(RationalMap(a.num * b.num, a.den * b.den, reduce))


def _div(a: RationalMap, b: RationalMap, offset: int) -> RationalMap:
    if b.num.is_zero:
        raise DivisionByZeroPolynomial(f"division by zero polynomial at offset {offset}")
    return _check_cap(RationalMap(a.num * b.den, a.den * b.num))


def _add(a: RationalMap, b: RationalMap, sign: float) -> RationalMap:
    num = a.num * b.den + Poly([sign]) * b.num * a.den
    return RationalMap(num, a.den * b.den)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        """The next non-blank character (None at the end) and its offset."""
        self.pos = _BLANKS.match(self.text, self.pos).end()
        return self.text[self.pos : self.pos + 1] or None, self.pos

    def accept(self, chars: str):
        """The next non-blank character, consumed if it is one of chars, else None."""
        ch, _ = self.peek()
        if ch is None or ch not in chars:
            return None
        self.pos += 1
        return ch

    def scan(self, token: re.Pattern):
        """The token after the blanks at the cursor, consumed; None if there is none."""
        match = token.match(self.text, self.peek()[1])
        if match:
            self.pos = match.end()
        return match and match.group()

    def parse(self) -> RationalMap:
        value = self.expr()
        ch, pos = self.peek()
        if ch is not None:
            raise MapSyntaxError(f"unexpected character {ch!r}", pos)
        return value

    def expr(self) -> RationalMap:
        value = self.term()
        while ch := self.accept("+-"):
            value = _add(value, self.term(), 1.0 if ch == "+" else -1.0)
        return value

    def term(self) -> RationalMap:
        value = self.factor()
        while ch := self.accept("*/"):
            pos = self.pos - 1
            value = _mul(value, self.factor()) if ch == "*" else _div(value, self.factor(), pos)
        return value

    def factor(self) -> RationalMap:
        base = self.base()
        if not self.accept("^"):
            return base
        digits = self.scan(_EXPONENT)
        if digits is None:
            raise MapSyntaxError("expected a nonnegative integer exponent", self.pos)
        try:
            exponent = int(digits)
        except ValueError:  # more digits than int() reads
            raise DegreeCapExceeded(f"exponent of {len(digits)} digits exceeds {DEGREE_CAP}") from None
        if exponent > DEGREE_CAP:
            raise DegreeCapExceeded(f"exponent {exponent} exceeds {DEGREE_CAP}")
        result = RationalMap([1.0], [1.0], reduce=False)
        for _ in range(exponent):
            result = _mul(result, base, reduce=False)
        return result

    def base(self) -> RationalMap:
        if self.accept("z"):
            return RationalMap([0.0, 1.0], [1.0], reduce=False)
        if self.accept("("):
            inner = self.expr()
            if not self.accept(")"):
                raise MapSyntaxError("expected ')'", self.pos)
            return inner
        number = self.scan(_NUMBER)
        if number is not None:
            return RationalMap([float(number)], [1.0], reduce=False)
        ch, pos = self.peek()
        if ch is None:
            raise MapSyntaxError("unexpected end of input", pos)
        raise MapSyntaxError(f"unexpected character {ch!r}", pos)


def parse_map(text: str) -> RationalMap:
    """Parse a map expression into a reduced rational map."""
    return _Parser(text).parse()


def format_map(f: RationalMap) -> str:
    """Pretty-print a rational map so parse_map(format_map(f)) round-trips."""

    def poly_str(p: Poly) -> str:
        parts = []
        for k, c in enumerate(p.coeffs):
            if c == 0:
                continue
            if abs(c.imag) > 1e-300:
                raise ValueError("cannot format a map with complex coefficients")
            coeff = repr(float(c.real))
            if coeff.startswith("-"):
                term = f"(0-{coeff[1:]})"
            else:
                term = coeff
            if k == 1:
                term += "*z"
            elif k > 1:
                term += f"*z^{k}"
            parts.append(term)
        if not parts:
            return "0"
        return "(" + "+".join(parts) + ")"

    return f"{poly_str(f.num)}/{poly_str(f.den)}"


def map_from_coeff_json(text: str) -> RationalMap:
    """Build a map from JSON {"num": [[re, im], ...], "den": [[re, im], ...]}."""
    try:
        data = json.loads(text)
        num = np.array([complex(re, im) for re, im in data["num"]], dtype=complex)
        den = np.array([complex(re, im) for re, im in data["den"]], dtype=complex)
    except (ValueError, KeyError, TypeError) as exc:
        raise CircledynError(f"malformed coefficient JSON: {exc!r}") from exc
    return RationalMap(num, den)
