"""Recursive-descent parser for map expressions in the variable z.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := 'z' | number | '(' expr ')'

Every node evaluates to a rational map; parse errors carry the byte offset.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .algebra import DEGREE_CAP, Poly, RationalMap
from .errors import CircledynError, DegreeCapExceeded, DivisionByZeroPolynomial, MapSyntaxError


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None, self.pos
        return self.text[self.pos], self.pos

    def take(self):
        ch, pos = self.peek()
        if ch is not None:
            self.pos += 1
        return ch, pos

    def number(self):
        self._skip_ws()
        start = self.pos
        seen_digit = seen_dot = False
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isdigit():
                seen_digit = True
            elif ch == "." and not seen_dot:
                seen_dot = True
            elif ch in "eE" and seen_digit:
                nxt = self.text[self.pos + 1 : self.pos + 2]
                if nxt.isdigit() or nxt in "+-":
                    self.pos += 2 if nxt in "+-" else 1
                    while self.pos < len(self.text) and self.text[self.pos].isdigit():
                        self.pos += 1
                    self.pos -= 1
                else:
                    break
            else:
                break
            self.pos += 1
        if not seen_digit:
            raise MapSyntaxError("expected a number", start)
        value = float(self.text[start : self.pos])
        if not math.isfinite(value):
            raise MapSyntaxError("number out of floating-point range", start)
        return value, start

    def uint(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise MapSyntaxError("expected a nonnegative integer exponent", start)
        return int(self.text[start : self.pos]), start


def _check_cap(m: RationalMap, offset: int) -> RationalMap:
    if m.degree > DEGREE_CAP:
        raise DegreeCapExceeded(f"expression degree {m.degree} exceeds {DEGREE_CAP}")
    return m


def _mul(a: RationalMap, b: RationalMap, offset: int) -> RationalMap:
    return _check_cap(RationalMap(a.num * b.num, a.den * b.den), offset)


def _div(a: RationalMap, b: RationalMap, offset: int) -> RationalMap:
    if b.num.is_zero:
        raise DivisionByZeroPolynomial(f"division by zero polynomial at offset {offset}")
    return _check_cap(RationalMap(a.num * b.den, a.den * b.num), offset)


def _add(a: RationalMap, b: RationalMap, sign: float) -> RationalMap:
    num = a.num * b.den + Poly([sign]) * b.num * a.den
    return RationalMap(num, a.den * b.den)


class _Parser:
    def __init__(self, text: str):
        self.tok = _Tokenizer(text)

    def parse(self) -> RationalMap:
        value = self.expr()
        ch, pos = self.tok.peek()
        if ch is not None:
            raise MapSyntaxError(f"unexpected character {ch!r}", pos)
        return value

    def expr(self) -> RationalMap:
        value = self.term()
        while True:
            ch, _ = self.tok.peek()
            if ch in ("+", "-"):
                self.tok.take()
                rhs = self.term()
                value = _add(value, rhs, 1.0 if ch == "+" else -1.0)
            else:
                return value

    def term(self) -> RationalMap:
        value = self.factor()
        while True:
            ch, pos = self.tok.peek()
            if ch == "*":
                self.tok.take()
                value = _mul(value, self.factor(), pos)
            elif ch == "/":
                self.tok.take()
                value = _div(value, self.factor(), pos)
            else:
                return value

    def factor(self) -> RationalMap:
        base = self.base()
        ch, pos = self.tok.peek()
        if ch == "^":
            self.tok.take()
            exponent, _ = self.tok.uint()
            result = RationalMap([1.0], [1.0], reduce=False)
            for _ in range(exponent):
                result = _mul(result, base, pos)
            return result
        return base

    def base(self) -> RationalMap:
        ch, pos = self.tok.peek()
        if ch is None:
            raise MapSyntaxError("unexpected end of input", pos)
        if ch == "z":
            self.tok.take()
            return RationalMap([0.0, 1.0], [1.0], reduce=False)
        if ch == "(":
            self.tok.take()
            inner = self.expr()
            ch2, pos2 = self.tok.take()
            if ch2 != ")":
                raise MapSyntaxError("expected ')'", pos2)
            return inner
        if ch.isdigit() or ch == ".":
            value, _ = self.tok.number()
            return RationalMap([value], [1.0], reduce=False)
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
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise CircledynError("coefficient JSON holds a non-finite value")
    return RationalMap(num, den)
