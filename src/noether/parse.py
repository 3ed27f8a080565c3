"""Recursive-descent parser for the polynomial input grammar.

Grammar: integer coefficients, variables matching ``[a-z][0-9]*``, binary
operators ``+ - * ^`` (also ``**``), unary minus, parentheses.  Whitespace
is insignificant.  ``^`` exponents must be non-negative integer literals.
A product or power whose degree would exceed the degree budget is refused
before it is expanded, and so is every exponent past that budget, whatever
its base, so a constant power cannot build a huge integer either.  An
integer literal too long for Python to convert is a ``ParseError``.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .config import Budgets, DEFAULT_BUDGETS
from .errors import ParseError, ResourceBudgetError
from .fields import FieldSpec
from .poly import Polynomial

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z][0-9]*)|(\*\*|[-+*^()]))")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", column=pos)
        if m.group(1):
            tokens.append(("int", m.group(1), m.start()))
        elif m.group(2):
            tokens.append(("var", m.group(2), m.start()))
        else:
            op = "^" if m.group(3) == "**" else m.group(3)
            tokens.append(("op", op, m.start()))
        pos = m.end()
    return tokens


class _Parser:
    """Each rule returns its polynomial.  A product or power is refused by
    the exact degree of its factors before it is expanded."""

    def __init__(self, tokens, field: FieldSpec, var_names, max_degree: int):
        self.tokens = tokens
        self.i = 0
        self.field = field
        self.var_names = list(var_names)
        self.max_degree = max_degree

    def bound(self, degree: int) -> int:
        if degree > self.max_degree:
            raise ResourceBudgetError("max_degree", self.max_degree)
        return degree

    def literal(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # past Python's limit on digits converted
            raise ParseError(f"integer literal at column {tok[2]} is too long "
                             f"({len(tok[1])} digits)", column=tok[2]) from None

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, found {tok[1]!r}", column=tok[2])

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input at {tok[1]!r}", column=tok[2])
        return p

    def expr(self):
        # sum of signed terms
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        p = self.term()
        if sign < 0:
            p = -p
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.take()
                q = self.term()
                p = p - q if tok[1] == "-" else p + q
            else:
                return p

    def term(self):
        p = self.power()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.take()
                q = self.power()
                self.bound(p.total_degree() + q.total_degree())
                p = p * q
            else:
                return p

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.take()
            etok = self.take()
            if etok[0] != "int":
                raise ParseError("exponent must be an integer literal", column=etok[2])
            n = self.bound(self.literal(etok))
            self.bound(base.total_degree() * n)
            return base ** n
        return base

    def atom(self):
        tok = self.take()
        nvars = len(self.var_names)
        if tok[0] == "int":
            return Polynomial.const(self.field, nvars, self.literal(tok))
        if tok[0] == "var":
            if tok[1] not in self.var_names:
                raise ParseError(f"unknown variable {tok[1]!r}", column=tok[2])
            return Polynomial.var(self.field, nvars, self.var_names.index(tok[1]))
        if tok[0] == "op" and tok[1] == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        if tok[0] == "op" and tok[1] == "-":
            return -self.atom()
        raise ParseError(f"unexpected token {tok[1]!r}", column=tok[2])


def parse_polynomial(text: str, field: FieldSpec, var_names,
                     budgets: Budgets = DEFAULT_BUDGETS) -> Polynomial:
    if not isinstance(text, str):
        raise ParseError(f"polynomial text must be a string, got {text!r}")
    if not text.strip():
        raise ParseError("empty polynomial text")
    return _Parser(_tokenize(text), field, var_names, budgets.max_degree).parse()
