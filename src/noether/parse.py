"""Recursive-descent parser for the polynomial input grammar.

Grammar: integer coefficients, variables matching ``[a-z][0-9]*``, binary
operators ``+ - * ^`` (also ``**``), unary minus, parentheses.  Whitespace
is insignificant.  ``^`` exponents must be non-negative integer literals.
With no division to do, rules compute on integers, mod p over F_p.
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
from .poly import Polynomial, mono_mul

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
        value = "^" if m.group(3) == "**" else m.group(m.lastindex)
        tokens.append((("int", "var", "op")[m.lastindex - 1], value, m.start()))
        pos = m.end()
    return tokens


class _Parser:
    """Each rule returns ``{exponents: int}`` without zeros, mod p over F_p,
    so a product or power is refused by its factors' exact degrees."""

    def __init__(self, tokens, field: FieldSpec, var_names, max_degree: int):
        self.tokens, self.i, self.p, self.max_degree = tokens, 0, field.p, max_degree
        names = list(var_names)
        self.one = (0,) * len(names)
        self.vars = {v: tuple(int(j == i) for j in range(len(names)))
                     for i, v in enumerate(names) if v not in names[:i]}

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

    def at(self, ops):
        """Take and return the next token if it is an operator in ``ops``."""
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in ops:
            self.i += 1
            return tok

    def clean(self, terms):
        if self.p:
            return {m: c % self.p for m, c in terms.items() if c % self.p}
        return {m: c for m, c in terms.items() if c}

    def mul(self, a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return self.clean(out)

    def expr(self):
        # sum of signed terms, the first with an optional sign
        tok, total = self.at("+-"), {}
        while True:
            sign = -1 if tok and tok[1] == "-" else 1
            for m, c in self.term().items():
                total[m] = total.get(m, 0) + sign * c
            tok = self.at("+-")
            if not tok:
                return self.clean(total)

    def term(self):
        p = self.power()
        while self.at("*"):
            q = self.power()
            self.bound(max(map(sum, p), default=-1) + max(map(sum, q), default=-1))
            p = self.mul(p, q)
        return p

    def power(self):
        base = self.atom()
        if not self.at("^"):
            return base
        etok = self.take()
        if etok[0] != "int":
            raise ParseError("exponent must be an integer literal", column=etok[2])
        n = self.bound(self.literal(etok))
        self.bound(max(map(sum, base), default=-1) * n)
        result = {self.one: 1}
        for _ in range(n):
            result = self.mul(result, base)
        return result

    def atom(self):
        tok = self.take()
        if tok[0] == "int":
            return self.clean({self.one: self.literal(tok)})
        if tok[0] == "var":
            if tok[1] not in self.vars:
                raise ParseError(f"unknown variable {tok[1]!r}", column=tok[2])
            return {self.vars[tok[1]]: 1}
        if tok[0] == "op" and tok[1] == "(":
            p = self.expr()
            tok = self.take()
            if tok[0] != "op" or tok[1] != ")":
                raise ParseError(f"expected ')', found {tok[1]!r}", column=tok[2])
            return p
        if tok[0] == "op" and tok[1] == "-":
            return self.clean({m: -c for m, c in self.atom().items()})
        raise ParseError(f"unexpected token {tok[1]!r}", column=tok[2])


def parse_polynomial(text: str, field: FieldSpec, var_names,
                     budgets: Budgets = DEFAULT_BUDGETS) -> Polynomial:
    if not isinstance(text, str):
        raise ParseError(f"polynomial text must be a string, got {text!r}")
    if not text.strip():
        raise ParseError("empty polynomial text")
    parser = _Parser(_tokenize(text), field, var_names, budgets.max_degree)
    terms, tok = parser.expr(), parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input at {tok[1]!r}", column=tok[2])
    return Polynomial(field, len(parser.one), {m: field.from_int(c) for m, c in terms.items()})
