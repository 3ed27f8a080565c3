"""Parser for the polynomial input grammar.

Grammar: integer coefficients, variables matching ``[a-z][0-9]*``, binary
operators ``+ - * ^`` (also ``**``), unary minus, parentheses.  Whitespace
is insignificant.  ``^`` exponents must be non-negative integer literals.
One regex scan makes the tokens, a stray character one of its own; one
descent multiplies each run of integer and variable factors into one term,
on integers (mod p over F_p; there is no division).  A product or power
past the degree budget is refused before it is expanded, and so is every
exponent past it, whatever its base, so a constant power cannot build a
huge integer either.  An integer literal too long for Python to convert
is a ``ParseError``.  A ``ParseError``'s column is the offset of the
offending character; a stray character is reported before any other error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce

from .config import Budgets, DEFAULT_BUDGETS
from .errors import ParseError, ResourceBudgetError
from .fields import FieldSpec
from .poly import Polynomial, mono_mul

_TOKEN = re.compile(r"\d+|[a-z][0-9]*|\*\*|\S")
_SYMBOLS = ("+", "-", "*", "**", "^", "(", ")")


class _Descent:
    """Reads the tokens by index, ``""`` closing them.  A sum is
    ``{exponents: int}`` without zeros, mod p over F_p; a product keeps its
    exact degree, -1 for zero, and is refused by it before it is expanded."""

    def __init__(self, text, tokens, names, p: int, max_degree: int):
        self.text, self.tokens, self.names = text, tokens + [""], names
        self.p, self.max_degree = p, max_degree

    def bound(self, degree: int) -> int:
        if degree > self.max_degree:
            raise ResourceBudgetError("max_degree", self.max_degree)
        return degree

    def error(self, message: str, i: int) -> ParseError:
        """``message`` formatted with token ``i``, its column and its length."""
        tok = self.tokens[i]
        if not tok:
            return ParseError("unexpected end of input")
        column = [m.start() for m in _TOKEN.finditer(self.text)][i]
        shown = repr("^" if tok == "**" else tok)
        return ParseError(message.format(shown, column, len(tok)), column=column)

    def literal(self, i: int) -> int:
        try:
            return int(self.tokens[i])
        except ValueError:  # past Python's limit on digits converted
            raise self.error("integer literal at column {1} is too long ({2} digits)", i) from None

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

    def expr(self, i: int):
        """``(terms, i)``: the sum of signed terms from token ``i`` on, the
        first with an optional sign, and the index after it."""
        toks, total = self.tokens, {}
        while True:
            sign = -1 if toks[i] == "-" else 1
            if toks[i] == "-" or toks[i] == "+":
                i += 1
            terms, i = self.term(i)
            for m, v in terms.items():
                total[m] = total.get(m, 0) + sign * v
            if toks[i] != "+" and toks[i] != "-":
                return self.clean(total), i

    def term(self, i: int):
        """``(terms, i)`` as ``expr``, for a product kept as ``c * x^e * d``,
        ``d`` None while every factor is an integer or a variable."""
        toks, p, names = self.tokens, self.p, self.names
        c, e, d, deg = 1, [0] * len(names), None, None
        while True:
            # one factor: unary minus signs, an atom, an optional ^k
            v, f, j, k = 1, None, None, 1
            while toks[i] == "-":
                v, i = -v, i + 1
            tok = toks[i]
            if tok == "(":
                f, i = self.expr(i + 1)
                if toks[i] != ")":
                    raise self.error("expected ')', found {}", i)
                f = f if v > 0 else self.clean({m: -w for m, w in f.items()})
                fdeg = max(map(sum, f), default=-1)
            elif tok.isdecimal():
                v = v * self.literal(i) % p if p else v * self.literal(i)
                fdeg = 0 if v else -1
            elif "a" <= tok[:1] <= "z":
                if tok not in names:
                    raise self.error("unknown variable {}", i)
                j, fdeg = names.index(tok), 1
            else:
                raise self.error("unexpected token {}", i)
            i += 1
            if toks[i] == "^" or toks[i] == "**":
                if not toks[i + 1].isdecimal():
                    raise self.error("exponent must be an integer literal", i + 1)
                k = self.bound(self.literal(i + 1))
                self.bound(fdeg * k)
                i += 2
                if f is None:
                    v = pow(v, k, p) if p else v ** k
                    fdeg = fdeg * k if v else -1
                else:
                    f = reduce(self.mul, [f] * k, {(0,) * len(names): 1})
                    fdeg = fdeg * k if f else -1
            if deg is None:
                deg = fdeg
            else:
                self.bound(deg + fdeg)
                deg = deg + fdeg if deg >= 0 and fdeg >= 0 else -1
            if f is not None:
                d = f if d is None else self.mul(d, f)
            else:
                c = c * v % p if p else c * v
                if j is not None:
                    e[j] += k
            if toks[i] != "*":
                if d is None:
                    return {tuple(e): c}, i
                return {mono_mul(m, e): c * v for m, v in d.items()}, i
            i += 1


def parse_polynomial(text: str, field: FieldSpec, var_names,
                     budgets: Budgets = DEFAULT_BUDGETS) -> Polynomial:
    if not isinstance(text, str):
        raise ParseError(f"polynomial text must be a string, got {text!r}")
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    names = tuple(var_names)
    descent = _Descent(text, tokens, names, field.p, budgets.max_degree)
    try:
        terms, i = descent.expr(0)
        if i < len(tokens):
            raise descent.error("trailing input at {}", i)
    except (ParseError, ResourceBudgetError, RecursionError) as exc:
        for i, tok in enumerate(tokens):  # a stray character comes first
            if not (tok in _SYMBOLS or tok.isdecimal() or "a" <= tok[0] <= "z"):
                raise descent.error("unexpected character {}", i) from None
        if isinstance(exc, RecursionError):
            raise ParseError("parentheses nested too deeply") from None
        raise
    if not field.p:
        terms = {m: Fraction(c) for m, c in terms.items()}
    return Polynomial(field, len(names), terms)
