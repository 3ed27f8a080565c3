"""Polynomial arithmetic, monomial orders, and the parser."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from noether.config import Budgets
from noether.errors import ParseError, ResourceBudgetError
from noether.fields import GF, QQ
from noether.parse import parse_polynomial
from noether.poly import (
    DEGREVLEX,
    LEX,
    BlockElim,
    Polynomial,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    exact_divmod,
    mono_mul,
)

VARS = ("x", "y", "z")


def poly(text: str, field=QQ) -> Polynomial:
    return parse_polynomial(text, field, VARS)


def test_monomial_helpers():
    assert mono_mul((1, 2, 0), (0, 1, 3)) == (1, 3, 3)
    assert mono_divides((1, 0, 0), (2, 1, 0))
    assert not mono_divides((0, 2, 0), (1, 1, 0))
    assert mono_div((2, 3, 1), (1, 1, 0)) == (1, 2, 1)
    assert mono_lcm((2, 0, 1), (1, 3, 1)) == (2, 3, 1)
    assert mono_deg((2, 3, 1)) == 6


def test_degrevlex_vs_lex():
    # x*y^2 vs x^2: lex prefers the higher power of x, degrevlex the degree.
    a, b = (1, 2, 0), (2, 0, 0)
    assert DEGREVLEX.key(a) > DEGREVLEX.key(b)
    assert LEX.key(a) < LEX.key(b)


def test_degrevlex_ties_break_by_reverse_last_variable():
    # Same total degree: x*y^2 > y^3 because its last exponent is smaller.
    assert DEGREVLEX.key((1, 2, 0)) > DEGREVLEX.key((0, 3, 0))


def test_block_elimination_order_puts_aux_first():
    order = BlockElim(1)
    # Any positive power of the first (auxiliary) variable dominates.
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))


def _nested_key(order, m):
    """The nested sort keys the orders used to return."""
    if order is LEX:
        return m
    n = order.naux if isinstance(order, BlockElim) else 0
    head, tail = m[:n], m[n:]
    block = (sum(tail), tuple(-e for e in reversed(tail)))
    return (sum(head), tuple(-e for e in reversed(head))) + block if n else block


@given(st.sampled_from([DEGREVLEX, LEX, BlockElim(1), BlockElim(2)]),
       st.lists(st.tuples(*[st.integers(0, 4)] * 4), max_size=12))
def test_order_keys_sort_as_the_nested_keys(order, monos):
    assert (sorted(monos, key=order.key)
            == sorted(monos, key=lambda m: _nested_key(order, m)))


def test_parse_round_trip():
    p = poly("x^2*y - 3*x + 2")
    assert p.render(VARS) == "x^2*y - 3*x + 2"


def test_parse_caret_and_doublestar_agree():
    assert poly("x^3 + y**2") == poly("x**3 + y^2")


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse_polynomial("x + w", QQ, VARS)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        poly("x + + *")


def test_parse_refuses_a_product_or_power_past_the_degree_budget():
    small = Budgets(max_degree=8)
    assert parse_polynomial("(x + y + 1)^8", QQ, VARS, small).total_degree() == 8
    assert parse_polynomial("x^5*y^3", QQ, VARS, small).total_degree() == 8
    # The degree as written passes the budget; the exact degree does not.
    assert parse_polynomial("(x^5 - x^5 + y)*x^4", QQ, VARS, small) == poly("x^4*y")
    assert parse_polynomial("(x^5 - x^5 + y)^3", QQ, VARS, small) == poly("y^3")
    # A zero factor makes the rest of its product zero, of degree -1.
    assert parse_polynomial("0*x^5*x^4*y", QQ, VARS, small).is_zero()
    assert parse_polynomial("7*x^5*x^4*y", GF(7), VARS, small).is_zero()
    for text in ("(x + y + 1)^9", "x^5*y^4", "x^3*(x*y)^3"):
        with pytest.raises(ResourceBudgetError) as refused:
            parse_polynomial(text, QQ, VARS, small)
        assert (refused.value.budget_name, refused.value.limit) == ("max_degree", 8)
    # Every exponent past the budget is refused, whatever its base, so a
    # constant power cannot build a huge integer.
    assert parse_polynomial("3^8*x", QQ, VARS, small) == poly("6561*x")
    for text in ("3^9*x", "(x - x)^9", "1^9"):
        with pytest.raises(ResourceBudgetError) as refused:
            parse_polynomial(text, QQ, VARS, small)
        assert (refused.value.budget_name, refused.value.limit) == ("max_degree", 8)
    # The default budget is 64; the power is refused before it is expanded.
    for text in ("(x + y + 1)^65", "3^1000000000*x"):
        with pytest.raises(ResourceBudgetError):
            parse_polynomial(text, QQ, VARS)


def test_parse_refuses_an_integer_literal_too_long_to_convert():
    with pytest.raises(ParseError, match="column 0 is too long") as refused:
        parse_polynomial("1" * 5000 + "*x", QQ, VARS)
    assert refused.value.column == 0
    with pytest.raises(ParseError, match="column 2 is too long"):
        parse_polynomial("x^" + "1" * 5000, QQ, VARS)


@pytest.mark.parametrize("text,message,column", [
    ("x y", "trailing input at 'y'", 2),
    ("x +  q", "unknown variable 'q'", 5),
    ("x  )", "trailing input at ')'", 3),
    ("x $", "unexpected character '$'", 2),
    ("\tx +\t$", "unexpected character '$'", 5),
    ("(x + y  z)", "expected ')', found 'z'", 8),
    ("x ^  y", "exponent must be an integer literal", 5),
    ("x *  ** 2", "unexpected token '^'", 5),
])
def test_a_parse_error_names_the_offending_character_at_its_own_column(text, message, column):
    with pytest.raises(ParseError) as refused:
        poly(text)
    assert (str(refused.value), refused.value.column) == (message, column)


def test_a_stray_character_is_reported_before_any_other_error():
    for text in ("x + + $", "x^99 + $", "(x $"):
        with pytest.raises(ParseError, match=r"unexpected character '\$'"):
            parse_polynomial(text, QQ, VARS, Budgets(max_degree=8))


def test_arithmetic_in_characteristic_two():
    p = parse_polynomial("x + y", GF(2), VARS)
    assert (p + p).is_zero()
    sq = p * p
    assert sq == parse_polynomial("x^2 + y^2", GF(2), VARS)


def test_monic_and_leading_terms():
    p = poly("2*x^2 + 4*y")
    m = p.monic(DEGREVLEX)
    assert m.leading_coeff(DEGREVLEX) == QQ.one()
    assert p.leading_monomial(DEGREVLEX) == (2, 0, 0)
    assert p.total_degree() == 2


@st.composite
def polynomials(draw, field=QQ):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)),
        st.integers(-4, 4).filter(bool),
        max_size=5))
    return Polynomial(field, 3, dict(terms))


@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r


@given(polynomials())
def test_equal_polynomials_hash_alike_over_ints_and_fractions(p):
    """A polynomial over Q with int coefficients equals the one with the
    same values as ``Fraction``s, and hashes alike."""
    rational = Polynomial(QQ, 3, {m: Fraction(c) for m, c in p.terms.items()})
    assert rational == p and hash(rational) == hash(p)


@given(polynomials())
def test_render_reparses_to_same_polynomial(p):
    text = p.render(VARS)
    assert parse_polynomial(text, QQ, VARS) == p


# -- division by one polynomial against the rebuild-per-step oracle ------------


def rebuilt_divmod(g: Polynomial, p: Polynomial):
    """Single-divisor division in degrevlex that rebuilds the quotient and
    the remainder as new polynomials on every step."""
    pm, pc = p.leading_monomial(DEGREVLEX), p.leading_coeff(DEGREVLEX)
    quotient = Polynomial.zero(g.field, g.nvars)
    work = g
    while not work.is_zero():
        lm = work.leading_monomial(DEGREVLEX)
        if not mono_divides(pm, lm):
            return quotient, work
        term = Polynomial(g.field, g.nvars,
                          {mono_div(lm, pm): g.field.div(work.terms[lm], pc)})
        quotient = quotient + term
        work = work - term * p
    return quotient, Polynomial.zero(g.field, g.nvars)


@st.composite
def division_cases(draw):
    """(g, p) in 1 or 3 variables over Q or F_5; half the time g is a
    multiple of p plus a perturbation, so long exact divisions occur."""
    field = draw(st.sampled_from([QQ, GF(5)]))
    nvars = draw(st.sampled_from([1, 3]))
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.integers(-4, 4).filter(bool).map(field.from_int).filter(bool)

    def draw_poly(min_size):
        return Polynomial(field, nvars, draw(st.dictionaries(
            monos, coeffs, min_size=min_size, max_size=5)))

    p = draw_poly(1)
    g = draw_poly(0)
    if draw(st.booleans()):
        g = g * p + draw_poly(0) * draw(st.sampled_from([0, 1]))
    return g, p


@given(division_cases())
def test_exact_divmod_matches_rebuilt_division(case):
    g, p = case
    quotient, remainder = exact_divmod(g, p)
    assert (quotient, remainder) == rebuilt_divmod(g, p)
    assert quotient * p + remainder == g


# -- the parser against its Polynomial-arithmetic oracle ----------------------


_ORACLE_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z][0-9]*)|(\*\*|[-+*^()]))")


def oracle_tokenize(text):
    """``(kind, value, column)`` tokens, read one regex match at a time; a
    token's column is the offset of its first character, after any
    whitespace, and a stray character is named at its own offset."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _ORACLE_TOKEN.match(text, pos)
        if not m:
            rest = text[pos:]
            if rest.strip() == "":
                break
            col = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[col]!r}", column=col)
        value = "^" if m.group(3) == "**" else m.group(m.lastindex)
        tokens.append((("int", "var", "op")[m.lastindex - 1], value, m.start(m.lastindex)))
        pos = m.end()
    return tokens


class OracleParser:
    """The recursive-descent parser as it was on ``Polynomial`` arithmetic:
    each rule returns its polynomial, and a product or power is refused by
    the exact degree of its factors before it is expanded."""

    def __init__(self, tokens, field, var_names, max_degree):
        self.tokens = tokens
        self.i = 0
        self.field = field
        self.var_names = list(var_names)
        self.max_degree = max_degree

    def bound(self, degree):
        if degree > self.max_degree:
            raise ResourceBudgetError("max_degree", self.max_degree)
        return degree

    def literal(self, tok):
        try:
            return int(tok[1])
        except ValueError:
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

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input at {tok[1]!r}", column=tok[2])
        return p

    def expr(self):
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


def oracle_parse(text, field, var_names, budgets):
    if not text.strip():
        raise ParseError("empty polynomial text")
    return OracleParser(oracle_tokenize(text), field, var_names, budgets.max_degree).parse()


_PAD = st.sampled_from(["", "", " ", "\t", " \t "])


@st.composite
def _expression(draw, depth=3):
    """A text of nested sums, products and powers, with unary minus, both
    power spellings, cancelling differences, literals above 2^64 and
    multiples of 7, which vanish in F_7 and so lower a factor's degree;
    spaces and tabs come before and after tokens."""
    kind = draw(st.integers(0, 6)) if depth else 0
    inner = _expression(depth - 1)
    if kind == 0:
        leaf = draw(st.one_of(st.sampled_from(["x", "y", "z"] * 4 + ["w", "x^3*y", "z^4"]),
                              st.integers(0, 9).map(str), st.integers(2**64, 2**70).map(str),
                              st.integers(1, 3).map(lambda k: str(7 * k))))
        return draw(_PAD) + leaf + draw(_PAD)
    if kind == 1:
        parts = draw(st.lists(st.tuples(st.sampled_from([" + ", " - ", "-", "\t+"]), inner),
                              min_size=2, max_size=4))
        return draw(st.sampled_from(["", "-", "+"])) + "".join(
            part if k == 0 else op + part for k, (op, part) in enumerate(parts))
    if kind == 2:
        factors = draw(st.lists(inner, min_size=2, max_size=3))
        return draw(st.sampled_from(["*", " * ", "\t*"])).join(f"({f})" for f in factors)
    if kind == 3:
        caret = draw(st.sampled_from(["^", "**", " ^ ", "\t**\t"]))
        return f"({draw(inner)}){caret}{draw(st.integers(0, 9))}"
    if kind == 4:
        return draw(st.sampled_from(["-({})", "({})", "-{}", "(({}))", "( {} )"])).format(draw(inner))
    if kind == 5:
        a, b = draw(inner), draw(inner)
        return f"({a})*({b}) - ({b})*({a}) + {a}"
    # a run of integer and variable factors, each signed and powered or not
    factors = draw(st.lists(st.tuples(st.sampled_from(["", "", "-", "--"]), _expression(0),
                                      st.sampled_from(["", "", "^2", "**3", " ^ 0", "^9"])),
                            min_size=2, max_size=4))
    return "*".join(sign + leaf + power for sign, leaf, power in factors)


@st.composite
def _texts(draw):
    """An expression, a fifth of the time with one character dropped or
    inserted."""
    text = draw(_expression())
    where = draw(st.integers(0, len(text)))
    kind = draw(st.sampled_from([0, 0, 0, 1, 2]))
    if kind == 1:
        return text[:where] + text[where + 1:]
    if kind == 2:
        return text[:where] + draw(st.sampled_from(list("()+-*^x7 \t#"))) + text[where:]
    return text


def _parse_outcome(parser, text, field, budgets):
    try:
        p = parser(text, field, VARS, budgets)
    except ParseError as exc:
        return "parse", str(exc), exc.column
    except ResourceBudgetError as exc:
        return "budget", str(exc), exc.budget_name, exc.limit
    return "ok", p, {m: type(c) for m, c in p.terms.items()}


@settings(max_examples=400, deadline=None)
@given(_texts(), st.sampled_from([QQ, GF(7)]), st.integers(0, 8))
def test_parser_equals_the_polynomial_arithmetic_oracle(text, field, max_degree):
    budgets = Budgets(max_degree=max_degree)
    assert (_parse_outcome(parse_polynomial, text, field, budgets)
            == _parse_outcome(oracle_parse, text, field, budgets))
