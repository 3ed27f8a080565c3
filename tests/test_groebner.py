"""Buchberger kernel: known bases, determinism, budgets, and an independent
GF(2) linear-algebra membership oracle."""

import copy
import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from noether.acceptance import ORACLE_SLACK
from noether.config import Budgets
from noether.errors import ResourceBudgetError
from noether.fields import GF, QQ
from noether.groebner import _form, _reduce, groebner_basis, normal_form
from noether.parse import parse_polynomial
from noether.poly import DEGREVLEX, LEX, BlockElim, MonomialOrder, Polynomial

VARS = ("x", "y")


def polys(*texts, field=QQ):
    return [parse_polynomial(t, field, VARS) for t in texts]


def basis_of(*texts, field=QQ):
    return groebner_basis(polys(*texts, field=field), DEGREVLEX)


def test_zero_and_unit_ideals():
    assert basis_of("0") == []
    (g,) = basis_of("2")
    assert g.is_one()


def test_textbook_example():
    # <x^2 - 1, x*y - 1> reduces to <y^2 - 1, x - y>.
    assert [g.render(VARS) for g in basis_of("x^2 - 1", "x*y - 1")] == [
        "y^2 - 1",
        "x - y",
    ]


def test_principal_ideal_is_monic_generator():
    (g,) = basis_of("3*x^2 - 3")
    assert g.render(VARS) == "x^2 - 1"


def test_chain_criterion_regression():
    # Both generators share the leading monomial x*y^2; the S-polynomial
    # cascade produces the element x, which a circular chain-criterion skip
    # used to drop.  x^3 is in the ideal since x is.
    gens = polys("x*y^2", "x*y^2 + y^3 + y^2 + 1", field=GF(2))
    basis = groebner_basis(gens, DEGREVLEX)
    x = parse_polynomial("x", GF(2), VARS)
    assert normal_form(x, basis, DEGREVLEX).is_zero()


def test_normal_form_is_zero_exactly_on_members():
    basis = basis_of("x^2 - 1", "x*y - 1")
    member = polys("y*x^2 - y + 7*x*y - 7")[0]
    assert normal_form(member, basis, DEGREVLEX).is_zero()
    assert not normal_form(polys("x")[0], basis, DEGREVLEX).is_zero()


# Each budget fails loudly, and at the same limit over Q (integer
# reduction) as over F_p.
BUDGET_FIELDS = (QQ, GF(32003))


def test_budget_max_degree_raises():
    tight = Budgets(max_degree=4)
    # A generator past the budget, and a lex reduction that grows past it:
    # x*y^3 reduced by x - y^3 gives y^6.
    cases = [(("x^5 - y",), DEGREVLEX), (("x - y^3", "x^2 + y"), LEX)]
    for field in BUDGET_FIELDS:
        for texts, order in cases:
            with pytest.raises(ResourceBudgetError) as info:
                groebner_basis(polys(*texts, field=field), order, tight)
            assert (info.value.budget_name, info.value.limit) == ("max_degree", 4)


def test_budget_max_pairs_raises():
    tight = Budgets(max_pairs=1)
    for field in BUDGET_FIELDS:
        with pytest.raises(ResourceBudgetError) as info:
            groebner_basis(polys("x^2 - y", "x*y - 1", "y^3 - x", field=field),
                           DEGREVLEX, tight)
        assert (info.value.budget_name, info.value.limit) == ("max_pairs", 1)


MONOS = [(i, j) for i in range(4) for j in range(4 - i)]


@st.composite
def f2_polys(draw):
    support = draw(st.sets(st.sampled_from(MONOS), min_size=1, max_size=4))
    return Polynomial(GF(2), 2, {m: 1 for m in support})


@settings(max_examples=60, deadline=None)
@given(st.lists(f2_polys(), min_size=1, max_size=3), st.randoms())
def test_reduced_basis_is_generator_order_invariant(gens, rng):
    expected = groebner_basis(gens, DEGREVLEX)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert groebner_basis(shuffled, DEGREVLEX) == expected


def _f2_member_by_linear_algebra(p, gens, max_degree):
    """Membership via Gaussian elimination over all monomial multiples."""
    monos = [(i, j) for i in range(max_degree + 1)
             for j in range(max_degree + 1 - i)]
    index = {m: k for k, m in enumerate(monos)}

    def mask(poly):
        out = 0
        for m, c in poly.terms.items():
            if c % 2:
                out |= 1 << index[m]
        return out

    pivots = {}
    for g in gens:
        gdeg = max(sum(m) for m in g.terms)
        for m in monos:
            if sum(m) + gdeg > max_degree:
                continue
            row = mask(Polynomial(p.field, 2,
                                  {(m[0] + a, m[1] + b): c
                                   for (a, b), c in g.terms.items()}))
            while row:
                top = row.bit_length() - 1
                if top in pivots:
                    row ^= pivots[top]
                else:
                    pivots[top] = row
                    break
    target = mask(p)
    while target:
        top = target.bit_length() - 1
        if top not in pivots:
            return False
        target ^= pivots[top]
    return True


# ORACLE_SLACK (see noether.acceptance) is twice the Bezout number of two
# cubics; no case has needed more than 9 in 180,000 random draws from
# these strategies, nor in certifying 1 for every pair of them that
# generates the unit ideal.


@settings(max_examples=80, deadline=None)
@given(st.lists(f2_polys(), min_size=1, max_size=3), f2_polys())
@example(gens=[Polynomial(GF(2), 2, {(2, 1): 1, (0, 2): 1, (0, 0): 1}),
               Polynomial(GF(2), 2, {(2, 1): 1, (0, 3): 1, (0, 2): 1,
                                     (0, 0): 1})],
         p=Polynomial(GF(2), 2, {(0, 0): 1}))
def test_membership_agrees_with_linear_algebra_oracle(gens, p):
    basis = groebner_basis(gens, DEGREVLEX)
    via_basis = normal_form(p, basis, DEGREVLEX).is_zero()
    pdeg = max(sum(m) for m in p.terms)
    assert via_basis == _f2_member_by_linear_algebra(p, gens,
                                                     pdeg + ORACLE_SLACK)


def test_basis_members_reduce_to_zero_against_each_other():
    rng = random.Random(7)
    for _ in range(20):
        gens = [Polynomial(GF(2), 2,
                           {m: 1 for m in rng.sample(MONOS, rng.randint(1, 4))})
                for _ in range(rng.randint(1, 3))]
        basis = groebner_basis(gens, DEGREVLEX)
        for g in gens:
            assert normal_form(g, basis, DEGREVLEX).is_zero()


# -- independent gates: sympy, a Buchberger certificate, the slow path ------

def _lead(p, order):
    return max(p.terms, key=order.key)


def _s_pair(f, g, order):
    """S-polynomial written from plain arithmetic, without the kernel."""
    F = f.field
    fm, gm = _lead(f, order), _lead(g, order)
    lcm = tuple(max(a, b) for a, b in zip(fm, gm))
    left = Polynomial(F, f.nvars, {tuple(a - b for a, b in zip(lcm, fm)):
                                   F.inv(f.terms[fm])})
    right = Polynomial(F, g.nvars, {tuple(a - b for a, b in zip(lcm, gm)):
                                    F.inv(g.terms[gm])})
    return left * f - right * g


def _normal_form_oracle(p, basis, order, budgets=Budgets()):
    """The rebuild-per-step division kept as the slow path: the whole
    remainder is rebuilt and its degree re-measured after every step."""
    if p.is_zero():
        return p
    F = p.field
    lead = [(_lead(g, order), g) for g in basis if not g.is_zero()]
    remainder_terms = {}
    work = p
    while not work.is_zero():
        if work.total_degree() > budgets.max_degree:
            raise ResourceBudgetError("max_degree", budgets.max_degree)
        lm = _lead(work, order)
        lc = work.terms[lm]
        for gm, g in lead:
            if all(a <= b for a, b in zip(gm, lm)):
                quotient = tuple(a - b for a, b in zip(lm, gm))
                work = work - Polynomial(F, p.nvars,
                                         {quotient: F.div(lc, g.terms[gm])}) * g
                break
        else:
            remainder_terms[lm] = lc
            work = Polynomial(F, p.nvars,
                              {m: c for m, c in work.terms.items() if m != lm})
    return Polynomial(F, p.nvars, remainder_terms)


def _assert_reduced_groebner_certificate(gens, basis, order):
    """Buchberger's criterion checked from the output alone: every input
    generator and every S-polynomial of the basis reduces to zero, and the
    basis is reduced (monic, no term divisible by another lead)."""
    for g in gens:
        assert _normal_form_oracle(g, basis, order).is_zero()
    for i, f in enumerate(basis):
        for g in basis[:i]:
            assert _normal_form_oracle(_s_pair(f, g, order), basis, order).is_zero()
    leads = [_lead(g, order) for g in basis]
    for i, g in enumerate(basis):
        assert g.terms[leads[i]] == g.field.one()
        for j, lm in enumerate(leads):
            if j != i:
                assert not any(all(a <= b for a, b in zip(lm, m)) for m in g.terms)


def _sympy_basis(gens, field):
    """The reduced grevlex basis from sympy, as sets of (monomial, coeff)."""
    import sympy as sp

    names = sp.symbols(f"v0:{gens[0].nvars}")
    opts = {"modulus": field.p} if field.kind == "fp" else {"domain": sp.QQ}

    def term(m, c):
        c = sp.Integer(c) if field.kind == "fp" else sp.Rational(c.numerator, c.denominator)
        return c * sp.prod([v ** e for v, e in zip(names, m)])

    exprs = [sum(term(m, c) for m, c in g.terms.items()) for g in gens]
    out = set()
    for g in sp.groebner(exprs, *names, order="grevlex", **opts).polys:
        terms = {}
        for m, c in g.terms():
            if field.kind == "fp":
                terms[tuple(m)] = int(c) % field.p
            else:
                c = sp.Rational(c)
                terms[tuple(m)] = Fraction(int(c.p), int(c.q))
        g = Polynomial(field, len(names), terms)
        g = g.scale(field.inv(g.terms[_lead(g, DEGREVLEX)]))
        out.add(frozenset(g.terms.items()))
    return out


def _as_sets(basis):
    return {frozenset(g.terms.items()) for g in basis}


@st.composite
def small_ideals(draw, fields=(QQ, GF(7), GF(32003)), max_vars=3):
    field = draw(st.sampled_from(fields))
    nvars = draw(st.integers(2, max_vars))
    monos = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda m: sum(m) <= 3)
    coeffs = st.integers(-5, 5).filter(bool)

    def poly():
        return st.dictionaries(monos, coeffs, min_size=1, max_size=4).map(
            lambda t: Polynomial(field, nvars,
                                 {m: field.from_int(c) for m, c in t.items()}))

    gens = draw(st.lists(poly(), min_size=1, max_size=3))
    return [g for g in gens if not g.is_zero()] or [Polynomial.const(field, nvars, 1)]


@settings(max_examples=40, deadline=None)
@given(small_ideals())
def test_basis_agrees_with_sympy(gens):
    basis = groebner_basis(gens, DEGREVLEX)
    assert _as_sets(basis) == _sympy_basis(gens, gens[0].field)
    _assert_reduced_groebner_certificate(gens, basis, DEGREVLEX)


# Two variables: a lex basis of three cubics in three variables can pass
# degree 64 (the default budget) and take minutes over Q.
@settings(max_examples=30, deadline=None)
@given(small_ideals(fields=(QQ, GF(7)), max_vars=2), st.sampled_from([LEX, BlockElim(1)]))
def test_basis_certificate_in_elimination_orders(gens, order):
    basis = groebner_basis(gens, order)
    _assert_reduced_groebner_certificate(gens, basis, order)
    keys = [order.key(_lead(g, order)) for g in basis]
    assert keys == sorted(keys, reverse=True)


@st.composite
def ideal_pairs(draw):
    """Two ideals of one ring, Q or F_7 in two variables: their leading
    monomials often agree while their other terms do not."""
    first = draw(small_ideals(fields=(QQ, GF(7)), max_vars=2))
    return first, draw(small_ideals(fields=(first[0].field,), max_vars=2))


@settings(max_examples=40, deadline=None)
@given(ideal_pairs())
def test_interleaved_bases_carry_nothing_between_calls(ideals):
    """I, then J, then I again under each order: nothing one basis
    computation derives may reach the next, so I's two bases agree, and
    each basis is checked against sympy or a Buchberger certificate."""
    first, second = ideals
    field = first[0].field
    for order in (DEGREVLEX, LEX, BlockElim(1)):
        bases = [groebner_basis(gens, order) for gens in (first, second, first)]
        assert bases[0] == bases[2]
        for gens, basis in zip(ideals, bases):
            if order is DEGREVLEX:
                assert _as_sets(basis) == _sympy_basis(gens, field)
            else:
                _assert_reduced_groebner_certificate(gens, basis, order)


def _cyclic(n, field):
    def unit(idx):
        m = [0] * n
        for i in idx:
            m[i] += 1
        return tuple(m)
    eqs = [{unit([(i + j) % n for j in range(k)]): 1 for i in range(n)}
           for k in range(1, n)]
    eqs.append({unit(range(n)): 1, unit([]): -1})
    return [Polynomial(field, n, {m: field.from_int(c) for m, c in eq.items()})
            for eq in eqs]


def _katsura(n, field):
    def unit(*idx):
        m = [0] * (n + 1)
        for i in idx:
            m[i] += 1
        return tuple(m)
    eqs = []
    for m in range(n):
        eq = {unit(m): -1}
        for l in range(-n, n + 1):
            if abs(m - l) <= n:
                key = unit(abs(l), abs(m - l))
                eq[key] = eq.get(key, 0) + 1
        eqs.append(eq)
    eqs.append({unit(): -1, unit(0): 1, **{unit(i): 2 for i in range(1, n + 1)}})
    return [Polynomial(field, n + 1, {m: field.from_int(c) for m, c in eq.items() if c})
            for eq in eqs]


def test_cyclic5_matches_sympy():
    gens = _cyclic(5, GF(32003))
    basis = groebner_basis(gens, DEGREVLEX)
    assert len(basis) == 20
    assert _as_sets(basis) == _sympy_basis(gens, GF(32003))


@pytest.mark.parametrize("system,size", [(lambda F: _katsura(5, F), 22),
                                         (lambda F: _cyclic(5, F), 20)],
                         ids=["katsura-5", "cyclic-5"])
def test_standard_system_over_q_matches_sympy(system, size):
    gens = system(QQ)
    basis = groebner_basis(gens, DEGREVLEX)
    assert len(basis) == size
    assert _as_sets(basis) == _sympy_basis(gens, QQ)


def test_reducer_multiples_are_kept_for_one_basis_only():
    """The table of reducer multiples lives and dies with one basis call:
    nothing traced stays behind once a call returns, and the table of a
    katsura-5 basis stays small."""
    small, large = _katsura(4, GF(32003)), _katsura(5, GF(32003))
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        after = []
        for _ in range(2):
            groebner_basis(small, DEGREVLEX)
            gc.collect()
            after.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        groebner_basis(large, DEGREVLEX)
        peak = tracemalloc.get_traced_memory()[1] - after[1]
    finally:
        tracemalloc.stop()
    assert abs(after[0] - before) <= 4096 and abs(after[1] - after[0]) <= 4096
    assert peak < 2 ** 20


# Degree grows during these lex reductions: x - y^3 turns x^3 into y^9.
GROWING = [
    (Polynomial(QQ, 2, {(3, 0): Fraction(1)}),
     [Polynomial(QQ, 2, {(1, 0): Fraction(1), (0, 3): Fraction(-1)})]),
    (Polynomial(GF(7), 3, {(2, 1, 0): 1, (0, 0, 1): 3}),
     [Polynomial(GF(7), 3, {(1, 0, 0): 1, (0, 2, 2): 5}),
      Polynomial(GF(7), 3, {(0, 1, 0): 1, (0, 0, 3): 1})]),
]


@st.composite
def reductions(draw, fields=(QQ, GF(7))):
    field = draw(st.sampled_from(fields))
    nvars = draw(st.integers(2, 3))
    monos = st.tuples(*[st.integers(0, 4)] * nvars)
    coeffs = st.integers(-3, 3).filter(bool)

    def poly(max_size):
        return st.dictionaries(monos, coeffs, min_size=1, max_size=max_size).map(
            lambda t: Polynomial(field, nvars,
                                 {m: field.from_int(c) for m, c in t.items()}))

    p = draw(poly(6))
    basis = draw(st.lists(poly(3), min_size=1, max_size=4))
    return p, basis, draw(st.integers(1, 14))


@settings(max_examples=150, deadline=None)
@given(reductions(), st.sampled_from([DEGREVLEX, LEX, BlockElim(1)]))
@example((*GROWING[0], 8), LEX)
@example((*GROWING[1], 12), LEX)
@example((*GROWING[1], 6), BlockElim(1))
def test_normal_form_matches_slow_path(case, order):
    p, basis, max_degree = case
    budgets = Budgets(max_degree=max_degree)
    try:
        expected = _normal_form_oracle(p, basis, order, budgets)
    except ResourceBudgetError:
        with pytest.raises(ResourceBudgetError):
            normal_form(p, basis, order, budgets)
    else:
        assert normal_form(p, basis, order, budgets) == expected


@pytest.mark.parametrize("case", GROWING)
def test_lex_reduction_may_grow_past_the_degree_budget(case):
    p, basis = case
    grown = _normal_form_oracle(p, basis, LEX).total_degree()
    assert grown > max(g.total_degree() for g in [p] + basis)
    assert normal_form(p, basis, LEX) == _normal_form_oracle(p, basis, LEX)
    with pytest.raises(ResourceBudgetError):
        normal_form(p, basis, LEX, Budgets(max_degree=grown - 1))


@settings(max_examples=150, deadline=None)
@given(reductions(), st.sampled_from([DEGREVLEX, LEX, BlockElim(1)]))
@example((*GROWING[0], 8), LEX)
@example((*GROWING[0], 9), LEX)
@example((*GROWING[1], 12), LEX)
def test_integer_remainder_is_a_multiple_of_the_exact_one(case, order):
    # Most drawn F_p reducers are not monic, so a = lc(g)/e is not 1 there.
    p, basis, max_degree = case
    F = p.field
    budgets = Budgets(max_degree=max_degree)
    terms, p_scale = _form(p.terms, F)
    reducers = [(_lead(g, order), _form(g.terms, F)[0], {}) for g in basis]
    try:
        expected = _normal_form_oracle(p, basis, order, budgets)
    except ResourceBudgetError:
        with pytest.raises(ResourceBudgetError):
            _reduce(terms, reducers, order, max_degree, F.p)
        return
    remainder, scale = _reduce(terms, reducers, order, max_degree, F.p)
    assert remainder == {m: F.mul(F.mul(scale, p_scale), c)
                         for m, c in expected.terms.items()}
    assert F.mul(scale, 1) != 0
    if remainder:
        lc = next(iter(remainder.values()))
        if F == QQ:
            assert lc > 0 and math.gcd(*remainder.values()) == 1
        else:
            assert lc == 1 and all(0 < v < F.p for v in remainder.values())
        assert list(remainder) == sorted(remainder, key=order.key, reverse=True)


class _EveryTermDegree(MonomialOrder):
    """An order's comparison alone, without the order's class: the basis
    computation then checks the degree of every term it meets, the slow
    path of the degree budget."""

    def __init__(self, order):
        self.key = order.key


@settings(max_examples=150, deadline=None)
@given(small_ideals(fields=(QQ, GF(7))), st.sampled_from([DEGREVLEX, LEX, BlockElim(1)]),
       st.integers(2, 8))
# Reducing x^3 by x - y^3 under lex or with x eliminated passes through
# x*y^6 and y^9 before y^5 - 1 brings it down to y^4: a degree budget of 8
# refuses on the way.
@example(polys("x - y^3", "y^5 - 1", "x^3"), LEX, 8)
@example(polys("x - y^3", "y^5 - 1", "x^3"), BlockElim(1), 8)
@example(polys("x - y^3", "x^3"), LEX, 8)
@example(GROWING[1][1], LEX, 6)
def test_basis_refuses_and_leads_like_the_slow_path(gens, order, max_degree):
    """``max_degree`` refuses a basis exactly where a computation that checks
    every term's degree refuses it, and each returned element's leading
    monomial, recorded or derived, is its greatest term under every order."""
    budgets = Budgets(max_degree=max_degree)
    try:
        expected = groebner_basis(gens, _EveryTermDegree(order), budgets)
    except ResourceBudgetError:
        with pytest.raises(ResourceBudgetError):
            groebner_basis(gens, order, budgets)
        return
    basis = groebner_basis(gens, order, budgets)
    assert basis == expected
    # A copy keeps whatever lead the element recorded, so each order is the
    # first one asked of some copy.
    for o in (DEGREVLEX, LEX, BlockElim(1)):
        for g in map(copy.copy, basis):
            assert g.leading_monomial(o) == max(g.terms, key=o.key)
