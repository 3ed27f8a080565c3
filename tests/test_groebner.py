"""Buchberger kernel: known bases, determinism, budgets, and an independent
GF(2) linear-algebra membership oracle."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from noether.acceptance import ORACLE_SLACK
from noether.config import Budgets
from noether.errors import ResourceBudgetError
from noether.fields import GF, QQ
from noether.groebner import groebner_basis, normal_form
from noether.parse import parse_polynomial
from noether.poly import DEGREVLEX, Polynomial

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


def test_budget_max_degree_raises():
    tight = Budgets(max_degree=3)
    with pytest.raises(ResourceBudgetError):
        groebner_basis(polys("x^5 - y"), DEGREVLEX, tight)


def test_budget_max_pairs_raises():
    tight = Budgets(max_pairs=1)
    with pytest.raises(ResourceBudgetError):
        groebner_basis(polys("x^2 - y", "x*y - 1", "y^3 - x"), DEGREVLEX, tight)


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
