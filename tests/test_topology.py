"""Distinguished opens of Spec R, covers, coordinate rings, and finite
topological spaces given by preorders."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from noether.config import Budgets
from noether.errors import DomainError, ResourceBudgetError
from noether.fields import QQ
from noether.finite import (enumerate_ideals, gf_poly_quotient, is_prime_ideal,
                            product_ring, zmod)
from noether.rings import PresentedRing, ideal_equal
from noether.topology import (
    DistinguishedOpen,
    FiniteSpace,
    OpenCover,
    coordinate_ring,
    cover_check,
    enumerate_spec,
    open_contains,
    open_equal,
    open_intersect,
    open_strictly_below,
)


@pytest.fixture
def R():
    return PresentedRing(QQ, ("x", "y"))


def D(R, text):
    return DistinguishedOpen(R, R.parse(text))


# What an open derives under one budget is no answer under a tighter one:
# x*y has degree 2, and its saturations add an auxiliary, so max_degree 1
# refuses each of these on a fresh open.
DERIVED = {
    "contains": lambda a, b, budgets: open_contains(a, b, budgets),
    "empty": lambda a, b, budgets: a.is_empty(budgets),
    "whole": lambda a, b, budgets: a.is_whole(budgets),
    "coordinate ring": lambda a, b, budgets: coordinate_ring(a, budgets),
}


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_answers_refuse_a_tighter_budget_like_a_fresh_open(R, name):
    derive, tight = DERIVED[name], Budgets(max_degree=1)
    with pytest.raises(ResourceBudgetError):
        derive(D(R, "x*y"), D(R, "x^2*y"), tight)
    a, b = D(R, "x*y"), D(R, "x^2*y")
    first = derive(a, b, Budgets())
    with pytest.raises(ResourceBudgetError):
        derive(a, b, tight)
    assert derive(a, b, Budgets()) == first


def test_whole_and_empty(R):
    assert D(R, "1").is_whole()
    assert D(R, "0").is_empty()
    assert not D(R, "x").is_whole()
    assert not D(R, "x").is_empty()


def test_nilpotent_open_is_empty():
    base = PresentedRing(QQ, ("x",))
    Rq = PresentedRing(QQ, ("x",), quotient=(base.parse("x^2"),))
    assert DistinguishedOpen(Rq, Rq.parse("x")).is_empty()


def test_containment_is_radical_membership(R):
    assert open_contains(D(R, "x"), D(R, "x^2*y"))
    assert not open_contains(D(R, "x*y"), D(R, "x"))
    assert open_strictly_below(D(R, "x*y"), D(R, "x"))


def test_open_equality_up_to_radical(R):
    assert open_equal(D(R, "x"), D(R, "x^3"))
    assert open_equal(D(R, "2*x"), D(R, "x"))
    assert not open_equal(D(R, "x"), D(R, "y"))


def test_intersection(R):
    u = open_intersect(D(R, "x"), D(R, "y"))
    assert open_equal(u, D(R, "x*y"))


def test_cover_check_partition_of_unity():
    R1 = PresentedRing(QQ, ("x",))
    good = OpenCover(DistinguishedOpen(R1, R1.one()),
                     (D(R1, "x"), D(R1, "x - 1")))
    assert cover_check(good)
    bad = OpenCover(DistinguishedOpen(R1, R1.one()), (D(R1, "x"),))
    assert not cover_check(bad)


def test_coordinate_ring_inverts_f(R):
    ru = coordinate_ring(D(R, "x"))
    assert ru.inverted == (R.parse("x"),)
    # x becomes a unit: (x) is the unit ideal there.
    assert ru.ideal("x").is_unit_ideal()


def test_coordinate_ring_of_whole_is_identity(R):
    assert coordinate_ring(D(R, "1")) is R


def test_coordinate_ring_of_empty_rejected(R):
    with pytest.raises(DomainError):
        coordinate_ring(D(R, "0"))


def test_localization_consistency(R):
    # The same ideal through two chart presentations: (x*y) on D(x) is (y).
    ru = coordinate_ring(D(R, "x"))
    assert ideal_equal(ru.ideal("x*y"), ru.ideal("y"))


def test_enumerate_spec_z12():
    primes = enumerate_spec(zmod(12))
    assert sorted(sorted(p) for p in primes) == [[0, 2, 4, 6, 8, 10],
                                                 [0, 3, 6, 9]]


# Z/n, the four F_p[x]/(f) rings of the digraph-count oracle, and two
# products; Z/4, F2[x]/(x^2) and the products have ideals that are prime
# and ideals that are not.
@pytest.mark.parametrize("ring", [zmod(n) for n in range(2, 65)] + [
    gf_poly_quotient(2, [0, 0, 1]), gf_poly_quotient(3, [0, 0, 1]),
    gf_poly_quotient(2, [0, 1, 1]), gf_poly_quotient(2, [1, 1, 1]),
    product_ring([zmod(4), zmod(3)]), product_ring([gf_poly_quotient(2, [0, 0, 1]), zmod(2)])],
    ids=lambda R: R.name)
def test_enumerate_spec_is_the_prime_ideals(ring):
    """The maximal ideals read off the lattice are exactly the ideals that
    pass the primality test by products, in lattice order."""
    assert enumerate_spec(ring) == [I for I in enumerate_ideals(ring)
                                    if is_prime_ideal(ring, I)]


def test_opens_of_sierpinski_space():
    # 0 below 1: opens are the down-sets.
    X = FiniteSpace((0, 1), ((0, 1),))
    assert X.opens() == [frozenset(), frozenset({0}), frozenset({0, 1})]
    assert X.leq(0, 1) and not X.leq(1, 0)


def test_transitive_closure():
    X = FiniteSpace((0, 1, 2), ((0, 1), (1, 2)))
    assert X.leq(0, 2)
    assert frozenset({1}) not in X.opens()


def test_connectedness():
    X = FiniteSpace((0, 1, 2), ((0, 1),))
    assert not X.connected(X.whole())
    Y = FiniteSpace((0, 1, 2), ((0, 1), (0, 2)))
    assert Y.connected(Y.whole())
    assert frozenset({1, 2}) not in [s for s in Y.connected_opens()]


# -- finite spaces against the definition -------------------------------------

def preorder_closure(n, pairs):
    """Reflexive-transitive closure of the pairs, Warshall style."""
    leq = [[i == j or (i, j) in pairs for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    return leq


def all_subsets(n):
    return [frozenset(c) for r in range(n + 1)
            for c in itertools.combinations(range(n), r)]


def comparability_connected(leq, subset):
    """Union-find over the comparable pairs inside the subset."""
    parent = {p: p for p in subset}

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for a in subset:
        for b in subset:
            if leq[a][b] or leq[b][a]:
                parent[find(a)] = find(b)
    return len({find(p) for p in subset}) == 1


PREORDERS = st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, max(n - 1, 0)),
                                  st.integers(0, max(n - 1, 0))),
                        max_size=8) if n else st.just(set())))


@settings(max_examples=80, deadline=None)
@given(PREORDERS)
def test_finite_space_opens_match_the_definition(preorder):
    n, pairs = preorder
    X = FiniteSpace(range(n), sorted(pairs))
    leq = preorder_closure(n, pairs)
    down_sets = [S for S in all_subsets(n)
                 if all(a in S for b in S for a in range(n) if leq[a][b])]
    # all_subsets lists by size, then lexicographically: the opens' order.
    assert X.opens() == down_sets
    for S in all_subsets(n):
        assert X.connected(S) == (bool(S) and comparability_connected(leq, S))
    assert X.connected_opens() == [S for S in down_sets
                                   if S and comparability_connected(leq, S)]


def test_finite_space_lists_are_fresh_copies():
    X = FiniteSpace((0, 1, 2), ((0, 1), (0, 2)))
    opens, connected = X.opens(), X.connected_opens()
    opens.clear()
    connected.append(frozenset({2}))
    assert X.opens() == [frozenset(), frozenset({0}), frozenset({0, 1}),
                         frozenset({0, 2}), frozenset({0, 1, 2})]
    assert X.connected_opens() == [frozenset({0}), frozenset({0, 1}),
                                   frozenset({0, 2}), frozenset({0, 1, 2})]


def test_finite_space_rejects_foreign_and_repeated_points():
    X = FiniteSpace((0, 1), ((0, 1),))
    with pytest.raises(DomainError, match="not a point"):
        X.connected(frozenset({0, 7}))
    with pytest.raises(DomainError, match="not a point"):
        FiniteSpace((0, 1), ((0, 5),))
    with pytest.raises(DomainError, match="repeated point"):
        FiniteSpace((0, 0))
