"""Finite rings and modules: ideal lattices, the noetherian witness report,
and module/hom machinery."""

import collections
import functools
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from noether.digraph import localize_finite
from noether.errors import BoundExceededError, DomainError, ValidationError
from noether.finite import (
    FiniteRing,
    all_homs,
    direct_sum,
    enumerate_ideals,
    enumerate_submodules,
    free_module,
    gf_poly_quotient,
    hom_from_ideal,
    ideal_closure,
    is_ideal,
    is_linear_map,
    is_prime_ideal,
    minimal_generators,
    module_generators,
    noetherian_witness,
    product_ring,
    quotient_module,
    ring_as_module,
    span,
    submodule,
    zero_module,
    zmod,
)


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("n", [2, 4, 6, 12, 30, 60])
def test_ideals_of_zmod_are_divisor_lattice(n):
    R = zmod(n)
    ideals = enumerate_ideals(R)
    assert len(ideals) == divisor_count(n)
    for I in ideals:
        assert is_ideal(R, I)


def test_ideal_closure_of_single_element():
    R = zmod(12)
    assert ideal_closure(R, (8,)) == frozenset({0, 4, 8})


def test_ideal_closure_with_base():
    R = zmod(12)
    base = ideal_closure(R, (6,))
    assert ideal_closure(R, (4,), base=base) == frozenset({0, 2, 4, 6, 8, 10})


def test_prime_ideals_of_z6():
    R = zmod(6)
    primes = [I for I in enumerate_ideals(R) if is_prime_ideal(R, I)]
    assert sorted(sorted(I) for I in primes) == [[0, 2, 4], [0, 3]]


def test_minimal_generators_regenerate():
    R = zmod(8)
    for I in enumerate_ideals(R):
        gens = minimal_generators(R, I)
        assert ideal_closure(R, gens) == I


def test_noetherian_witness_report():
    R = zmod(12)
    ideals = enumerate_ideals(R)
    rep = noetherian_witness(R, ideals)
    assert rep.ok
    assert rep.ideal_count_bound == divisor_count(12)
    assert rep.max_strict_chain <= divisor_count(12)
    assert len(rep.generator_lists) == len(ideals)


def test_gf_poly_quotient_dual_numbers():
    R = gf_poly_quotient(2, [0, 0, 1])  # F2[t]/(t^2)
    assert len(R.elements) == 4
    assert len(enumerate_ideals(R)) == 3


def test_product_ring_ideal_count_multiplies():
    R = product_ring([zmod(2), zmod(3)])
    assert len(enumerate_ideals(R)) == 4


def test_zmod_requires_n_at_least_two():
    with pytest.raises(DomainError):
        zmod(1)


def test_span_and_submodule():
    M = ring_as_module(zmod(8))
    N = span(M, [4])
    assert N == frozenset({0, 4})
    sub = submodule(M, N)
    assert sub.size == 2
    with pytest.raises(ValidationError):
        submodule(M, {1, 3})  # not closed


def test_quotient_module_sizes():
    M = ring_as_module(zmod(8))
    Q = quotient_module(M, span(M, [4]))
    assert Q.size == 4


def test_free_module_and_generators():
    M = free_module(zmod(4), 2)
    assert M.size == 16
    gens = module_generators(M)
    assert len(gens) == 2
    assert span(M, gens) == frozenset(M.elements)


def test_direct_sum_universal_property():
    R = zmod(4)
    A, B = ring_as_module(R), ring_as_module(R)
    out = direct_sum([A, B])
    S, (iA, iB) = out.module, out.injections
    assert S.size == 16
    # Injections are linear and glue: every s splits as iA(a) + iB(b).
    for a in A.elements:
        for b in B.elements:
            s = S.add(iA(a), iB(b))
            assert s == (a, b)


def test_enumerate_submodules_of_z4():
    M = ring_as_module(zmod(4))
    subs = enumerate_submodules(M)
    assert sorted(sorted(s) for s in subs) == [[0], [0, 1, 2, 3], [0, 2]]


def test_all_homs_z4_to_itself():
    M = ring_as_module(zmod(4))
    homs = all_homs(M, M)
    # Every endomorphism of R as an R-module is multiplication by r.
    assert len(homs) == 4
    for h in homs:
        assert is_linear_map(M, M, h)


def test_all_homs_count_is_generator_choice_invariant():
    R = zmod(4)
    M = ring_as_module(R)
    two = submodule(M, span(M, [2]), name="2Z/4Z")
    assert len(all_homs(two, M)) == 2
    assert len(all_homs(two, two)) == 2


def test_hom_from_ideal_counts():
    R = zmod(4)
    M = ring_as_module(R)
    I = span(M, [2])
    homs = hom_from_ideal(R, I, M)
    # A map from (2) to Z/4 sends 2 to an element killed by 2: 0 or 2.
    assert len(homs) == 2


def test_zero_module():
    Z = zero_module(zmod(4))
    assert Z.size == 1
    assert len(all_homs(Z, ring_as_module(zmod(4)))) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 24), st.sets(st.integers(0, 23), min_size=1, max_size=3))
def test_ideal_closure_is_an_ideal(n, seed):
    R = zmod(n)
    I = ideal_closure(R, {s % n for s in seed})
    assert is_ideal(R, I)


# -- the merged module layer against brute force ------------------------------

RINGS = {
    "F2[x]/(x^2)": lambda: gf_poly_quotient(2, [0, 0, 1]),
    "F3[x]/(x^2+1)": lambda: gf_poly_quotient(3, [1, 0, 1]),
    "Z/2 x Z/4": lambda: product_ring([zmod(2), zmod(4)]),
}
RING_NAMES = st.one_of(st.integers(2, 24).map(lambda n: f"Z/{n}"),
                       st.sampled_from(sorted(RINGS)))
MODULE_NAMES = st.one_of(RING_NAMES, st.just("(Z/4)^2"))


@functools.lru_cache(maxsize=None)
def ring_named(name):
    return RINGS[name]() if name in RINGS else zmod(int(name[2:]))


@functools.lru_cache(maxsize=None)
def module_named(name):
    if name == "(Z/4)^2":
        return free_module(zmod(4), 2)
    if name == "(F2[x]/(x^2))^2":
        return free_module(ring_named("F2[x]/(x^2)"), 2)
    if name == "(Z/4)^2/((2,2))":
        F = free_module(zmod(4), 2)
        return quotient_module(F, span(F, [(2, 2)]))
    return ring_as_module(ring_named(name))


def fixpoint_span(M, seed):
    """Close zero and the seed under addition and scaling, one pass at a
    time, until nothing new appears."""
    current = {M.zero, *seed}
    while True:
        new = {M.add(a, b) for a in current for b in current}
        new |= {M.smul(r, a) for r in M.ring.elements for a in current}
        if new <= current:
            return frozenset(current)
        current |= new


@settings(max_examples=60, deadline=None)
@given(MODULE_NAMES, st.data())
def test_span_equals_fixpoint_oracle(name, data):
    M = module_named(name)
    elements = st.sampled_from(M.elements)
    seed = data.draw(st.lists(elements, max_size=3))
    extra = data.draw(st.lists(elements, max_size=2))
    assert span(M, seed) == fixpoint_span(M, seed)
    assert span(M, extra, base=span(M, seed)) == fixpoint_span(M, seed + extra)


@settings(max_examples=30, deadline=None)
@given(RING_NAMES)
def test_ideals_are_the_submodules_of_the_ring(name):
    R = ring_named(name)
    ideals = enumerate_ideals(R)
    assert ideals == enumerate_submodules(ring_as_module(R))
    for I in ideals:
        assert is_ideal(R, I)
        assert minimal_generators(R, I) == module_generators(submodule(ring_as_module(R), I))


@settings(max_examples=30, deadline=None)
@given(MODULE_NAMES)
def test_generators_regenerate_in_element_order(name):
    M = module_named(name)
    for N in enumerate_submodules(M):
        gens = module_generators(submodule(M, N))
        assert span(M, gens) == N
        assert gens == sorted(gens, key=M.index)
        for k, g in enumerate(gens):
            assert g not in span(M, gens[:k])


@settings(max_examples=30, deadline=None)
@given(MODULE_NAMES)
def test_quotient_representatives_are_first_in_coset(name):
    M = module_named(name)
    for N in enumerate_submodules(M):
        Q = quotient_module(M, N)
        assert Q.elements[0] == M.zero
        assert list(Q.elements) == sorted(Q.elements, key=M.index)
        assert len(Q.elements) * len(N) == M.size
        for q in Q.elements:
            coset = [M.add(q, n) for n in N]
            assert q == min(coset, key=M.index)


# -- submodule lattices against the frontier search ----------------------------

def submodules_by_frontier(M):
    """Reference oracle: grow every submodule found by each element outside
    it, with ``span``, until no new submodule appears."""
    subs = {frozenset([M.zero])}
    frontier = list(subs)
    while frontier:
        N = frontier.pop()
        for a in M.elements:
            if a in N:
                continue
            bigger = span(M, (a,), base=N)
            if bigger not in subs:
                subs.add(bigger)
                frontier.append(bigger)
    return sorted(subs, key=lambda N: (len(N), sorted(map(M.index, N))))


LATTICE_MODULE_NAMES = st.one_of(
    MODULE_NAMES, st.sampled_from(["(F2[x]/(x^2))^2", "(Z/4)^2/((2,2))"]))


@settings(max_examples=40, deadline=None)
@given(LATTICE_MODULE_NAMES)
def test_submodules_equal_frontier_oracle(name):
    M = module_named(name)
    assert enumerate_submodules(M) == submodules_by_frontier(M)


def maximal_by_comparison(chain):
    """Reference oracle: the maximal members of every nonempty subfamily
    (of the whole family only, past 12 members), by pairwise comparison."""
    n = len(chain)
    subs = ([c for r in range(1, n + 1) for c in itertools.combinations(range(n), r)]
            if n <= 12 else [tuple(range(n))])
    return {sub: [i for i in sub if not any(j != i and chain[i] < chain[j] for j in sub)]
            for sub in subs}


@pytest.mark.parametrize("sizes", [(1, 12), (13, 20)])
@settings(max_examples=20, deadline=None)
@given(name=RING_NAMES, data=st.data())
def test_maximal_by_subset_equals_comparison_oracle(sizes, name, data):
    R = ring_named(name)
    ideals = enumerate_ideals(R)
    size = data.draw(st.integers(*sizes))
    chain = data.draw(st.lists(st.sampled_from(ideals), min_size=size, max_size=size))
    report = noetherian_witness(R, chain)
    expected = maximal_by_comparison(chain)
    assert list(report.maximal_by_subset.items()) == list(expected.items())


def test_closure_check_rejects_a_set_without_zero():
    R = zmod(4)
    assert not is_ideal(R, frozenset())
    with pytest.raises(ValidationError, match="zero"):
        submodule(ring_as_module(R), [])


# -- all_homs against the product-and-filter search ---------------------------

def all_homs_by_product(A, B):
    """Reference oracle: every assignment of images to the generators, in
    product order, propagated by linearity and kept when consistent."""
    gens = module_generators(A)
    if B.size ** len(gens) > 10**6:
        raise BoundExceededError("finite_ring_bound", 0, "hom search space too large")
    R = A.ring
    ai = {a: i for i, a in enumerate(A.elements)}
    bi = {b: i for i, b in enumerate(B.elements)}
    add_a = [[ai[A.add(x, y)] for y in A.elements] for x in A.elements]
    add_b = [[bi[B.add(x, y)] for y in B.elements] for x in B.elements]
    smul_a = [[ai[A.smul(r, x)] for x in A.elements] for r in R.elements]
    smul_b = [[bi[B.smul(r, x)] for x in B.elements] for r in R.elements]
    gen_idx = [ai[g] for g in gens]
    za, zb = ai[A.zero], bi[B.zero]
    homs = []
    for images in itertools.product(range(len(B.elements)), repeat=len(gens)):
        graph = [-1] * len(A.elements)
        graph[za] = zb
        known = [za]
        frontier = list(zip(gen_idx, images))
        ok = True
        while frontier and ok:
            a, b = frontier.pop()
            if graph[a] != -1:
                ok = graph[a] == b
                continue
            graph[a] = b
            known.append(a)
            for r in range(len(R.elements)):
                frontier.append((smul_a[r][a], smul_b[r][b]))
            for a2 in known:
                frontier.append((add_a[a][a2], add_b[b][graph[a2]]))
        assert not ok or -1 not in graph
        if ok:
            homs.append({A.elements[i]: B.elements[graph[i]]
                         for i in range(len(A.elements))})
    return homs


HOM_RINGS = st.one_of(st.integers(2, 12).map(lambda n: f"Z/{n}"),
                      st.sampled_from(sorted(RINGS) + ["Z/4 x Z/4"]))
MODULE_KINDS = st.sampled_from(["ring", "quotient", "submodule", "free", "zero"])


def draw_module(data, R):
    kind = data.draw(MODULE_KINDS)
    if kind == "ring":
        return ring_as_module(R)
    if kind == "zero":
        return zero_module(R)
    if kind == "free":
        return free_module(R, 2)
    F = free_module(R, data.draw(st.integers(1, 2)))
    N = span(F, data.draw(st.lists(st.sampled_from(F.elements), max_size=2)))
    return quotient_module(F, N) if kind == "quotient" else submodule(F, N)


def hom_ring_named(name):
    return product_ring([zmod(4), zmod(4)]) if name == "Z/4 x Z/4" else ring_named(name)


@settings(max_examples=150, deadline=None)
@given(HOM_RINGS, st.data())
def test_all_homs_equals_product_oracle(name, data):
    R = hom_ring_named(name)
    A, B = draw_module(data, R), draw_module(data, R)
    space = B.size ** len(module_generators(A))
    if space > 10**6:
        for search in (all_homs, all_homs_by_product):
            with pytest.raises(BoundExceededError, match="hom search space too large"):
                search(A, B)
        return
    # The oracle pays O(|A|^2) per candidate; larger pairs only cost time.
    assume(space * A.size <= 50_000)
    assert all_homs(A, B) == all_homs_by_product(A, B)


@pytest.mark.parametrize("rank_a,rank_b", [(2, 2), (3, 1)])
def test_all_homs_refuses_a_large_search_space(rank_a, rank_b):
    R = product_ring([zmod(4), zmod(4)])
    A, B = free_module(R, rank_a), free_module(R, rank_b)
    assert B.size ** len(module_generators(A)) > 10**6
    with pytest.raises(BoundExceededError, match="hom search space too large"):
        all_homs(A, B)


# -- every ring and module operation against its plain definition --------------

def draw_base_ring(data):
    """Z/n with n <= 12, or F_p[x]/(f) for p in {2, 3, 5} and a random monic
    f, with its add and mul written out from the definitions."""
    if data.draw(st.booleans()):
        n = data.draw(st.integers(2, 12))
        return zmod(n), (lambda a, b: (a + b) % n), (lambda a, b: a * b % n)
    p = data.draw(st.sampled_from([2, 3, 5]))
    d = data.draw(st.integers(1, 3 if p == 2 else 2))
    f = data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))

    def times_x(g):  # x*g, with x^d replaced by -(f_0 + ... + f_{d-1} x^{d-1})
        return tuple((lo - g[-1] * c) % p for lo, c in zip((0,) + g[:-1], f))

    def mul(a, b):  # sum of a_i * x^i * b
        out, g = (0,) * d, b
        for c in a:
            out = tuple((o + c * y) % p for o, y in zip(out, g))
            g = times_x(g)
        return out

    return (gf_poly_quotient(p, f + [1]),
            lambda a, b: tuple((x + y) % p for x, y in zip(a, b)), mul)


def first_in_coset(elements, z, add, subgroup):
    """The element-order-first member of the coset z + subgroup."""
    coset = {add(z, n) for n in subgroup}
    return next(e for e in elements if e in coset)


def draw_ring(data):
    """A random ring of one of the four constructions, with add and mul
    computed from its definition rather than by the ring."""
    kind = data.draw(st.sampled_from(["base", "product", "localized"]))
    R, add, mul = draw_base_ring(data)
    if kind == "base":
        return R, add, mul
    if kind == "product":
        S, add2, mul2 = draw_base_ring(data)
        assume(R.size * S.size <= 64)
        return (product_ring([R, S]),
                lambda a, b: (add(a[0], b[0]), add2(a[1], b[1])),
                lambda a, b: (mul(a[0], b[0]), mul2(a[1], b[1])))
    a = data.draw(st.sampled_from(R.elements))
    powers = [R.one]
    for _ in range(R.size):
        powers.append(mul(powers[-1], a))
    kernel = [r for r in R.elements if any(mul(q, r) == R.zero for q in powers[1:])]
    Q, _ = localize_finite(R, a)
    return (Q, lambda x, y: first_in_coset(R.elements, add(x, y), add, kernel),
            lambda x, y: first_in_coset(R.elements, mul(x, y), add, kernel))


def draw_module_with_ops(data, R, radd, rmul, depth=0):
    """A free module of rank 0-2, a quotient of one by a random submodule, or
    a direct sum of two such, with add and smul from their definitions."""
    kinds = ["free", "quotient"] + (["sum"] if depth == 0 else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "sum":
        parts = [draw_module_with_ops(data, R, radd, rmul, 1) for _ in range(2)]
        assume(parts[0][0].size * parts[1][0].size <= 256)
        (A, add_a, smul_a), (B, add_b, smul_b) = parts
        return (direct_sum([A, B]).module,
                lambda x, y: (add_a(x[0], y[0]), add_b(x[1], y[1])),
                lambda r, x: (smul_a(r, x[0]), smul_b(r, x[1])))
    rank = data.draw(st.integers(0 if kind == "free" else 1, 2))
    assume(R.size ** rank <= 729)
    F = free_module(R, rank)

    def add(a, b):
        return tuple(radd(x, y) for x, y in zip(a, b))

    def smul(r, a):
        return tuple(rmul(r, x) for x in a)

    if kind == "free":
        return F, add, smul
    N = span(F, data.draw(st.lists(st.sampled_from(F.elements), max_size=2)))
    return (quotient_module(F, N),
            lambda a, b: first_in_coset(F.elements, add(a, b), add, N),
            lambda r, a: first_in_coset(F.elements, smul(r, a), add, N))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_every_operation_equals_its_definition(data):
    R, radd, rmul = draw_ring(data)
    ops = [(R.add, radd, R.elements), (R.mul, rmul, R.elements)]
    if data.draw(st.booleans()):
        M, madd, msmul = draw_module_with_ops(data, R, radd, rmul)
        ops = [(M.add, madd, M.elements), (M.smul, msmul, R.elements)]
        right = M.elements
    else:
        right = R.elements
    for op, definition, left in ops:
        for _ in range(4):
            a = data.draw(st.sampled_from(left))
            b = data.draw(st.sampled_from(right))
            expected = definition(a, b)
            # The second call is the one a table of results answers.
            assert op(a, b) == expected
            assert op(a, b) == expected


def test_tables_are_filled_only_on_use():
    calls = collections.Counter()

    def counted(name, op):
        def run(a, b):
            calls[name] += 1
            return op(a, b)
        return run

    R = FiniteRing("Z/16", range(16), counted("add", lambda a, b: (a + b) % 16),
                   counted("mul", lambda a, b: a * b % 16), lambda a: -a % 16, 0, 1)
    F = free_module(R, 3)
    assert not calls
    N = frozenset({F.zero, (8, 0, 0)})
    Q = quotient_module(F, N)
    # The cosets need one sum a + n per element of F, three ring sums each.
    assert calls == {"add": 3 * F.size}
    x, y = (1, 2, 3), (4, 5, 6)
    for _ in range(2):  # the second round is answered by the tables
        assert Q.add(x, y) == (5, 7, 9)
        assert Q.smul(5, x) == (5, 10, 15)
        assert calls == {"add": 3 * F.size + 3, "mul": 3}
