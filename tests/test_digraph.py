"""Digraphs of ideals: validation, clearing denominators, the generated
sheaf, extraction, quasi-coherence, the constant-sheaf-Z analog, and the
desk-scale enumeration of all digraphs over a finite ring."""

import itertools
import json
import math
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from noether.config import DEFAULT_BUDGETS, Budgets
from noether.errors import DomainError, OracleError, ResourceBudgetError, ValidationError
from noether import univar
from noether.fields import GF, QQ
from noether.finite import enumerate_ideals, gf_poly_quotient, ideal_closure, zmod
from noether.jobs import parse_job, run_job
from noether.poly import Polynomial
from noether.digraph import (
    DigraphNode,
    IdealDigraph,
    SheafOracle,
    ZZDigraph,
    ZZSheafData,
    _extract,
    _section_generators,
    clear_denominators,
    count_digraph_space,
    digraph_oracle,
    evaluate_sheaf,
    extract_digraph,
    extract_zz_digraph,
    is_quasi_coherent,
    localize_finite,
    quasi_coherent_oracle,
    section_membership,
    validate_digraph,
    zz_sheaf_value,
)
from noether.rings import IdealHandle, PresentedRing, ideal_equal, saturate
from noether.topology import (
    DistinguishedOpen,
    FiniteSpace,
    coordinate_ring,
    enumerate_spec,
    open_equal,
)


@pytest.fixture
def R():
    return PresentedRing(QQ, ("x",))


def D(R, text):
    return DistinguishedOpen(R, R.parse(text))


def node(R, open_text, *gen_texts):
    return DigraphNode(D(R, open_text), tuple(R.parse(g) for g in gen_texts))


def g0(R):
    """Root (D(1), (0)) with child (D(x), (1)): generated sheaf is the unit
    ideal exactly on the opens inside D(x)."""
    return IdealDigraph(R, (node(R, "1"), node(R, "x", "1")), ((0, 1),), 0)


# -- validation ----------------------------------------------------------------


def test_root_only_digraph_valid(R):
    d = IdealDigraph(R, (node(R, "1", "x"),), (), 0)
    assert validate_digraph(d).valid


def test_g0_valid_but_not_quasi_coherent(R):
    assert validate_digraph(g0(R)).valid
    basis = [D(R, "1"), D(R, "x"), D(R, "x - 1")]
    assert not is_quasi_coherent(g0(R), basis)


def test_increasing_violation_detected(R):
    # (x) localized at x is already the unit ideal; the child adds nothing.
    d = IdealDigraph(R, (node(R, "1", "x"), node(R, "x", "1")), ((0, 1),), 0)
    rep = validate_digraph(d)
    assert not rep.valid and not rep.increasing_ok
    assert rep.witnesses["increasing"] == [(0, 1)]


def test_decreasing_violation_detected(R):
    # Child open equal to the parent's is not strictly smaller.
    d = IdealDigraph(R, (node(R, "1"), node(R, "x^0", "1")), ((0, 1),), 0)
    rep = validate_digraph(d)
    assert not rep.functional_ok or not rep.decreasing_ok


def test_structural_cycle_detected(R):
    d = IdealDigraph(R, (node(R, "1"), node(R, "x", "1")),
                     ((0, 1), (1, 1)), 0)
    rep = validate_digraph(d)
    assert not rep.structural_ok


def test_global_requires_whole_root(R):
    d = IdealDigraph(R, (node(R, "x", "1"),), (), 0)
    rep = validate_digraph(d)
    assert not rep.global_ok


def closure_structural(n, root, edges):
    """The structural witness by Warshall's transitive closure: None for a
    rooted DAG, else what validate_digraph reports first."""
    if not all(0 <= p < n and 0 <= c < n for p, c in edges):
        return "edge index out of range"
    path = [[False] * n for _ in range(n)]
    for p, c in edges:
        path[p][c] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                path[i][j] = path[i][j] or (path[i][k] and path[k][j])
    unreachable = [j for j in range(n) if j != root and not path[root][j]]
    if unreachable:
        return unreachable
    return "cycle" if any(path[i][i] for i in range(n)) else None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n - 1),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=9),
    st.booleans())))
def test_structural_check_matches_transitive_closure(case):
    n, root, edges, stray = case
    if stray:
        edges = edges + [(0, n)]
    ring = PresentedRing(QQ, ("x",))
    opens = ("1", "x", "x - 1", "x + 1", "x^2 - x", "x^2 + x")[:n]
    d = IdealDigraph(ring, tuple(node(ring, u) for u in opens), tuple(edges), root)
    rep = validate_digraph(d)
    expected = closure_structural(n, root, edges)
    assert rep.structural_ok == (expected is None)
    assert rep.witnesses.get("structural") == expected


def cyclic_digraph(R):
    return IdealDigraph(R, (node(R, "1"), node(R, "x", "1")), ((0, 1), (1, 1)), 0)


def root_out_of_range_digraph(R):
    return IdealDigraph(R, (node(R, "1"), node(R, "x", "1")), ((0, 1),), 3)


TAKES_A_DIGRAPH = {
    "section_membership": lambda R, d: section_membership(d, D(R, "x"), R.one()),
    "evaluate_sheaf": lambda R, d: evaluate_sheaf(d, D(R, "x")),
    "is_quasi_coherent": lambda R, d: is_quasi_coherent(d, [D(R, "x")]),
    "digraph_oracle": lambda R, d: digraph_oracle(d, [D(R, "x")]),
}


@pytest.mark.parametrize("make", [cyclic_digraph, root_out_of_range_digraph])
@pytest.mark.parametrize("function", sorted(TAKES_A_DIGRAPH))
def test_invalid_digraph_refused(R, function, make):
    with pytest.raises(ValidationError) as info:
        TAKES_A_DIGRAPH[function](R, make(R))
    assert info.value.witness["structural"] is False


def test_section_membership_checks_the_node_cap_before_validating(R):
    with pytest.raises(ResourceBudgetError) as info:
        section_membership(cyclic_digraph(R), D(R, "x"), R.one(), None,
                           Budgets(digraph_node_cap=1))
    assert info.value.budget_name == "digraph_node_cap"
    with pytest.raises(ValidationError):
        section_membership(cyclic_digraph(R), D(R, "x"), R.one())


G0_JSON = {"ring": {"field": "q", "vars": ["x"]},
           "nodes": [{"open": "1", "gens": []}, {"open": "x", "gens": ["1"]}],
           "edges": [[0, 1]], "root": 0}
G0_BASIS = ["x", "x - 1", "x^2 - x"]


@pytest.mark.parametrize("command,payload,answer", [
    ("digraph-eval", {"op": "membership", "open": "x", "numerator": "1", "digraph": G0_JSON},
     {"value": True}),
    ("digraph-eval", {"op": "evaluate", "open": "x", "digraph": G0_JSON},
     {"open": "x", "generators": ["1"]}),
    ("digraph-eval", {"op": "quasi-coherent", "basis": G0_BASIS, "digraph": G0_JSON},
     {"value": False}),
    ("digraph-extract", {"oracle": {"kind": "digraph", "digraph": G0_JSON}, "basis": G0_BASIS},
     {key: G0_JSON[key] for key in ("nodes", "edges", "root")}),
])
def test_digraph_jobs_refuse_past_the_node_cap(command, payload, answer):
    def run(budgets):
        job = {"command": command, "payload": payload, "budgets": budgets}
        return run_job(parse_job(json.dumps(job)))

    capped = run({"digraph_node_cap": 1})
    assert capped.exit_code == 3
    assert "digraph_node_cap" in capped.result["error"]
    assert run({}).result == answer


# -- clearing denominators -------------------------------------------------------


def test_clear_denominators_unit_factor(R):
    raw = [(D(R, "x"), [(R.parse("x - 1"), R.parse("x"))])]
    d = clear_denominators(R, raw, (), 0)
    ru = coordinate_ring(D(R, "x"))
    assert ideal_equal(IdealHandle(ru, d.nodes[0].gens), ru.ideal("x - 1"))


def test_clear_denominators_pure_unit(R):
    raw = [(D(R, "x"), [(R.parse("1"), R.parse("x^2"))])]
    d = clear_denominators(R, raw, (), 0)
    ru = coordinate_ring(D(R, "x"))
    assert IdealHandle(ru, d.nodes[0].gens).is_unit_ideal()


def test_clear_denominators_rejects_zero_denominator(R):
    raw = [(D(R, "x"), [(R.parse("1"), R.parse("0"))])]
    with pytest.raises(DomainError):
        clear_denominators(R, raw, (), 0)


def test_clear_denominators_rejects_non_unit_denominator(R):
    raw = [(D(R, "x"), [(R.parse("1"), R.parse("x - 1"))])]
    with pytest.raises(DomainError):
        clear_denominators(R, raw, (), 0)


# -- the generated sheaf ---------------------------------------------------------


def test_g0_membership(R):
    d = g0(R)
    one = R.one()
    assert section_membership(d, D(R, "x"), one)
    assert not section_membership(d, D(R, "1"), one)
    assert section_membership(d, D(R, "1"), R.zero())


def test_g0_evaluation(R):
    d = g0(R)
    assert evaluate_sheaf(d, D(R, "x")).is_unit_ideal()
    assert evaluate_sheaf(d, D(R, "1")).is_zero_ideal()


def test_quasi_coherent_evaluation_is_localization(R):
    d = IdealDigraph(R, (node(R, "1", "x - 1"),), (), 0)
    value = evaluate_sheaf(d, D(R, "x"))
    ru = coordinate_ring(D(R, "x"))
    assert ideal_equal(value, ru.ideal("x - 1"))


def test_membership_closure_under_ring_action(R):
    # The accepted sections over a fixed open form an ideal.
    d = IdealDigraph(R, (node(R, "1", "x - 1"), node(R, "x", "1")),
                     ((0, 1),), 0)
    u = D(R, "1")
    rng = random.Random(3)
    accepted = [R.parse("x - 1"), R.parse("x^2 - x")]
    for _ in range(10):
        coeffs = [rng.randint(-2, 2) for _ in range(3)]
        mult = R.parse(f"{coeffs[0]}*x^2 + {coeffs[1]}*x + {coeffs[2]}")
        s = accepted[rng.randrange(2)]
        t = accepted[rng.randrange(2)]
        assert section_membership(d, u, s + t)
        assert section_membership(d, u, mult * s)


def test_membership_monotone_under_extra_node(R):
    # Adding a node with a larger ideal over a sub-open never removes sections.
    base = IdealDigraph(R, (node(R, "1", "x - 1"),), (), 0)
    bigger = IdealDigraph(R, (node(R, "1", "x - 1"), node(R, "x", "1")),
                          ((0, 1),), 0)
    probes = [R.parse(t) for t in ("x - 1", "x^2 - x", "0")]
    for u_text in ("1", "x", "x - 1"):
        u = D(R, u_text)
        for p in probes:
            if section_membership(base, u, p):
                assert section_membership(bigger, u, p)


def factored_section_generators(d, u):
    """The section ideal over u by irreducible factorization (sympy): the
    product of q^e over the monic irreducibles q alive on u, e the
    multiplicity of q in the gcd of the node ideals whose opens contain
    (q); () when some stalk is zero."""
    ring = d.ring
    all_gens = [g for node in d.nodes for g in node.gens]
    if univar.gcd(all_gens, ring.field).is_zero():
        return ()
    candidates = []
    for p in all_gens + [node.open.f for node in d.nodes]:
        if p.is_zero() or p.is_constant():
            continue
        for q, _ in univar.irreducible_factors(p):
            if q not in candidates:
                candidates.append(q)
    s_u = u.f * ring.inverted_product()
    total = ring.one()
    for q in candidates:
        if univar.divides(q, s_u):
            continue
        alive = [node for node in d.nodes if not univar.divides(q, node.open.f)]
        g_s = univar.gcd([g for node in alive for g in node.gens], ring.field)
        if g_s.is_zero():
            return ()
        total = total * q ** univar.multiplicity(q, g_s)
    return (total,)


SECTION_FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7)]
# x, x + 1, x^2 + 1, x - 2, x^2 + x + 1: over F_p their powers up to 8
# include p-th powers and multiplicities above p.
BLOCKS = [[0, 1], [1, 1], [1, 0, 1], [-2, 1], [1, 1, 1]]


@st.composite
def factored_polys(draw, field, nonzero=False):
    """A unit times a product of up to two powers of small blocks (fixed
    ones and random ones of degree <= 2), or, unless ``nonzero``, 0."""
    if not nonzero and draw(st.integers(0, 9)) == 0:
        return Polynomial.zero(field, 1)
    unit = draw(st.integers(1, field.p - 1 if field.p else 5))
    out = Polynomial.const(field, 1, unit)
    blocks = BLOCKS + draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=2, max_size=3), max_size=2))
    for coeffs in draw(st.lists(st.sampled_from(blocks), max_size=2)):
        block = Polynomial(field, 1, {(i,): field.from_int(c)
                                      for i, c in enumerate(coeffs)})
        if not block.is_zero():
            out = out * block ** draw(st.integers(1, 8))
    return out


@st.composite
def univariate_digraphs(draw):
    """An unvalidated univariate digraph (root over D(1), up to two more
    nodes), a ring that may invert one element, and a nonempty open u."""
    field = draw(st.sampled_from(SECTION_FIELDS))
    inverted = tuple(draw(st.lists(factored_polys(field, nonzero=True),
                                   max_size=1)))
    ring = PresentedRing(field, ("x",), inverted=inverted)
    opens = [ring.one()] + draw(st.lists(factored_polys(field, nonzero=True),
                                         max_size=2))
    # Each node's generators share a factor, so stalk gcds are rarely 1.
    nodes = tuple(
        DigraphNode(DistinguishedOpen(ring, f), tuple(
            draw(factored_polys(field, nonzero=True)) * g
            for g in draw(st.lists(factored_polys(field), min_size=1,
                                   max_size=2))))
        for f in opens)
    edges = tuple((0, i) for i in range(1, len(nodes)))
    u = DistinguishedOpen(ring, draw(factored_polys(field, nonzero=True)))
    return IdealDigraph(ring, nodes, edges, 0), u


@settings(max_examples=150, deadline=None)
@given(univariate_digraphs())
def test_section_generators_match_factorization(case):
    d, u = case
    assert _section_generators(d, u) == factored_section_generators(d, u)


def test_evaluate_rejects_multivariate_base():
    R2 = PresentedRing(QQ, ("x", "y"))
    d = IdealDigraph(R2, (DigraphNode(DistinguishedOpen(R2, R2.one()),
                                      (R2.parse("x"),)),), (), 0)
    from noether.errors import CapabilityError
    with pytest.raises(CapabilityError):
        evaluate_sheaf(d, DistinguishedOpen(R2, R2.one()))


# -- extraction -------------------------------------------------------------------


def basis_of(R, *texts):
    return [D(R, t) for t in texts]


def test_quasi_coherent_extraction_collapses(R):
    basis = basis_of(R, "x", "x - 1", "x^2 - x")
    oracle = quasi_coherent_oracle(R.ideal("x - 1"), basis)
    d = extract_digraph(oracle)
    assert len(d.nodes) == 1 and not d.edges


def test_g0_oracle_round_trip(R):
    basis = basis_of(R, "x", "x - 1", "x^2 - x")
    oracle = digraph_oracle(g0(R), basis)
    d = extract_digraph(oracle)
    assert len(d.nodes) == 2
    assert open_equal(d.nodes[1].open, D(R, "x"))
    # The regenerated sheaf agrees with the source on every basis open.
    for u in basis + [D(R, "1")]:
        assert ideal_equal(evaluate_sheaf(d, u), evaluate_sheaf(g0(R), u))


def g0_extraction(R, *basis_texts):
    d = extract_digraph(digraph_oracle(g0(R), basis_of(R, *basis_texts)))
    return [n.open for n in d.nodes], d.edges


def test_g0_extraction_ignores_an_open_equal_to_a_candidate(R):
    # D(x^2) = D(x): the extra basis open changes neither nodes nor edges.
    opens, edges = g0_extraction(R, "x", "x^2", "x - 1")
    plain_opens, plain_edges = g0_extraction(R, "x", "x - 1")
    assert edges == plain_edges == ((0, 1),)
    assert [u.f for u in opens] == [u.f for u in plain_opens] == [R.one(), R.parse("x")]


def test_g0_extraction_keeps_the_first_of_equal_opens(R):
    opens, edges = g0_extraction(R, "x^2", "x", "2*x", "x*(x - 1)")
    assert edges == ((0, 1),)
    assert opens[1].f == R.parse("x^2")


def test_extraction_termination_certificate(R):
    # Along every root-to-leaf path the saturated global ideals strictly grow.
    basis = basis_of(R, "x", "x - 1", "x^2 - x")
    d = extract_digraph(digraph_oracle(g0(R), basis))

    def saturated(i):
        return saturate(IdealHandle(R, d.nodes[i].gens), d.nodes[i].open.f)

    for (p, c) in d.edges:
        big, small = saturated(c), saturated(p)
        from noether.rings import ideal_contains
        assert ideal_contains(big, small) and not ideal_equal(big, small)


def test_presheaf_violation_raises_oracle_error(R):
    # Sections shrink when restricted to a smaller open: not a presheaf.
    basis = basis_of(R, "x")

    def valuation(u):
        return () if open_equal(u, D(R, "x")) else (R.parse("x - 1"),)

    oracle = SheafOracle(R, valuation, basis)
    with pytest.raises(OracleError):
        extract_digraph(oracle)


# -- constant-sheaf-Z analog -----------------------------------------------------


def sierpinski():
    return FiniteSpace((0, 1), ((0, 1),))


def test_zz_sierpinski_example():
    X = sierpinski()
    data = ZZSheafData(X, {frozenset({0}): 2, frozenset({0, 1}): 4})
    d = extract_zz_digraph(data)
    assert [(sorted(u), n) for u, n in d.nodes] == [([0, 1], 4), ([0], 2)]
    assert d.edges == ((0, 1),)


def test_zz_constant_sheaf_is_root_only():
    X = sierpinski()
    data = ZZSheafData(X, {frozenset({0}): 6, frozenset({0, 1}): 6})
    d = extract_zz_digraph(data)
    assert len(d.nodes) == 1


def test_zz_zero_root_analog_of_g0():
    X = sierpinski()
    data = ZZSheafData(X, {frozenset({0}): 1, frozenset({0, 1}): 0})
    d = extract_zz_digraph(data)
    assert [(sorted(u), n) for u, n in d.nodes] == [([0, 1], 0), ([0], 1)]


def test_zz_restriction_law_enforced():
    X = sierpinski()
    data = ZZSheafData(X, {frozenset({0}): 3, frozenset({0, 1}): 4})
    with pytest.raises(ValidationError):
        extract_zz_digraph(data)


def test_zz_regeneration_on_three_point_fan():
    # 0 below 1 and 2; a non-sheaf presheaf still regenerates exactly.
    X = FiniteSpace((0, 1, 2), ((0, 1), (0, 2)))
    assign = {frozenset({0}): 1, frozenset({0, 1}): 1,
              frozenset({0, 2}): 1, frozenset({0, 1, 2}): 0}
    data = ZZSheafData(X, assign)
    d = extract_zz_digraph(data)
    for U in X.connected_opens():
        assert zz_sheaf_value(d, U) == assign[U]


def zz_oracle(z):
    """``extract_zz_digraph`` on frozensets, validation included, as it was
    before the space kept its layout: the oracle of the index path."""
    opens = z.space.connected_opens()
    for U in opens:
        if U not in z.assignment:
            raise ValidationError("missing assignment", witness=sorted(U))
        if z.assignment[U] < 0:
            raise ValidationError("negative ideal index", witness=sorted(U))
    for U in opens:
        for V in opens:
            if U < V and not (z.assignment[V] % z.assignment[U] == 0 if z.assignment[U]
                              else z.assignment[V] == 0):
                raise ValidationError("restriction law violated",
                                      witness=(sorted(U), sorted(V)))
    whole = z.space.whole()
    if not z.space.connected(whole):
        raise ValidationError("space must be connected; run per component")

    def expansive(node):
        V, nV = node
        return [(U, z.assignment[U]) for U in opens
                if U < V and (nV % z.assignment[U] == 0 if z.assignment[U] else nV == 0)
                and z.assignment[U] != nV]

    nodes, edges = _extract((whole, z.assignment[whole]), expansive,
                            operator.lt, operator.eq)
    return ZZDigraph(z.space, tuple(nodes), tuple(edges), 0)


@st.composite
def zz_sheaf_data(draw):
    """A preorder on up to 5 points, and an assignment on its connected
    opens that keeps the restriction law, breaks it, misses a key or goes
    negative."""
    n = draw(st.integers(1, 5))
    below = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=n - 1, max_size=8))
    space = FiniteSpace(range(n), below)
    opens = space.connected_opens()
    kind = draw(st.sampled_from(["keep", "break", "miss", "negative"]))
    assign = {}
    for V in opens:  # by size, so every open inside V is already assigned
        if kind == "break":
            assign[V] = draw(st.integers(0, 8))
            continue
        inside = [assign[U] for U in opens if U < V]
        k = draw(st.sampled_from([2, 3, 1, 0]))
        assign[V] = 0 if 0 in inside else math.lcm(1, *inside) * k
    if kind in ("miss", "negative") and opens:
        U = draw(st.sampled_from(opens))
        if kind == "miss":
            del assign[U]
        else:
            assign[U] = -draw(st.integers(1, 4))
    return ZZSheafData(space, assign)


def zz_outcome(extract, z):
    try:
        d = extract(z)
    except ValidationError as exc:
        return "error", str(exc), exc.witness
    return d.nodes, d.edges


@settings(max_examples=300, deadline=None)
@given(zz_sheaf_data())
# On a chain the law fails at ({0}, the whole space) and ({0, 1}, {0, 1, 2}):
# the first by U, then V, is the witness.
@example(ZZSheafData(FiniteSpace(range(4), [(0, 1), (1, 2), (2, 3)]), {
    frozenset(range(1)): 2, frozenset(range(2)): 6, frozenset(range(3)): 4,
    frozenset(range(4)): 3}))
def test_zz_extraction_matches_the_frozenset_oracle(z):
    assert zz_outcome(extract_zz_digraph, z) == zz_outcome(zz_oracle, z)


# -- enumeration ------------------------------------------------------------------


def test_count_digraph_space_z4():
    # Spec(Z/4) is a point, so digraphs are root-only: one per ideal.
    assert count_digraph_space(zmod(4)) == 3


def test_count_digraph_space_z6():
    assert count_digraph_space(zmod(6)) == 9


# The remaining Z/n up to 12 (Z/4 and Z/6 are pinned above).
@pytest.mark.parametrize("n,count", [(2, 2), (3, 2), (5, 2), (7, 2), (8, 4),
                                     (9, 3), (10, 9), (11, 2), (12, 18)])
def test_count_digraph_space_zmod(n, count):
    assert count_digraph_space(zmod(n)) == count


def count_by_edge_subsets(R):
    """The digraph space counted the long way: every node set, ideal
    assignment and subset of the increasing edges, kept when the root
    reaches every node."""
    primes = enumerate_spec(R)
    opens = {}
    for a in R.elements:
        pts = frozenset(i for i, p in enumerate(primes) if a not in p)
        if pts:
            opens.setdefault(pts, a)
    whole = frozenset(range(len(primes)))
    non_root = [u for u in opens if u != whole]
    local = {u: localize_finite(R, a) for u, a in opens.items()}
    count = 0
    for k in range(len(non_root) + 1):
        for chosen in itertools.combinations(non_root, k):
            node_opens = (whole,) + chosen
            for ideals in itertools.product(
                    *(enumerate_ideals(local[u][0]) for u in node_opens)):
                ideal_of = dict(zip(node_opens, ideals))
                usable = [(p, c) for p in node_opens for c in node_opens
                          if c < p and ideal_closure(
                              local[c][0], {local[c][1][x] for x in ideal_of[p]})
                          < ideal_of[c]]
                for r in range(len(usable) + 1):
                    for es in itertools.combinations(usable, r):
                        reach, frontier = {whole}, [whole]
                        while frontier:
                            x = frontier.pop()
                            for p, c in es:
                                if p == x and c not in reach:
                                    reach.add(c)
                                    frontier.append(c)
                        count += len(reach) == len(node_opens)
    return count


# Up to Z/12 Spec has at most two points, so every non-root node has one
# possible edge, from the root; Spec(Z/30) has three, and a one-point open
# may take edges from the root and from two of the two-point opens.
@pytest.mark.parametrize("ring", [zmod(n) for n in (*range(2, 13), 30)] + [
    gf_poly_quotient(2, [0, 0, 1]), gf_poly_quotient(3, [0, 0, 1]),
    gf_poly_quotient(2, [0, 1, 1]), gf_poly_quotient(2, [1, 1, 1])],
    ids=lambda R: R.name)
def test_count_digraph_space_matches_edge_subset_enumeration(ring):
    wide = Budgets(digraph_vocab_cap=10**8)
    assert count_digraph_space(ring, wide) == count_by_edge_subsets(ring)


def count_space_job(ring, budgets):
    job = {"command": "digraph-validate", "budgets": budgets,
           "payload": {"op": "count-space", "finite_ring": ring}}
    return run_job(parse_job(json.dumps(job)))


def test_count_space_on_z30_fits_the_default_cap():
    # At most 8 * 4 * 4 * 4 * 2 * 2 * 2 = 4,096 ideal assignments per node set.
    report = count_space_job({"zmod": 30}, {})
    assert (report.exit_code, report.result) == (0, {"count": 2041})


def test_count_space_on_z30_still_refuses_a_small_cap():
    report = count_space_job({"zmod": 30}, {"digraph_vocab_cap": 100})
    assert report.exit_code == 3
    assert "digraph_vocab_cap" in report.result["error"]
