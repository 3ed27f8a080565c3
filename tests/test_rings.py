"""Presented rings and ideal operations: membership, equality, saturation,
colon ideals, radical membership against a Rabinowitsch oracle, canonical
bases and saturations against an elimination oracle, univariate colons and
intersections against sympy and against the elimination of an auxiliary
variable, with its degree budget, and localized canonical forms."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from noether import univar
from noether.univar import from_sympy, to_sympy
from noether.config import DEFAULT_BUDGETS, Budgets
from noether.errors import DomainError, ResourceBudgetError
from noether.fields import GF, QQ
from noether.groebner import groebner_basis
from noether.jobs import JobSpec, run_job
from noether.poly import DEGREVLEX, BlockElim, Polynomial, exact_divmod
from noether.rings import (
    PresentedRing,
    colon_ideal,
    ideal_combine,
    ideal_contains,
    ideal_equal,
    ideal_membership,
    op_groebner_basis,
    radical_membership,
    saturate,
)


@pytest.fixture
def R2():
    return PresentedRing(QQ, ("x", "y"))


@pytest.fixture
def R1():
    return PresentedRing(QQ, ("x",))


def test_membership_basic(R2):
    I = R2.ideal("x^2 - 1", "x*y - 1")
    assert ideal_membership(R2.parse("x - y"), I)
    assert not ideal_membership(R2.parse("x + y"), I)


def test_ideal_equal_is_presentation_independent(R2):
    assert ideal_equal(R2.ideal("x", "y"), R2.ideal("x + y", "y"))
    assert not ideal_equal(R2.ideal("x"), R2.ideal("y"))


def test_contains(R2):
    assert ideal_contains(R2.ideal("x", "y"), R2.ideal("x^2 + y^2"))
    assert not ideal_contains(R2.ideal("x^2 + y^2"), R2.ideal("x", "y"))


def test_sum_product_intersection(R2):
    x, y = R2.ideal("x"), R2.ideal("y")
    assert ideal_equal(ideal_combine("sum", x, y), R2.ideal("x", "y"))
    product = ideal_combine("product", x, y)
    meet = ideal_combine("intersection", x, y)
    assert ideal_equal(product, R2.ideal("x*y"))
    assert ideal_equal(meet, R2.ideal("x*y"))


def test_intersection_differs_from_product_when_not_coprime(R2):
    I = R2.ideal("x")
    meet = ideal_combine("intersection", I, I)
    product = ideal_combine("product", I, I)
    assert ideal_equal(meet, I)
    assert ideal_equal(product, R2.ideal("x^2"))


def test_saturation(R2):
    # (x^2*y) : x^inf = (y)
    out = saturate(R2.ideal("x^2*y"), R2.parse("x"))
    assert ideal_equal(out, R2.ideal("y"))


def test_saturation_univariate(R1):
    out = saturate(R1.ideal("x^3 - x^2"), R1.parse("x"))
    assert ideal_equal(out, R1.ideal("x - 1"))


def test_colon(R2):
    out = colon_ideal(R2.ideal("x*y"), R2.parse("x"))
    assert ideal_equal(out, R2.ideal("y"))


def test_radical_membership(R2):
    I = R2.ideal("x^2", "x*y")
    assert radical_membership(R2.parse("x"), I)
    assert not radical_membership(R2.parse("y"), I)
    assert radical_membership(R2.parse("0"), I)


def test_radical_membership_univariate_fast_path(R1):
    I = R1.ideal("x^4 - 2*x^3 + x^2")  # x^2 (x-1)^2
    assert radical_membership(R1.parse("x^2 - x"), I)
    assert not radical_membership(R1.parse("x + 1"), I)


def test_univariate_and_buchberger_bases_agree():
    # The gcd fast path must produce the same canonical value Buchberger
    # would: the monic generator of the principal ideal.
    R = PresentedRing(QQ, ("x",))
    (g,) = R.ideal("2*x^2 - 2*x", "3*x^3 - 3*x^2").canonical_basis()
    assert R.render(g) == "x^2 - x"


def test_localized_canonical_basis():
    base = PresentedRing(QQ, ("x",))
    R = base.with_inverted(base.parse("x"))
    I = R.ideal("x^2 - x")
    # x is a unit, so the canonical form contracts to (x - 1).
    assert [R.render(g) for g in I.canonical_basis()] == ["x - 1"]


def test_localized_groebner_basis_is_canonical():
    base = PresentedRing(QQ, ("x",))
    R = base.with_inverted(base.parse("x"))
    assert [R.render(g) for g in op_groebner_basis(R.ideal("x^2 - x"))] == ["x - 1"]


@pytest.mark.parametrize("order", [("default", "tight"), ("tight", "default"), ("tight",)])
def test_canonical_basis_obeys_each_calls_budgets_in_any_order(order):
    # The handle keeps one basis with the budgets it was computed under: a
    # call under tighter budgets is refused as on a fresh handle, and a
    # refused call leaves the handle usable under looser ones.
    base = PresentedRing(QQ, ("x",))
    R = base.with_inverted(base.parse("x"))
    I = R.ideal("x^10 - 1")
    for name in order:
        if name == "tight":
            with pytest.raises(ResourceBudgetError, match="max_degree"):
                I.canonical_basis(Budgets(max_degree=2))
        else:
            assert [R.render(g) for g in I.canonical_basis()] == ["x^10 - 1"]


def test_quotient_ring_membership():
    base = PresentedRing(QQ, ("x",))
    R = PresentedRing(QQ, ("x",), quotient=(base.parse("x^2 - 1"),))
    # In Q[x]/(x^2-1), the ideal (x - 1) absorbs x^3 - x^2... = x - 1 cases.
    I = R.ideal("x - 1")
    assert ideal_membership(R.parse("x^3 - 1"), I)


@pytest.mark.parametrize("quotient,inverted", [("x^2", "x^2"), ("x^2", "x"), ("1", None)])
def test_a_zero_ring_presentation_answers_the_unit_ideal(quotient, inverted):
    # The constructor computes no basis: a job refuses a zero ring at load
    # (tests/test_cli.py), while the library answers (1) for every ideal.
    base = PresentedRing(QQ, ("x",))
    R = PresentedRing(QQ, ("x",), quotient=(base.parse(quotient),),
                      inverted=(base.parse(inverted),) if inverted else ())
    assert R.ideal().is_unit_ideal() and R.ideal("x - 3").is_unit_ideal()


def test_finite_field_coefficients():
    R = PresentedRing(GF(5), ("x", "y"))
    I = R.ideal("x^5 - x")
    assert ideal_membership(R.parse("4*x^5 + x"), I)


def test_unit_and_zero_ideal_predicates(R2):
    assert R2.ideal("1").is_unit_ideal()
    assert R2.ideal().is_zero_ideal()
    assert not R2.ideal("x").is_unit_ideal()


def rabinowitsch_oracle(f, I, budgets=DEFAULT_BUDGETS):
    """f in rad(I) iff (I, quotient, 1 - t*f, 1 - u*s) is the unit ideal,
    where s is the product of the inverted elements; in k[x] every
    irreducible factor of the canonical generator must divide f."""
    ring = I.ring
    if ring.nvars == 1 and not ring.quotient:
        basis = I.canonical_basis(budgets)
        if not basis:
            return f.is_zero()
        return univar.strip_shared(basis[0], f).is_one()
    naux = 2 if ring.inverted else 1
    nv = ring.nvars + naux
    gens = [g.lift(naux) for g in list(I.generators) + list(ring.quotient)]
    one = Polynomial.const(ring.field, nv, 1)
    t = Polynomial.var(ring.field, nv, 0)
    gens.append(one - t * f.lift(naux))
    if ring.inverted:
        u = Polynomial.var(ring.field, nv, 1)
        gens.append(one - u * ring.inverted_product().lift(naux))
    basis = groebner_basis(gens, DEGREVLEX, budgets)
    return len(basis) == 1 and basis[0].is_one()


def _polys(field, nvars):
    """Sparse polynomials of degree <= 2 with at most 3 small terms."""
    mono = st.tuples(*[st.integers(0, 2)] * nvars).filter(lambda m: sum(m) <= 2)
    return st.dictionaries(mono, st.integers(-3, 3), max_size=3).map(
        lambda terms: Polynomial(field, nvars, {m: field.from_int(c)
                                                for m, c in terms.items()}))


@st.composite
def radical_cases(draw):
    field = draw(st.sampled_from([QQ, GF(5), GF(32003)]))
    nvars = draw(st.integers(1, 3))
    polys = _polys(field, nvars)
    quotient = tuple(draw(st.lists(polys, max_size=1)))
    inverted = tuple(draw(st.lists(polys, max_size=1)))
    gens = draw(st.lists(polys, max_size=3))
    return field, ("x", "y", "z")[:nvars], quotient, inverted, gens, draw(polys)


def _outcome(member, f, I):
    try:
        return member(f, I)
    except ResourceBudgetError as exc:
        return exc.budget_name


@settings(max_examples=200, deadline=None)
@given(radical_cases())
def test_radical_membership_equals_rabinowitsch_oracle(case):
    field, names, quotient, inverted, gens, f = case
    try:
        ring = PresentedRing(field, names, quotient, inverted)
    except DomainError:  # zero inverted
        return
    I = ring.ideal(gens)
    assert _outcome(radical_membership, f, I) == _outcome(rabinowitsch_oracle, f, I)


def elimination_oracle(ring, gens, f):
    """The reduced basis of (gens, quotient) : f^infinity in k[vars]: the
    u-free part of a basis of (gens, quotient, 1 - u*f) under an order
    eliminating u.  It calls no ring or univariate code."""
    nv = ring.nvars + 1
    one = Polynomial.const(ring.field, nv, 1)
    u = Polynomial.var(ring.field, nv, 0)
    lifted = [g.lift(1) for g in list(gens) + list(ring.quotient)] + [one - u * f.lift(1)]
    return [g.drop_aux(1) for g in groebner_basis(lifted, BlockElim(1)) if not g.uses_aux(1)]


@settings(max_examples=150, deadline=None)
@given(radical_cases())
def test_canonical_basis_and_saturation_equal_elimination_oracle(case):
    """The canonical basis is (gens, quotient) : s^infinity with s the
    product of the inverted elements, and ``saturate(I, f)`` is generated
    by (gens, quotient) : f^infinity, with canonical basis the saturation
    by f*s; each is a reduced degrevlex basis, which Buchberger returns
    unchanged."""
    field, names, quotient, inverted, gens, f = case
    try:
        ring = PresentedRing(field, names, quotient, inverted)
    except DomainError:  # zero inverted
        return
    s = ring.one()
    for h in inverted:
        s = s * h
    I = ring.ideal(gens)
    bases = [(I.canonical_basis(), elimination_oracle(ring, gens, s))]
    if not f.is_zero():
        J = saturate(I, f)
        bases.append((J.generators, elimination_oracle(ring, gens, f)))
        bases.append((J.canonical_basis(), elimination_oracle(ring, gens, f * s)))
    for basis, oracle in bases:
        assert list(basis) == oracle
        assert groebner_basis(list(basis), DEGREVLEX) == list(basis)


def two_basis_oracle(f, I):
    """Radical membership on the path of two bases: the canonical basis of
    I (generators and quotient saturated by the inverted product), then
    that basis saturated by f; f is in the radical iff the result is (1)."""
    if f.is_zero():
        return True
    ring = I.ring
    canonical = elimination_oracle(ring, I.generators, ring.inverted_product())
    basis = elimination_oracle(ring, canonical, f)
    return len(basis) == 1 and basis[0].is_one()


@st.composite
def multivariate_radical_cases(draw):
    """Ideals in 2 or 3 variables over Q and F_7, in a plain ring, a ring
    with a quotient or a ring with an inverted element."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    nvars = draw(st.integers(2, 3))
    polys = _polys(field, nvars)
    kind = draw(st.sampled_from(["plain", "quotient", "inverted"]))
    quotient = (draw(polys),) if kind == "quotient" else ()
    inverted = (draw(polys.filter(lambda p: not p.is_zero())),) if kind == "inverted" else ()
    ring = PresentedRing(field, ("x", "y", "z")[:nvars], quotient, inverted)
    return ring.ideal(draw(st.lists(polys, max_size=3))), draw(polys)


@settings(max_examples=300, deadline=None)
@given(multivariate_radical_cases())
def test_radical_membership_equals_the_two_basis_path(case):
    I, f = case
    assert radical_membership(f, I) == two_basis_oracle(f, I)


_univariate = st.lists(st.integers(-3, 3), max_size=5)  # degree <= 4


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(5)]), _univariate, _univariate, _univariate,
       st.none() | _univariate)
def test_univariate_colon_and_intersection_equal_sympy(field, a, b, c, inverted):
    """In k[x], localized or not, with g and h the canonical generators of I
    and J, the colon (I : p) is (g / gcd(g, p)) and the intersection is
    (lcm(g, h)), each monic; the zero ideal has g = 0."""
    def poly(coeffs):
        return Polynomial(field, 1, {(i,): field.from_int(v) for i, v in enumerate(coeffs)})

    s = None if inverted is None else poly(inverted)
    ring = PresentedRing(field, ("x",), inverted=() if s is None or s.is_zero() else (s,))
    I, J, p = ring.ideal(poly(a)), ring.ideal(poly(b)), poly(c)

    def generator(K):
        basis = K.canonical_basis()
        return to_sympy(basis[0] if basis else ring.zero())

    def canonical(sp):
        return [] if sp.is_zero else [from_sympy(sp.monic(), field)]

    g, h = generator(I), generator(J)
    colon = canonical(g.exquo(g.gcd(to_sympy(p)))) if not p.is_zero() else [ring.one()]
    assert list(colon_ideal(I, p).canonical_basis()) == colon
    meet = ideal_combine("intersection", I, J)
    assert list(meet.canonical_basis()) == ([] if g.is_zero or h.is_zero
                                            else canonical(g.lcm(h)))


def intersection_by_elimination(field, gi, gj, budgets=DEFAULT_BUDGETS, nvars=1):
    """Generators of (gi) intersect (gj) in k[x_1..x_nvars]: the t-free part
    of a basis of t*(gi) + (1 - t)*(gj) under an order eliminating t."""
    t = Polynomial.var(field, nvars + 1, 0)
    one = Polynomial.const(field, nvars + 1, 1)
    lifted = [t * g.lift(1) for g in gi] + [(one - t) * g.lift(1) for g in gj]
    basis = groebner_basis(lifted, BlockElim(1), budgets)
    return [g.drop_aux(1) for g in basis if not g.uses_aux(1)]


def colon_by_elimination(I, p, budgets=DEFAULT_BUDGETS):
    """Generators of (I : p) for nonzero p: (I intersect (p)) / p."""
    meet = intersection_by_elimination(I.ring.field, I.canonical_basis(budgets), [p], budgets,
                                       I.ring.nvars)
    return [exact_divmod(g, p)[0] for g in meet]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(5)]), _univariate, _univariate, _univariate,
       st.none() | _univariate, st.none() | _univariate)
def test_univariate_intersection_and_colon_equal_elimination(field, a, b, c, inverted,
                                                             quotient):
    def poly(coeffs):
        return Polynomial(field, 1, {(i,): field.from_int(v) for i, v in enumerate(coeffs)})

    s = None if inverted is None else poly(inverted)
    ring = PresentedRing(field, ("x",),
                         quotient=() if quotient is None else (poly(quotient),),
                         inverted=() if s is None or s.is_zero() else (s,))
    I, J, p = ring.ideal(poly(a)), ring.ideal(poly(b)), poly(c)
    meet = ideal_combine("intersection", I, J)
    assert list(meet.generators) == intersection_by_elimination(
        field, I.canonical_basis(), J.canonical_basis())
    if not p.is_zero():
        # The colon is a handle on its reduced basis: the monic quotient.
        assert list(colon_ideal(I, p).generators) == [
            q.monic(DEGREVLEX) for q in colon_by_elimination(I, p)]


@settings(max_examples=150, deadline=None)
@given(multivariate_radical_cases())
def test_colon_inter_reduces_the_quotients_to_buchbergers_basis(case):
    """The quotients of the intersection's reduced basis by p are a Groebner
    basis of I : p, so inter-reducing them gives Buchberger's reduced basis
    of the elimination oracle's quotients, kept as the canonical basis."""
    I, p = case
    if p.is_zero():
        return
    out = colon_ideal(I, p)
    expected = groebner_basis(colon_by_elimination(I, p), DEGREVLEX)
    assert list(out.generators) == expected
    assert list(out.canonical_basis()) == expected


# (g, h) with g | h, h | g or gcd(g, h) = 1, and the zero ideal.
BUDGET_PIECES = ("0", "1", "x", "x^2", "x - 1", "(x - 1)^2", "x^2 + 2", "x^3 + x + 1")


def _outcome_of(compute):
    try:
        return list(compute())
    except ResourceBudgetError as exc:
        return exc.budget_name


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_univariate_degree_budget_refuses_where_elimination_does(field):
    """Over pairs of ideals whose generators divide one another or are
    coprime, intersections and colons refuse ``max_degree`` exactly where
    the elimination of the auxiliary variable does, for every budget from 0
    to 7, the largest degree a lifted generator reaches."""
    ring = PresentedRing(field, ("x",))
    pieces = [ring.parse(t) for t in BUDGET_PIECES]
    pairs = set()
    for u, v in itertools.product(pieces, repeat=2):
        pairs.update([(u, v), (u, u * v), (u * v, v)])
    for u, v in sorted(pairs, key=lambda pair: (str(pair[0].terms), str(pair[1].terms))):
        g, h = univar.gcd([u], field), univar.gcd([v], field)
        d = univar.gcd([g, h], field)
        assert d.is_one() or d in (g, h)
        I, J = ring.ideal(u), ring.ideal(v)
        for degree in range(0, 8):
            budgets = Budgets(max_degree=degree)
            assert _outcome_of(
                lambda: ideal_combine("intersection", I, J, budgets).generators
            ) == _outcome_of(
                lambda: intersection_by_elimination(field, I.canonical_basis(budgets),
                                                    J.canonical_basis(budgets), budgets))
            if not v.is_zero():
                assert _outcome_of(
                    lambda: colon_ideal(I, v, budgets).generators
                ) == _outcome_of(lambda: colon_by_elimination(I, v, budgets))


@pytest.mark.parametrize("budgets", [{"max_degree": 3}, {"max_pairs": 0}])
@pytest.mark.parametrize("payload,generators", [
    ({"op": "combine", "mode": "intersection", "left": ["x^2 - x"], "right": ["x^2 + x"]},
     ["x^3 - x"]),
    ({"op": "colon", "ideal": ["x^2 - x"], "element": "x^2 + x"}, ["x - 1"]),
])
def test_univariate_intersection_and_colon_need_no_elimination_budget(budgets, payload,
                                                                      generators):
    """x^2 - x and x^2 + x share the factor x and neither divides the other.
    Eliminating t from their lifts processes pairs and meets degree 4, so
    it exited 3 under either budget; the lcm x^3 - x has degree 3 and costs
    no pairs, so both jobs answer."""
    from noether.jobs import JobSpec, run_job

    report = run_job(JobSpec("ideal", payload, Budgets(**budgets)))
    assert report.exit_code == 0, report.result
    assert report.result["generators"] == generators


# -- the bases each answer runs, and the refusals that moved with them --------


def test_each_ideal_answer_runs_only_the_bases_it_needs(monkeypatch):
    """Radical membership in two or more variables runs one basis and keeps
    its answer; a saturation runs one, an intersection three (two canonical
    bases and the elimination) and then a colon of the same ideal one (the
    elimination: the ring keeps the canonical basis, and the quotients are
    only inter-reduced), and the handle built from each result has that
    result as its canonical basis, with no basis run."""
    from noether import rings

    calls = []
    basis = rings.groebner_basis

    def counted(*args, **kwargs):
        calls.append(args[1])
        return basis(*args, **kwargs)

    monkeypatch.setattr(rings, "groebner_basis", counted)
    plain = PresentedRing(QQ, ("x", "y"))
    localized = plain.with_inverted(plain.parse("x"))
    for R, member in ((plain, False), (localized, True)):
        I = R.ideal("x*y", "x^2")
        calls.clear()
        assert radical_membership(R.parse("y"), I) is member
        assert (len(calls), radical_membership(R.parse("y"), I), len(calls)) == (1, member, 1)
    work = {"saturate": lambda I: saturate(I, plain.parse("x")),
            "intersection": lambda I: ideal_combine("intersection", I, plain.ideal("y^2 - x")),
            "colon": lambda I: colon_ideal(I, plain.parse("y"))}
    for op, expected in (("saturate", 1), ("intersection", 3), ("colon", 1)):
        calls.clear()
        out = work[op](plain.ideal("x^2*y - x", "x*y^2"))
        assert len(calls) == expected, op
        assert out.canonical_basis() == out.generators
        assert len(calls) == expected, op


PIN_RING = {"field": "q", "vars": ["x", "y", "z"]}
PIN_RING_FP = {"field": "fp:32003", "vars": ["x", "y", "z"]}


@pytest.mark.parametrize("payload,codes", [
    # Radical membership runs one basis of (I, 1 - t*f), which processes
    # the pairs two bases split and meets the degree of 1 - t*f at once.
    # Each grid was [3333333, 3300000, 3300000, 3300000] ...
    ({"op": "radical-membership", "ring": PIN_RING, "ideal": ["-x + 7", "x*y - 9*y", "6*x*z - y"],
      "element": "y^2 - 7*y"}, ["3333333", "3330000", "3330000", "3330000"]),
    # ... [3000000] * 4 ...
    ({"op": "radical-membership", "ring": PIN_RING_FP,
      "ideal": ["6928*y^2 + 25176*y", "16997*y + 22629", "4236*x + 4464"],
      "element": "4236*x + 20809"}, ["3300000"] * 4),
    # ... [3111111] * 4 ...
    ({"op": "radical-membership", "ring": PIN_RING, "ideal": ["-8*x + z", "7*x*y + x*z", "z + 8"],
      "element": "-y + 8"}, ["3311111"] * 4),
    # ... and [3333333, 3333333, 3333311, 3333311]: where the canonical
    # basis alone met a degree past the budget, one basis may stay inside it.
    ({"op": "radical-membership", "ring": PIN_RING_FP,
      "ideal": ["19495*x*y + 9324*x", "7587*x + 24718*z^2", "27197*x*z + 4229*y^2"],
      "element": "28794*z + 2496"}, ["3333333", "3333311", "3333311", "3333311"]),
    # The intersection's canonical basis is the elimination's result, so
    # its pairs are not processed again under the budget.  The grid was
    # [3333333, 3333333, 3333300, 3333300].
    ({"op": "combine", "mode": "intersection", "ring": PIN_RING,
      "left": ["5*x*z - y", "4*x + z"], "right": ["z - 1", "x + 9*y*z"]},
     ["3333333", "3333300", "3333300", "3333300"]),
])
def test_tight_budgets_refuse_where_one_basis_does(payload, codes):
    """Exit codes on the grid max_degree 2, 3, 4, 6 (rows) by max_pairs 0, 1,
    2, 4, 8, 16, 32 (columns).  The comments give each grid from when
    radical membership ran a canonical basis and then an elimination basis,
    and a saturation or intersection's canonical basis ran Buchberger
    again."""
    grid = ["".join(str(run_job(JobSpec("ideal", payload, Budgets(max_pairs=pairs,
                                                                     max_degree=degree))).exit_code)
                    for pairs in (0, 1, 2, 4, 8, 16, 32))
            for degree in (2, 3, 4, 6)]
    assert grid == codes
