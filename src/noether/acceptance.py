"""The acceptance suite: eight exact, time-bounded checks.

Each criterion is a standalone function returning (passed, detail); the
suite runner wraps them with wall-clock measurement and includes the
per-criterion time limit in the verdict.  Randomized criteria use fixed
seeds so every run tests the same instances.
"""

from __future__ import annotations

import itertools
import random
import time
from math import comb
from typing import Callable, Dict, List, Sequence, Tuple

from .baer import (baer_chain, baer_step, baer_test, first_principles_injective,
                   injective_envelope_bruteforce)
from .cech import TwistData, twisted_cohomology_dims
from .config import Budgets, DEFAULT_BUDGETS, Record
from .digraph import (DigraphNode, IdealDigraph, ZZSheafData, digraph_oracle,
                      evaluate_sheaf, extract_digraph, extract_zz_digraph,
                      quasi_coherent_oracle, validate_digraph, zz_sheaf_value)
from .fields import GF, QQ
from .finite import (FiniteModule, all_homs, enumerate_ideals,
                     enumerate_submodules, free_module, gf_poly_quotient,
                     noetherian_witness, quotient_module, ring_as_module,
                     span, zero_module, zmod)
from .poly import Polynomial
from .rings import IdealHandle, PresentedRing, ideal_equal, ideal_membership
from .topology import DistinguishedOpen, FiniteSpace, coordinate_ring
from .tower import run_tower_suite, tower_ring


class AcceptanceResult(Record):
    def __init__(self, name: str, passed: bool, detail: str, seconds: float, limit: float):
        self.name = name
        self.passed = passed
        self.detail = detail
        self.seconds = seconds
        self.limit = limit


# ---------------------------------------------------------------------------
# 1. Groebner membership vs. brute-force combination enumeration over F2
# ---------------------------------------------------------------------------

# A window of degree pdeg + 8 misses members.  With f = 1 + u,
# u = x^2*y + y^2 and g = f + y^3, 1 lies in <f, g> with no certificate
# below degree 9: 1 = f*(1 + u + u^2) + (f + g)*(x^2 + y)^3, as u^3 =
# y^3*(x^2 + y)^3.  The slack is twice the Bezout number 3*3 of two cubics.
ORACLE_SLACK = 2 * 3 * 3


def _f2_combination_member(p: Polynomial, gens: Sequence[Polynomial],
                           max_degree: int) -> bool:
    """Membership by GF(2) linear algebra over all monomial multiples of the
    generators up to the degree window (brute-force combination search)."""
    monos = [(i, j) for i in range(max_degree + 1)
             for j in range(max_degree + 1 - i)]
    index = {m: k for k, m in enumerate(monos)}

    def mask(poly: Polynomial) -> int:
        out = 0
        for m, c in poly.terms.items():
            if c % 2:
                out |= 1 << index[m]
        return out

    rows = []
    for g in gens:
        gdeg = max(sum(m) for m in g.terms) if not g.is_zero() else 0
        for m in monos:
            if sum(m) + gdeg > max_degree:
                continue
            shifted = Polynomial(p.field, 2,
                                 {(m[0] + a, m[1] + b): c
                                  for (a, b), c in g.terms.items()})
            rows.append(mask(shifted))
    target = mask(p)
    # Gaussian elimination on bitmasks.
    pivots: Dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top in pivots:
                row ^= pivots[top]
            else:
                pivots[top] = row
                break
    while target:
        top = target.bit_length() - 1
        if top not in pivots:
            return False
        target ^= pivots[top]
    return True


def criterion_1(budgets: Budgets = DEFAULT_BUDGETS) -> Tuple[bool, str]:
    rng = random.Random(20250826)
    F2 = GF(2)
    ring = PresentedRing(F2, ("x", "y"))
    monos3 = [(i, j) for i in range(4) for j in range(4 - i)]

    def random_poly(max_terms: int) -> Polynomial:
        terms = {}
        for m in rng.sample(monos3, rng.randint(1, max_terms)):
            terms[m] = 1
        return Polynomial(F2, 2, terms)

    instances = 1000
    mismatches = 0
    for _ in range(instances):
        gens = [random_poly(4) for _ in range(rng.randint(1, 3))]
        p = random_poly(5)
        handle = ring.ideal(gens)
        via_basis = ideal_membership(p, handle, budgets)
        pdeg = max(sum(m) for m in p.terms)
        via_oracle = _f2_combination_member(
            p, gens, max_degree=pdeg + ORACLE_SLACK)
        if via_basis != via_oracle:
            mismatches += 1
    return mismatches == 0, f"{instances} instances, {mismatches} mismatches"


# ---------------------------------------------------------------------------
# 2. Noetherian equivalences over Z/n
# ---------------------------------------------------------------------------

def _divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def criterion_2(budgets: Budgets = DEFAULT_BUDGETS) -> Tuple[bool, str]:
    for n in range(2, 65):
        R = zmod(n)
        ideals = enumerate_ideals(R, budgets)
        if len(ideals) != _divisor_count(n):
            return False, f"Z/{n}: {len(ideals)} ideals vs {_divisor_count(n)} divisors"
        report = noetherian_witness(R, ideals, budgets)
        if not report.ok:
            return False, f"Z/{n}: noetherian witness failed"
        if report.max_strict_chain > _divisor_count(n):
            return False, f"Z/{n}: chain longer than the divisor count"
    return True, "all n <= 64: ideal count = divisor count, maximal elements exist"


# ---------------------------------------------------------------------------
# 3. Digraph round trip
# ---------------------------------------------------------------------------

def _oracle_matches(d: IdealDigraph, oracle, basis,
                    budgets: Budgets) -> bool:
    opens = list(basis)
    for a, b in itertools.combinations(basis, 2):
        opens.append(DistinguishedOpen(d.ring, a.f * b.f))
    for u in opens:
        if u.is_empty(budgets):
            continue
        ru = coordinate_ring(u, budgets)
        ours = IdealHandle(ru, evaluate_sheaf(d, u, budgets).generators)
        theirs = IdealHandle(ru, tuple(oracle.query(u)))
        if not ideal_equal(ours, theirs, budgets):
            return False
    return True


def criterion_3(budgets: Budgets = DEFAULT_BUDGETS) -> Tuple[bool, str]:
    rng = random.Random(20250827)
    ring = PresentedRing(QQ, ("x",))

    def random_poly(max_deg: int) -> Polynomial:
        deg = rng.randint(0, max_deg)
        terms = {(deg,): QQ.from_int(1)}
        for k in range(deg):
            c = rng.randint(-3, 3)
            if c:
                terms[(k,)] = QQ.from_int(c)
        return Polynomial(QQ, 1, terms)

    for trial in range(20):
        I = ring.ideal(random_poly(6))
        basis = []
        seen = set()
        while len(basis) < rng.randint(2, 6):
            f = random_poly(2)
            key = ring.render(f)
            if f.is_zero() or key in seen:
                continue
            seen.add(key)
            basis.append(DistinguishedOpen(ring, f))
        oracle = quasi_coherent_oracle(I, basis, budgets)
        d = extract_digraph(oracle, budgets)
        if len(d.nodes) != 1:
            return False, f"trial {trial}: quasi-coherent extraction not root-only"
        check = quasi_coherent_oracle(I, basis, budgets)
        if not _oracle_matches(d, check, basis, budgets):
            return False, f"trial {trial}: round trip mismatch"

    g0, basis0 = _g0_example(ring)
    oracle = digraph_oracle(g0, basis0, budgets)
    d = extract_digraph(oracle, budgets)
    if len(d.nodes) != 2:
        return False, f"G0 extraction returned {len(d.nodes)} nodes"
    if not _oracle_matches(d, digraph_oracle(g0, basis0, budgets), basis0, budgets):
        return False, "G0 round trip mismatch"
    return True, "20 quasi-coherent round trips root-only; G0 gives 2 nodes"


def _g0_example(ring: PresentedRing):
    x = ring.var("x")
    d1 = DistinguishedOpen(ring, ring.one())
    dx = DistinguishedOpen(ring, x)
    g0 = IdealDigraph(ring,
                      (DigraphNode(d1, ()), DigraphNode(dx, (ring.one(),))),
                      ((0, 1),), 0)
    basis = [dx, DistinguishedOpen(ring, ring.parse("x-1")),
             DistinguishedOpen(ring, ring.parse("x*(x-1)"))]
    return g0, basis


# ---------------------------------------------------------------------------
# 4. Digraph validation verdicts
# ---------------------------------------------------------------------------

def criterion_4(budgets: Budgets = DEFAULT_BUDGETS) -> Tuple[bool, str]:
    ring = PresentedRing(QQ, ("x",))
    x = ring.var("x")
    d1 = DistinguishedOpen(ring, ring.one())
    dx = DistinguishedOpen(ring, x)

    solo = IdealDigraph(ring, (DigraphNode(d1, (x,)),), (), 0)
    if not validate_digraph(solo, budgets).valid:
        return False, "root-only digraph rejected"

    g0, _ = _g0_example(ring)
    if not validate_digraph(g0, budgets).valid:
        return False, "G0 rejected"

    bad = IdealDigraph(ring,
                       (DigraphNode(d1, (x,)), DigraphNode(dx, (ring.one(),))),
                       ((0, 1),), 0)
    report = validate_digraph(bad, budgets)
    if report.valid or report.increasing_ok:
        return False, "increasing violation not detected"
    if report.witnesses.get("increasing") != [(0, 1)]:
        return False, f"wrong witness: {report.witnesses}"
    return True, "three verdicts and the edge witness all exact"


# ---------------------------------------------------------------------------
# 5. Z-constant-sheaf analog on all small connected posets
# ---------------------------------------------------------------------------

def _all_posets(n: int) -> List[FiniteSpace]:
    """All partial orders on n labeled points, as finite spaces: every set
    of strict pairs that is antisymmetric and transitive."""
    points = list(range(n))
    pairs = [(a, b) for a in points for b in points if a != b]
    out = []
    for bits in range(1 << len(pairs)):
        rel = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
        if all((b, a) not in rel and all((a, d) in rel for c, d in rel if c == b)
               for a, b in rel):
            out.append(FiniteSpace(points, sorted(rel)))
    return out


def _assignments(opens: List, values: Sequence[int]):
    """All restriction-law-compatible assignments, by backtracking over the
    opens in increasing size (n_U | n_V required whenever U is inside V)."""
    order = sorted(opens, key=lambda s: (len(s), sorted(s)))
    related = [[j for j in range(i) if order[j] < order[i]]
               for i in range(len(order))]

    def divides(a: int, b: int) -> bool:
        return b % a == 0 if a else b == 0

    chosen: List[int] = []

    def rec(i: int):
        if i == len(order):
            yield dict(zip(order, chosen))
            return
        for v in values:
            if all(divides(chosen[j], v) for j in related[i]):
                chosen.append(v)
                yield from rec(i + 1)
                chosen.pop()

    yield from rec(0)


def criterion_5(budgets: Budgets = DEFAULT_BUDGETS) -> Tuple[bool, str]:
    values = (0, 1, 2, 4, 8)
    posets = 0
    assignments = 0
    for n in range(1, 5):
        for space in _all_posets(n):
            whole = space.whole()
            if not space.connected(whole):
                continue
            posets += 1
            opens = space.connected_opens()
            for assign in _assignments(opens, values):
                assignments += 1
                data = ZZSheafData(space, assign)
                d = extract_zz_digraph(data)
                for U in opens:
                    if zz_sheaf_value(d, U) != assign[frozenset(U)]:
                        return False, (f"regeneration failed on a {n}-point "
                                       f"poset, open {sorted(U)}")
    return True, f"{posets} connected posets, {assignments} assignments regenerated"


# ---------------------------------------------------------------------------
# 6. Cech dimensions on projective space
# ---------------------------------------------------------------------------

def criterion_6(budgets: Budgets = DEFAULT_BUDGETS) -> Tuple[bool, str]:
    for n in range(1, 4):
        for d in range(0, 6):
            dims = twisted_cohomology_dims(TwistData(n, d))
            if dims[0] != comb(n + d, n):
                return False, f"H0(P{n}, O({d})) = {dims[0]}"
            if any(dims[i] for i in range(1, n + 1)):
                return False, f"nonzero higher cohomology at n={n}, d={d}"
        for d in range(1, 9):
            dims = twisted_cohomology_dims(TwistData(n, -d))
            if dims[n] != comb(d - 1, n):
                return False, f"H{n}(P{n}, O(-{d})) = {dims[n]}"
            if any(dims[i] for i in range(n)):
                return False, f"nonzero lower cohomology at n={n}, d=-{d}"
    for d in range(-8, 9):
        dims = twisted_cohomology_dims(TwistData(1, d))
        if dims[0] - dims[1] != d + 1:
            return False, f"Euler identity fails on P1 at d={d}"
    return True, "H0/Hn formulas, middle vanishing, and P1 Euler identity exact"


# ---------------------------------------------------------------------------
# 7. Baer suite
# ---------------------------------------------------------------------------

def _test_modules(R, budgets: Budgets) -> List[FiniteModule]:
    """Quotients of R (all of them) plus R^2 itself, sizes <= 16."""
    base = ring_as_module(R)
    out = [zero_module(R), base]
    for sub in enumerate_submodules(base, budgets):
        if 1 < len(sub) < base.size:
            out.append(quotient_module(base, sub, name="R/N"))
    square = free_module(R, 2)
    if square.size <= 16:
        out.append(square)
    return out


def criterion_7(budgets: Budgets = DEFAULT_BUDGETS) -> Tuple[bool, str]:
    rings = [zmod(4), gf_poly_quotient(2, [0, 0, 1])]
    for R in rings:
        ambient = [free_module(R, 1), free_module(R, 2)]
        for M in _test_modules(R, budgets):
            via_baer = baer_test(M, budgets).injective
            via_def = first_principles_injective(M, ambient, budgets)
            if via_baer != via_def:
                return False, (f"{R.name}: criterion disagrees with "
                               f"first principles on {M.name} (size {M.size})")

    R4 = zmod(4)
    step = baer_step(zero_module(R4), budgets)  # postconditions verified inside
    if step.size != 8:
        return False, f"baer_step(0 over Z/4) has size {step.size}"

    two = free_module(R4, 1)
    z2 = quotient_module(two, span(two, [(2,)]), name="Z/2")
    chain = baer_chain(z2, 2, budgets)
    if chain.stalled_at is not None:
        return False, f"K=2 chain stalled at stage {chain.stalled_at}"

    env = injective_envelope_bruteforce(z2, budgets)
    if env is None or env.size != 4:
        return False, "envelope of Z/2 over Z/4 is not Z/4"
    iso = any(len(set(g.values())) == 4 for g in all_homs(env, ring_as_module(R4)))
    if not iso:
        return False, "envelope of Z/2 is not isomorphic to Z/4"
    return True, "criterion = definition on both rings; step size 8; chain and envelope exact"


# ---------------------------------------------------------------------------
# 8. Etale tower
# ---------------------------------------------------------------------------

def criterion_8(budgets: Budgets = DEFAULT_BUDGETS) -> Tuple[bool, str]:
    """The known outcome of the depth-6 tower under both exponent rules.

    The power rule is the tower: every check passes and the chain
    (x^64 - 1) ⊊ ... ⊊ (x - 1) is strict.  The literal rule cannot pass:
    squaring sends the unit x^4 - 2 of level 2 to x^8 - 2, and a root a of
    it would make a^(8-2j) = 1 for an inverted x^(2j) - 2 of level 3, so
    x^8 - 2 is no unit there.  Its first failing cover map is therefore the
    one into level 3, with that witness, while its strictness and
    maximality checks still pass.  Its chain is strict over Q but collapses
    over F5: there x^4 + 1 = (x^2 - 2)(x^2 - 3) with x^2 - 3 dividing the
    inverted x^6 - 2, and x^8 + 1 = (x^4 - 2)(x^4 - 3) with x^4 - 3 dividing
    the inverted x^12 - 2, so (x^16 - 1) = (x^8 - 1) = (x^4 - 1) at level 6.
    """
    N = 6
    failures = []
    for field, literal_chain_strict in ((QQ, True), (GF(5), False)):
        name = field.describe()
        power = run_tower_suite(N, field, "power", budgets)
        if not power.ok:
            failures.append(f"{name}/power fails at level "
                            f"{power.failing_level()}")

        literal = run_tower_suite(N, field, "literal", budgets)
        ring3 = tower_ring(3, field, "literal", budgets).ring
        witness = ring3.render(ring3.parse("x^8 - 2", budgets))
        first = next((r for r in literal.cover_maps if not r.ok), None)
        if first is None:
            failures.append(f"{name}/literal cover maps all pass")
        elif (first.target, first.well_defined, first.etale,
              first.compatible, first.witness) != (3, False, True, True,
                                                   witness):
            failures.append(f"{name}/literal first fails at {first.as_dict()}"
                            f", expected level 3 with witness {witness}")
        if not all(r.ok for r in literal.strictness + literal.maximality):
            failures.append(f"{name}/literal strictness or maximality fails")
        if literal.chain_strict != literal_chain_strict:
            failures.append(f"{name}/literal chain_strict is "
                            f"{literal.chain_strict}")
    if failures:
        return False, "failed: " + "; ".join(failures)
    return True, ("N=6: power passes over Q and F5; literal first fails at "
                  "level 3 (x^8 - 2 is no unit; x^8 + 3 over F5); the F5 "
                  "literal chain collapses, (x^16 - 1) = (x^8 - 1) = (x^4 - 1)")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

CRITERIA: List[Tuple[str, Callable[[Budgets], Tuple[bool, str]], float]] = [
    ("1 groebner-oracle-equivalence", criterion_1, 60.0),
    ("2 noetherian-equivalences", criterion_2, 10.0),
    ("3 digraph-round-trip", criterion_3, 120.0),
    ("4 digraph-invariants", criterion_4, 120.0),
    ("5 zz-sheaf-analog", criterion_5, 30.0),
    ("6 cech-dimensions", criterion_6, 60.0),
    ("7 baer-suite", criterion_7, 120.0),
    ("8 etale-tower", criterion_8, 120.0),
]


def run_acceptance(budgets: Budgets = DEFAULT_BUDGETS) -> List[AcceptanceResult]:
    results = []
    for name, func, limit in CRITERIA:
        started = time.perf_counter()
        try:
            passed, detail = func(budgets)
        except Exception as exc:  # a crash is a failure with the reason
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        if passed and seconds > limit:
            passed = False
            detail += f" (exceeded {limit:.0f} s limit)"
        results.append(AcceptanceResult(name, passed, detail, seconds, limit))
    return results
