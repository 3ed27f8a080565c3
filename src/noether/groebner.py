"""Buchberger's algorithm with explicit resource budgets.

Produces reduced (monic, auto-reduced) Groebner bases, which are unique for
a given ideal and monomial order; ``interreduce`` runs only the final steps
on a list that is already a Groebner basis.

* Leading monomials are computed once per basis element and kept in a
  ``leads`` list beside the basis.  Each input is normalized straight into
  its form (see below) and deduplicated on it; each returned polynomial is
  built from its form and records its leading monomial for the order, the
  form's first key.
* Pairs wait in a heap under the normal selection strategy: each gets its
  key (degree of the lcm, order key of the lcm, i, j) once, when created.
* The Gebauer-Moeller update (Gebauer & Moeller 1988, "On an installation
  of Buchberger's algorithm") prunes pairs when a new element arrives:
  among the new pairs it keeps one per minimal lcm and drops those with
  coprime leading monomials, and it drops old pairs whose lcm the new
  leading monomial divides strictly.  Elements whose leading monomial the
  new one divides stop serving as reducers.
* Division is one loop, ``_reduce``, for both fields.  It reduces into one
  dict, with a heap of the order's heap keys (its keys negated, as
  ``MonomialOrder.heap_key`` builds them) giving the next leading term.
  Under a graded order only the input's degrees are checked against
  ``max_degree``: every new term lies below the popped one.
  It is fraction-free (Arnold 2003, "Modular algorithms for computing
  Groebner bases"): it divides integer polynomials, over Q primitive ones
  and over F_p ones with coefficients in ``range(p)``, reduced mod ``p``
  when popped.  Like ``_s_polynomial``, it takes the field as ``p``: the
  characteristic, 0 over Q.  Invariant: its remainder is a nonzero
  multiple of the exact one, reached through the same reducers, so bases,
  pairs and zero tests are those of exact division.  Each basis element is
  kept in that normalized form until the end; ``normal_form`` divides by
  the tracked scale.
* Each reducer multiple q*g is built once per ``groebner_basis`` call, in a
  table per element (by index, never by lead) keyed by q, shared by the pair
  loop and the final auto-reduction and dropped with the call; a reduced
  member gets a new table.  Products enter the division, and have their
  degrees checked, as without it, so refusals do not move.

Budgets (`max_pairs`, `max_degree`) fail loudly instead of hanging.
"""

from __future__ import annotations

from fractions import Fraction
import math
from heapq import heapify, heappop, heappush
from math import gcd
from typing import List

from .config import Budgets, DEFAULT_BUDGETS
from .errors import ResourceBudgetError
from .poly import (
    MonomialOrder,
    Polynomial,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


def normal_form(
    p: Polynomial,
    basis: List[Polynomial],
    order: MonomialOrder,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Polynomial:
    """Remainder of multivariate division of ``p`` by ``basis``.

    Each step cancels the leading term of what is left with the first basis
    element whose leading monomial divides it, or moves the term to the
    remainder.  Raises ``max_degree`` as soon as a term of larger degree
    appears (lex and elimination orders can grow degree while reducing).
    The exact remainder is the normalized one divided by its tracked scale.
    """
    if p.is_zero():
        return p
    F = p.field
    remainder, scale = _divide(p, basis, order, budgets)
    inv = F.inv(scale)
    return Polynomial(F, p.nvars, {m: F.mul(c, inv) for m, c in remainder.items()})


def reduces_to_zero(p: Polynomial, basis: List[Polynomial], order: MonomialOrder,
                    budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """True iff ``normal_form(p, basis, order)`` is zero; the remainder is
    not made exact, since a nonzero multiple of it decides."""
    return p.is_zero() or not _divide(p, basis, order, budgets)[0]


def _divide(p: Polynomial, basis: List[Polynomial], order: MonomialOrder, budgets: Budgets):
    """``(remainder, scale)``: the normalized remainder of ``p`` by
    ``basis`` (see ``_reduce``), ``scale`` times the exact one."""
    F = p.field
    terms, scale = _form(p.terms, F)
    reducers = [(g.leading_monomial(order), _form(g.terms, F)[0], {})
                for g in basis if not g.is_zero()]
    remainder, r_scale = _reduce(terms, reducers, order, budgets.max_degree, F.p)
    return remainder, scale * r_scale


def _form(terms, F):
    """``(form, scale)``: over Q the primitive integer multiple ``scale *
    terms`` of rational ``terms``; over F_p ``terms`` itself and 1."""
    if F.p:
        return terms, 1
    den = math.lcm(*(c.denominator for c in terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    content = gcd(*ints.values())
    return {m: v // content for m, v in ints.items()}, Fraction(den, content)


def _reduce(terms, reducers, order: MonomialOrder, max_degree: int, p: int, monomials=None):
    """Fraction-free division of integer ``terms`` by integer ``reducers``,
    given as ``(leading monomial, terms, multiples)``, over Z/p (``p`` prime)
    or over Q (``p`` zero); returns ``(remainder, scale)``.  ``multiples``
    maps q to q*g's monomials, None for the lead, interned in ``monomials``.

    Each step takes the reducer exact division takes and computes
    ``a*work - b*q*g`` with ``a = lc(g)/e``, ``b = lc(work)/e``, ``e =
    gcd(lc(work), lc(g))``; the remainder so far is multiplied by ``a`` too.
    Over F_p coefficients are reduced mod ``p`` only when their term is
    popped, and ``a`` is 1 for monic reducers.  So a coefficient is zero
    exactly when the exact one is (the degree budget raises at the same
    term), and the remainder is ``scale`` times the exact one, leading term
    first: primitive with a positive leading coefficient over Q, monic over
    F_p.
    """
    if any(mono_deg(m) > max_degree for m in terms):
        raise ResourceBudgetError("max_degree", max_degree)
    key = order.heap_key
    # Under a graded order a new term q*t lies below the popped lm = q*gm,
    # so its degree is no higher than a degree already checked.
    check = not order.graded
    # Cancelled terms stay in ``work`` as zeros, so a monomial enters the
    # heap (and has its key computed) at most once.
    work = dict(terms)
    heap = [(key(m), m) for m in work]
    heapify(heap)
    remainder = {}
    scale = 1
    share = ({} if monomials is None else monomials).setdefault
    while heap:
        lm = heappop(heap)[1]
        lc = work.pop(lm)
        if p:
            lc %= p
        if not lc:
            continue
        for gm, gterms, multiples in reducers:
            if mono_divides(gm, lm):
                break
        else:
            remainder[lm] = lc
            continue
        gc = gterms[gm]
        e = gcd(lc, gc)
        a, b = gc // e, lc // e
        if a != 1:
            scale *= a
            work = {m: a * v for m, v in work.items()}
            remainder = {m: a * v for m, v in remainder.items()}
        q = mono_div(lm, gm)
        tail = multiples.get(q)
        if tail is None:
            tail = multiples[q] = tuple([None if t is gm else share(m := mono_mul(q, t), m)
                                          for t in gterms])
        for m, v in zip(tail, gterms.values()):
            if m is None:
                continue
            if m in work:
                work[m] -= b * v
            else:
                if check and mono_deg(m) > max_degree:
                    raise ResourceBudgetError("max_degree", max_degree)
                work[m] = -b * v
                heappush(heap, (key(m), m))
    if not remainder:
        return remainder, scale
    lc = next(iter(remainder.values()))
    if p:
        inv = pow(lc, -1, p)
        return {m: v * inv % p for m, v in remainder.items()}, scale * inv % p
    content = gcd(*remainder.values())
    if lc < 0:
        content = -content
    return {m: v // content for m, v in remainder.items()}, Fraction(scale, content)


def _s_polynomial(f, fm, g, gm, lcm, p: int):
    """Fraction-free S-polynomial of the forms ``f`` and ``g``:
    ``(cg/e)*(lcm/fm)*f - (cf/e)*(lcm/gm)*g``, where ``cf`` and ``cg`` are
    their leading coefficients and ``e = gcd(cf, cg)``, a nonzero multiple
    of the S-polynomial of the monic elements.  Over F_p (``p`` nonzero)
    the forms are monic and the result is reduced mod ``p``."""
    cf, cg = f[fm], g[gm]
    e = gcd(cf, cg)
    a, b = cg // e, cf // e
    qf, qg = mono_div(lcm, fm), mono_div(lcm, gm)
    s = {mono_mul(qf, t): a * v for t, v in f.items() if t is not fm}
    for t, v in g.items():
        if t is not gm:
            m = mono_mul(qg, t)
            s[m] = s.get(m, 0) - b * v
    if p:
        return {m: v % p for m, v in s.items() if v % p}
    return {m: v for m, v in s.items() if v}


def groebner_basis(
    gens: List[Polynomial],
    order: MonomialOrder,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> List[Polynomial]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    The zero ideal yields the empty list; the unit ideal yields ``[1]``.
    Output is sorted by decreasing leading monomial so the reduced basis is
    a canonical value usable for ideal-equality decisions.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    max_degree = budgets.max_degree
    if any(g.total_degree() > max_degree for g in gens):
        raise ResourceBudgetError("max_degree", max_degree)
    F = gens[0].field

    # Each element is kept as a form (see ``_reduce``): its primitive
    # integer multiple with a positive leading coefficient over Q, its monic
    # multiple mod p over F_p.  A remainder lists its leading term first.
    members = []  # members[i] is (leading monomial, form, multiples) of element i
    leads = []  # leads[i] is its leading monomial, a key of its form
    active: List[int] = []  # element indices still used as reducers
    pairs = []  # heap of (deg lcm, order key of lcm, i, j, lcm)
    monomials = {}  # see ``_reduce``

    def update(hm, h) -> None:
        """Add the form ``h`` with leading monomial ``hm`` and its pairs to
        the queue (Gebauer-Moeller)."""
        new = len(members)
        members.append((hm, h, {}))
        leads.append(hm)
        candidates = [(mono_lcm(leads[k], hm), k) for k in active]
        # Criterion M: of the new pairs, keep one per minimal lcm (the last
        # of equal ones); a coprime pair is kept here, so that it still
        # screens the pairs it covers, and dropped by criterion F below.
        kept = []
        for n, (lcm, k) in enumerate(candidates):
            coprime = lcm == mono_mul(leads[k], hm)
            if coprime or not (
                any(mono_divides(other, lcm) for other, _ in candidates[n + 1:])
                or any(mono_divides(other, lcm) for other, _, _ in kept)
            ):
                kept.append((lcm, k, coprime))
        # Criterion B: an old pair whose lcm hm divides, with both of its
        # pairs with h having a different lcm, is covered by those two.
        survivors = [
            entry for entry in pairs
            if not mono_divides(hm, entry[4])
            or mono_lcm(leads[entry[2]], hm) == entry[4]
            or mono_lcm(leads[entry[3]], hm) == entry[4]
        ]
        if len(survivors) < len(pairs):
            pairs[:] = survivors
            heapify(pairs)
        for lcm, k, coprime in kept:
            if not coprime:
                heappush(pairs, (mono_deg(lcm), order.key(lcm), k, new, lcm))
        active[:] = [k for k in active if not mono_divides(hm, leads[k])]
        active.append(new)

    seen = set()
    for g in gens:
        hm, h = _member(g, order)
        distinct = frozenset(h.items())
        if distinct not in seen:
            seen.add(distinct)
            update(hm, h)

    processed = 0
    while pairs:
        processed += 1
        if processed > budgets.max_pairs:
            raise ResourceBudgetError("max_pairs", budgets.max_pairs)
        _, _, i, j, lcm = heappop(pairs)
        s = _s_polynomial(members[i][1], leads[i], members[j][1], leads[j], lcm, F.p)
        h = _reduce(s, [members[k] for k in active], order, max_degree, F.p, monomials)[0]
        if h:
            update(next(iter(h)), h)

    # Active leading monomials are distinct: a new one retires those it divides.
    return _reduced([members[k] for k in active], order, F, max_degree)


def interreduce(basis: List[Polynomial], order: MonomialOrder,
                budgets: Budgets = DEFAULT_BUDGETS) -> List[Polynomial]:
    """Reduced basis of the ideal of ``basis``, a Groebner basis for ``order``
    with distinct leading monomials: ``groebner_basis``'s last steps alone."""
    members = [(*_member(g, order), {}) for g in basis if not g.is_zero()]
    return _reduced(members, order, basis[0].field, budgets.max_degree) if members else []


def _member(g: Polynomial, order: MonomialOrder):
    """``(leading monomial, form)`` of a nonzero ``g``; see ``groebner_basis``."""
    F, hm = g.field, g.leading_monomial(order)
    if F.p:
        inv = pow(g.terms[hm], -1, F.p)
        return hm, {m: v * inv % F.p for m, v in g.terms.items()}
    h = _form(g.terms, F)[0]
    return hm, (h if h[hm] > 0 else {m: -v for m, v in h.items()})


def _reduced(members, order: MonomialOrder, F, max_degree: int) -> List[Polynomial]:
    """Reduced basis from the members (leading monomial, form, multiples) of a basis."""
    # Minimalize: drop members whose leading monomial another's divides.
    members = [(hm, h, t) for i, (hm, h, t) in enumerate(members)
               if not any(j != i and mono_divides(gm, hm) for j, (gm, _, _) in enumerate(members))]
    # Auto-reduce: leading monomials never change, so one pass of replacing
    # each member by its remainder against the others suffices; a member
    # whose lower terms no leading monomial divides is its own remainder.
    heads = [member[0] for member in members]
    for i, (hm, h, _) in enumerate(members):
        if any(mono_divides(gm, m) for m in h if m != hm for gm in heads):
            h = _reduce(h, members[:i] + members[i + 1:], order, max_degree, F.p)[0]
            members[i] = (hm, h, {})
    members.sort(key=lambda member: order.heap_key(member[0]))
    basis = []
    for hm, h, _ in members:
        g = Polynomial(F, len(hm), h if F.p else {m: Fraction(v, h[hm]) for m, v in h.items()})
        g._lead = (order, hm)
        basis.append(g)
    return basis
