"""Buchberger's algorithm with explicit resource budgets.

Produces reduced (monic, auto-reduced) Groebner bases, which are unique for
a given ideal and monomial order.

* Leading monomials are computed once per basis element (memoized on the
  ``Polynomial``, and kept in a ``leads`` list beside the basis).
* Pairs wait in a heap under the normal selection strategy: each gets its
  key (degree of the lcm, order key of the lcm, i, j) once, when created.
* The Gebauer-Moeller update (Gebauer & Moeller 1988, "On an installation
  of Buchberger's algorithm") prunes pairs when a new element arrives:
  among the new pairs it keeps one per minimal lcm and drops those with
  coprime leading monomials, and it drops old pairs whose lcm the new
  leading monomial divides strictly.  Elements whose leading monomial the
  new one divides stop serving as reducers.
* ``normal_form`` reduces into one dict, with a heap of negated order keys
  giving the next leading term.

Budgets (`max_pairs`, `max_degree`) fail loudly instead of hanging.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List

from .config import Budgets, DEFAULT_BUDGETS
from .errors import ResourceBudgetError
from .poly import (
    MonomialOrder,
    Polynomial,
    descending,
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
    """
    if p.is_zero():
        return p
    max_degree = budgets.max_degree
    if p.total_degree() > max_degree:
        raise ResourceBudgetError("max_degree", max_degree)
    F = p.field
    key = order.key
    lead = [(g.leading_monomial(order), g.terms) for g in basis if not g.is_zero()]
    # Cancelled terms stay in ``work`` as zeros, so a monomial enters the
    # heap (and has its key computed) at most once.
    work = dict(p.terms)
    heap = [(descending(key(m)), m) for m in work]
    heapify(heap)
    remainder = {}
    while heap:
        lm = heappop(heap)[1]
        lc = work.pop(lm)
        if not lc:
            continue
        for gm, gterms in lead:
            if mono_divides(gm, lm):
                break
        else:
            remainder[lm] = lc
            continue
        q = mono_div(lm, gm)
        c = F.div(lc, gterms[gm])
        for t, v in gterms.items():
            if t is gm:
                continue
            m = mono_mul(q, t)
            if m in work:
                work[m] = F.sub(work[m], F.mul(c, v))
            else:
                if mono_deg(m) > max_degree:
                    raise ResourceBudgetError("max_degree", max_degree)
                work[m] = F.neg(F.mul(c, v))
                heappush(heap, (descending(key(m)), m))
    return Polynomial(F, p.nvars, remainder)


def _s_polynomial(f: Polynomial, fm, g: Polynomial, gm, lcm) -> Polynomial:
    F = f.field
    left = f.mul_term(mono_div(lcm, fm), F.inv(f.terms[fm]))
    right = g.mul_term(mono_div(lcm, gm), F.inv(g.terms[gm]))
    return left - right


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
    for g in gens:
        if g.total_degree() > budgets.max_degree:
            raise ResourceBudgetError("max_degree", budgets.max_degree)

    basis: List[Polynomial] = []
    leads = []  # leads[i] is the leading monomial of basis[i]
    active: List[int] = []  # basis indices still used as reducers
    pairs = []  # heap of (deg lcm, order key of lcm, i, j, lcm)

    def update(h: Polynomial) -> None:
        """Add ``h`` to the basis and its pairs to the queue (Gebauer-Moeller)."""
        new = len(basis)
        hm = h.leading_monomial(order)
        basis.append(h)
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
        g = g.monic(order)
        if g not in seen:
            seen.add(g)
            update(g)

    processed = 0
    while pairs:
        processed += 1
        if processed > budgets.max_pairs:
            raise ResourceBudgetError("max_pairs", budgets.max_pairs)
        _, _, i, j, lcm = heappop(pairs)
        s = _s_polynomial(basis[i], leads[i], basis[j], leads[j], lcm)
        s = normal_form(s, [basis[k] for k in active], order, budgets)
        if not s.is_zero():
            update(s.monic(order))

    return _reduce_basis([basis[k] for k in active], order, budgets)


def _reduce_basis(basis: List[Polynomial], order: MonomialOrder, budgets: Budgets) -> List[Polynomial]:
    # Minimalize: drop members whose leading monomial another's divides (the
    # leading monomials of the active elements are distinct, since adding an
    # element retires every one whose leading monomial it divides).
    lead = [g.leading_monomial(order) for g in basis]
    reduced = [g for i, g in enumerate(basis)
               if not any(j != i and mono_divides(m, lead[i]) for j, m in enumerate(lead))]
    # Auto-reduce: leading monomials never change, so one pass of replacing
    # each member by its normal form against the others suffices.
    for i in range(len(reduced)):
        others = reduced[:i] + reduced[i + 1:]
        reduced[i] = normal_form(reduced[i], others, order, budgets).monic(order)
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)), reverse=True)
    return reduced
