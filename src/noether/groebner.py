"""Buchberger's algorithm with explicit resource budgets.

Produces reduced (monic, auto-reduced) Groebner bases, which are unique for
a given ideal and monomial order.  The pair queue uses the normal selection
strategy; Buchberger's coprimality and chain criteria prune pairs.  Budgets
(`max_pairs`, `max_degree`) fail loudly instead of hanging.
"""

from __future__ import annotations

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
    """Remainder of multivariate division of ``p`` by ``basis``."""
    if p.is_zero():
        return p
    F = p.field
    lead = [(g.leading_monomial(order), g.leading_coeff(order), g) for g in basis if not g.is_zero()]
    remainder_terms = {}
    work = p
    while not work.is_zero():
        if work.total_degree() > budgets.max_degree:
            raise ResourceBudgetError("max_degree", budgets.max_degree)
        lm = work.leading_monomial(order)
        lc = work.terms[lm]
        for gm, gc, g in lead:
            if mono_divides(gm, lm):
                work = work - g.mul_term(mono_div(lm, gm), F.div(lc, gc))
                break
        else:
            remainder_terms[lm] = lc
            work = Polynomial(F, p.nvars, {m: c for m, c in work.terms.items() if m != lm})
    return Polynomial(F, p.nvars, remainder_terms)


def _s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    F = f.field
    fm, gm = f.leading_monomial(order), g.leading_monomial(order)
    lcm = mono_lcm(fm, gm)
    left = f.mul_term(mono_div(lcm, fm), F.inv(f.leading_coeff(order)))
    right = g.mul_term(mono_div(lcm, gm), F.inv(g.leading_coeff(order)))
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

    basis = [g.monic(order) for g in gens]
    # Deduplicate identical generators up front.
    seen = set()
    basis = [g for g in basis if not (g in seen or seen.add(g))]

    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    # Pairs whose S-polynomial provably has a standard representation: either
    # it was reduced by division, or the leading monomials were coprime.  Only
    # these may justify a chain-criterion skip; pairs that were themselves
    # skipped by the chain criterion do not count, which rules out circular
    # skips among pairs sharing one lcm.
    settled = set()
    processed = 0

    def lm(i):
        return basis[i].leading_monomial(order)

    while pairs:
        processed += 1
        if processed > budgets.max_pairs:
            raise ResourceBudgetError("max_pairs", budgets.max_pairs)
        # Normal strategy: smallest lcm first (by total degree, then order key).
        i, j = min(pairs, key=lambda ij: (mono_deg(mono_lcm(lm(ij[0]), lm(ij[1]))),
                                          order.key(mono_lcm(lm(ij[0]), lm(ij[1])))))
        pairs.discard((i, j))
        lmi, lmj = lm(i), lm(j)
        lcm = mono_lcm(lmi, lmj)
        # Buchberger's first criterion: coprime leading monomials.
        if lcm == mono_mul(lmi, lmj):
            settled.add((i, j))
            continue
        # Chain criterion: some k with lm(k) | lcm and both pairs settled.
        if any(
            k != i and k != j
            and mono_divides(lm(k), lcm)
            and (max(i, k), min(i, k)) in settled
            and (max(j, k), min(j, k)) in settled
            for k in range(len(basis))
        ):
            continue
        s = normal_form(_s_polynomial(basis[i], basis[j], order), basis, order, budgets)
        settled.add((i, j))
        if s.is_zero():
            continue
        if s.total_degree() > budgets.max_degree:
            raise ResourceBudgetError("max_degree", budgets.max_degree)
        s = s.monic(order)
        basis.append(s)
        new = len(basis) - 1
        pairs.update((new, k) if new > k else (k, new) for k in range(new))

    return _reduce_basis(basis, order, budgets)


def _reduce_basis(basis: List[Polynomial], order: MonomialOrder, budgets: Budgets) -> List[Polynomial]:
    # Minimalize: drop members whose leading monomial is divisible by another's.
    basis = [g for g in basis if not g.is_zero()]
    lead = [g.leading_monomial(order) for g in basis]
    keep = []
    for i, g in enumerate(basis):
        if not any(
            j != i and mono_divides(lead[j], lead[i]) and (lead[j] != lead[i] or j < i)
            for j in range(len(basis))
        ):
            keep.append(g)
    # Auto-reduce: replace each by its normal form against the others.
    reduced = list(keep)
    changed = True
    while changed:
        changed = False
        for i in range(len(reduced)):
            others = reduced[:i] + reduced[i + 1 :]
            nf = normal_form(reduced[i], others, order, budgets).monic(order)
            if nf != reduced[i]:
                reduced[i] = nf
                changed = True
        reduced = [g for g in reduced if not g.is_zero()]
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)), reverse=True)
    return reduced
