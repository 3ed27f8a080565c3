"""Baer's criterion and the one-step extension chain over finite rings.

``baer_test`` decides injectivity by exhausting ideal maps and extension
candidates.  ``baer_step`` builds the module

    M1 = (M ⊕ ⨁_{(I, i)} R) / ⟨(i(x), -x)⟩

with one free slot per pair of an ideal I and a linear map i : I -> M.
Elements are kept in a normal form (base component, one coset
representative per slot), so the quotient is never tabulated; this keeps
the second chain stage tractable even when its underlying set is huge.
``baer_chain`` returns the list of modules M, M1, M2, ...; each step
tabulates the lazy stage before it, and the per-step certificates add up
to the finite-stage extension property that the usual colimit argument
rests on.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .config import Budgets, DEFAULT_BUDGETS, Record
from .errors import BoundExceededError, DomainError, ValidationError
from .finite import (FiniteModule, all_homs, coset_representatives,
                     enumerate_ideals, enumerate_submodules, free_module,
                     hom_from_ideal, module_generators, quotient_module, submodule)


# ---------------------------------------------------------------------------
# Baer's criterion
# ---------------------------------------------------------------------------

class BaerReport(Record):
    def __init__(self, injective: bool, witness: Optional[Tuple[FrozenSet, Dict]] = None):
        self.injective = injective
        self.witness = witness

    def as_dict(self) -> Dict:
        out = {"injective": self.injective}
        if self.witness is not None:
            ideal, graph = self.witness
            out["witness"] = {
                "ideal": sorted(map(repr, ideal)),
                "map": {repr(k): repr(v) for k, v in graph.items()},
            }
        return out


def baer_test(M: FiniteModule, budgets: Budgets = DEFAULT_BUDGETS) -> BaerReport:
    """Baer's criterion by exhaustive search.

    M is injective iff every linear map from an ideal extends to the whole
    ring, i.e. iff each such map is multiplication by some fixed element m:
    x*m = graph[x] for every x in the ideal.
    """
    R = M.ring
    for ideal in enumerate_ideals(R, budgets):
        for graph in hom_from_ideal(R, ideal, M, budgets):
            if not any(all(M.smul(x, m) == graph[x] for x in ideal)
                       for m in M.elements):
                return BaerReport(False, witness=(ideal, graph))
    return BaerReport(True)


# ---------------------------------------------------------------------------
# The one-step extension M1 in lazy normal form
# ---------------------------------------------------------------------------

class LedgerEntry(Record):
    def __init__(self, ideal: FrozenSet, graph: Dict):
        self.ideal = ideal
        self.graph = graph  # linear map ideal -> M, as an element graph


class BaerModule:
    """The quotient (M ⊕ ⨁_s R) / ⟨(i_s(x), -x at slot s)⟩ in normal form.

    An element is a pair (m, reps) where each slot coordinate is the chosen
    representative of its coset modulo the slot's ideal; shifting a slot
    coordinate into its representative moves i_s(difference) into m.  Normal
    forms biject with the quotient, so its size is |M| * prod |R / I_s|
    without ever listing the elements.
    """

    def __init__(self, base: FiniteModule, ledger: Sequence[LedgerEntry],
                 budgets: Budgets = DEFAULT_BUDGETS):
        self.ring = base.ring
        self.base = base
        self.ledger = tuple(ledger)
        R = self.ring
        self._reps: List[Dict] = []
        self._transversals: List[List] = []
        size = base.size
        for entry in self.ledger:
            rep_of, transversal = coset_representatives(R, entry.ideal)
            self._reps.append(rep_of)
            self._transversals.append(transversal)
            size *= len(transversal)
            if size > budgets.baer_bound:
                raise BoundExceededError(
                    "baer_bound", budgets.baer_bound,
                    f"one-step extension with {len(self.ledger)} slots")
        self.size = size
        self.zero = self._normalize(base.zero,
                                    [R.zero] * len(self.ledger))

    def _normalize(self, m, coords: Sequence) -> Tuple:
        R = self.ring
        out = []
        for s, r in enumerate(coords):
            rep = self._reps[s][r]
            if rep != r:
                x = R.sub(r, rep)  # lies in the slot ideal by construction
                m = self.base.add(m, self.ledger[s].graph[x])
            out.append(rep)
        return (m, tuple(out))

    def embed(self, m) -> Tuple:
        return (m, self.zero[1])

    def slot_unit(self, s: int, r) -> Tuple:
        """The class of r placed in slot s (the canonical extension of the
        slot's ideal map, evaluated at r)."""
        coords = list(self.zero[1])
        coords[s] = r
        return self._normalize(self.base.zero, coords)

    def add(self, a: Tuple, b: Tuple) -> Tuple:
        R = self.ring
        return self._normalize(self.base.add(a[0], b[0]),
                               [R.add(x, y) for x, y in zip(a[1], b[1])])

    def smul(self, r, a: Tuple) -> Tuple:
        R = self.ring
        return self._normalize(self.base.smul(r, a[0]),
                               [R.mul(r, x) for x in a[1]])

    def materialize(self, name: str = "M1",
                    budgets: Budgets = DEFAULT_BUDGETS) -> FiniteModule:
        if self.size > budgets.baer_materialize_bound:
            raise BoundExceededError("baer_materialize_bound",
                                     budgets.baer_materialize_bound,
                                     f"module of size {self.size}")
        elements = [(m, tuple(coords)) for m in self.base.elements
                    for coords in itertools.product(*self._transversals)]
        return FiniteModule(self.ring, elements, self.add, self.smul,
                            self.zero, name=name)


def baer_step(M: FiniteModule, budgets: Budgets = DEFAULT_BUDGETS) -> BaerModule:
    """One Baer extension step M1 ⊇ M, with its postconditions verified.

    Checks that the embedding is injective and linear and that every ledger
    map from an ideal into M extends to a map from the whole ring into M1.
    The size is checked against ``baer_bound`` after each ideal's maps, so a
    refused step names the slots found so far and lists no more of them.
    """
    R = M.ring
    ledger, size = [], M.size
    for ideal in enumerate_ideals(R, budgets):
        graphs = hom_from_ideal(R, ideal, M, budgets)
        ledger.extend(LedgerEntry(frozenset(ideal), graph) for graph in graphs)
        # Each slot multiplies the size by |R/I|; stop before the next ideal.
        size *= (R.size // len(ideal)) ** len(graphs)
        if size > budgets.baer_bound:
            raise BoundExceededError("baer_bound", budgets.baer_bound,
                                     f"one-step extension with {len(ledger)} slots")
    ext = BaerModule(M, ledger, budgets)

    images = {}
    for m in M.elements:
        img = ext.embed(m)
        if img in images:
            raise ValidationError("embedding is not injective",
                                  witness=(images[img], m))
        images[img] = m
    for a in M.elements:
        for b in M.elements:
            if ext.embed(M.add(a, b)) != ext.add(ext.embed(a), ext.embed(b)):
                raise ValidationError("embedding is not additive",
                                      witness=(a, b))
        for r in R.elements:
            if ext.embed(M.smul(r, a)) != ext.smul(r, ext.embed(a)):
                raise ValidationError("embedding is not linear",
                                      witness=(r, a))

    for s, entry in enumerate(ext.ledger):
        _verify_slot_extension(ext, s, entry)
    return ext


def _verify_slot_extension(ext: BaerModule, s: int, entry: LedgerEntry):
    """The slot map r -> class of (0, r e_s) must be linear and restrict,
    through the embedding, to the ledger's ideal map.  Each class is
    normalized once, before the pairs are checked."""
    R = ext.ring
    unit = {r: ext.slot_unit(s, r) for r in R.elements}
    for r in R.elements:
        for r2 in R.elements:
            if unit[R.add(r, r2)] != ext.add(unit[r], unit[r2]):
                raise ValidationError("slot extension is not additive",
                                      witness=(s, r, r2))
            if unit[R.mul(r, r2)] != ext.smul(r, unit[r2]):
                raise ValidationError("slot extension is not linear",
                                      witness=(s, r, r2))
    for x in entry.ideal:
        if unit[x] != ext.embed(entry.graph[x]):
            raise ValidationError(
                "slot extension does not restrict to the ideal map",
                witness=(s, x))


# ---------------------------------------------------------------------------
# The chain
# ---------------------------------------------------------------------------

class BaerChain(Record):
    def __init__(self, stages: List, stalled_at: Optional[int] = None):
        self.stages = stages  # M, then the BaerModule each step built
        self.stalled_at = stalled_at


def baer_chain(M: FiniteModule, K: int,
               budgets: Budgets = DEFAULT_BUDGETS) -> BaerChain:
    """Chain M = M_0 ⊆ M_1 ⊆ ... ⊆ M_K of one-step extensions.

    At every stage k < K, every linear map from an ideal into M_k extends
    to the ring with values in M_{k+1}; baer_step certifies this through
    its ledger, so the chain verification is the accumulation of the per-
    step postconditions.  Each step tabulates the lazy stage before it; a
    stage too large to tabulate or to extend stops the chain there, so the
    last stage may stay lazy.  A budget that refuses the first step is
    raised: there is no chain to return.
    """
    if K < 0:
        raise DomainError("chain length must be nonnegative")
    stages: List = [M]
    for k in range(K):
        try:
            current = stages[-1]
            if k:
                current = current.materialize(name=f"{M.name}_{k}",
                                              budgets=budgets)
            stages.append(baer_step(current, budgets))
        except BoundExceededError:
            if k == 0:
                raise
            return BaerChain(stages, stalled_at=k)
    return BaerChain(stages)


def chain_fixed_pointwise(chain: BaerChain) -> bool:
    """The composed embeddings of the chain are injective on the base
    module's elements.  Not exported: a check for tests of ``baer_chain``."""
    base = chain.stages[0]
    current = list(base.elements)
    for stage in chain.stages[1:]:
        current = [stage.embed(m) for m in current]
        if len(set(current)) != base.size:
            return False
    return True


# ---------------------------------------------------------------------------
# Brute-force envelopes
# ---------------------------------------------------------------------------

def injective_envelope_bruteforce(M: FiniteModule, budgets: Budgets = DEFAULT_BUDGETS
                                  ) -> Optional[FiniteModule]:
    """Smallest injective module containing M among quotients of R^m, m <= 2.

    Returns None when no candidate of at most ``budgets.finite_ring_bound``
    elements passes; the search is exhaustive over the candidate space, so a
    None is itself a fact.
    """
    R, bound = M.ring, budgets.finite_ring_bound
    candidates: List[FiniteModule] = []
    for rank in (1, 2):
        if R.size ** rank > max(bound, R.size):
            break
        free = free_module(R, rank)
        for sub in enumerate_submodules(free, budgets):
            E = quotient_module(free, sub, name=f"F{rank}/N")
            if E.size <= bound:
                candidates.append(E)
    for E in sorted(candidates, key=lambda E: E.size):
        embeds = E.size >= M.size and any(len(set(g.values())) == M.size
                                          for g in all_homs(M, E))
        if embeds and baer_test(E, budgets).injective:
            return E
    return None


def first_principles_injective(M: FiniteModule,
                               ambient_modules: Sequence[FiniteModule],
                               budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """Definitional injectivity over a finite test universe: for every
    submodule A of every listed module B, every map A -> M extends to B:
    the restrictions of the maps B -> M, each fixed by its images of A's
    generators, are as many as the maps A -> M."""
    for B in ambient_modules:
        homs_B = all_homs(B, M)
        # The last submodule is B, where each map is its own extension.
        for carrier in enumerate_submodules(B, budgets)[:-1]:
            A = submodule(B, carrier, name="A")
            gens = module_generators(A)
            restrictions = {tuple(big[a] for a in gens) for big in homs_B}
            if len(restrictions) != len(all_homs(A, M)):
                return False
    return True
