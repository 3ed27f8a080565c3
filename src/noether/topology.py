"""Distinguished opens of Spec(R), covers, coordinate rings, finite spaces.

Opens are intensional: a defining element f, compared by mutual radical
containment (D(f) = D(g) iff f is in the radical of (g) and conversely).
Point sets never appear except for finite rings, whose Spec is the maximal
ideals of the ideal lattice the ring keeps.

An open keeps nothing: its ring keeps its coordinate rings R_f and each
basis its answers rest on, per ``budgets``, so an answer under a tighter
budget refuses as it would on a new open.  A finite space keeps its opens
and its constant-sheaf-Z layout, each derived once, on first use.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Tuple

from .config import Budgets, DEFAULT_BUDGETS, FrozenRecord
from .errors import DomainError
from .poly import Polynomial
from .rings import IdealHandle, PresentedRing, radical_membership

if TYPE_CHECKING:
    from .finite import FiniteRing


class DistinguishedOpen(FrozenRecord):
    """D(f) in Spec of ``ring``."""

    def __init__(self, ring: PresentedRing, f: Polynomial):
        if f.nvars != ring.nvars or f.field != ring.field:
            raise DomainError("defining element from a different ring")
        self.ring = ring
        self.f = f

    def is_empty(self, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
        """D(f) is empty iff f is nilpotent in the presented ring."""
        return radical_membership(self.f, IdealHandle(self.ring, ()), budgets)

    def is_whole(self, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
        """D(f) = Spec(R) iff f is a unit in the presented ring."""
        return IdealHandle(self.ring, (self.f,)).is_unit_ideal(budgets)

    def render(self) -> str:
        return f"D({self.ring.render(self.f)})"


def open_contains(a: DistinguishedOpen, b: DistinguishedOpen,
                  budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """True iff D(b) is a subset of D(a)."""
    if a.ring != b.ring:
        raise DomainError("opens over different rings")
    return radical_membership(b.f, IdealHandle(a.ring, (a.f,)), budgets)


def open_equal(a: DistinguishedOpen, b: DistinguishedOpen,
               budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    return open_contains(a, b, budgets) and open_contains(b, a, budgets)


def open_strictly_below(a: DistinguishedOpen, b: DistinguishedOpen,
                        budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """True iff D(a) is strictly contained in D(b)."""
    return open_contains(b, a, budgets) and not open_contains(a, b, budgets)


def open_intersect(a: DistinguishedOpen, b: DistinguishedOpen) -> DistinguishedOpen:
    if a.ring != b.ring:
        raise DomainError("opens over different rings")
    return DistinguishedOpen(a.ring, a.f * b.f)


class OpenCover(FrozenRecord):
    """The ``pieces`` offered as a cover of ``target``; ``cover_check``
    decides whether they cover it."""

    def __init__(self, target: DistinguishedOpen, pieces: Tuple[DistinguishedOpen, ...]):
        for p in pieces:
            if p.ring != target.ring:
                raise DomainError("cover piece over a different ring")
        self.target = target
        self.pieces = pieces


def cover_check(c: OpenCover, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """True iff the pieces cover the target: target.f in rad(piece elements)."""
    gens = tuple(p.f for p in c.pieces)
    return radical_membership(c.target.f, IdealHandle(c.target.ring, gens), budgets)


def coordinate_ring(u: DistinguishedOpen, budgets: Budgets = DEFAULT_BUDGETS) -> PresentedRing:
    """The localized ring R_f of a nonempty distinguished open, the ring
    itself when f is 1."""
    if u.is_empty(budgets):
        raise DomainError("empty open has no coordinate ring here")
    return u.ring if u.f.is_one() else u.ring.with_inverted(u.f)


def enumerate_spec(R: FiniteRing, budgets: Budgets = DEFAULT_BUDGETS) -> List[FrozenSet]:
    """All prime ideals of a finite ring, in its ideal lattice's order.

    R/P is a finite domain, hence a field, so the primes are the maximal
    proper ideals, read off the lattice R keeps."""
    from .finite import enumerate_ideals
    proper = [I for I in enumerate_ideals(R, budgets) if len(I) < R.size]
    return [I for I in proper if not any(I < J for J in proper)]


# -- finite topological spaces (down-sets of a preorder) ----------------------


class FiniteSpace:
    """Finite space whose opens are the down-sets of a preorder.

    ``below`` holds pairs (a, b) of points meaning a <= b; reflexive-
    transitive closure is taken.  Open sets are subsets closed downward.
    Point i is bit i of a mask: each point's down-closure and comparability
    masks are computed once, and the opens and ZZ layout once, on first use.
    """

    def __init__(self, points: Sequence, below: Sequence[Tuple] = ()):
        self.points = tuple(points)
        self._index = {p: i for i, p in enumerate(self.points)}
        if len(self._index) != len(self.points):
            raise DomainError("finite space with a repeated point")
        n = len(self.points)
        down = [1 << i for i in range(n)]
        for a, b in below:
            down[self._at(b)] |= 1 << self._at(a)
        for k in range(n):  # Warshall: close each down-set under down[k]
            for j in range(n):
                if down[j] >> k & 1:
                    down[j] |= down[k]
        self._down = down
        self._near = [d | sum(1 << j for j in range(n) if down[j] >> i & 1)
                      for i, d in enumerate(down)]

    def _at(self, p) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise DomainError(f"{p!r} is not a point of the space") from None

    def _mask(self, subset) -> int:
        return sum(1 << self._at(p) for p in set(subset))

    def leq(self, a, b) -> bool:
        return bool(self._down[self._at(b)] >> self._at(a) & 1)

    def connected(self, subset: FrozenSet) -> bool:
        """Connectivity in the comparability graph restricted to the subset,
        by breadth-first search from its lowest point."""
        mask = self._mask(subset)
        reach = todo = mask & -mask
        while todo:
            low = todo & -todo
            todo ^= low
            new = self._near[low.bit_length() - 1] & mask & ~reach
            reach |= new
            todo |= new
        return bool(mask) and reach == mask

    @cached_property
    def _open_lists(self) -> Tuple[List[FrozenSet], List[FrozenSet]]:
        """The opens, as unions of principal down-sets, by size and then by
        sorted point positions; and the nonempty connected ones."""
        n, masks = len(self.points), {0}
        for d in self._down:
            masks |= {m | d for m in masks}
        masks = sorted(masks, key=lambda m: (bin(m).count("1"),
                                             [i for i in range(n) if m >> i & 1]))
        opens = [frozenset(p for i, p in enumerate(self.points) if m >> i & 1)
                 for m in masks]
        return opens, [U for U in opens if self.connected(U)]

    @cached_property
    def _zz_layout(self) -> Tuple[Dict[FrozenSet, int], List[Tuple[int, int]],
                                  List[List[int]], bool]:
        """Each connected open's index in ``connected_opens()``; the pairs
        (i, j) with open i strictly inside open j, compared as masks, in
        that order; for each j, those i; and whether the space is connected
        (then the whole space is the last connected open)."""
        connected = self._open_lists[1]
        masks = [self._mask(U) for U in connected]
        pairs = [(i, j) for i, a in enumerate(masks) for j in range(i + 1, len(masks))
                 if a & ~masks[j] == 0]
        inside = [[i for i, k in pairs if k == j] for j in range(len(masks))]
        index = {U: i for i, U in enumerate(connected)}
        return index, pairs, inside, self.whole() in index

    def opens(self) -> List[FrozenSet]:
        return list(self._open_lists[0])

    def connected_opens(self) -> List[FrozenSet]:
        return list(self._open_lists[1])

    def whole(self) -> FrozenSet:
        return frozenset(self.points)
