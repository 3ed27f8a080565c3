"""Distinguished opens of Spec(R), covers, coordinate rings, finite spaces.

Opens are intensional: a defining element f, compared by mutual radical
containment (D(f) = D(g) iff f is in the radical of (g) and conversely).
Point sets never appear except for finite rings, where Spec is enumerable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Set, Tuple

from .config import Budgets, DEFAULT_BUDGETS
from .errors import DomainError
from .finite import FiniteRing, enumerate_ideals, is_prime_ideal
from .poly import Polynomial
from .rings import IdealHandle, PresentedRing, radical_membership


@dataclass(frozen=True)
class DistinguishedOpen:
    ring: PresentedRing
    f: Polynomial

    def __post_init__(self):
        if self.f.nvars != self.ring.nvars or self.f.field != self.ring.field:
            raise DomainError("defining element from a different ring")

    def is_empty(self, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
        """D(f) is empty iff f is nilpotent in the presented ring."""
        zero = IdealHandle(self.ring, ())
        return radical_membership(self.f, zero, budgets)

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


@dataclass(frozen=True)
class OpenCover:
    target: DistinguishedOpen
    pieces: Tuple[DistinguishedOpen, ...]

    def __post_init__(self):
        for p in self.pieces:
            if p.ring != self.target.ring:
                raise DomainError("cover piece over a different ring")


def cover_check(c: OpenCover, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """True iff the pieces cover the target: target.f in rad(piece elements)."""
    gens = tuple(p.f for p in c.pieces)
    return radical_membership(c.target.f, IdealHandle(c.target.ring, gens), budgets)


def coordinate_ring(u: DistinguishedOpen, budgets: Budgets = DEFAULT_BUDGETS) -> PresentedRing:
    """The localized ring R_f of a nonempty distinguished open."""
    if u.is_empty(budgets):
        raise DomainError("empty open has no coordinate ring here")
    if u.f.is_one():
        return u.ring
    return u.ring.with_inverted(u.f)


def enumerate_spec(R: FiniteRing, budgets: Budgets = DEFAULT_BUDGETS) -> List[FrozenSet]:
    """All prime ideals of a finite ring, by exhaustive primality filtering."""
    return [I for I in enumerate_ideals(R, budgets) if is_prime_ideal(R, I)]


# -- finite topological spaces (down-sets of a preorder) ----------------------


class FiniteSpace:
    """Finite space whose opens are the down-sets of a preorder.

    ``below`` holds pairs (a, b) meaning a <= b; reflexive-transitive
    closure is taken.  Open sets are subsets closed downward.
    """

    def __init__(self, points: Sequence, below: Sequence[Tuple] = ()):
        self.points = tuple(points)
        rel: Set[Tuple] = {(p, p) for p in self.points}
        rel.update((a, b) for a, b in below)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rel):
                for (c, d) in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        self.below = frozenset(rel)

    def leq(self, a, b) -> bool:
        return (a, b) in self.below

    def is_open(self, subset: FrozenSet) -> bool:
        return all(a in subset
                   for b in subset for a in self.points if self.leq(a, b))

    def opens(self) -> List[FrozenSet]:
        out = []
        pts = list(self.points)
        for mask in range(1 << len(pts)):
            s = frozenset(p for i, p in enumerate(pts) if mask >> i & 1)
            if self.is_open(s):
                out.append(s)
        return sorted(out, key=lambda s: (len(s), sorted(map(pts.index, s))))

    def connected(self, subset: FrozenSet) -> bool:
        """Connectivity in the comparability graph restricted to the subset."""
        if not subset:
            return False
        todo = {next(iter(subset))}
        seen = set()
        while todo:
            x = todo.pop()
            seen.add(x)
            for y in subset:
                if y not in seen and (self.leq(x, y) or self.leq(y, x)):
                    todo.add(y)
        return seen == set(subset)

    def connected_opens(self) -> List[FrozenSet]:
        return [s for s in self.opens() if s and self.connected(s)]

    def whole(self) -> FrozenSet:
        return frozenset(self.points)
