"""Explicit finite commutative rings and finite modules.

Finite rings are Z/n, F_p[x]/(f) and finite direct products of these;
modules carry callable add / scalar-action maps.  Elements are plain
hashable values with the zero element listed first.  F_p[x]/(f), products,
free modules, quotients and direct sums keep a table of each operation's
results, filled as each pair is first met and dropped with the object;
nothing is tabulated ahead of use.  Z/n keeps its ``%`` arithmetic, which
costs less than a lookup, and a submodule or a ring as a module uses the
operations it comes from.

The ideals of a finite ring R are exactly the R-submodules of R, so the
ideal functions (``ideal_closure``, ``is_ideal``, ``enumerate_ideals``,
``minimal_generators``) are the module functions applied to
``ring_as_module(R)``.  There is one closure, ``span``, which builds the
additive span of the scaled seed by coset doubling; a subset is a submodule
when it holds zero and ``span`` adds nothing to it.  The submodule lattice
needs no closure at all: every submodule is a sum of cyclic submodules Ra,
so ``enumerate_submodules`` lists the distinct Ra once and closes {0} under
N -> N + Ra, a union of cosets of N.  ``noetherian_witness`` checks its
family against that lattice and reads the maximal members of every
subfamily from one bitmask of strict supersets per member.  A ring keeps
its ideal lattice once listed, so the ideal searches over one ring (Baer
steps, Spec, the localizations of the digraph count, the Noetherian
checks) list it once.  Everything here is sized for exhaustive, sub-minute
brute force.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .config import Budgets, DEFAULT_BUDGETS, Record
from .errors import BoundExceededError, DomainError, ValidationError
from .fields import _is_prime


def _memo(op: Callable) -> Callable:
    """The two-argument ``op`` with a table of its results, filled as each
    argument pair is first met; the table lives as long as the returned
    function, that is, as long as the ring or module holding it."""
    table: Dict = {}

    def memo(a, b):
        try:
            return table[a, b]
        except KeyError:
            table[a, b] = out = op(a, b)
            return out

    return memo


class FiniteRing:
    """Commutative ring with unit, given by element list and operations.
    It is no ``Record``: it compares by name and elements, not by its
    operation closures."""

    def __init__(self, name: str, elements: Sequence, add: Callable, mul: Callable,
                 neg: Callable, zero, one):
        self.name = name
        self.elements = tuple(elements)
        if self.elements[0] != zero:
            raise ValidationError("zero element must be listed first")
        self._add = add
        self._mul = mul
        self._neg = neg
        self.zero = zero
        self.one = one
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._ideals: Optional[List[FrozenSet]] = None  # see enumerate_ideals

    @property
    def size(self) -> int:
        return len(self.elements)

    def add(self, a, b):
        return self._add(a, b)

    def mul(self, a, b):
        return self._mul(a, b)

    def neg(self, a):
        return self._neg(a)

    def sub(self, a, b):
        return self._add(a, self._neg(b))

    def index(self, a) -> int:
        return self._index[a]

    def __repr__(self):
        return f"FiniteRing({self.name}, size={self.size})"

    def __eq__(self, other):
        return isinstance(other, FiniteRing) and self.name == other.name and self.elements == other.elements

    def __hash__(self):
        return hash((self.name, self.elements))


def zmod(n: int) -> FiniteRing:
    if n < 2:
        raise DomainError("Z/n requires n >= 2")
    return FiniteRing(
        f"Z/{n}", range(n),
        lambda a, b: (a + b) % n,
        lambda a, b: (a * b) % n,
        lambda a: (-a) % n,
        0, 1 % n,
    )


def gf_poly_quotient(p: int, modulus: Sequence[int]) -> FiniteRing:
    """F_p[x]/(f) with f given by its coefficient tuple (low degree first).

    f must be monic of degree >= 1; elements are coefficient tuples of
    length deg(f).
    """
    if not _is_prime(p):
        raise DomainError(f"{p} is not prime")
    f = tuple(c % p for c in modulus)
    while f and f[-1] == 0:
        f = f[:-1]
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        raise DomainError("modulus must be monic of degree >= 1")

    def reduce(coeffs: List[int]) -> Tuple[int, ...]:
        coeffs = [c % p for c in coeffs]
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if c:
                for j in range(d + 1):
                    coeffs[i - d + j] = (coeffs[i - d + j] - c * f[j]) % p
        coeffs = coeffs[:d] + [0] * (d - len(coeffs))
        return tuple(coeffs[:d])

    elements = [tuple(reversed(t)) for t in itertools.product(range(p), repeat=d)]
    elements.sort()

    def add(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(a, b):
        out = [0] * (2 * d)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        return reduce(out)

    def neg(a):
        return tuple((-x) % p for x in a)

    zero = (0,) * d
    one = reduce([1])
    fname = f"F{p}[x]/(" + ",".join(str(c) for c in f) + ")"
    return FiniteRing(fname, elements, _memo(add), _memo(mul), neg, zero, one)


def product_ring(rings: Sequence[FiniteRing]) -> FiniteRing:
    if not rings:
        raise DomainError("empty ring product")
    elements = sorted(itertools.product(*[r.elements for r in rings]),
                      key=lambda t: tuple(r.index(x) for r, x in zip(rings, t)))
    zero = tuple(r.zero for r in rings)
    elements.remove(zero)
    elements.insert(0, zero)
    return FiniteRing(
        " x ".join(r.name for r in rings), elements,
        _memo(lambda a, b: tuple(r.add(x, y) for r, x, y in zip(rings, a, b))),
        _memo(lambda a, b: tuple(r.mul(x, y) for r, x, y in zip(rings, a, b))),
        lambda a: tuple(r.neg(x) for r, x in zip(rings, a)),
        zero, tuple(r.one for r in rings),
    )


# -- modules -----------------------------------------------------------------


class FiniteModule:
    """Finite module over a FiniteRing, with callable operations; the zero
    element is listed first."""

    def __init__(self, ring: FiniteRing, elements: Sequence, add: Callable,
                 smul: Callable, zero, name: str = "M"):
        self.ring = ring
        self.elements = tuple(elements)
        if self.elements[0] != zero:
            raise ValidationError("zero element must be listed first")
        self.add = add
        self.smul = smul
        self.zero = zero
        self.name = name

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def _index(self) -> Dict:
        return {a: i for i, a in enumerate(self.elements)}

    def index(self, a) -> int:
        return self._index[a]

    def __repr__(self):
        return f"FiniteModule({self.name}, size={self.size})"


def ring_as_module(R: FiniteRing) -> FiniteModule:
    return FiniteModule(R, R.elements, R.add, R.mul, R.zero, name=R.name)


def zero_module(R: FiniteRing) -> FiniteModule:
    return FiniteModule(R, [0], lambda a, b: 0, lambda r, a: 0, 0, name="0")


def span(M: FiniteModule, seed: Iterable, base: FrozenSet = None) -> FrozenSet:
    """Smallest submodule of M containing ``seed`` (and ``base``, if given,
    which must already be a submodule).

    The submodule is the additive span of all ring multiples of the seed,
    so it is built by abelian-group closure: each new multiple m contributes
    the cosets m + G, 2m + G, ... of the group G built so far, stopping at
    the first multiple already absorbed.
    """
    add, smul, scalars = M.add, M.smul, M.ring.elements
    grp = set(base) if base is not None else {M.zero}
    for x in seed:
        # grp is a submodule here, so it holds every multiple of x or misses x.
        if x in grp:
            continue
        for r in scalars:
            m = smul(r, x)
            if m in grp:
                continue
            old = list(grp)
            step = m
            while step not in grp:
                for g in old:
                    grp.add(add(step, g))
                step = add(step, m)
    return frozenset(grp)


def _closure_failure(M: FiniteModule, subset: FrozenSet) -> Optional[Tuple[str, object]]:
    """Why ``subset`` is not a submodule of M, as (message, witness), or
    None when it is one."""
    # A subset of M is a submodule iff it holds zero and spans nothing more;
    # only a failure pays for the pairwise search that finds the witness.
    if M.zero in subset and M._index.keys() >= subset and span(M, subset) == subset:
        return None
    add, smul, scalars = M.add, M.smul, M.ring.elements
    for a in subset:
        for b in subset:
            if add(a, b) not in subset:
                return "subset not closed under addition", (a, b)
        for r in scalars:
            if smul(r, a) not in subset:
                return "subset not closed under scaling", (r, a)
    if M.zero not in subset:
        return "subset does not contain zero", None
    return None


def submodule(M: FiniteModule, subset: Iterable, name: str = "N") -> FiniteModule:
    els = frozenset(subset)
    failure = _closure_failure(M, els)
    if failure is not None:
        raise ValidationError(*failure)
    return FiniteModule(M.ring, sorted(els, key=M.index), M.add, M.smul,
                        M.zero, name=name)


def enumerate_submodules(M: FiniteModule, budgets: Budgets = DEFAULT_BUDGETS) -> List[FrozenSet]:
    """All submodules of M, as element sets, smallest first; includes 0 and M.

    Every submodule is a sum of cyclic submodules Ra, and Ra = {r*a} needs
    no closure.  So the distinct Ra are listed once, each with a generator
    a, and {0} is closed under N -> N + Ra, which is built as the union of
    the cosets c + N over c in Ra.
    """
    if M.size > budgets.finite_ring_bound:
        raise BoundExceededError("finite_ring_bound", budgets.finite_ring_bound)
    add, smul, scalars = M.add, M.smul, M.ring.elements
    cyclic: Dict[FrozenSet, object] = {}
    for a in M.elements:
        cyclic.setdefault(frozenset(smul(r, a) for r in scalars), a)
    subs = {frozenset([M.zero])}
    frontier = list(subs)
    while frontier:
        N = frontier.pop()
        for C, a in cyclic.items():
            if a in N:  # then Ra lies in N
                continue
            grown = set(N)
            for c in C:
                if c not in grown:
                    grown.update([add(c, n) for n in N])
            bigger = frozenset(grown)
            if bigger not in subs:
                subs.add(bigger)
                frontier.append(bigger)
    return sorted(subs, key=lambda N: (len(N), sorted(map(M.index, N))))


def _generators(M: FiniteModule, target: FrozenSet) -> List:
    """Greedy generator list of the submodule ``target``: every element, in
    element order, that the span of the earlier ones misses."""
    gens: List = []
    covered = frozenset([M.zero])
    for a in M.elements:
        if len(covered) == len(target):
            break
        if a in target and a not in covered:
            gens.append(a)
            covered = span(M, (a,), base=covered)
    return gens


def module_generators(M: FiniteModule) -> List:
    return _generators(M, frozenset(M.elements))


def coset_representatives(M, N: FrozenSet) -> Tuple[Dict, List]:
    """Map each element of M to the first element of its coset modulo the
    additive subgroup N, in element order, and list those representatives
    in element order.  M is a FiniteRing or a FiniteModule; its zero comes
    first, so zero represents N itself."""
    rep: Dict = {}
    reps: List = []
    add = M.add
    for a in M.elements:
        if a not in rep:
            reps.append(a)
            for n in N:
                rep[add(a, n)] = a
    return rep, reps


def quotient_module(M: FiniteModule, N: FrozenSet, name: str = "M/N") -> FiniteModule:
    """Quotient by a submodule; elements are canonical coset representatives."""
    if not N <= set(M.elements):
        raise ValidationError("submodule not contained in module")
    rep, cosets = coset_representatives(M, N)
    return FiniteModule(M.ring, cosets,
                        _memo(lambda a, b: rep[M.add(a, b)]),
                        _memo(lambda r, a: rep[M.smul(r, a)]),
                        M.zero, name=name)


def free_module(R: FiniteRing, rank: int) -> FiniteModule:
    els = sorted(itertools.product(R.elements, repeat=rank),
                 key=lambda t: tuple(R.index(x) for x in t))
    zero = (R.zero,) * rank
    return FiniteModule(R, els,
                        _memo(lambda a, b: tuple(R.add(x, y) for x, y in zip(a, b))),
                        _memo(lambda r, a: tuple(R.mul(r, x) for x in a)),
                        zero, name=f"{R.name}^{rank}")


class DirectSum(Record):
    def __init__(self, module: FiniteModule, injections: List[Callable]):
        self.module = module
        self.injections = injections


def direct_sum(modules: Sequence[FiniteModule], budgets: Budgets = DEFAULT_BUDGETS) -> DirectSum:
    """Componentwise direct sum with canonical injections; empty sum is 0."""
    if not modules:
        raise DomainError("direct_sum of an empty list needs a ring; use zero_module")
    ring = modules[0].ring
    if any(m.ring != ring for m in modules):
        raise DomainError("modules over different rings")
    total = 1
    for m in modules:
        total *= m.size
        if total > budgets.finite_ring_bound:
            raise BoundExceededError("finite_ring_bound", budgets.finite_ring_bound)
    S = FiniteModule(
        ring, itertools.product(*[m.elements for m in modules]),
        _memo(lambda a, b: tuple(m.add(x, y) for m, x, y in zip(modules, a, b))),
        _memo(lambda r, a: tuple(m.smul(r, x) for m, x in zip(modules, a))),
        tuple(m.zero for m in modules), name=" + ".join(m.name for m in modules),
    )

    def make_injection(i):
        def inj(x):
            return tuple(x if j == i else modules[j].zero for j in range(len(modules)))
        return inj

    return DirectSum(S, [make_injection(i) for i in range(len(modules))])


# -- ideals: the submodules of R ----------------------------------------------


def ideal_closure(R: FiniteRing, seed: Iterable, base: FrozenSet = None) -> FrozenSet:
    """Smallest ideal of R containing ``seed`` (and the ideal ``base``)."""
    return span(ring_as_module(R), seed, base)


def is_ideal(R: FiniteRing, subset: FrozenSet) -> bool:
    return _closure_failure(ring_as_module(R), subset) is None


def enumerate_ideals(R: FiniteRing, budgets: Budgets = DEFAULT_BUDGETS) -> List[FrozenSet]:
    """All ideals of R, as element sets, smallest first; includes (0) and R.

    The lattice is kept on R, listed on the first call; every call checks
    ``finite_ring_bound`` and returns a new list."""
    if R.size > budgets.finite_ring_bound:
        raise BoundExceededError("finite_ring_bound", budgets.finite_ring_bound)
    if R._ideals is None:
        R._ideals = enumerate_submodules(ring_as_module(R), budgets)
    return list(R._ideals)


def minimal_generators(R: FiniteRing, I: FrozenSet) -> List:
    """Greedy extraction of a finite generator list for an ideal."""
    return _generators(ring_as_module(R), I)


def is_prime_ideal(R: FiniteRing, I: FrozenSet) -> bool:
    if len(I) == R.size:
        return False
    for a in R.elements:
        for b in R.elements:
            if R.mul(a, b) in I and a not in I and b not in I:
                return False
    return True


class NoetherianReport(Record):
    def __init__(self, generator_lists: List[List], max_strict_chain: int,
                 ideal_count_bound: int,
                 maximal_by_subset: Dict[Tuple[int, ...], List[int]], ok: bool):
        self.generator_lists = generator_lists
        self.max_strict_chain = max_strict_chain
        self.ideal_count_bound = ideal_count_bound
        self.maximal_by_subset = maximal_by_subset
        self.ok = ok


def noetherian_witness(R: FiniteRing, chain: Sequence[FrozenSet],
                       budgets: Budgets = DEFAULT_BUDGETS) -> NoetherianReport:
    """Verify the three equivalent Noetherian conditions on the given ideals.

    ``chain`` is a nonempty family of ideals of R.  Reports a generator list
    per ideal, the longest strictly increasing subchain, and the maximal
    elements of every nonempty subfamily (all subfamilies when there are at
    most 12 ideals, otherwise just the whole family).
    """
    chain = [frozenset(I) for I in chain]
    if not chain:
        raise ValidationError("nonempty family of ideals required")
    # The lattice is exhaustive, so a member outside it is no ideal.
    ideals = set(enumerate_ideals(R, budgets))
    for I in chain:
        if I not in ideals:
            raise ValidationError("input set is not closed under the module operations",
                                  witness=sorted(R.index(x) for x in I))
    total = len(ideals)
    gen_lists = [minimal_generators(R, I) for I in chain]

    # Bit j of above[i] is set iff chain[i] is strictly inside chain[j].
    above = [sum(1 << j for j, J in enumerate(chain) if I < J) for I in chain]

    # Longest strictly increasing subchain under inclusion.
    order = sorted(range(len(chain)), key=lambda i: len(chain[i]))
    best = [1] * len(chain)
    for pos, i in enumerate(order):
        for j in order[:pos]:
            if above[j] >> i & 1:
                best[i] = max(best[i], best[j] + 1)
    longest = max(best)

    maximal: Dict[Tuple[int, ...], List[int]] = {}
    subsets: List[Tuple[int, ...]]
    if len(chain) <= 12:
        idx = range(len(chain))
        subsets = [tuple(c) for r in range(1, len(chain) + 1)
                   for c in itertools.combinations(idx, r)]
    else:
        subsets = [tuple(range(len(chain)))]
    for sub in subsets:
        mask = sum(1 << i for i in sub)
        maximal[sub] = [i for i in sub if not above[i] & mask]

    ok = longest <= total and all(maximal[s] for s in maximal)
    return NoetherianReport(gen_lists, longest, total, maximal, ok)


# -- homomorphisms -----------------------------------------------------------


def all_homs(A: FiniteModule, B: FiniteModule) -> List[Dict]:
    """All R-linear maps A -> B, each as a full element-graph dict.

    Searches one generator g_j of A at a time.  With S_{j-1} the span of the
    earlier ones, g_j newly reaches s + r*g_j (s in S_{j-1}), and its
    relations are the r with r*g_j in S_{j-1}.  An image b_j, tried in
    ``B.elements`` order, is accepted iff r*b_j is the known image of r*g_j
    for every relation r; phi then extends as phi(s) + r*b_j, well defined
    and R-linear.  Only the sums and multiples in B that the search meets
    are computed, through B's own tables where it keeps them (a Baer stage
    keeps none).  Maps come out in product order of the images (b_1 most
    significant), keyed in ``A.elements`` order.  A search past 10**6
    candidate maps is refused; no budget raises that limit.
    """
    if A.ring != B.ring:
        raise DomainError("modules over different rings")
    gens = module_generators(A)
    if B.size ** len(gens) > 10**6:
        raise BoundExceededError(
            "hom_search_space", 10**6, f"hom search space too large: {B.size}^{len(gens)} "
            "maps, past 10^6, a limit no budget raises")
    # Per generator g: its relations as pairs (r, r*g), and the elements it
    # newly reaches as cosets (r, [(s + r*g, s) for s in S_{j-1}]).
    steps, covered = [], {A.zero}
    for g in gens:
        relations, cosets, fresh = [], [], set()
        for r in A.ring.elements:
            x = A.smul(r, g)
            if x in covered:
                relations.append((r, x))
            elif x not in fresh:
                coset = [(A.add(s, x), s) for s in covered]
                fresh.update(a for a, _ in coset)
                cosets.append((r, coset))
        covered |= fresh
        steps.append((relations, cosets))
    if len(covered) != A.size:
        raise ValidationError("generators do not span the module")

    # Depth-first over an explicit choice stack: one iterator over the
    # candidate images per assigned generator, plus one for the next.
    homs, phi, stack, done = [], {A.zero: B.zero}, [iter(B.elements)], object()
    while stack:
        if len(stack) > len(steps):
            homs.append({a: phi[a] for a in A.elements})
            stack.pop()
            continue
        b = next(stack[-1], done)
        if b is done:
            stack.pop()
            continue
        relations, cosets = steps[len(stack) - 1]
        if all(B.smul(r, b) == phi[x] for r, x in relations):
            for r, coset in cosets:
                rb = B.smul(r, b)
                for a, s in coset:
                    phi[a] = B.add(phi[s], rb)
            stack.append(iter(B.elements))
    return homs


def is_linear_map(A: FiniteModule, B: FiniteModule, graph: Dict) -> bool:
    for a in A.elements:
        for b in A.elements:
            if graph[A.add(a, b)] != B.add(graph[a], graph[b]):
                return False
        for r in A.ring.elements:
            if graph[A.smul(r, a)] != B.smul(r, graph[a]):
                return False
    return True


def hom_from_ideal(R: FiniteRing, I: FrozenSet, M: FiniteModule,
                   budgets: Budgets = DEFAULT_BUDGETS) -> List[Dict]:
    """All R-linear maps from the ideal I (as a module) to M."""
    if len(I) * M.size > budgets.finite_ring_bound ** 2:
        raise BoundExceededError("finite_ring_bound", budgets.finite_ring_bound)
    Imod = submodule(ring_as_module(R), I, name="I")
    homs = all_homs(Imod, M)
    for h in homs:
        if not is_linear_map(Imod, M, h):
            raise ValidationError("enumerated hom is not linear")
    return homs
