"""Finite digraphs of ideals / global generators, and the sheaves they generate.

The central data structure: a rooted DAG whose nodes pair a distinguished
open D(f) with an ideal of the localization R_f given by global generators
(polynomials of the base ring).  The four defining conditions (Global,
Functional, Decreasing on opens, Increasing on ideals) plus structural
rootedness are each independently validated.

The sheaf generated by a digraph is the smallest subsheaf of the structure
sheaf containing each node ideal over its open; membership is decided
stalkwise via the subset-stratum criterion (colon ideals plus radical
membership), and exact section ideals are computed for univariate base
rings from a coprime base of the node data, by gcds alone: no factoring.
Each public operation validates its own input, and the operations call
one another only through their public names.

Extraction is one loop, ``_extract``, for sheaves of ideals given by an
oracle and for subsheaves of the constant sheaf Z on a finite space; the
two differ only in which opens are expansive and how opens are compared.
Over a finite ring, every digraph is counted on the ring's own ideal
lattice: a localization's ideals are those containing its kernel.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from .config import Budgets, DEFAULT_BUDGETS, FrozenRecord, Record
from .errors import (
    BoundExceededError,
    CapabilityError,
    DomainError,
    OracleError,
    ResourceBudgetError,
    ValidationError,
)
from .poly import Polynomial
from .rings import (
    IdealHandle,
    PresentedRing,
    colon_ideal,
    ideal_contains,
    ideal_equal,
    radical_membership,
)
from .topology import (
    DistinguishedOpen,
    FiniteSpace,
    coordinate_ring,
    enumerate_spec,
    open_contains,
    open_equal,
    open_strictly_below,
)
from . import univar

if TYPE_CHECKING:
    from .finite import FiniteRing


class DigraphNode(FrozenRecord):
    def __init__(self, open: DistinguishedOpen, gens: Tuple[Polynomial, ...]):
        self.open = open
        self.gens = gens

    def ideal_in(self, ring: PresentedRing) -> IdealHandle:
        return IdealHandle(ring, self.gens)


class IdealDigraph(FrozenRecord):
    def __init__(self, ring: PresentedRing, nodes: Tuple[DigraphNode, ...],
                 edges: Tuple[Tuple[int, int], ...], root: int = 0):
        self.ring = ring
        self.nodes = nodes
        self.edges = edges
        self.root = root


class DigraphReport(Record):
    def __init__(self, global_ok: bool = True, functional_ok: bool = True,
                 decreasing_ok: bool = True, increasing_ok: bool = True,
                 structural_ok: bool = True, witnesses: Dict[str, object] = None):
        self.global_ok = global_ok
        self.functional_ok = functional_ok
        self.decreasing_ok = decreasing_ok
        self.increasing_ok = increasing_ok
        self.structural_ok = structural_ok
        self.witnesses = {} if witnesses is None else witnesses

    @property
    def valid(self) -> bool:
        return (self.global_ok and self.functional_ok and self.decreasing_ok
                and self.increasing_ok and self.structural_ok)

    def as_dict(self) -> Dict:
        return {
            "global": self.global_ok,
            "functional": self.functional_ok,
            "decreasing_on_opens": self.decreasing_ok,
            "increasing_on_ideals": self.increasing_ok,
            "structural": self.structural_ok,
            "valid": self.valid,
            "witnesses": self.witnesses,
        }


def validate_digraph(d: IdealDigraph, budgets: Budgets = DEFAULT_BUDGETS) -> DigraphReport:
    """Check the four defining invariants plus structural rootedness."""
    rep = DigraphReport()
    n = len(d.nodes)
    if not (0 <= d.root < n):
        rep.structural_ok = False
        rep.witnesses["structural"] = "root index out of range"
        return rep

    if not d.nodes[d.root].open.is_whole(budgets):
        rep.global_ok = False
        rep.witnesses["global"] = d.nodes[d.root].open.render()

    for i, j in itertools.combinations(range(n), 2):
        if open_equal(d.nodes[i].open, d.nodes[j].open, budgets):
            rep.functional_ok = False
            rep.witnesses["functional"] = (i, j)

    # Structural: edges in range, every node reachable from the root, and
    # acyclic (an edge (p, c) closes a cycle exactly when p is reachable
    # from c).
    if not all(0 <= p < n and 0 <= c < n for p, c in d.edges):
        structural = "edge index out of range"
    else:
        structural = sorted(set(range(n)) - _reachable(d.root, d.edges))
        if not structural and any(p in _reachable(c, d.edges) for p, c in d.edges):
            structural = "cycle"
    if structural:
        rep.structural_ok = False
        rep.witnesses["structural"] = structural

    for (p, c) in d.edges:
        if not (0 <= p < n and 0 <= c < n):
            continue
        parent, child = d.nodes[p], d.nodes[c]
        if not open_strictly_below(child.open, parent.open, budgets):
            rep.decreasing_ok = False
            rep.witnesses.setdefault("decreasing", []).append((p, c))
            continue
        rc = coordinate_ring(child.open, budgets)
        if not _grows(child.ideal_in(rc), parent.ideal_in(rc), budgets):
            rep.increasing_ok = False
            rep.witnesses.setdefault("increasing", []).append((p, c))
    return rep


def _grows(big: IdealHandle, small: IdealHandle, budgets: Budgets) -> bool:
    """True iff ``big`` strictly contains ``small``."""
    return (ideal_contains(big, small, budgets)
            and not ideal_equal(big, small, budgets))


def _reachable(start: int, edges: Iterable[Tuple[int, int]]) -> Set[int]:
    """The nodes reachable from ``start`` along ``edges``, start included."""
    reach = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for (p, c) in edges:
            if p == x and c not in reach:
                reach.add(c)
                frontier.append(c)
    return reach


def _require_valid(d: IdealDigraph, budgets: Budgets,
                   message: str = "invalid digraph") -> None:
    """Raise ValidationError, with the validation report as witness, unless
    ``d`` passes every digraph invariant."""
    report = validate_digraph(d, budgets)
    if not report.valid:
        raise ValidationError(message, witness=report.as_dict())


# -- clearing denominators -----------------------------------------------------


def clear_denominators(
    ring: PresentedRing,
    raw_nodes: Sequence[Tuple[DistinguishedOpen, Sequence[Tuple[Polynomial, Polynomial]]]],
    edges: Sequence[Tuple[int, int]],
    root: int = 0,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> IdealDigraph:
    """Turn nodes whose ideals are given by fractions into global generators.

    Each generator comes as (numerator, denominator) with the denominator a
    unit of the node's coordinate ring (a power of the node's f times
    inverted elements); the fraction then generates the same ideal of R_f as
    its numerator.  Node ideals are re-emitted in canonical (saturated) form.
    """
    nodes = []
    for u, fracs in raw_nodes:
        ru = coordinate_ring(u, budgets)
        nums = []
        for num, den in fracs:
            if den.is_zero():
                raise DomainError("zero denominator in node generator")
            if not IdealHandle(ru, (den,)).is_unit_ideal(budgets):
                raise DomainError(
                    f"denominator {ring.render(den)} is not a unit on {u.render()}")
            nums.append(num)
        given = IdealHandle(ru, tuple(nums))
        canonical = given.canonical_basis(budgets)
        if not ideal_equal(given, IdealHandle(ru, canonical), budgets):
            raise ValidationError("canonicalization changed the ideal")
        nodes.append(DigraphNode(u, tuple(canonical)))
    return IdealDigraph(ring, tuple(nodes), tuple(edges), root)


# -- the generated sheaf -------------------------------------------------------


def section_membership(
    d: IdealDigraph,
    u: DistinguishedOpen,
    numerator: Polynomial,
    denominator: Optional[Polynomial] = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> bool:
    """Decide whether numerator/denominator lies in the generated sheaf on u.

    Stalkwise criterion: for every subset S of nodes containing the root,
    with J_S the sum of the node ideals over S and F_S the defining elements
    of the omitted opens, require

        u.f * prod_{i in S} f_i    in    rad((J_S : numerator) + F_S).

    Denominators are discarded after a unit check: they are units on u, and
    multiplying by a unit does not change stalk membership.
    """
    if len(d.nodes) > budgets.digraph_node_cap:  # the subset loop is exponential
        raise ResourceBudgetError("digraph_node_cap", budgets.digraph_node_cap)
    _require_valid(d, budgets)
    if u.is_empty(budgets):
        raise DomainError("membership over the empty open")
    if denominator is not None:
        ru = coordinate_ring(u, budgets)
        if denominator.is_zero() or not IdealHandle(ru, (denominator,)).is_unit_ideal(budgets):
            raise DomainError("denominator is not a unit on the open")
    if numerator.is_zero():
        return True

    ring = d.ring
    others = [i for i in range(len(d.nodes)) if i != d.root]
    for k in range(len(others) + 1):
        for extra in itertools.combinations(others, k):
            S = (d.root,) + extra
            gens = tuple(g for i in S for g in d.nodes[i].gens)
            J = IdealHandle(ring, gens)
            C = colon_ideal(J, numerator, budgets)
            F = tuple(d.nodes[j].open.f for j in range(len(d.nodes)) if j not in S)
            probe = u.f
            for i in S:
                probe = probe * d.nodes[i].open.f
            if not radical_membership(probe, IdealHandle(ring, C.generators + F), budgets):
                return False
    return True


def _require_univariate_ring(ring: PresentedRing):
    if ring.nvars != 1 or ring.quotient:
        raise CapabilityError(
            "exact section ideals need a univariate base ring; use section_membership")


def evaluate_sheaf(d: IdealDigraph, u: DistinguishedOpen,
                   budgets: Budgets = DEFAULT_BUDGETS) -> IdealHandle:
    """Exact ideal of sections of the generated sheaf over u (univariate).

    For each monic irreducible q alive on u, the stalk at (q) is generated
    by the node ideals whose opens contain (q); the section ideal is cut out
    by the resulting multiplicity of q.  The primes are not found by
    factoring: a coprime base of the node data (squarefree factors refined
    by gcds) groups them into pairwise coprime blocks on which all of this
    agrees.  The zero stalk forces the zero ideal.
    """
    _require_univariate_ring(d.ring)
    _require_valid(d, budgets)
    if u.is_empty(budgets):
        raise DomainError("evaluation over the empty open")
    result = IdealHandle(coordinate_ring(u, budgets), _section_generators(d, u))
    for g in result.generators:
        if not section_membership(d, u, g, None, budgets):
            raise ValidationError(
                "computed section ideal fails its own membership check",
                witness=d.ring.render(g))
    return result


def _section_generators(d: IdealDigraph, u: DistinguishedOpen) -> Tuple[Polynomial, ...]:
    """Generators of the section ideal over u: the product of b^e over the
    members b of a coprime base of the node generators, the node opens and
    s_u (u's element times the inverted ones) that are not units on u, e the
    multiplicity of b in the gcd of the node ideals whose opens b does not
    divide; () when some stalk is zero.

    Every irreducible q dividing a base element b divides the same members
    of that family as b, to the same power, so q is a unit on u, lies in a
    node's open and divides a stalk gcd exactly when b does, as often: the
    product of the b^e equals the product of q^e over the primes q."""
    ring = d.ring
    # The generic stalk: all (nonempty) node opens contain the zero prime.
    all_gens = [g for node in d.nodes for g in node.gens]
    if all(g.is_zero() for g in all_gens):
        return ()

    s_u = u.f * ring.inverted_product()
    family = all_gens + [node.open.f for node in d.nodes] + [s_u]
    powers = []
    for b in univar.coprime_base(family):
        if univar.divides(b, s_u):
            continue  # b is a unit on u
        alive = [node for node in d.nodes if not univar.divides(b, node.open.f)]
        g_s = univar.gcd([g for node in alive for g in node.gens], ring.field)
        if g_s.is_zero():
            return ()
        powers.append((b, univar.multiplicity(b, g_s)))
    return (univar.power_product(powers, ring.field),)


# -- sheaf oracles and extraction ----------------------------------------------


class SheafOracle:
    """Queryable sheaf of ideals, with a declared finite test basis.

    ``valuation`` maps a distinguished open to the global generators of the
    section ideal over it.  The presheaf law is checked lazily on every pair
    of queried opens; a violation raises OracleError with the witness pair.
    """

    def __init__(self, ring: PresentedRing,
                 valuation: Callable[[DistinguishedOpen], Sequence[Polynomial]],
                 basis: Sequence[DistinguishedOpen],
                 budgets: Budgets = DEFAULT_BUDGETS):
        self.ring = ring
        self._valuation = valuation
        self.basis = tuple(basis)
        self.budgets = budgets
        self._log: List[Tuple[DistinguishedOpen, Tuple[Polynomial, ...]]] = []

    def query(self, u: DistinguishedOpen) -> Tuple[Polynomial, ...]:
        value = tuple(self._valuation(u))
        for (v, vgens) in self._log:
            for small, sgens, big, bgens in (
                (u, value, v, vgens), (v, vgens, u, value)):
                if open_contains(big, small, self.budgets):
                    rs = coordinate_ring(small, self.budgets)
                    if not ideal_contains(IdealHandle(rs, sgens),
                                          IdealHandle(rs, bgens), self.budgets):
                        raise OracleError(
                            "presheaf law violated",
                            witness=(big.render(), small.render()))
        self._log.append((u, value))
        return value


def quasi_coherent_oracle(I: IdealHandle, basis: Sequence[DistinguishedOpen],
                          budgets: Budgets = DEFAULT_BUDGETS) -> SheafOracle:
    """The oracle of the quasi-coherent sheaf associated to an ideal."""
    return SheafOracle(I.ring, lambda u: I.generators, basis, budgets)


def digraph_oracle(d: IdealDigraph, basis: Sequence[DistinguishedOpen],
                   budgets: Budgets = DEFAULT_BUDGETS) -> SheafOracle:
    """Oracle answering with the exact sections of the sheaf a digraph generates."""
    _require_valid(d, budgets)

    def valuation(u: DistinguishedOpen):
        return evaluate_sheaf(d, u, budgets).generators

    return SheafOracle(d.ring, valuation, basis, budgets)


def _extract(root, expansive: Callable, below: Callable,
             same: Callable) -> Tuple[List, List[Tuple[int, int]]]:
    """Grow the nodes and edges of a digraph from the ``root`` (open, value)
    pair one generation at a time.

    A node's children are the inclusion-maximal (``below``: strictly inside)
    pairs of ``expansive(node)``, a canonical finite subcover of the union of
    its expansive opens; a child whose open is already a node (``same``) is
    linked, not added again.  Only new nodes enter the next frontier, and
    every node but the root has an open no other node has, strictly inside
    its parent's, so the loop ends within one generation more than there
    are candidate opens.
    """
    nodes = [root]
    edges: List[Tuple[int, int]] = []
    frontier = [0]
    while frontier:
        next_frontier: List[int] = []
        for ni in frontier:
            candidates = expansive(nodes[ni])
            # ``o2 is not o`` spares the comparison of an open with itself.
            maximal = [
                (o, v) for (o, v) in candidates
                if not any(o2 is not o and below(o, o2) for o2, _ in candidates)
            ]
            for (o, v) in maximal:
                existing = next(
                    (k for k, (w, _) in enumerate(nodes) if same(w, o)), None)
                if existing is None:
                    nodes.append((o, v))
                    existing = len(nodes) - 1
                    next_frontier.append(existing)
                if (ni, existing) not in edges:
                    edges.append((ni, existing))
        frontier = next_frontier
    return nodes, edges


def extract_digraph(oracle: SheafOracle, budgets: Budgets = DEFAULT_BUDGETS) -> IdealDigraph:
    """Extract a finite digraph of global generators from a sheaf oracle.

    A basis open strictly below a node is expansive when the oracle value on
    it strictly exceeds the localized node ideal.  Every node but the root
    is a distinct basis open, so extraction ends within ``len(basis) + 1``
    generations, whatever the oracle answers.
    """
    ring = oracle.ring

    def expansive(node):
        u, gens = node
        out: List[Tuple[DistinguishedOpen, Tuple[Polynomial, ...]]] = []
        for h in oracle.basis:
            if not open_strictly_below(h, u, budgets):
                continue
            value = oracle.query(h)
            rh = coordinate_ring(h, budgets)
            if _grows(IdealHandle(rh, value), IdealHandle(rh, gens), budgets):
                out.append((h, value))
        return out

    root_open = DistinguishedOpen(ring, ring.one())
    nodes, edges = _extract(
        (root_open, oracle.query(root_open)), expansive,
        lambda a, b: open_strictly_below(a, b, budgets),
        lambda a, b: open_equal(a, b, budgets))
    d = IdealDigraph(ring, tuple(DigraphNode(o, v) for o, v in nodes), tuple(edges), 0)
    _require_valid(d, budgets, "extracted digraph failed validation")
    return d


def is_quasi_coherent(d: IdealDigraph, basis: Sequence[DistinguishedOpen],
                      budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """True iff the generated sheaf equals the localization of its root ideal
    on every basis open."""
    _require_univariate_ring(d.ring)
    _require_valid(d, budgets)
    root = d.nodes[d.root]
    for h in basis:
        if h.is_empty(budgets):
            continue
        value = evaluate_sheaf(d, h, budgets)
        rh = coordinate_ring(h, budgets)
        if not ideal_equal(value, IdealHandle(rh, root.gens), budgets):
            return False
    return True


# -- constant-sheaf-Z analog on finite spaces -----------------------------------


class ZZSheafData(Record):
    """Ideal sheaf n_U * Z of the constant sheaf Z on a finite space.

    ``assignment`` maps every nonempty connected open (frozenset of points),
    and nothing else, to a nonnegative integer n_U, subject to: U <= V
    implies n_U | n_V (smaller opens carry larger ideals)."""

    def __init__(self, space: FiniteSpace, assignment: Dict[FrozenSet, int]):
        self.space = space
        self.assignment = assignment

    def validate(self) -> List[int]:
        """The n_U in ``connected_opens()`` order, once the assignment is
        checked on the space's layout."""
        index, pairs, _, _ = self.space._zz_layout
        for U in self.assignment:
            if U not in index:
                raise ValidationError("not a nonempty connected open", witness=sorted(U))
        values = []
        for U in index:
            if U not in self.assignment:
                raise ValidationError("missing assignment", witness=sorted(U))
            if self.assignment[U] < 0:
                raise ValidationError("negative ideal index", witness=sorted(U))
            values.append(self.assignment[U])
        for i, j in pairs:
            if not _divides_int(values[i], values[j]):
                opens = self.space.connected_opens()
                raise ValidationError("restriction law violated",
                                      witness=(sorted(opens[i]), sorted(opens[j])))
        return values


def _divides_int(a: int, b: int) -> bool:
    if a == 0:
        return b == 0
    return b % a == 0


class ZZDigraph(FrozenRecord):
    def __init__(self, space: FiniteSpace, nodes: Tuple[Tuple[FrozenSet, int], ...],
                 edges: Tuple[Tuple[int, int], ...], root: int = 0):
        self.space = space
        self.nodes = nodes
        self.edges = edges
        self.root = root


def extract_zz_digraph(z: ZZSheafData) -> ZZDigraph:
    """Digraph extraction for ideal sheaves of the constant sheaf Z.

    U is expansive from V iff n_V Z is strictly contained in n_U Z, i.e.
    n_U properly divides n_V; children are the inclusion-maximal expansive
    connected opens.  Finiteness is automatic on a finite space.  Expansive
    opens are found on indices into the space's layout.
    """
    n = z.validate()
    index, _, inside, connected = z.space._zz_layout
    if not connected:
        raise ValidationError("space must be connected; run per component")
    opens = z.space.connected_opens()

    def expansive(node):
        V, nV = node
        return [(opens[i], n[i]) for i in inside[index[V]]
                if _divides_int(n[i], nV) and n[i] != nV]

    # Each generation's opens are strictly smaller than the last, so the
    # loop ends within as many generations as the space has points.
    nodes, edges = _extract((opens[-1], n[-1]), expansive, operator.lt, operator.eq)
    return ZZDigraph(z.space, tuple(nodes), tuple(edges), 0)


def zz_sheaf_value(d: ZZDigraph, W: FrozenSet) -> int:
    """Sections over a connected open of the sheaf a ZZ digraph generates.

    The value on W is the smallest ideal declared on any node whose open
    contains W, i.e. gcd{n_U : W <= U}.  Every containing node's value is a
    multiple of the true value (restriction law), and extraction descends
    through expansive opens until some containing node attains the true
    value exactly, so the gcd reproduces the source assignment.
    """
    return math.gcd(*[nU for U, nU in d.nodes if W <= U])


# -- desk-scale enumeration of all digraphs --------------------------------------


def count_digraph_space(R: FiniteRing, budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """Count all valid digraphs of ideals over Spec of a finite ring.

    Node vocabulary: one class per nonempty distinguished open (opens are
    compared as prime-ideal sets), each paired with any ideal of the
    corresponding localization.  R_a is R/K_a with K_a = {r : a^|R| r = 0},
    so its ideals are the ideals of R that contain K_a, all read off R's
    one lattice, and a parent's ideal J generates J + K_c in a child's.
    Counts every (node set, ideal assignment, edge set) passing the digraph
    invariants.  Edges strictly shrink opens and none enters the root, so
    an edge set reaches every node exactly when each non-root node keeps at
    least one of its e edges increasing on ideals: 2^e - 1 choices per
    node.  ``digraph_vocab_cap`` bounds the ideal assignments walked for
    one node set.
    """
    from .finite import enumerate_ideals, ideal_closure
    primes = enumerate_spec(R, budgets)
    if not primes:
        raise DomainError("ring has no prime ideals")
    # Distinguished opens up to equality, as sets of prime indices.
    open_classes: Dict[FrozenSet, object] = {}
    for a in R.elements:
        pts = frozenset(i for i, p in enumerate(primes) if a not in p)
        if pts and pts not in open_classes:
            open_classes[pts] = a
    whole = frozenset(range(len(primes)))
    items = sorted(open_classes.items(), key=lambda kv: (-len(kv[0]), sorted(kv[0])))
    opens = [pts for pts, _ in items]
    root_idx = opens.index(whole)

    kernels = []
    for _, a in items:
        power = R.one
        for _ in range(R.size):
            power = R.mul(power, a)
        kernels.append(frozenset(r for r in R.elements if R.mul(power, r) == R.zero))
    lattice = enumerate_ideals(R, budgets)
    ideal_lists = [[I for I in lattice if K <= I] for K in kernels]

    # (child, parent's ideal) -> the ideal it generates in the child's
    # localization, closed once per call.
    images: Dict[Tuple[int, FrozenSet], FrozenSet] = {}
    count = 0
    m = len(opens)
    non_root = [i for i in range(m) if i != root_idx]
    for k in range(len(non_root) + 1):
        for chosen in itertools.combinations(non_root, k):
            node_opens = [root_idx] + list(chosen)
            allowed_edges = [(p, c) for p in node_opens for c in node_opens
                             if p != c and opens[c] < opens[p]]
            ideal_choices = [ideal_lists[i] for i in node_opens]
            if math.prod(map(len, ideal_choices)) > budgets.digraph_vocab_cap:
                raise BoundExceededError("digraph_vocab_cap", budgets.digraph_vocab_cap)
            for ideals in itertools.product(*ideal_choices):
                # The edges that are increasing on ideals.
                usable = []
                for (p, c) in allowed_edges:
                    parent = ideals[node_opens.index(p)]
                    image = images.get((c, parent))
                    if image is None:
                        image = images[c, parent] = ideal_closure(R, kernels[c], parent)
                    if image < ideals[node_opens.index(c)]:
                        usable.append((p, c))
                count += math.prod(2 ** sum(1 for _, t in usable if t == c) - 1
                                   for c in chosen)
    return count
