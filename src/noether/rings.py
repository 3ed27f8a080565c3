"""Presented rings and ideal handles.

A ``PresentedRing`` is k[vars]/quotient with a finite multiplicative set
inverted (localization).  Ideals are finite generator lists; the canonical
form of an ideal is its saturation with respect to the product of the
inverted generators, together with the quotient generators, as a reduced
Groebner basis, computed under the caller's budgets.  ``ideal_equal``
compares two handles over the same ring by their canonical forms, which
makes equality decidable in R_f; a handle itself compares by identity.

Every operation works in k[vars].  Every basis comes from
``_saturated_basis``, the reduced basis of (gens) : f^infinity, which the
ring keeps per (gens, f, budgets) as it keeps its localizations: in k[x]
the monic gcd with every factor it shares with f divided out, elsewhere
Buchberger for a constant f, else one elimination of t from (gens,
1 - t*f).  The canonical form saturates by the inverted product s.  A
saturation, intersection or colon is a handle on its reduced basis, which a
ring inverting nothing keeps as that handle's canonical basis.  Outside k[x],
radical membership runs one basis of (gens, 1 - t*s*f), and the ring
keeps the answer.  In k[x], (g) intersect (h) is the monic lcm
(g / gcd(g, h)) * h and the colon (g) : p is lcm(g, p) / p; elsewhere
they eliminate one auxiliary t from t*I + (1 - t)*J.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .config import Budgets, DEFAULT_BUDGETS
from .errors import DomainError, ResourceBudgetError
from .fields import FieldSpec
from .groebner import groebner_basis, interreduce, reduces_to_zero
from .parse import parse_polynomial
from .poly import BlockElim, DEGREVLEX, Polynomial, exact_divmod


class PresentedRing:
    """k[vars]/(quotient) with the ``inverted`` elements inverted.  Equality
    and hashing read these four and not the bases, radical-membership
    answers, localizations and inverted product the ring keeps in its
    ``__dict__``; so it is no ``Record``."""

    order = DEGREVLEX

    def __init__(self, field: FieldSpec, vars: Tuple[str, ...],
                 quotient: Tuple[Polynomial, ...] = (), inverted: Tuple[Polynomial, ...] = ()):
        self.field = field
        self.vars = vars
        self.quotient = quotient
        self.inverted = inverted
        if any(p.nvars != self.nvars or p.field != field for p in quotient + inverted):
            raise DomainError("presentation polynomial from a different ring")
        if any(p.is_zero() for p in inverted):
            raise DomainError("cannot invert zero")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.field, self.vars, self.quotient, self.inverted)
                == (other.field, other.vars, other.quotient, other.inverted))

    def __hash__(self):
        return hash((self.field, self.vars, self.quotient, self.inverted))

    @property
    def nvars(self) -> int:
        return len(self.vars)

    # -- element helpers ---------------------------------------------------

    def parse(self, text: str, budgets: Budgets = DEFAULT_BUDGETS) -> Polynomial:
        return parse_polynomial(text, self.field, self.vars, budgets)

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.field, self.nvars)

    def one(self) -> Polynomial:
        return Polynomial.const(self.field, self.nvars, 1)

    def var(self, name: str) -> Polynomial:
        return Polynomial.var(self.field, self.nvars, self.vars.index(name))

    def inverted_product(self) -> Polynomial:
        """The inverted elements' product, kept once per ring outside the fields."""
        s = self.__dict__.get("_inverted_product")
        if s is None:
            s = self.one()
            for p in self.inverted:
                s = s * p
            self._inverted_product = s
        return s

    def with_inverted(self, f: Polynomial) -> "PresentedRing":
        """The localization at ``f`` (coordinate ring of D(f)), kept per f
        outside the fields, so that its bases are kept once too."""
        kept = self.__dict__.setdefault("_localizations", {})
        if f not in kept:
            kept[f] = PresentedRing(self.field, self.vars, self.quotient, self.inverted + (f,))
        return kept[f]

    def ideal(self, *gens) -> "IdealHandle":
        if len(gens) == 1 and isinstance(gens[0], (list, tuple)):
            gens = gens[0]
        gens = [self.parse(g) if isinstance(g, str) else g for g in gens]
        return IdealHandle(self, tuple(gens))

    def render(self, p: Polynomial) -> str:
        return p.render(self.vars)

    def describe(self) -> str:
        parts = [f"{self.field.describe()}[{','.join(self.vars)}]"]
        if self.quotient:
            parts.append("/(" + ", ".join(self.render(q) for q in self.quotient) + ")")
        if self.inverted:
            parts.append("[1/(" + ", ".join(self.render(s) for s in self.inverted) + ")]")
        return "".join(parts)


def _eliminate_aux(lifted: List[Polynomial], budgets: Budgets) -> List[Polynomial]:
    """Basis elements free of the one auxiliary variable, with it dropped."""
    basis = groebner_basis(lifted, BlockElim(1), budgets)
    return [g.drop_aux(1) for g in basis if not g.uses_aux(1)]


def _intersection_gens(field: FieldSpec, nvars: int, gi: Sequence[Polynomial],
                       gj: Sequence[Polynomial], budgets: Budgets) -> List[Polynomial]:
    """Generators of (gi) intersect (gj): in k[x], where each side is (g) or
    (0), the monic lcm (g / gcd(g, h)) * h, refused past ``max_degree``
    exactly where the elimination below refuses for coprime or dividing
    generators and at most where it refuses otherwise; elsewhere, the
    elimination of t from t*(gi) + (1-t)*(gj)."""
    if nvars == 1:
        from .univar import exact_quotient, gcd, poly_degree
        if any(poly_degree(g) >= budgets.max_degree for g in (*gi, *gj)):
            raise ResourceBudgetError("max_degree", budgets.max_degree)
        if not gi or not gj:
            return []
        (g,), (h,) = gi, gj
        d = gcd([g, h], field)
        if poly_degree(g) + poly_degree(h) - poly_degree(d) > budgets.max_degree:
            raise ResourceBudgetError("max_degree", budgets.max_degree)
        return [(exact_quotient(g, d) * h).monic(DEGREVLEX)]
    t = Polynomial.var(field, nvars + 1, 0)
    one = Polynomial.const(field, nvars + 1, 1)
    lifted = [t * g.lift(1) for g in gi] + [(one - t) * g.lift(1) for g in gj]
    return _eliminate_aux(lifted, budgets)


def _reduced_handle(ring: PresentedRing, basis: Sequence[Polynomial],
                    budgets: Budgets) -> "IdealHandle":
    """A handle on ``basis``, the reduced basis of an ideal containing the
    quotient; a ring inverting nothing keeps it as the canonical basis."""
    basis = tuple(basis)
    if not ring.inverted:
        ring.__dict__.setdefault("_bases", {})[(basis + ring.quotient, ring.one(), budgets)] = basis
    return IdealHandle(ring, basis)


def _saturated_basis(ring: PresentedRing, gens: Sequence[Polynomial], f: Polynomial,
                     budgets: Budgets) -> Tuple[Polynomial, ...]:
    """Reduced Groebner basis of (gens) : f^infinity in k[vars], kept in the
    ring's table per (gens, f, budgets).  Under other budgets it is computed
    afresh, so a budget refuses it as it would the first time."""
    bases = ring.__dict__.setdefault("_bases", {})
    key = (tuple(gens), f, budgets)
    basis = bases.get(key)
    if basis is not None:
        return basis
    if f.is_zero():
        raise DomainError("cannot saturate with respect to zero")
    if ring.nvars == 1:
        from .univar import gcd, strip_shared
        # The degree budget Buchberger applies to its input generators, not to f.
        if any(g.total_degree() > budgets.max_degree for g in gens):
            raise ResourceBudgetError("max_degree", budgets.max_degree)
        g = gcd(gens, ring.field)
        basis = () if g.is_zero() else (g if f.is_constant() else strip_shared(g, f),)
    elif f.is_constant():
        basis = tuple(groebner_basis(list(gens), ring.order, budgets))
    else:
        # Under the elimination order the t-free elements are compared by
        # degrevlex, so they are already the reduced basis, in its order.
        t = Polynomial.var(ring.field, ring.nvars + 1, 0)
        one = Polynomial.const(ring.field, ring.nvars + 1, 1)
        lifted = [g.lift(1) for g in gens] + [one - t * f.lift(1)]
        basis = tuple(_eliminate_aux(lifted, budgets))
    bases[key] = basis
    return basis


class IdealHandle:
    """Finite generator list in a presented ring; its bases are the ring's."""

    def __init__(self, ring: PresentedRing, generators: Tuple[Polynomial, ...]):
        if any(g.nvars != ring.nvars or g.field != ring.field for g in generators):
            raise DomainError("generator from a different ring")
        self.ring = ring
        self.generators = tuple(generators)

    # -- bases -------------------------------------------------------------

    def plain_basis(self, budgets: Budgets = DEFAULT_BUDGETS) -> Tuple[Polynomial, ...]:
        """Reduced Groebner basis of (generators + quotient), unsaturated; the
        library uses only :meth:`canonical_basis`."""
        gens = self.generators + self.ring.quotient
        return _saturated_basis(self.ring, gens, self.ring.one(), budgets)

    def canonical_basis(self, budgets: Budgets = DEFAULT_BUDGETS) -> Tuple[Polynomial, ...]:
        """Reduced Groebner basis of the ideal's canonical form: the
        contraction to k[vars] of the ideal it generates in the presented
        ring, (generators, quotient) : s^infinity for the inverted product s."""
        gens = self.generators + self.ring.quotient
        return _saturated_basis(self.ring, gens, self.ring.inverted_product(), budgets)

    # -- predicates ----------------------------------------------------------

    def contains(self, p: Polynomial, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
        return reduces_to_zero(p, list(self.canonical_basis(budgets)), self.ring.order, budgets)

    def is_unit_ideal(self, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
        basis = self.canonical_basis(budgets)
        return len(basis) == 1 and basis[0].is_one()

    def is_zero_ideal(self, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
        return not self.canonical_basis(budgets)

    def render(self) -> str:
        return "(" + ", ".join(self.ring.render(g) for g in self.generators) + ")"


# -- module operations ---------------------------------------------------


def op_groebner_basis(I: IdealHandle, budgets: Budgets = DEFAULT_BUDGETS) -> List[Polynomial]:
    """Reduced Groebner basis of the ideal's canonical form (saturated by the
    inverted elements)."""
    return list(I.canonical_basis(budgets))


def ideal_membership(p: Polynomial, I: IdealHandle, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    return I.contains(p, budgets)


def ideal_equal(I: IdealHandle, J: IdealHandle, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    if I.ring != J.ring:
        raise DomainError("ideal handles from different rings")
    return I.canonical_basis(budgets) == J.canonical_basis(budgets)


def ideal_contains(I: IdealHandle, J: IdealHandle, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """True iff J is a subset of I (every generator of J lies in I)."""
    return all(I.contains(g, budgets) for g in J.canonical_basis(budgets))


def ideal_combine(op: str, I: IdealHandle, J: IdealHandle,
                  budgets: Budgets = DEFAULT_BUDGETS) -> IdealHandle:
    if I.ring != J.ring:
        raise DomainError("ideal handles from different rings")
    ring = I.ring
    if op == "sum":
        return IdealHandle(ring, I.generators + J.generators)
    if op == "product":
        gens = tuple(a * b for a in I.generators for b in J.generators)
        return IdealHandle(ring, gens)
    if op == "intersection":
        gens = _intersection_gens(ring.field, ring.nvars, I.canonical_basis(budgets),
                                  J.canonical_basis(budgets), budgets)
        return _reduced_handle(ring, gens, budgets)
    raise DomainError(f"unknown ideal operation {op!r}")


def saturate(I: IdealHandle, f: Polynomial, budgets: Budgets = DEFAULT_BUDGETS) -> IdealHandle:
    """The saturation (generators, quotient) : f^infinity, as a handle over
    the same ring on its reduced basis (see ``_reduced_handle``)."""
    gens = I.generators + I.ring.quotient
    return _reduced_handle(I.ring, _saturated_basis(I.ring, gens, f, budgets), budgets)


def colon_ideal(I: IdealHandle, p: Polynomial, budgets: Budgets = DEFAULT_BUDGETS) -> IdealHandle:
    """The colon ideal (I : p) for a single element, via (I intersect (p))/p
    in k[vars], where membership in (p) is exact divisibility by p, on the
    canonical basis: (I : p) : s^inf = (I : s^inf) : p.  The quotients of
    the intersection's reduced basis by p, a Groebner basis of I : p, are
    only inter-reduced into the result's basis (see ``_reduced_handle``)."""
    ring = I.ring
    if p.is_zero():
        return IdealHandle(ring, (ring.one(),))
    gens = []
    for g in _intersection_gens(ring.field, ring.nvars, I.canonical_basis(budgets), [p], budgets):
        q, r = exact_divmod(g, p)
        if not r.is_zero():
            raise DomainError("intersection generator not divisible by the colon element")
        gens.append(q)
    return _reduced_handle(ring, interreduce(gens, ring.order, budgets), budgets)


def radical_membership(f: Polynomial, I: IdealHandle, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """True iff f lies in the radical of I in the presented ring: iff
    (generators, quotient) : (s*f)^infinity is (1), s the inverted product.
    In k[x] that is the canonical generator with every factor it shares
    with f divided out.  Elsewhere one reduced degrevlex basis of
    (generators, quotient, 1 - t*s*f) in k[t, vars] decides it, and the
    ring keeps the answer per (generators, f, budgets), apart from bases."""
    if f.is_zero():
        return True
    ring = I.ring
    if ring.nvars == 1:
        basis = _saturated_basis(ring, I.canonical_basis(budgets), f, budgets)
        return len(basis) == 1 and basis[0].is_one()
    answers = ring.__dict__.setdefault("_radicals", {})
    key = (I.generators, f, budgets)
    if key not in answers:
        t = Polynomial.var(ring.field, ring.nvars + 1, 0)
        one = Polynomial.const(ring.field, ring.nvars + 1, 1)
        gens = [g.lift(1) for g in I.generators + ring.quotient]
        basis = groebner_basis(gens + [one - t * (ring.inverted_product() * f).lift(1)],
                               ring.order, budgets)
        answers[key] = len(basis) == 1 and basis[0].is_one()
    return answers[key]
