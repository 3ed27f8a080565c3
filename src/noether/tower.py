"""The symmetry-broken tower of double covers of the punctured line.

Level n is k[x] with x inverted together with one deleted point per level
below; the covering maps are x -> x^2.  Two exponent rules are provided for
the deleted points: ``power`` inverts x^(2^j) - 2 for j = 1..n (the
exponents produced by pulling the point 2 back along the squaring maps),
``literal`` inverts x^(2j) - 2 for j = 1..n.  The pullback of the section
ideal (x - 1) from level m to level n is (x^(2^(n-m)) - 1) under either
rule; the strictness of the resulting chain is the finite-level witness
that no finite set of sections generates every level's ideal.

``tower_ring`` is the one depth gate.  A level carries the caller's budgets
with ``max_degree`` raised to at least 2^n, the largest degree any level-n
check builds: the chain generator x^(2^n) - 1, the deleted points, and
their images under squaring.  Every check takes levels and reads their
budgets.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .config import Budgets, DEFAULT_BUDGETS
from .errors import DomainError, ResourceBudgetError
from .fields import FieldSpec
from .poly import Polynomial
from .rings import (IdealHandle, PresentedRing, ideal_contains, ideal_equal,
                    ideal_membership)

EXPONENT_RULES = ("power", "literal")


def deleted_exponents(n: int, rule: str = "power") -> List[int]:
    if rule == "power":
        return [2 ** j for j in range(1, n + 1)]
    if rule == "literal":
        return [2 * j for j in range(1, n + 1)]
    raise DomainError(f"unknown exponent rule: {rule!r}")


class TowerLevel:
    def __init__(self, n: int, ring: PresentedRing, ideal: IdealHandle, rule: str,
                 budgets: Budgets):
        self.n = n
        self.ring = ring
        self.ideal = ideal
        self.rule = rule
        self.budgets = budgets

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.n, self.ring, self.ideal, self.rule, self.budgets)
                == (other.n, other.ring, other.ideal, other.rule, other.budgets))

    def __hash__(self):
        return hash((self.n, self.ring, self.ideal, self.rule, self.budgets))

    def describe(self) -> str:
        return (f"level {self.n} ({self.rule} rule): "
                f"{self.ring.describe()}, ideal (x - 1)")


def _power_poly(R: PresentedRing, e: int, shift: int) -> Polynomial:
    """x^e - shift as an element of R, for e >= 1: its two terms."""
    F = R.field
    return Polynomial(F, R.nvars, {(e,): F.one(), (0,): F.from_int(-shift)})


def _square_pullback(g: Polynomial, target: PresentedRing) -> Polynomial:
    """Image of a univariate g under x -> x^2, as an element of the target."""
    terms = {(2 * m[0],): c for m, c in g.terms.items()}
    return Polynomial(target.field, target.nvars, terms)


def tower_ring(n: int, field: FieldSpec, rule: str = "power",
               budgets: Budgets = DEFAULT_BUDGETS) -> TowerLevel:
    """Level n, refused past ``budgets.tower_max_depth`` before anything is
    built; it carries ``budgets`` with ``max_degree`` raised to at least 2^n."""
    if n > budgets.tower_max_depth:
        raise ResourceBudgetError("tower_max_depth", budgets.tower_max_depth,
                                  f"depth {n} exceeds the configured maximum "
                                  f"{budgets.tower_max_depth}")
    if n < 0:
        raise DomainError("tower level must be nonnegative")
    if field.p == 2:
        raise DomainError("tower requires a field of characteristic != 2")
    R0 = PresentedRing(field, ("x",))
    inverted = [R0.var("x")]
    inverted += [_power_poly(R0, e, 2) for e in deleted_exponents(n, rule)]
    ring = PresentedRing(field, ("x",), quotient=(),
                         inverted=tuple(inverted))
    ideal = ring.ideal(_power_poly(ring, 1, 1))
    budgets = budgets.replace(max_degree=max(budgets.max_degree, 2 ** n))
    return TowerLevel(n, ring, ideal, rule, budgets)


class CoverMapReport:
    def __init__(self, source: int, target: int, well_defined: bool, etale: bool,
                 compatible: bool, witness: Optional[str] = None):
        self.source = source
        self.target = target
        self.well_defined = well_defined
        self.etale = etale
        self.compatible = compatible
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.target, self.well_defined, self.etale, self.compatible,
                 self.witness)
                == (other.source, other.target, other.well_defined, other.etale,
                    other.compatible, other.witness))

    @property
    def ok(self) -> bool:
        return self.well_defined and self.etale and self.compatible

    def as_dict(self) -> Dict:
        return {"source": self.source, "target": self.target,
                "well_defined": self.well_defined, "etale": self.etale,
                "compatible": self.compatible, "ok": self.ok,
                "witness": self.witness}


def _is_unit(ring: PresentedRing, p: Polynomial,
             budgets: Budgets) -> bool:
    return IdealHandle(ring, (p,)).is_unit_ideal(budgets)


def verify_cover_map(source: TowerLevel, target: TowerLevel) -> CoverMapReport:
    """Checks for the squaring map from level n-1 into level n.

    (a) every inverted element of the source has invertible image,
    (b) the derivative 2x is a unit (the Jacobian criterion for x -> x^2),
    (c) pulling (x - 1) back agrees with the one-shot pullback from level 0
        along x -> x^(2^(target - source)) (here a single squaring).
    """
    if target.n != source.n + 1:
        raise DomainError("cover maps connect consecutive levels only")
    if source.rule != target.rule or source.ring.field != target.ring.field:
        raise DomainError("levels from different towers")
    T, budgets = target.ring, target.budgets

    well_defined = True
    witness = None
    for g in source.ring.inverted:
        image = _square_pullback(g, T)
        if not _is_unit(T, image, budgets):
            well_defined = False
            witness = T.render(image)
            break

    two_x = Polynomial(T.field, T.nvars, {(1,): T.field.from_int(2)})
    etale = _is_unit(T, two_x, budgets)
    if not etale and witness is None:
        witness = T.render(two_x)

    pulled = T.ideal([_square_pullback(g, T)
                      for g in source.ideal.generators])
    direct = T.ideal(_power_poly(T, 2, 1))
    compatible = ideal_equal(pulled, direct, budgets)
    return CoverMapReport(source.n, target.n, well_defined, etale,
                          compatible, witness)


class StrictnessReport:
    def __init__(self, n: int, pullback_is_x2_minus_1: bool, strictly_smaller: bool,
                 witness_in_big: bool, witness_not_in_small: bool):
        self.n = n
        self.pullback_is_x2_minus_1 = pullback_is_x2_minus_1
        self.strictly_smaller = strictly_smaller
        self.witness_in_big = witness_in_big
        self.witness_not_in_small = witness_not_in_small

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.n, self.pullback_is_x2_minus_1, self.strictly_smaller,
                 self.witness_in_big, self.witness_not_in_small)
                == (other.n, other.pullback_is_x2_minus_1, other.strictly_smaller,
                    other.witness_in_big, other.witness_not_in_small))

    @property
    def ok(self) -> bool:
        return (self.pullback_is_x2_minus_1 and self.strictly_smaller
                and self.witness_in_big and self.witness_not_in_small)

    def as_dict(self) -> Dict:
        return {"n": self.n,
                "pullback_is_x2_minus_1": self.pullback_is_x2_minus_1,
                "strictly_smaller": self.strictly_smaller,
                "witness_in_big": self.witness_in_big,
                "witness_not_in_small": self.witness_not_in_small,
                "ok": self.ok}


def pullback_ideal(level: TowerLevel, m: int) -> IdealHandle:
    """Image in the given level of the section ideal of level m <= n."""
    if not 0 <= m <= level.n:
        raise DomainError("source level out of range")
    return level.ring.ideal(_power_poly(level.ring, 2 ** (level.n - m), 1))


def pullback_strictness(level: TowerLevel) -> StrictnessReport:
    """The ideal generated by all lower-level pullbacks is (x^2 - 1) and is
    strictly inside (x - 1); the witness x + 1 separates them."""
    n = level.n
    if n < 1:
        raise DomainError("strictness needs at least one lower level")
    R, budgets = level.ring, level.budgets
    gens = []
    for m in range(n):
        gens.extend(pullback_ideal(level, m).generators)
    J = R.ideal(gens)
    x2m1 = R.ideal(_power_poly(R, 2, 1))
    pullback_ok = ideal_equal(J, x2m1, budgets)
    xm1 = level.ideal
    inside = ideal_contains(xm1, J, budgets)
    strict = inside and not ideal_equal(J, xm1, budgets)
    witness = _power_poly(R, 1, -1)  # x + 1
    in_big = ideal_membership(witness * _power_poly(R, 1, 1), J, budgets)
    not_in_small = not ideal_membership(witness, J, budgets)
    return StrictnessReport(n, pullback_ok, strict, in_big, not_in_small)


class MaximalityReport:
    def __init__(self, n: int, proper: bool, evaluations: Dict[str, str], maximal: bool,
                 witness: Optional[str] = None):
        self.n = n
        self.proper = proper
        self.evaluations = evaluations
        self.maximal = maximal
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.n, self.proper, self.evaluations, self.maximal, self.witness)
                == (other.n, other.proper, other.evaluations, other.maximal, other.witness))

    @property
    def ok(self) -> bool:
        return self.proper and self.maximal

    def as_dict(self) -> Dict:
        return {"n": self.n, "proper": self.proper, "maximal": self.maximal,
                "evaluations": self.evaluations, "witness": self.witness,
                "ok": self.ok}


def properness_and_maximality(level: TowerLevel) -> MaximalityReport:
    """(x - 1) is proper at level n, and evaluation at 1 exhibits the
    quotient as the base field (every inverted element evaluates to a
    nonzero constant, so the evaluation map is defined on the whole ring)."""
    R = level.ring
    proper = not level.ideal.is_unit_ideal(level.budgets)
    point = [R.field.one()]
    evaluations = {}
    maximal = True
    witness = None
    for g in R.inverted:
        constant = g.substitute(point)
        evaluations[R.render(g)] = str(constant)
        if constant == R.field.zero():
            maximal = False
            witness = R.render(g)
    return MaximalityReport(level.n, proper, evaluations, maximal, witness)


class TowerSuiteReport:
    def __init__(self, depth: int, field: str, rule: str, cover_maps: List[CoverMapReport],
                 strictness: List[StrictnessReport], maximality: List[MaximalityReport],
                 chain: List[str], chain_strict: bool):
        self.depth = depth
        self.field = field
        self.rule = rule
        self.cover_maps = cover_maps
        self.strictness = strictness
        self.maximality = maximality
        self.chain = chain
        self.chain_strict = chain_strict

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.depth, self.field, self.rule, self.cover_maps, self.strictness,
                 self.maximality, self.chain, self.chain_strict)
                == (other.depth, other.field, other.rule, other.cover_maps,
                    other.strictness, other.maximality, other.chain, other.chain_strict))

    @property
    def ok(self) -> bool:
        return (all(r.ok for r in self.cover_maps)
                and all(r.ok for r in self.strictness)
                and all(r.ok for r in self.maximality)
                and self.chain_strict)

    def failing_level(self) -> Optional[int]:
        for r in self.cover_maps:
            if not r.ok:
                return r.target
        for r in self.strictness:
            if not r.ok:
                return r.n
        for r in self.maximality:
            if not r.ok:
                return r.n
        if not self.chain_strict:
            return self.depth
        return None

    def as_dict(self) -> Dict:
        return {"depth": self.depth, "field": self.field, "rule": self.rule,
                "cover_maps": [r.as_dict() for r in self.cover_maps],
                "strictness": [r.as_dict() for r in self.strictness],
                "maximality": [r.as_dict() for r in self.maximality],
                "chain": self.chain, "chain_strict": self.chain_strict,
                "ok": self.ok, "failing_level": self.failing_level()}


def run_tower_suite(N: int, field: FieldSpec, rule: str = "power",
                    budgets: Budgets = DEFAULT_BUDGETS) -> TowerSuiteReport:
    """All level checks up to depth N plus the strict-containment chain

        (x^(2^N) - 1) ⊊ ... ⊊ (x^2 - 1) ⊊ (x - 1)

    inside level N's ring, the depth-N certificate that no finite set of
    sections generates the ideal at every level.  Each level is built once,
    the top one first, so an over-deep suite is refused before any is."""
    top = tower_ring(N, field, rule, budgets)
    levels = [tower_ring(n, field, rule, budgets) for n in range(N)] + [top]
    cover_maps = [verify_cover_map(levels[n], levels[n + 1])
                  for n in range(N)]
    strictness = [pullback_strictness(level) for level in levels[1:]]
    maximality = [properness_and_maximality(level) for level in levels]
    handles = [pullback_ideal(top, m) for m in range(N + 1)]
    chain = [f"(x^{2 ** (N - m)} - 1)" if N > m else "(x - 1)"
             for m in range(N + 1)]
    chain_strict = True
    for small, big in zip(handles, handles[1:]):
        if not (ideal_contains(big, small, top.budgets)
                and not ideal_equal(small, big, top.budgets)):
            chain_strict = False
            break
    return TowerSuiteReport(N, field.describe(), rule, cover_maps,
                            strictness, maximality, chain, chain_strict)
