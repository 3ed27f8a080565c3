"""Sparse multivariate polynomials over an exact field.

A polynomial is a map from exponent vectors (tuples of non-negative ints,
one slot per ring variable) to nonzero field coefficients.  Monomial orders
are small objects whose sort key is a flat tuple of ints; ``degrevlex``,
``lex`` and block elimination orders (auxiliary variables first and
greatest) are provided.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub
from typing import Dict, Tuple

from .errors import DomainError
from .fields import FieldSpec

Mono = Tuple[int, ...]


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True iff x^a divides x^b."""
    return all(map(le, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(map(sub, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


class MonomialOrder:
    """A sort key per monomial: a flat tuple of ints, greater for the
    greater monomial.

    ``heap_key`` is that key with every int negated, so a min-heap of heap
    keys pops the greatest monomial first.  By default it negates ``key``;
    degrevlex and the block orders build it in one step (degrevlex:
    ``(-sum(m),) + m[::-1]``).  A ``graded`` order compares total degree
    first, so a monomial below another has no higher degree.
    """

    graded = False

    def key(self, m: Mono):  # pragma: no cover - interface
        raise NotImplementedError

    def heap_key(self, m: Mono):
        return tuple(map(neg, self.key(m)))


def _degrevlex(m: Mono) -> Tuple[int, ...]:
    return (sum(m),) + tuple(map(neg, reversed(m)))


def _degrevlex_heap(m: Mono) -> Tuple[int, ...]:
    return (-sum(m),) + m[::-1]


class DegRevLex(MonomialOrder):
    graded = True
    key = staticmethod(_degrevlex)
    heap_key = staticmethod(_degrevlex_heap)


class Lex(MonomialOrder):
    def key(self, m: Mono):
        return m


class BlockElim(MonomialOrder):
    """Product order eliminating the first ``naux`` variables.

    Any monomial involving an auxiliary variable beats any that does not,
    so basis elements free of auxiliaries generate the elimination ideal.
    The head block of the key has the fixed length 1 + naux, so the flat
    key compares as degrevlex on the auxiliaries, then on the rest.
    """

    def __init__(self, naux: int):
        self.naux = naux

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.naux == other.naux

    def __hash__(self):
        return hash((self.naux,))

    def key(self, m: Mono):
        return _degrevlex(m[: self.naux]) + _degrevlex(m[self.naux :])

    def heap_key(self, m: Mono):
        return _degrevlex_heap(m[: self.naux]) + _degrevlex_heap(m[self.naux :])


DEGREVLEX = DegRevLex()
LEX = Lex()


class Polynomial:
    """Immutable sparse polynomial.  ``terms`` maps exponent tuple -> coeff.

    The leading monomial is memoized for the last order asked (``_lead``);
    it is the very key object of ``terms``, so callers may compare it with
    ``is``.  ``groebner_basis`` records it for the order of the basis.  A
    univariate polynomial keeps its ``(unit, dense normal form)`` in
    ``_dense_form`` once ``noether.univar`` has derived or built it.
    """

    __slots__ = ("field", "nvars", "terms", "_hash", "_lead", "_dense_form")

    def __init__(self, field: FieldSpec, nvars: int, terms: Dict[Mono, object]):
        self.field = field
        self.nvars = nvars
        clean = {}
        for m, c in terms.items():
            if len(m) != nvars:
                raise DomainError("exponent vector length mismatch")
            if c:
                clean[m] = c
        self.terms = clean
        self._hash = None
        self._lead = None
        self._dense_form = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(field: FieldSpec, nvars: int) -> "Polynomial":
        return Polynomial(field, nvars, {})

    @staticmethod
    def const(field: FieldSpec, nvars: int, n: int) -> "Polynomial":
        return Polynomial(field, nvars, {(0,) * nvars: field.from_int(n)})

    @staticmethod
    def var(field: FieldSpec, nvars: int, i: int) -> "Polynomial":
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return Polynomial(field, nvars, {m: field.one()})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: self.field.one()}

    def is_constant(self) -> bool:
        return all(mono_deg(m) == 0 for m in self.terms)

    def total_degree(self) -> int:
        return max((mono_deg(m) for m in self.terms), default=-1)

    # -- arithmetic ------------------------------------------------------

    def _binop(self, other: "Polynomial", op) -> "Polynomial":
        if other.nvars != self.nvars or other.field != self.field:
            raise DomainError("polynomials from different rings")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            v = op(terms.get(m, self.field.zero()), c)
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return Polynomial(self.field, self.nvars, terms)

    def __add__(self, other):
        return self._binop(other, self.field.add)

    def __sub__(self, other):
        return self._binop(other, self.field.sub)

    def __neg__(self):
        F = self.field
        return Polynomial(F, self.nvars, {m: F.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.from_int(other))
        if other.nvars != self.nvars or other.field != self.field:
            raise DomainError("polynomials from different rings")
        F = self.field
        terms: Dict[Mono, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = F.add(terms.get(m, F.zero()), F.mul(c1, c2))
                if v:
                    terms[m] = v
                else:
                    terms.pop(m, None)
        return Polynomial(F, self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative power")
        result = Polynomial.const(self.field, self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        if not c:
            return Polynomial.zero(self.field, self.nvars)
        F = self.field
        return Polynomial(F, self.nvars, {m: F.mul(c, v) for m, v in self.terms.items()})

    def mul_term(self, m: Mono, c) -> "Polynomial":
        F = self.field
        return Polynomial(F, self.nvars, {mono_mul(m, t): F.mul(c, v) for t, v in self.terms.items()})

    # -- leading data ----------------------------------------------------

    def leading_monomial(self, order: MonomialOrder) -> Mono:
        lead = self._lead
        if lead is None or lead[0] != order:
            lead = self._lead = (order, max(self.terms, key=order.key))
        return lead[1]

    def leading_coeff(self, order: MonomialOrder):
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading_coeff(order)))

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        # (numerator, denominator), which ints have too, spares Fraction.__hash__.
        if self._hash is None:
            self._hash = hash((self.field, self.nvars, frozenset(
                (m, c.numerator, c.denominator) for m, c in self.terms.items())))
        return self._hash

    # -- variable plumbing -------------------------------------------------

    def lift(self, naux: int) -> "Polynomial":
        """Reinterpret in a ring with ``naux`` new variables prepended."""
        pad = (0,) * naux
        return Polynomial(self.field, self.nvars + naux, {pad + m: c for m, c in self.terms.items()})

    def drop_aux(self, naux: int) -> "Polynomial":
        """Inverse of :meth:`lift`; requires the auxiliaries to be absent."""
        terms = {}
        for m, c in self.terms.items():
            if any(m[:naux]):
                raise DomainError("polynomial involves auxiliary variables")
            terms[m[naux:]] = c
        return Polynomial(self.field, self.nvars - naux, terms)

    def uses_aux(self, naux: int) -> bool:
        return any(any(m[:naux]) for m in self.terms)

    def substitute(self, values) -> object:
        """Evaluate at a point given as a list of field elements."""
        F = self.field
        acc = F.zero()
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, values):
                for _ in range(e):
                    v = F.mul(v, x)
            acc = F.add(acc, v)
        return acc

    # -- rendering -------------------------------------------------------

    def render(self, var_names) -> str:
        if self.is_zero():
            return "0"
        out = []
        for m in sorted(self.terms, key=LEX.key, reverse=True):
            c = self.terms[m]
            parts = []
            for name, e in zip(var_names, m):
                if e == 1:
                    parts.append(name)
                elif e > 1:
                    parts.append(f"{name}^{e}")
            body = "*".join(parts)
            if not body:
                frag = str(c)
            elif c == self.field.one():
                frag = body
            elif c == self.field.from_int(-1) and self.field.kind == "q":
                frag = f"-{body}"
            else:
                frag = f"{c}*{body}"
            out.append(frag)
        text = " + ".join(out).replace("+ -", "- ")
        return text

    def __repr__(self):
        return f"Polynomial({self.render([f'v{i}' for i in range(self.nvars)])})"


def exact_divmod(g: Polynomial, p: Polynomial):
    """Single-divisor division in degrevlex; returns (quotient, remainder).

    Stops at the first leading monomial that p's does not divide, so the
    remainder is zero exactly when p divides g.  Reduces into one dict,
    with a heap of degrevlex heap keys giving the next leading term.
    """
    F = g.field
    key = DEGREVLEX.heap_key
    pm = p.leading_monomial(DEGREVLEX)
    pc = p.terms[pm]
    tail = [(t, v) for t, v in p.terms.items() if t is not pm]
    # Cancelled terms stay in ``work`` as zeros, so a monomial enters the
    # heap at most once.
    work = dict(g.terms)
    heap = [(key(m), m) for m in work]
    heapify(heap)
    quotient = {}
    while heap:
        lm = heappop(heap)[1]
        if not work[lm]:
            del work[lm]
            continue
        if not mono_divides(pm, lm):
            return Polynomial(F, g.nvars, quotient), Polynomial(F, g.nvars, work)
        q = mono_div(lm, pm)
        c = quotient[q] = F.div(work.pop(lm), pc)
        for t, v in tail:
            m = mono_mul(q, t)
            if m in work:
                work[m] = F.sub(work[m], F.mul(c, v))
            else:
                work[m] = F.neg(F.mul(c, v))
                heappush(heap, (key(m), m))
    return Polynomial(F, g.nvars, quotient), Polynomial.zero(F, g.nvars)
