"""Univariate helpers: exact gcd, divisibility, irreducible factorization.

Factorization over Q and F_p delegates to sympy, imported only when a
caller factors; everything else is plain Euclidean arithmetic on our own
polynomial type.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import CapabilityError
from .fields import FieldSpec
from .poly import DEGREVLEX, Polynomial, exact_divmod


def _require_univariate(p: Polynomial):
    if p.nvars != 1:
        raise CapabilityError("univariate polynomial required")


def poly_degree(p: Polynomial) -> int:
    """Degree of a univariate polynomial; -1 for the zero polynomial."""
    _require_univariate(p)
    if p.is_zero():
        return -1
    return max(mono[0] for mono in p.terms)


def exact_quotient(p: Polynomial, g: Polynomial) -> Polynomial:
    """p / g when g divides p exactly; raises on a nonzero remainder."""
    quo, r = exact_divmod(p, g)
    if not r.is_zero():
        raise CapabilityError("exact quotient requested for a non-multiple")
    return quo


def divides(a: Polynomial, b: Polynomial) -> bool:
    """True iff a | b in k[x]; zero divides only zero."""
    if a.is_zero():
        return b.is_zero()
    _, r = exact_divmod(b, a)
    return r.is_zero()


def gcd(polys: Sequence[Polynomial], field: FieldSpec) -> Polynomial:
    """Monic gcd of a family; the empty/all-zero family yields 0."""
    acc = None
    for p in polys:
        _require_univariate(p)
        if p.is_zero():
            continue
        acc = p if acc is None else _euclid(acc, p)
    if acc is None:
        return Polynomial.zero(field, 1)
    return acc.monic(DEGREVLEX)


def _euclid(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero():
        _, r = exact_divmod(a, b)
        a, b = b, r
    return a


def strip_shared(g: Polynomial, f: Polynomial) -> Polynomial:
    """Monic nonzero g with every irreducible factor it shares with f
    divided out: the generator of (g) : f^infinity in k[x]."""
    while True:
        d = _euclid(g, f).monic(DEGREVLEX)
        if d.is_one():
            return g
        g = exact_divmod(g, d)[0].monic(DEGREVLEX)


def multiplicity(q: Polynomial, g: Polynomial) -> int:
    """Largest e with q^e | g (g nonzero, q nonconstant)."""
    e = 0
    while True:
        quo, r = exact_divmod(g, q)
        if not r.is_zero():
            return e
        g = quo
        e += 1


def _domain(field: FieldSpec):
    import sympy

    return sympy.QQ if field.kind == "q" else sympy.GF(field.p)


def to_sympy(p: Polynomial) -> "sympy.Poly":
    import sympy

    _require_univariate(p)
    terms = {(e,): int(c) if p.field.kind == "fp" else c for (e,), c in p.terms.items()}
    return sympy.Poly.from_dict(terms, sympy.Symbol("x"), domain=_domain(p.field))


def from_sympy(sp: "sympy.Poly", field: FieldSpec) -> Polynomial:
    terms = {}
    for mono, coeff in sp.as_dict().items():
        e = mono[0]
        if field.kind == "q":
            c = Fraction(int(coeff.numerator), int(coeff.denominator))
        else:
            c = int(coeff) % field.p
        terms[(e,)] = c
    return Polynomial(field, 1, terms)


def irreducible_factors(p: Polynomial) -> List[Tuple[Polynomial, int]]:
    """Monic irreducible factors of a nonzero univariate polynomial."""
    import sympy

    _require_univariate(p)
    if p.is_zero():
        raise CapabilityError("cannot factor zero")
    if p.is_constant():
        return []
    _, factors = to_sympy(p).factor_list()
    out = []
    for fac, mult in factors:
        q = from_sympy(sympy.Poly(fac, sympy.Symbol("x"), domain=_domain(p.field)), p.field)
        if q.is_constant():
            continue
        out.append((q.monic(DEGREVLEX), int(mult)))
    return out
