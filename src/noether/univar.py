"""Univariate helpers: exact gcd, divisibility, squarefree decomposition,
coprime bases, irreducible factorization.

Section ideals of sheaves on a univariate base need no factoring: a coprime
base (squarefree factors refined by gcds) separates the primes as finely as
the computation asks, using only Euclidean arithmetic on our own polynomial
type.  ``irreducible_factors`` delegates to sympy, imported only when it is
called; it is kept as the oracle that the coprime base is tested against.
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


def _derivative(p: Polynomial) -> Polynomial:
    F = p.field
    return Polynomial(F, 1, {(e - 1,): F.mul(F.from_int(e), c)
                             for (e,), c in p.terms.items() if e})


def _pth_root(p: Polynomial) -> Polynomial:
    """h with h(x^q) = p over F_q, q prime (the Frobenius fixes F_q)."""
    q = p.field.p
    return Polynomial(p.field, 1, {(e // q,): c for (e,), c in p.terms.items()})


def squarefree_factors(p: Polynomial) -> List[Tuple[Polynomial, int]]:
    """Squarefree decomposition of a nonzero univariate polynomial: pairs
    (a, i) of monic, squarefree, pairwise coprime, nonconstant a with p a
    unit times the product of the a^i.

    Repeated gcds with the derivative, as in Yun's algorithm, in the form
    that also holds over F_q: the factors whose multiplicity q divides are
    left over as some h(x^q) (all of f when its derivative vanishes), and
    the q-th root h is decomposed in turn, with multiplicities times q.
    """
    _require_univariate(p)
    if p.is_zero():
        raise CapabilityError("cannot factor zero")
    f = p.monic(DEGREVLEX)
    if f.is_constant():
        return []
    q = f.field.p
    df = _derivative(f)
    if df.is_zero():
        return [(a, i * q) for a, i in squarefree_factors(_pth_root(f))]
    c = _euclid(f, df).monic(DEGREVLEX)
    w = exact_quotient(f, c)
    out = []
    i = 1
    while not w.is_constant():
        # w: the product of the irreducible factors of f of multiplicity
        # >= i that q does not divide; c: f's cofactor still to split.
        y = _euclid(w, c).monic(DEGREVLEX)
        z = exact_quotient(w, y)
        if not z.is_constant():
            out.append((z, i))
        w, c = y, exact_quotient(c, y)
        i += 1
    if not c.is_constant():
        out.extend((a, j * q) for a, j in squarefree_factors(_pth_root(c)))
    return out


def coprime_base(polys: Sequence[Polynomial]) -> List[Polynomial]:
    """A coprime base of the nonzero, nonconstant members of ``polys``: monic,
    squarefree, pairwise coprime nonconstant polynomials such that each
    squarefree factor of each member is a product of some of them.

    Factor refinement (Bach, Driscoll & Shallit 1993) of the squarefree
    factors, by gcds alone.  Each base element divides, or is coprime to,
    every squarefree factor of every member, so its irreducible factors
    all divide a member to the same power.
    """
    base: List[Polynomial] = []
    for p in polys:
        if p.is_zero():
            continue
        for a, _ in squarefree_factors(p):
            refined = []
            for b in base:
                g = _euclid(a, b).monic(DEGREVLEX)
                if g.is_one():
                    refined.append(b)
                    continue
                refined.append(g)
                rest = exact_quotient(b, g)
                if not rest.is_constant():
                    refined.append(rest)
                a = exact_quotient(a, g)
            if not a.is_constant():
                refined.append(a)
            base = refined
    return base


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
