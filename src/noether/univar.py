"""Univariate helpers: exact gcd, divisibility, squarefree decomposition,
coprime bases, irreducible factorization.

Section ideals of sheaves on a univariate base need no factoring: a coprime
base (squarefree factors refined by gcds) separates the primes as finely as
the computation asks, using only Euclidean arithmetic.  ``irreducible_factors``
delegates to sympy, imported only when it is called; it is kept as the
oracle that the coprime base is tested against.

Every loop runs on dense coefficient lists of ints, lowest degree first,
with no trailing zeros ([] is zero), each in its normal form: over F_p the
coefficients lie in ``range(p)`` and the list is monic; over Q the list is
primitive with a positive leading coefficient.  Division over Q is
fraction-free, with the cofactor step ``a*r - b*x^k*g`` of
``groebner._reduce``, and exact division by a primitive divisor stays in
the integers (Gauss's lemma).  ``Polynomial``s, and over Q ``Fraction``s,
exist only at the public boundary: ``_dense`` reads one in, ``_poly``
writes one out.  Each ``Polynomial`` keeps its dense normal form once it is
known (``Polynomial._dense_form``): ``_dense`` derives it at most once per
polynomial, and a polynomial ``_poly`` built already has it.  ``gcd`` and
``strip_shared`` return the caller's own polynomial when the result is that
monic input, and build none.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd, lcm
from typing import List, Sequence, Tuple

from .errors import CapabilityError
from .fields import FieldSpec
from .poly import Polynomial

Dense = List[int]


def _require_univariate(p: Polynomial):
    if p.nvars != 1:
        raise CapabilityError("univariate polynomial required")


def _dense(f: Polynomial) -> Tuple[object, Dense]:
    """``(u, c)`` with f = u * c, c the normal form of f and u a field
    element (1 for zero f).  Callers must not change c: f keeps it."""
    if f._dense_form is not None:
        return f._dense_form
    _require_univariate(f)
    F = f.field
    if f.is_zero():
        f._dense_form = F.one(), []
        return f._dense_form
    den = 1 if F.p else lcm(*(v.denominator for v in f.terms.values()))
    c = [0] * (max(f.terms)[0] + 1)
    for (e,), v in f.terms.items():
        c[e] = v if F.p else v.numerator * (den // v.denominator)
    normal = _normal(c, F.p)
    f._dense_form = (c[-1] if F.p else Fraction(c[-1] // normal[-1], den)), normal
    return f._dense_form


def _poly(c: Dense, field: FieldSpec, u=None) -> Polynomial:
    """``u * c`` as a Polynomial, for c in normal form; the monic one when
    ``u`` is None.  The polynomial keeps ``(u, c)`` as its dense form."""
    if u is None:
        u = Fraction(1, c[-1]) if c and not field.p else field.one()
    if field.p:
        f = Polynomial(field, 1, {(e,): v * u % field.p for e, v in enumerate(c)})
    else:
        f = Polynomial(field, 1, {(e,): v * u for e, v in enumerate(c) if v})
    f._dense_form = (u if c else field.one()), c
    return f


def _normal(c: Dense, p: int) -> Dense:
    """The normal form of the nonzero multiples of integer list ``c``."""
    if p:
        c = [v % p for v in c]
    while c and not c[-1]:
        c.pop()
    if not c:
        return c
    if p:
        inv = pow(c[-1], -1, p)
        return c if inv == 1 else [v * inv % p for v in c]
    content = igcd(*c) if c[-1] > 0 else -igcd(*c)
    return c if content == 1 else [v // content for v in c]


def _divide(f: Dense, g: Dense, p: int) -> Tuple[Dense, Dense]:
    """``(q, r)`` with s*f = q*g + r, deg r < deg g, r in normal form and s
    a nonzero integer, for an integer list f and a nonzero normal form g.

    Each step cancels the leading coefficient lr of what is left by the
    cofactor step ``a*r - b*x^k*g`` of ``groebner._reduce``, with a =
    lc(g)/e, b = lr/e, e = gcd(lr, lc(g)).  Over F_p g is monic, so a is 1;
    over Q, when the primitive g divides f, the quotient is integral (Gauss's
    lemma), so a is 1 at every step.  Either way s is 1 when g divides f."""
    n, lg = len(g) - 1, g[-1]
    r, q = list(f), [0] * (len(f) - n)
    for k in range(len(q) - 1, -1, -1):
        lr = r.pop()
        if p:
            lr %= p
        elif lr:
            e = igcd(lr, lg)
            if lg != e:
                r, q = [lg // e * v for v in r], [lg // e * v for v in q]
            lr //= e
        if lr:
            q[k] = lr
            for i in range(n):
                r[k + i] -= lr * g[i]
    return q, _normal(r, p)


def _gcd(a: Dense, b: Dense, p: int) -> Dense:
    """The normal form of gcd(a, b) for normal forms a and b."""
    while b:
        a, b = b, _divide(a, b, p)[1]
    return a


def poly_degree(p: Polynomial) -> int:
    """Degree of a univariate polynomial; -1 for the zero polynomial."""
    _require_univariate(p)
    if p.is_zero():
        return -1
    return max(mono[0] for mono in p.terms)


def exact_quotient(p: Polynomial, g: Polynomial) -> Polynomial:
    """p / g when g divides p exactly; raises on a nonzero remainder."""
    (u, a), (v, b) = _dense(p), _dense(g)
    q, r = _divide(a, b, p.field.p) if b else ([], [1])
    if r:
        raise CapabilityError("exact quotient requested for a non-multiple")
    return _poly(q, p.field, p.field.div(u, v))


def divides(a: Polynomial, b: Polynomial) -> bool:
    """True iff a | b in k[x]; zero divides only zero."""
    divisor, multiple = _dense(a)[1], _dense(b)[1]
    if not divisor:
        return not multiple
    return not _divide(multiple, divisor, a.field.p)[1]


def gcd(polys: Sequence[Polynomial], field: FieldSpec) -> Polynomial:
    """Monic gcd of a family; the empty/all-zero family yields 0."""
    acc: Dense = []
    for p in polys:
        acc = _gcd(acc, _dense(p)[1], field.p)
    for p in polys:
        u, c = _dense(p)
        if c and c == acc and u * c[-1] == 1:  # p is monic: over Q, u is 1/c[-1]
            return p
    return _poly(acc, field)


def power_product(powers: Sequence[Tuple[Polynomial, int]], field: FieldSpec) -> Polynomial:
    """The monic product of b^e over the pairs (b, e), each b nonzero,
    multiplied out on dense normal forms; 1 for no pairs."""
    acc: Dense = [1]
    for b, e in powers:
        c = _dense(b)[1]
        for _ in range(e):
            out = [0] * (len(acc) + len(c) - 1)
            for i, x in enumerate(acc):
                if x:
                    for j, y in enumerate(c):
                        out[i + j] += x * y
            acc = [v % field.p for v in out] if field.p else out
    return _poly(acc, field)


def strip_shared(g: Polynomial, f: Polynomial) -> Polynomial:
    """Monic nonzero g with every irreducible factor it shares with f
    divided out: the generator of (g) : f^infinity in k[x]."""
    p = g.field.p
    (u, a), shared = _dense(g), _dense(f)[1]
    if not a:
        raise CapabilityError("cannot strip factors from zero")
    while True:
        # The factors a still shares with f all divide the last gcd.
        shared = _gcd(a, shared, p)
        if len(shared) == 1:
            return g if a is _dense(g)[1] and u * a[-1] == 1 else _poly(a, g.field)
        a = _divide(a, shared, p)[0]


def multiplicity(q: Polynomial, g: Polynomial) -> int:
    """Largest e with q^e | g (g nonzero, q nonconstant)."""
    b, a = _dense(q)[1], _dense(g)[1]
    if len(b) < 2 or not a:
        raise CapabilityError("multiplicity needs a nonconstant q and a nonzero g")
    e = 0
    while True:
        quotient, r = _divide(a, b, q.field.p)
        if r:
            return e
        a, e = quotient, e + 1


def _squarefree(f: Dense, q: int) -> List[Tuple[Dense, int]]:
    """``squarefree_factors`` of the nonzero normal form f, in normal forms."""
    if len(f) == 1:
        return []
    df = _normal([e * v for e, v in enumerate(f)][1:], q)
    if not df:
        # f = h(x^q) = h(x)^q over F_q, since the Frobenius fixes F_q.
        return [(a, i * q) for a, i in _squarefree(f[::q], q)]
    c = _gcd(f, df, q)
    w = _divide(f, c, q)[0]
    out = []
    i = 1
    while len(w) > 1:
        # w: the product of the irreducible factors of f of multiplicity
        # >= i that q does not divide; c: f's cofactor still to split.
        y = _gcd(w, c, q)
        z = _divide(w, y, q)[0]
        if len(z) > 1:
            out.append((z, i))
        w, c = y, _divide(c, y, q)[0]
        i += 1
    if len(c) > 1:
        out.extend((a, j * q) for a, j in _squarefree(c[::q], q))
    return out


def squarefree_factors(p: Polynomial) -> List[Tuple[Polynomial, int]]:
    """Squarefree decomposition of a nonzero univariate polynomial: pairs
    (a, i) of monic, squarefree, pairwise coprime, nonconstant a with p a
    unit times the product of the a^i.

    Repeated gcds with the derivative, as in Yun's algorithm, in the form
    that also holds over F_q: the factors whose multiplicity q divides are
    left over as some h(x^q) (all of f when its derivative vanishes), and
    the q-th root h is decomposed in turn, with multiplicities times q.
    """
    f = _dense(p)[1]
    if not f:
        raise CapabilityError("cannot factor zero")
    return [(_poly(a, p.field), i) for a, i in _squarefree(f, p.field.p)]


def coprime_base(polys: Sequence[Polynomial]) -> List[Polynomial]:
    """A coprime base of the nonzero, nonconstant members of ``polys``: monic,
    squarefree, pairwise coprime nonconstant polynomials such that each
    squarefree factor of each member is a product of some of them.

    Factor refinement (Bach, Driscoll & Shallit 1993) of the squarefree
    factors, by gcds alone.  Each base element divides, or is coprime to,
    every squarefree factor of every member, so its irreducible factors
    all divide a member to the same power.
    """
    base: List[Dense] = []
    field = None
    for p in polys:
        if p.is_zero():
            continue
        field, q = p.field, p.field.p
        for a, _ in _squarefree(_dense(p)[1], q):
            refined = []
            for b in base:
                g = _gcd(a, b, q)
                if len(g) == 1:
                    refined.append(b)
                    continue
                refined.append(g)
                rest = _divide(b, g, q)[0]
                if len(rest) > 1:
                    refined.append(rest)
                a = _divide(a, g, q)[0]
            if len(a) > 1:
                refined.append(a)
            base = refined
    return [_poly(b, field) for b in base]


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
        out.append((_poly(_dense(q)[1], p.field), int(mult)))
    return out
