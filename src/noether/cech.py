"""Alternating Čech complexes on finite covers, exact over the base field.

Two settings are supported.  Twisted structure sheaves O(d) on projective
space are handled through Laurent-monomial combinatorics: the alternating
complex on a monomial chart cover splits as a direct sum over multidegrees,
and the summand at a multidegree depends only on its sign pattern, so a
handful of exact rank computations settles every degree at once.  Affine
quasi-coherent data on a univariate base is handled by truncating each
section space to numerators of bounded degree over a fixed denominator
power; the truncation window is part of the result so it can be audited.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .config import Budgets, DEFAULT_BUDGETS
from .errors import CapabilityError, DomainError, ValidationError
from .fields import FieldSpec, QQ
from .poly import Polynomial
from .rings import IdealHandle, PresentedRing
from .topology import OpenCover, cover_check, open_contains
from .univar import exact_quotient, poly_degree


# ---------------------------------------------------------------------------
# Exact linear algebra over a FieldSpec
# ---------------------------------------------------------------------------

def matrix_rank(rows: List[List], field: FieldSpec) -> int:
    """Rank by fraction-free-enough Gaussian elimination (exact field ops)."""
    if not rows:
        return 0
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    rank = 0
    row = 0
    zero = field.zero()
    for col in range(ncols):
        pivot = None
        for r in range(row, len(mat)):
            if mat[r][col] != zero:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = field.inv(mat[row][col])
        mat[row] = [field.mul(inv, v) for v in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != zero:
                c = mat[r][col]
                mat[r] = [field.sub(a, field.mul(c, b))
                          for a, b in zip(mat[r], mat[row])]
        rank += 1
        row += 1
        if row == len(mat):
            break
    return rank


def _matmul(a: List[List], b: List[List], field: FieldSpec) -> List[List]:
    if not a or not b:
        return []
    out = []
    for row in a:
        out.append([
            _dot(row, [b[k][j] for k in range(len(b))], field)
            for j in range(len(b[0]))])
    return out


def _dot(u: List, v: List, field: FieldSpec):
    acc = field.zero()
    for x, y in zip(u, v):
        acc = field.add(acc, field.mul(x, y))
    return acc


# ---------------------------------------------------------------------------
# Generic alternating cochain complexes
# ---------------------------------------------------------------------------

@dataclass
class CechComplex:
    """An alternating Čech complex with explicitly tabulated differentials.

    ``dims[p]`` is the dimension of the degree-p cochain group and
    ``differentials[p]`` the matrix of d_p : C^p -> C^(p+1), stored as
    dims[p+1] rows of dims[p] entries (column-vector convention).
    ``window`` records the truncation used to make section spaces finite.
    """

    field: FieldSpec
    dims: List[int]
    differentials: List[List[List]]
    window: Dict[str, int] = dc_field(default_factory=dict)

    def verify_d_squared(self) -> bool:
        zero = self.field.zero()
        for p in range(len(self.differentials) - 1):
            prod = _matmul(self.differentials[p + 1],
                           self.differentials[p], self.field)
            for row in prod:
                if any(v != zero for v in row):
                    return False
        return True

    def cohomology_dims(self) -> List[int]:
        ranks = [matrix_rank(m, self.field) if m else 0
                 for m in self.differentials]
        ranks.append(0)
        out = []
        prev_rank = 0
        for p, dim in enumerate(self.dims):
            out.append(dim - ranks[p] - prev_rank)
            prev_rank = ranks[p]
        return out


def _pattern_complex(charts: Sequence[FrozenSet[int]],
                     negatives: FrozenSet[int],
                     field: FieldSpec) -> CechComplex:
    """Multidegree summand of the monomial Čech complex, by sign pattern.

    A subset S of charts supports a Laurent monomial with negative exponents
    exactly on ``negatives`` iff that set is contained in the union of the
    chart supports of S.  The summand is the alternating complex on those
    admissible subsets; its cohomology multiplies the multidegree count.
    """
    m = len(charts)
    levels: List[List[Tuple[int, ...]]] = []
    for p in range(m):
        admissible = []
        for subset in itertools.combinations(range(m), p + 1):
            union = frozenset().union(*(charts[j] for j in subset))
            if negatives <= union:
                admissible.append(subset)
        levels.append(admissible)
    dims = [len(level) for level in levels]
    one, zero = field.one(), field.zero()
    diffs: List[List[List]] = []
    for p in range(m - 1):
        index = {s: k for k, s in enumerate(levels[p])}
        matrix = [[zero] * dims[p] for _ in range(dims[p + 1])]
        for r, big in enumerate(levels[p + 1]):
            for drop in range(len(big)):
                small = big[:drop] + big[drop + 1:]
                col = index.get(small)
                if col is None:
                    continue
                sign = one if drop % 2 == 0 else field.neg(one)
                matrix[r][col] = sign
        diffs.append(matrix)
    return CechComplex(field, dims, diffs)


# ---------------------------------------------------------------------------
# Twisted structure sheaves on projective space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistData:
    """O(d) on P^n with an explicit exponent window for the monomial basis."""

    n: int
    d: int
    window: Optional[int] = None

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("projective dimension must be nonnegative")

    def effective_window(self) -> int:
        # Every monomial contributing to H^0 or H^n has all exponents in
        # [-(|d| + n + 1), |d| + n + 1]; wider never changes the answer.
        if self.window is not None:
            return self.window
        return abs(self.d) + self.n + 1


def _count_multidegrees(n: int, d: int, negatives: FrozenSet[int],
                        window: int) -> int:
    """Count integer vectors a in [-window, window]^(n+1) with sum d whose
    strictly negative coordinates are exactly ``negatives``."""
    # dynamic programming over coordinates; sums range over a finite band
    span = (n + 1) * window
    dist = {0: 1}
    for i in range(n + 1):
        nxt: Dict[int, int] = {}
        if i in negatives:
            lo, hi = -window, -1
        else:
            lo, hi = 0, window
        for s, c in dist.items():
            for v in range(lo, hi + 1):
                key = s + v
                if abs(key) <= span:
                    nxt[key] = nxt.get(key, 0) + c
        dist = nxt
    return dist.get(d, 0)


def twisted_cohomology_dims(t: TwistData,
                            charts: Optional[Sequence[FrozenSet[int]]] = None,
                            budgets: Budgets = DEFAULT_BUDGETS) -> Dict[int, int]:
    """Dimensions of H^i(P^n, O(d)) from a monomial chart cover.

    The default cover is the standard one by the n+1 coordinate charts;
    any family of monomial charts whose supports jointly cover the
    coordinates is accepted (refinements included).
    """
    n, d = t.n, t.d
    if n > 4 or abs(d) > 20:
        raise CapabilityError("supported range is n <= 4 and |d| <= 20")
    if charts is None:
        charts = [frozenset({i}) for i in range(n + 1)]
    charts = [frozenset(c) for c in charts]
    if frozenset().union(*charts) != frozenset(range(n + 1)):
        raise ValidationError("charts do not cover projective space",
                              witness=sorted(map(sorted, charts)))
    window = t.effective_window()
    dims = {i: 0 for i in range(len(charts))}
    for negs in map(frozenset, _powerset(range(n + 1))):
        complex_ = _pattern_complex(charts, negs, QQ)
        hdims = complex_.cohomology_dims()
        if not any(hdims):
            continue
        count = _count_multidegrees(n, d, negs, window)
        for i, h in enumerate(hdims):
            dims[i] += h * count
    return {i: dims[i] for i in range(n + 1)}


def _powerset(items) -> List[Tuple]:
    items = list(items)
    return [c for r in range(len(items) + 1)
            for c in itertools.combinations(items, r)]


# ---------------------------------------------------------------------------
# Affine quasi-coherent complexes (univariate base)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineWindow:
    """Truncation for affine section spaces: numerators of degree at most
    base_degree + denominator_exponent * deg(chart product)."""

    base_degree: int = 8
    denominator_exponent: int = 3


def _principal_generator(I: IdealHandle,
                         budgets: Budgets) -> Optional[Polynomial]:
    """Monic single generator of a univariate ideal (None for the zero ideal)."""
    basis = I.plain_basis(budgets)
    if not basis:
        return None
    if len(basis) != 1:
        raise CapabilityError("expected a principal ideal in one variable")
    return basis[0]


def cech_complex_affine(R: PresentedRing, I: IdealHandle, cover: OpenCover,
                        window: AffineWindow = AffineWindow(),
                        budgets: Budgets = DEFAULT_BUDGETS) -> CechComplex:
    """Alternating Čech complex of the quasi-coherent sheaf of I on a cover.

    Sections over a chart intersection D(h) are represented by numerators
    p in I of bounded degree over the fixed denominator h^N; the Čech
    restriction maps multiply numerators by the complementary h_j^N.
    """
    if R.nvars != 1:
        raise CapabilityError(
            "affine Čech complexes require a univariate base ring")
    if I.ring != R:
        raise DomainError("ideal handle over a different ring")
    if not cover_check(cover, budgets):
        raise ValidationError("pieces do not cover the target",
                              witness=cover.target.render())
    for piece in cover.pieces:
        if not open_contains(cover.target, piece, budgets):
            raise ValidationError("cover piece sticks out of the target",
                                  witness=piece.render())
    g = _principal_generator(I, budgets)
    m = len(cover.pieces)
    npow = window.denominator_exponent
    meta = {"base_degree": window.base_degree,
            "denominator_exponent": npow}
    if g is None:
        return CechComplex(R.field, [0] * m, [[] for _ in range(m - 1)], meta)
    gdeg = poly_degree(g)
    hs = [piece.f for piece in cover.pieces]
    hdeg = [poly_degree(h) for h in hs]
    zero = R.field.zero()

    levels: List[List[Tuple[int, ...]]] = [
        list(itertools.combinations(range(m), p + 1)) for p in range(m)]

    def cap(subset: Tuple[int, ...]) -> int:
        return window.base_degree + npow * sum(hdeg[j] for j in subset)

    def numdim(subset: Tuple[int, ...]) -> int:
        return max(0, cap(subset) - gdeg + 1)

    def basis_polys(subset: Tuple[int, ...]) -> List[Polynomial]:
        x = R.var(R.vars[0])
        out = []
        p = g
        for _ in range(numdim(subset)):
            out.append(p)
            p = p * x
        return out

    dims = []
    offsets: List[Dict[Tuple[int, ...], int]] = []
    for level in levels:
        off = {}
        total = 0
        for s in level:
            off[s] = total
            total += numdim(s)
        offsets.append(off)
        dims.append(total)

    diffs: List[List[List]] = []
    for p in range(m - 1):
        matrix = [[zero] * dims[p] for _ in range(dims[p + 1])]
        for big in levels[p + 1]:
            for drop in range(len(big)):
                small = big[:drop] + big[drop + 1:]
                sign = 1 if drop % 2 == 0 else -1
                j = big[drop]
                mult = hs[j] ** npow
                col0 = offsets[p][small]
                row0 = offsets[p + 1][big]
                for k, bp in enumerate(basis_polys(small)):
                    image = bp * mult
                    # express the image in the monomial-multiples basis of
                    # the bigger chart: image = g * x^? * (stuff); since the
                    # basis is {g, g*x, ...} the coordinates are the
                    # coefficients of image/g.
                    quot = exact_quotient(image, g)
                    qvec = [zero] * numdim(big)
                    for mono, c in quot.terms.items():
                        qvec[mono[0]] = c
                    for r, c in enumerate(qvec):
                        if c != zero:
                            val = c if sign == 1 else R.field.neg(c)
                            matrix[row0 + r][col0 + k] = val
        diffs.append(matrix)
    return CechComplex(R.field, dims, diffs, meta)


def affine_vanishing_check(R: PresentedRing, I: IdealHandle, cover: OpenCover,
                           window: AffineWindow = AffineWindow(),
                           budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """True iff all higher Čech cohomology vanishes in the window and H^0
    matches the truncated space of global sections of the sheaf of I."""
    complex_ = cech_complex_affine(R, I, cover, window, budgets)
    hdims = complex_.cohomology_dims()
    if any(h != 0 for h in hdims[1:]):
        return False
    g = _principal_generator(I, budgets)
    if g is None:
        return hdims[0] == 0
    fdeg = poly_degree(cover.target.f)
    cap = window.base_degree + window.denominator_exponent * fdeg
    expected = max(0, cap - poly_degree(g) + 1)
    return hdims[0] == expected
