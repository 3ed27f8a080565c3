"""Alternating Čech complexes on finite covers, exact over the base field.

Two settings are supported.  Twisted structure sheaves O(d) on projective
space are handled through Laurent-monomial combinatorics: the alternating
complex on the coordinate chart cover splits as a direct sum over
multidegrees, and the summand at a multidegree depends only on its sign
pattern.  Permuting the charts carries a pattern's summand onto that of
any pattern with as many negative charts, so one pattern per number r of
negative charts settles every degree at once; only r = 0 and r = n + 1
have cohomology, and their multidegrees are counted by binomials.  Affine
quasi-coherent data on a univariate base without quotient is handled by
truncating each section space to numerators of bounded degree over a
fixed denominator power; the truncation window is part of the result so
it can be audited.
Both build their differentials with the one complex builder,
``_alternating_complex``, and differ only in the section spaces over chart
intersections and the restriction maps between them.  Ranks and the check
d∘d = 0 run on integer matrices (over Q scaled by a common denominator,
over F_p reduced mod p), with fraction-free elimination for the rank.
"""

from __future__ import annotations

import itertools
from math import comb, gcd as igcd, lcm
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Sequence, Tuple

from .config import Budgets, DEFAULT_BUDGETS
from .errors import CapabilityError, DomainError, ResourceBudgetError, ValidationError
from .fields import FieldSpec, QQ

if TYPE_CHECKING:
    from .rings import IdealHandle, PresentedRing
    from .topology import OpenCover


# ---------------------------------------------------------------------------
# Exact linear algebra over a FieldSpec
# ---------------------------------------------------------------------------

def _integer_rows(rows: List[List], p: int) -> List[List[int]]:
    """The matrix as integer rows: over Q (``p`` zero) scaled by one common
    denominator, over F_p reduced mod p.  Scaling the whole matrix by one
    nonzero constant keeps its rank and which products with it vanish."""
    if p:
        return [[v % p for v in row] for row in rows]
    den = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows]


def _primitive(row: List[int]) -> List[int]:
    """An integer row divided by its content."""
    content = igcd(*row)
    return row if content <= 1 else [v // content for v in row]


def matrix_rank(rows: List[List], field: FieldSpec) -> int:
    """Rank by fraction-free elimination on integer rows (Bareiss 1968).

    The rows are read as integers, each primitive over Q and reduced mod p
    over F_p.  A pivot row clears its leading column from every other row
    by the cofactor step ``a*row - b*pivot`` of ``groebner._reduce``, with
    a = lc(pivot)/e, b = row[col]/e and e their gcd, and over Q each new
    row is divided by its content; over F_p the pivot is made monic, so a
    is 1.  The rank is the number of pivots."""
    p = field.p
    mat = [row if p else _primitive(row) for row in _integer_rows(rows, p) if any(row)]
    rank = 0
    while mat:
        pivot = mat.pop()
        rank += 1
        col = next(i for i, v in enumerate(pivot) if v)
        lead = pivot[col]
        if p and lead != 1:
            inv = pow(lead, -1, p)
            pivot, lead = [v * inv % p for v in pivot], 1
        rest = []
        for row in mat:
            c = row[col]
            if c and p:
                row = [(x - c * y) % p for x, y in zip(row, pivot)]
            elif c:
                e = igcd(c, lead)
                row = _primitive([lead // e * x - c // e * y for x, y in zip(row, pivot)])
            if any(row):
                rest.append(row)
        mat = rest
    return rank


# ---------------------------------------------------------------------------
# Generic alternating cochain complexes
# ---------------------------------------------------------------------------

class CechComplex:
    """An alternating Čech complex with explicitly tabulated differentials.

    ``dims[p]`` is the dimension of the degree-p cochain group and
    ``differentials[p]`` the matrix of d_p : C^p -> C^(p+1), stored as
    dims[p+1] rows of dims[p] entries (column-vector convention).
    ``window`` records the truncation used to make section spaces finite.
    """

    def __init__(self, field: FieldSpec, dims: List[int], differentials: List[List[List]],
                 window: Dict[str, int] = None):
        self.field = field
        self.dims = dims
        self.differentials = differentials
        self.window = {} if window is None else window

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.field, self.dims, self.differentials, self.window)
                == (other.field, other.dims, other.differentials, other.window))

    def verify_d_squared(self) -> bool:
        """True iff d_(p+1) d_p = 0 for every p, on integer matrices: each
        differential scaled by one constant over Q, or reduced mod p."""
        p = self.field.p
        mats = [_integer_rows(m, p) for m in self.differentials]
        for later, earlier in zip(mats[1:], mats):
            columns = list(zip(*earlier))
            for row in later:
                for col in columns:
                    acc = sum(x * y for x, y in zip(row, col))
                    if (acc % p if p else acc):
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


def _alternating_complex(field: FieldSpec,
                         levels: Sequence[Sequence[Tuple[int, ...]]],
                         dim: Callable[[Tuple[int, ...]], int],
                         face: Callable[[Tuple[int, ...], int], Iterable[Tuple[int, int, object]]],
                         window: Dict[str, int]) -> CechComplex:
    """The alternating complex whose degree-p cochains live on the chart
    subsets ``levels[p]`` (increasing (p+1)-tuples, in basis order).

    ``dim(s)`` is the dimension of the sections over subset s, and
    ``face(s, j)`` yields the nonzero entries (row, col, value) of the
    restriction from s to s plus chart j.  The block of d_p from s to t is
    that restriction with sign (-1)^i, where s is t without its i-th chart;
    a face that is not in the level below contributes nothing.
    """
    dims: List[int] = []
    offsets: List[Dict[Tuple[int, ...], int]] = []
    for level in levels:
        sizes = [dim(s) for s in level]
        offsets.append(dict(zip(level, itertools.accumulate(sizes, initial=0))))
        dims.append(sum(sizes))
    zero = field.zero()
    diffs: List[List[List]] = []
    for p in range(len(levels) - 1):
        matrix = [[zero] * dims[p] for _ in range(dims[p + 1])]
        for big in levels[p + 1]:
            row0 = offsets[p + 1][big]
            for drop in range(len(big)):
                small = big[:drop] + big[drop + 1:]
                col0 = offsets[p].get(small)
                if col0 is None:
                    continue
                for r, c, value in face(small, big[drop]):
                    matrix[row0 + r][col0 + c] = (value if drop % 2 == 0
                                                  else field.neg(value))
        diffs.append(matrix)
    return CechComplex(field, dims, diffs, window)


def _pattern_complex(n: int, r: int) -> CechComplex:
    """Multidegree summand of the Čech complex on the coordinate charts
    D(x_0), ..., D(x_n) whose negative charts are 0, ..., r - 1.

    A subset S of charts supports a Laurent monomial with negative exponents
    exactly on those charts iff S contains all of them.  The summand is the
    alternating complex on those admissible subsets; its cohomology
    multiplies the multidegree count.
    """
    head = tuple(range(r))
    levels = [[subset for subset in itertools.combinations(range(n + 1), p + 1)
               if subset[:r] == head]
              for p in range(n + 1)]
    one = QQ.one()
    return _alternating_complex(QQ, levels, lambda s: 1,
                                lambda s, j: ((0, 0, one),), {})


# ---------------------------------------------------------------------------
# Twisted structure sheaves on projective space
# ---------------------------------------------------------------------------

class TwistData:
    """O(d) on P^n; ``window`` bounds the exponents of the monomial basis."""

    def __init__(self, n: int, d: int):
        if n < 0:
            raise DomainError("projective dimension must be nonnegative")
        self.n = n
        self.d = d

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d)

    def __hash__(self):
        return hash((self.n, self.d))

    @property
    def window(self) -> int:
        # Every monomial contributing to H^0 or H^n has all exponents in
        # [-(|d| + n + 1), |d| + n + 1]; wider never changes the answer.
        return abs(self.d) + self.n + 1


def twisted_cohomology_dims(t: TwistData,
                            budgets: Budgets = DEFAULT_BUDGETS) -> Dict[int, int]:
    """Dimensions of H^i(P^n, O(d)) from the cover by the n+1 coordinate
    charts D(x_i), one sign pattern per number r of negative charts.  Only
    r = 0 and r = n + 1 have cohomology, over C(n + d, n) and C(-d - 1, n)
    multidegrees with sum d, which the window never binds."""
    n, d = t.n, t.d
    if n > 4 or abs(d) > 20:
        raise CapabilityError("supported range is n <= 4 and |d| <= 20")
    counts = {0: comb(n + d, n) if d >= 0 else 0, n + 1: comb(-d - 1, n) if d < 0 else 0}
    dims = {i: 0 for i in range(n + 1)}
    for r in range(n + 2):
        hdims = _pattern_complex(n, r).cohomology_dims()
        if r not in counts and any(hdims):
            raise AssertionError(f"the pattern with {r} negative charts has cohomology")
        for i, h in enumerate(hdims):
            dims[i] += h * counts.get(r, 0)
    return dims


# ---------------------------------------------------------------------------
# Affine quasi-coherent complexes (univariate base)
# ---------------------------------------------------------------------------

class AffineWindow:
    """Truncation for affine section spaces: numerators of degree at most
    base_degree + denominator_exponent * deg(chart product)."""

    def __init__(self, base_degree: int = 8, denominator_exponent: int = 3):
        self.base_degree = base_degree
        self.denominator_exponent = denominator_exponent

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.base_degree, self.denominator_exponent)
                == (other.base_degree, other.denominator_exponent))

    def __hash__(self):
        return hash((self.base_degree, self.denominator_exponent))


def cech_complex_affine(R: PresentedRing, I: IdealHandle, cover: OpenCover,
                        window: AffineWindow = AffineWindow(),
                        budgets: Budgets = DEFAULT_BUDGETS) -> CechComplex:
    """Alternating Čech complex of the quasi-coherent sheaf of I on a cover.

    Sections over a chart intersection D(h) are represented by numerators
    p in I of bounded degree over the fixed denominator h^N; the Čech
    restriction maps multiply numerators by the complementary h_j^N.  An
    intersection with the piece D(0), which is empty, has no sections.
    The denominator exponent N must be nonnegative, and N and the largest
    numerator degree, over all nonzero pieces, must be within
    ``budgets.max_degree``; all three are checked before any matrix is built.
    """
    from .topology import cover_check, open_contains
    from .univar import poly_degree
    if R.nvars != 1 or R.quotient:
        raise CapabilityError(
            "affine Čech complexes require a univariate base ring")
    if I.ring != R:
        raise DomainError("ideal handle over a different ring")
    hs = [piece.f for piece in cover.pieces]
    hdeg = [poly_degree(h) for h in hs]
    npow = window.denominator_exponent
    if npow < 0:
        raise DomainError("denominator_exponent must be nonnegative")
    if (npow > budgets.max_degree or window.base_degree
            + npow * sum(d for d in hdeg if d >= 0) > budgets.max_degree):
        raise ResourceBudgetError("max_degree", budgets.max_degree)
    if not cover_check(cover, budgets):
        raise ValidationError("pieces do not cover the target",
                              witness=cover.target.render())
    for piece in cover.pieces:
        if not open_contains(cover.target, piece, budgets):
            raise ValidationError("cover piece sticks out of the target",
                                  witness=piece.render())
    g = next(iter(I.canonical_basis(budgets)), None)
    m = len(cover.pieces)
    meta = {"base_degree": window.base_degree,
            "denominator_exponent": npow}
    if g is None:
        return CechComplex(R.field, [0] * m, [[] for _ in range(m - 1)], meta)
    gdeg = poly_degree(g)
    mults = [h ** npow for h in hs]

    def numdim(subset: Tuple[int, ...]) -> int:
        if any(hs[j].is_zero() for j in subset):
            return 0
        cap = window.base_degree + npow * sum(hdeg[j] for j in subset)
        return max(0, cap - gdeg + 1)

    def face(small: Tuple[int, ...], j: int):
        # Sections over a chart intersection have the basis g, g*x, g*x^2,
        # ...; restriction multiplies by h_j^N, so the coordinates of the
        # image of g*x^k are the coefficients of image/g = x^k * h_j^N.
        for k in range(numdim(small)):
            for mono, c in mults[j].terms.items():
                yield k + mono[0], k, c

    levels = [list(itertools.combinations(range(m), p + 1)) for p in range(m)]
    return _alternating_complex(R.field, levels, numdim, face, meta)


def affine_vanishing_check(R: PresentedRing, I: IdealHandle, cover: OpenCover,
                           window: AffineWindow = AffineWindow(),
                           budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """True iff all higher Čech cohomology vanishes in the window and H^0
    matches the truncated global sections of the sheaf of I, read in the
    complex's window: P/d^N with P in (g), deg P <= base_degree + N * deg d,
    d the gcd of the nonzero pieces.  Refuses a window past
    ``budgets.max_degree`` as ``cech_complex_affine`` does."""
    from .univar import gcd, poly_degree
    complex_ = cech_complex_affine(R, I, cover, window, budgets)
    hdims = complex_.cohomology_dims()
    if not hdims:  # the empty cover, which covers only D(0): no sections at all
        return True
    if any(h != 0 for h in hdims[1:]):
        return False
    g = next(iter(I.canonical_basis(budgets)), None)
    d = gcd([piece.f for piece in cover.pieces], R.field)
    if g is None or d.is_zero():  # the zero ideal, or only empty pieces
        return hdims[0] == 0
    cap = window.base_degree + window.denominator_exponent * poly_degree(d)
    return hdims[0] == max(0, cap - poly_degree(g) + 1)
