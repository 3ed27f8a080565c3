"""Cech cohomology: exact ranks against field-operation elimination, the
twisted-sheaf dimension formulas, d∘d = 0 on rational differentials, and
affine vanishing."""

import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from noether import cech
from noether.cech import (
    AffineWindow,
    CechComplex,
    TwistData,
    affine_vanishing_check,
    cech_complex_affine,
    matrix_rank,
    twisted_cohomology_dims,
)
from noether.config import Budgets
from noether.errors import CapabilityError, DomainError, ResourceBudgetError, ValidationError
from noether.fields import GF, QQ
from noether.jobs import JobSpec, run_job
from noether.rings import PresentedRing
from noether.topology import DistinguishedOpen, OpenCover, cover_check


def test_matrix_rank_exact_over_q():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert matrix_rank(rows, QQ) == 2
    assert matrix_rank([], QQ) == 0


def test_matrix_rank_characteristic_matters():
    assert matrix_rank([[2, 0], [0, 2]], QQ) == 2
    f2 = GF(2)
    rows = [[f2.from_int(2), f2.zero()], [f2.zero(), f2.from_int(2)]]
    assert matrix_rank(rows, f2) == 0


def field_rank(rows, field):
    """The rank by Gauss-Jordan elimination with the field's own operations
    (``Fraction`` arithmetic over Q), kept as the oracle for
    ``matrix_rank``."""
    mat = [list(r) for r in rows]
    rank, zero = 0, field.zero()
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != zero), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = field.inv(mat[rank][col])
        mat[rank] = [field.mul(inv, v) for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != zero:
                c = mat[r][col]
                mat[r] = [field.sub(a, field.mul(c, b)) for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _in_field(q, field):
    """A rational as an element of ``field``: itself over Q, else its image
    in F_p, or its numerator's when p divides the denominator."""
    if not field.p:
        return q
    num = field.from_int(q.numerator)
    return num if q.denominator % field.p == 0 else field.div(num, field.from_int(q.denominator))


@st.composite
def rank_cases(draw):
    """Matrices of 0-8 rows by 0-8 columns with rational entries of
    denominator at most 50, zeros among them, and zero and repeated rows."""
    field = draw(st.sampled_from([QQ, GF(2), GF(5), GF(32003)]))
    ncols = draw(st.integers(0, 8))
    entry = st.just(Fraction(0)) | st.fractions(-60, 60, max_denominator=50)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    extra = draw(st.lists(st.integers(-1, max(len(rows) - 1, 0)), max_size=8 - len(rows)))
    for k in extra:  # -1 adds a zero row, k >= 0 repeats row k
        rows.append([Fraction(0)] * ncols if k < 0 or not rows else rows[k])
    order = draw(st.permutations(range(len(rows))))
    return field, [[_in_field(q, field) for q in rows[i]] for i in order]


@settings(max_examples=300, deadline=None)
@given(rank_cases())
def test_matrix_rank_equals_field_elimination(case):
    field, rows = case
    assert matrix_rank(rows, field) == field_rank(rows, field)


@pytest.mark.parametrize("field,later,earlier,closed", [
    # d_1 d_0 = 2*(1/2) - 3*(1/3) = 0, which scaling the rows of d_0 on
    # their own (to 1 and 1) would turn into 2 - 3.
    (QQ, [[2, -3]], [[Fraction(1, 2)], [Fraction(1, 3)]], True),
    (QQ, [[2, -2]], [[Fraction(1, 2)], [Fraction(1, 3)]], False),
    (QQ, [[Fraction(1, 4), Fraction(-1, 6)]], [[Fraction(2, 3)], [1]], True),
    (GF(5), [[2, 2]], [[3], [2]], True),
    (GF(5), [[2, 2]], [[3], [3]], False),
    (QQ, [[1, 1], [0, 0]], [[1, 0], [-1, 0]], True),
    (QQ, [[1, 1], [0, 1]], [[1, 0], [-1, 0]], False),
])
def test_verify_d_squared_on_rational_differentials(field, later, earlier, closed):
    dims = [len(earlier[0]), len(earlier), len(later)]
    complex_ = CechComplex(field, dims, [earlier, later])
    assert complex_.verify_d_squared() is closed


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_global_sections_formula(n, d):
    dims = twisted_cohomology_dims(TwistData(n, d))
    assert dims[0] == comb(n + d, n)
    assert all(dims[i] == 0 for i in range(1, n + 1))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_top_cohomology_formula(n, d):
    dims = twisted_cohomology_dims(TwistData(n, -d))
    assert dims[n] == comb(d - 1, n)
    assert all(dims[i] == 0 for i in range(n))


def test_serre_duality_symmetry():
    # dim H^n(P^n, O(-d-n-1)) = dim H^0(P^n, O(d))
    for n in (1, 2):
        for d in range(0, 4):
            top = twisted_cohomology_dims(TwistData(n, -d - n - 1))[n]
            bottom = twisted_cohomology_dims(TwistData(n, d))[0]
            assert top == bottom


def test_euler_characteristic_on_p1():
    for d in range(-6, 7):
        dims = twisted_cohomology_dims(TwistData(1, d))
        assert dims[0] - dims[1] == d + 1


def test_structure_sheaf_middle_vanishing_p3():
    dims = twisted_cohomology_dims(TwistData(3, 0))
    assert dims == {0: 1, 1: 0, 2: 0, 3: 0}


def test_dimension_capability_bound():
    with pytest.raises(CapabilityError):
        twisted_cohomology_dims(TwistData(5, 1))


def every_pattern_complex(n, negatives, field):
    """The summand of one sign pattern, the frozenset ``negatives`` of
    negative charts: the alternating complex on the chart subsets that
    contain it."""
    levels = [[subset for subset in itertools.combinations(range(n + 1), p + 1)
               if negatives <= frozenset(subset)]
              for p in range(n + 1)]
    one = field.one()
    return cech._alternating_complex(field, levels, lambda s: 1,
                                     lambda s, j: ((0, 0, one),), {})


def every_pattern_count(n, d, negatives, window):
    """Vectors in [-window, window]^(n+1) with sum d whose strictly negative
    coordinates are exactly ``negatives``, by dynamic programming."""
    span = (n + 1) * window
    dist = {0: 1}
    for i in range(n + 1):
        nxt = {}
        lo, hi = (-window, -1) if i in negatives else (0, window)
        for s, c in dist.items():
            for v in range(lo, hi + 1):
                key = s + v
                if abs(key) <= span:
                    nxt[key] = nxt.get(key, 0) + c
        dist = nxt
    return dist.get(d, 0)


def every_pattern_dims(n, d):
    """H^i(P^n, O(d)) summed over all 2^(n+1) sign patterns, one complex
    each: the oracle for the one-pattern-per-orbit sum."""
    window = TwistData(n, d).window
    dims = {i: 0 for i in range(n + 1)}
    for negs in map(frozenset, itertools.chain.from_iterable(
            itertools.combinations(range(n + 1), r) for r in range(n + 2))):
        hdims = every_pattern_complex(n, negs, QQ).cohomology_dims()
        count = every_pattern_count(n, d, negs, window)
        for i, h in enumerate(hdims):
            dims[i] += h * count
    return dims


@pytest.mark.parametrize("n", range(5))
def test_twisted_dims_equal_the_every_pattern_sum(n):
    for d in range(-20, 21):
        assert twisted_cohomology_dims(TwistData(n, d)) == every_pattern_dims(n, d), d


@pytest.mark.parametrize("n", range(5))
def test_twisted_dims_build_one_complex_per_negative_count(monkeypatch, n):
    built = []
    builder = cech._alternating_complex

    def counted(*args):
        built.append(args)
        return builder(*args)

    monkeypatch.setattr(cech, "_alternating_complex", counted)
    twisted_cohomology_dims(TwistData(n, 2))
    assert len(built) <= n + 2


# -- affine covers ------------------------------------------------------------


@pytest.fixture
def R():
    return PresentedRing(QQ, ("x",))


def cover_of(R, target, *pieces):
    return OpenCover(DistinguishedOpen(R, R.parse(target)),
                     tuple(DistinguishedOpen(R, R.parse(p)) for p in pieces))


def test_affine_complex_has_zero_differential_squared(R):
    cover = cover_of(R, "1", "x", "x - 1")
    complex_ = cech_complex_affine(R, R.ideal("x - 1"), cover, AffineWindow())
    assert complex_.verify_d_squared()


def test_affine_higher_cohomology_vanishes(R):
    cover = cover_of(R, "1", "x", "x - 1")
    assert affine_vanishing_check(R, R.ideal("x - 1"), cover, AffineWindow())


def test_affine_vanishing_three_piece_cover(R):
    cover = cover_of(R, "1", "x", "x - 1", "x + 1")
    assert affine_vanishing_check(R, R.ideal("x^2 - 1"), cover, AffineWindow())


def test_affine_h0_matches_window_count(R):
    cover = cover_of(R, "1", "x", "x - 1")
    w = AffineWindow(base_degree=6, denominator_exponent=2)
    complex_ = cech_complex_affine(R, R.ideal("x"), cover, w)
    coh = complex_.cohomology_dims()
    # Numerators x*g with deg <= 6 + 2*deg(1): dimension 6 - 1 + 1... the
    # window bookkeeping is checked through the vanishing helper instead.
    assert all(c == 0 for c in coh[1:])
    assert coh[0] > 0


@pytest.mark.parametrize("ideal", [[], ["x"]])
def test_affine_vanishing_on_the_empty_cover(R, ideal):
    # D(0) is empty, so its empty cover has no groups at all.
    assert affine_vanishing_check(R, R.ideal(*ideal), cover_of(R, "0"), AffineWindow())


@pytest.mark.parametrize("ideal", [["x"], ["1"]])
def test_affine_complex_of_equal_ideals_in_a_localization(ideal):
    # In Q[x, 1/x] the ideals (x) and (1) are equal, so their sheaves are.
    report = run_job(JobSpec("cech-affine", {
        "op": "complex", "ring": {"vars": ["x"], "inverted": ["x"]}, "ideal": ideal,
        "cover": {"target": "1", "pieces": ["x - 1", "x + 1"]}}))
    assert report.status == "pass", report.result
    assert report.result["cohomology"] == [9, 0]


@pytest.mark.parametrize("ring,target,pieces", [
    ({}, "x", ["x^2"]), ({"vars": ["x"], "inverted": ["x"]}, "1", ["x"])])
def test_affine_h0_is_read_in_the_pieces_window(ring, target, pieces):
    # Sections are numerators over the pieces' denominators, so the expected
    # H^0 is sized by the gcd of the pieces, not by the target: D(x^2) = D(x),
    # and in Q[x, 1/x] the piece D(x) is the whole space D(1).
    report = run_job(JobSpec("cech-affine", {
        "op": "vanishing", "ring": ring, "ideal": ["x - 2"],
        "cover": {"target": target, "pieces": pieces}}))
    assert report.status == "pass", report.result


@pytest.mark.parametrize("payload,code,result", [
    ({"op": "complex", "ideal": ["x"], "cover": {"target": "x", "pieces": ["0", "x"]}},
     0, [11, 0]),
    ({"op": "vanishing", "ideal": ["x"], "cover": {"target": "x", "pieces": ["0", "x"]}},
     0, None),
    ({"op": "complex", "ring": {"vars": ["x"], "quotient": ["x^2 - x"]}, "ideal": [],
      "cover": {"target": "1", "pieces": ["x", "x - 1"]}}, 3, None),
    ({"op": "complex", "ideal": ["x"], "cover": {"target": "1", "pieces": ["x", "x - 1"]},
      "window": {"base_degree": 100000}}, 3, None),
    ({"op": "vanishing", "ideal": ["x"], "cover": {"target": "1", "pieces": ["x", "x - 1"]},
      "window": {"base_degree": 100000}}, 3, None),
])
def test_affine_job_exit_codes(payload, code, result):
    # D(0) is empty, so it adds no sections to the cover by D(x); the window
    # of a quotient ring would ignore the quotient, so it is refused; a window
    # past the degree budget would fill memory with dense matrices.
    report = run_job(JobSpec("cech-affine", payload))
    assert report.exit_code == code, report.result
    if result is not None:
        assert report.result["cohomology"] == result


def test_affine_window_is_bounded_by_the_degree_budget(R):
    # Numerators over D(x) and D(x - 1) reach base_degree + 3*(1 + 1);
    # the empty piece D(0) adds no degree.
    cover = cover_of(R, "1", "x", "0", "x - 1")
    budgets = Budgets(max_degree=20)
    complex_ = cech_complex_affine(R, R.ideal("x"), cover, AffineWindow(14, 3), budgets)
    assert complex_.verify_d_squared()
    for check in (cech_complex_affine, affine_vanishing_check):
        with pytest.raises(ResourceBudgetError):
            check(R, R.ideal("x"), cover, AffineWindow(15, 3), budgets)
    # Constant pieces add no degree, so the exponent N is bounded by itself.
    constants = cover_of(R, "1", "3", "5")
    complex_ = cech_complex_affine(R, R.ideal("x"), constants, AffineWindow(8, 20), budgets)
    assert complex_.cohomology_dims() == [8, 0]
    for check in (cech_complex_affine, affine_vanishing_check):
        for npow in (21, 10**6):
            with pytest.raises(ResourceBudgetError):
                check(R, R.ideal("x"), constants, AffineWindow(8, npow), budgets)
        for window in (AffineWindow(8, -1), AffineWindow(-1, 3)):
            with pytest.raises(DomainError, match="nonnegative"):
                check(R, R.ideal("x"), cover_of(R, "1", "1"), window)


def test_affine_rejects_pieces_outside_target(R):
    cover = OpenCover(DistinguishedOpen(R, R.parse("x")),
                      (DistinguishedOpen(R, R.parse("x - 1")),))
    with pytest.raises(ValidationError):
        cech_complex_affine(R, R.ideal("x"), cover, AffineWindow())


PIECE_FACTORS = ("x", "x - 1", "x + 1", "x + 2", "x^2 + 1", "x^2 - 2", "3")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["q", 5, 7]), st.sampled_from(["1", "x"]),
       st.lists(st.sampled_from(PIECE_FACTORS), min_size=1, max_size=3),
       st.sampled_from([[], ["1"], ["x - 1"], ["x^2 + x"], ["x^3 - 2"]]),
       st.integers(0, 3), st.integers(0, 2))
def test_affine_complex_is_a_complex(field, target, factors, ideal, base, npow):
    R = PresentedRing(QQ if field == "q" else GF(field), ("x",))
    cover = cover_of(R, target, *(f"({target})*({f})" for f in factors))
    assume(cover_check(cover))
    complex_ = cech_complex_affine(R, R.ideal(*ideal), cover,
                                   AffineWindow(base, npow))
    assert len(complex_.dims) == len(factors)
    assert complex_.verify_d_squared()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["q", 5]), st.sampled_from(["1", "x"]),
       st.lists(st.sampled_from(PIECE_FACTORS), min_size=1, max_size=3),
       st.sampled_from([[], ["x - 1"], ["x^2 + x"]]), st.integers(0, 3))
def test_affine_empty_piece_changes_nothing(field, target, factors, ideal, where):
    R = PresentedRing(QQ if field == "q" else GF(field), ("x",))
    pieces = [f"({target})*({f})" for f in factors]
    cover = cover_of(R, target, *pieces)
    assume(cover_check(cover))
    padded = cover_of(R, target, *pieces[:where], "0", *pieces[where:])
    before = cech_complex_affine(R, R.ideal(*ideal), cover).cohomology_dims()
    after = cech_complex_affine(R, R.ideal(*ideal), padded).cohomology_dims()
    assert after == before + [0]
