"""The cover tower: level rings, cover maps under x -> x^2, strict pullback
growth, properness/maximality, the full per-level suite, and the budgets a
level carries."""

import itertools

import pytest

from noether.config import Budgets
from noether.errors import DomainError, ResourceBudgetError
from noether.fields import GF, QQ
from noether.jobs import JobSpec, run_job
from noether.poly import Polynomial
from noether.rings import PresentedRing, ideal_equal, ideal_membership
from noether.tower import (
    EXPONENT_RULES,
    _power_poly,
    deleted_exponents,
    properness_and_maximality,
    pullback_ideal,
    pullback_strictness,
    run_tower_suite,
    tower_ring,
    verify_cover_map,
)


def test_deleted_exponents_power_rule():
    assert deleted_exponents(0, "power") == []
    assert deleted_exponents(3, "power") == [2, 4, 8]


def test_deleted_exponents_literal_rule():
    assert deleted_exponents(3, "literal") == [2, 4, 6]


def test_level_zero_inverts_only_x():
    level = tower_ring(0, QQ)
    assert [level.ring.render(s) for s in level.ring.inverted] == ["x"]


def test_level_two_inverts_x_and_shifted_powers():
    level = tower_ring(2, QQ)
    rendered = [level.ring.render(s) for s in level.ring.inverted]
    assert rendered == ["x", "x^2 - 2", "x^4 - 2"]


def test_characteristic_two_rejected():
    with pytest.raises(DomainError):
        tower_ring(1, GF(2))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
def test_binomials_equal_a_power_minus_a_constant(field):
    # Every x^e - shift a level up to the deepest allowed one builds: the
    # deleted points of either rule, the chain x^(2^k) - 1 and x + 1.
    R = PresentedRing(field, ("x",))
    depth = Budgets().tower_max_depth
    exponents = {2 ** k for k in range(depth + 1)}
    for rule in EXPONENT_RULES:
        exponents.update(deleted_exponents(depth, rule))
    for e, shift in itertools.product(sorted(exponents), (2, 1, -1)):
        old = R.var("x") ** e - Polynomial.const(field, 1, shift)
        assert _power_poly(R, e, shift) == old, (e, shift)


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cover_maps_power_rule(field, n):
    rep = verify_cover_map(tower_ring(n - 1, field), tower_ring(n, field))
    assert rep.ok, rep.as_dict()


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_cover_map_literal_rule_fails_at_level_three(field):
    ok12 = verify_cover_map(tower_ring(1, field, "literal"),
                            tower_ring(2, field, "literal"))
    assert ok12.ok
    rep = verify_cover_map(tower_ring(2, field, "literal"),
                           tower_ring(3, field, "literal"))
    # The image of x^4 - 2 under x -> x^2 is x^8 - 2, which is not inverted
    # at literal level 3 (exponents 2, 4, 6) and is not a unit there.
    assert not rep.ok
    assert not rep.well_defined and rep.etale and rep.compatible
    R = tower_ring(3, field, "literal").ring
    assert rep.witness == R.render(R.parse("x^8 - 2"))


@pytest.mark.parametrize("field,rule,collapses", [
    (GF(5), "literal", True), (QQ, "literal", False), (GF(5), "power", False)])
def test_literal_level_three_over_f5_identifies_x8_and_x4(field, rule,
                                                          collapses):
    # Mod 5, x^4 + 1 = (x^2 - 2)(x^2 - 3) and x^2 - 3 divides x^6 - 2, so
    # x^4 + 1 is a unit at literal level 3 and (x^8 - 1) = (x^4 - 1) there.
    R = tower_ring(3, field, rule).ring
    assert ideal_equal(R.ideal("x^8 - 1"), R.ideal("x^4 - 1")) == collapses


def test_pullback_ideal_doubles_exponent():
    level = tower_ring(2, QQ)
    I = pullback_ideal(level, 0)
    # (x - 1) pulled back through two squarings is (x^4 - 1).
    assert ideal_membership(level.ring.parse("x^4 - 1"), I)


def test_pullback_strictness_each_level():
    for n in (1, 2, 3):
        rep = pullback_strictness(tower_ring(n, QQ))
        assert rep.ok, rep.as_dict()


def test_strictness_witness_fields():
    rep = pullback_strictness(tower_ring(2, GF(5)))
    d = rep.as_dict()
    assert d["witness_in_big"] and d["witness_not_in_small"]
    assert d["pullback_is_x2_minus_1"] and d["strictly_smaller"]


def test_properness_and_maximality():
    for field in (QQ, GF(5)):
        rep = properness_and_maximality(tower_ring(2, field))
        assert rep.ok, rep.as_dict()


def test_divisibility_chain_inside_level():
    # (x^{2^k} - 1) is contained in (x^{2^j} - 1) whenever k >= j.
    level = tower_ring(3, QQ)
    Rn = level.ring
    for j in range(3):
        big = Rn.ideal(f"x^{2 ** j} - 1")
        small = Rn.ideal(f"x^{2 ** (j + 1)} - 1")
        gen = small.generators[0]
        assert ideal_membership(gen, big)
    assert not ideal_equal(Rn.ideal("x^2 - 1"), Rn.ideal("x - 1"))


def test_suite_power_rule_passes_depth_five():
    for field in (QQ, GF(5)):
        rep = run_tower_suite(5, field, "power")
        assert rep.ok
        assert rep.failing_level() is None


def test_suite_depth_is_a_budget():
    with pytest.raises(ResourceBudgetError) as info:
        run_tower_suite(3, QQ, "power", Budgets(tower_max_depth=2))
    assert info.value.budget_name == "tower_max_depth"


def test_tower_ring_is_the_depth_gate():
    with pytest.raises(ResourceBudgetError) as info:
        tower_ring(9, QQ)
    assert info.value.budget_name == "tower_max_depth"
    assert "depth 9 exceeds the configured maximum 8" in str(info.value)
    assert tower_ring(3, QQ, "power", Budgets(tower_max_depth=3)).n == 3


def test_level_degree_budget_is_at_least_two_to_the_n():
    assert tower_ring(2, QQ).budgets == Budgets()
    assert tower_ring(7, QQ).budgets == Budgets(max_degree=128)
    caller = Budgets(max_degree=300, max_pairs=7)
    assert tower_ring(8, QQ, "literal", caller).budgets == caller
    tight = tower_ring(5, QQ, "power", Budgets(max_degree=1))
    assert tight.budgets == Budgets(max_degree=32)


def test_etale_jobs_need_no_degree_budget_of_their_own():
    # 2^n is the largest degree a level-n check builds, so a caller's degree
    # budget of 1 changes no report.
    ops = ("suite", "level", "cover-map", "strictness", "maximality")
    for field, rule, op, depth in itertools.product(
            ("q", "fp:5"), EXPONENT_RULES, ops, range(9)):
        payload = {"op": op, "field": field, "rule": rule, "depth": depth}
        reports = []
        for budgets in (Budgets(), Budgets(max_degree=1)):
            report = run_job(JobSpec("etale", payload, budgets))
            assert "max_degree" not in str(report.result), payload
            report.timings.clear()
            reports.append(report.as_dict())
        assert reports[0] == reports[1], payload


def test_suite_literal_rule_reports_failing_level():
    rep = run_tower_suite(4, QQ, "literal")
    assert not rep.ok
    assert rep.failing_level() == 3


def test_exponent_rules_constant():
    assert EXPONENT_RULES == ("power", "literal")
