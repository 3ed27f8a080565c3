"""Acceptance gate: the eight headline checks, one pass/fail line each.

Each criterion prints ``ACCEPTANCE <name>: PASS|FAIL (<seconds>s, limit
<limit>s) -- <detail>`` so the suite log doubles as the acceptance report.
A criterion fails when its check fails, when it raises, or when it runs
past its time limit.  Criterion 8 asserts an exact known outcome, so it is
also run against altered tower reports, each of which it must refuse.
"""

import copy
import functools
import time

import pytest

from noether import acceptance
from noether.acceptance import CRITERIA, ORACLE_SLACK
from noether.fields import GF
from noether.poly import Polynomial
from noether.tower import run_tower_suite


@pytest.mark.parametrize("name,func,limit",
                         CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(name, func, limit, capsys):
    started = time.perf_counter()
    try:
        passed, detail = func()
    except Exception as exc:  # a crash is a failure with the reason
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    if passed and seconds > limit:
        passed = False
        detail += f" (exceeded {limit:.0f} s limit)"
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():  # the report line survives output capture
        print(f"\nACCEPTANCE {name}: {verdict} "
              f"({seconds:.1f}s, limit {limit:.0f}s) -- {detail}")
    assert passed, f"{name}: {detail}"


@functools.lru_cache(maxsize=None)
def _tower_suite(N, field, rule):
    return run_tower_suite(N, field, rule)


def _literal_passes(rep):
    for r in rep.cover_maps:
        r.well_defined, r.witness = True, None


def _first_fails_at_four(rep):
    rep.cover_maps[2].well_defined, rep.cover_maps[2].witness = True, None


def _other_witness(rep):
    rep.cover_maps[2].witness = "x^12 - 2"


def _strictness_fails(rep):
    rep.strictness[-1].strictly_smaller = False


def _chain_flipped(rep):
    rep.chain_strict = not rep.chain_strict


@pytest.mark.parametrize("rule,alter", [
    ("literal", _literal_passes), ("literal", _first_fails_at_four),
    ("literal", _other_witness), ("literal", _strictness_fails),
    ("literal", _chain_flipped), ("power", _strictness_fails),
    ("power", _chain_flipped)])
def test_criterion_8_refuses_other_tower_outcomes(monkeypatch, rule, alter):
    def altered_suite(N, field, r, budgets):
        rep = copy.deepcopy(_tower_suite(N, field, r))
        if r == rule:
            alter(rep)
        return rep

    monkeypatch.setattr(acceptance, "run_tower_suite", altered_suite)
    passed, detail = acceptance.criterion_8()
    assert not passed, detail


def test_criterion_1_oracle_finds_the_degree_nine_certificate():
    # 1 lies in <f, g> (f = x^2*y + y^2 + 1, g = f + y^3), but its lowest
    # certificate has degree 9, above the old window of pdeg + 8.
    F2 = GF(2)
    f = Polynomial(F2, 2, {(2, 1): 1, (0, 2): 1, (0, 0): 1})
    g = Polynomial(F2, 2, {(2, 1): 1, (0, 3): 1, (0, 2): 1, (0, 0): 1})
    one = Polynomial(F2, 2, {(0, 0): 1})
    assert acceptance._f2_combination_member(one, [f, g], ORACLE_SLACK)
    assert not acceptance._f2_combination_member(one, [f, g], 8)
