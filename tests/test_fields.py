"""Prime fields: the primality test behind GF(p), checked against trial
division, and huge characteristics refused rather than tested forever."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noether.errors import CapabilityError, DomainError
from noether.fields import GF, QQ, FieldSpec, _MR_EXACT_BELOW, _is_prime

SRC = Path(__file__).resolve().parents[1] / "src"


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_p_is_the_characteristic():
    assert (QQ.p, GF(7).p) == (0, 7)
    with pytest.raises(DomainError, match="characteristic 0"):
        FieldSpec("q", 2)


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if trial_division(n)]


@pytest.mark.parametrize("n,prime", [
    (3215031751, False),  # a strong pseudoprime to the bases 2, 3, 5 and 7
    (3825123056546413051, False),  # a strong pseudoprime to the bases 2 to 23
    (318665857834031151167461, False),  # a strong pseudoprime to the bases 2 to 37
    (2**61 - 1, True),
    (2**31 - 1, True),
    (_MR_EXACT_BELOW - 168, True),  # the largest prime the test decides
])
def test_is_prime_on_large_numbers(n, prime):
    assert _is_prime(n) is prime


def test_is_prime_refuses_where_it_is_not_exact():
    with pytest.raises(CapabilityError):
        _is_prime(_MR_EXACT_BELOW)
    with pytest.raises(CapabilityError):
        GF(10**30 + 57)


@pytest.mark.parametrize("field,code", [
    ("fp:1000000000000000000000000000057", 3),
    ("fp:2305843009213693951", 0),  # 2^61 - 1
])
def test_huge_characteristic_job_returns(field, code):
    # Trial division never returned on these, so each job runs in its own
    # process under a timeout.
    payload = {"ring": {"field": field}, "generators": ["x"]}
    done = subprocess.run([sys.executable, "-m", "noether.cli", "groebner", "-"],
                          input=json.dumps(payload), capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=30)
    assert done.returncode == code, done.stdout + done.stderr
