"""Exact coefficient fields: the rationals and prime fields F_p.

Coefficients are plain Python objects — ``fractions.Fraction`` over Q and
integers in ``range(p)`` over F_p — so polynomial code can hash and compare
them directly.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CapabilityError, DomainError

# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson & Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; CapabilityError where it is not exact."""
    if n >= _MR_EXACT_BELOW:
        raise CapabilityError(f"primality of {n} is decided only below {_MR_EXACT_BELOW}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """Either the rationals (``kind='q'``) or a prime field (``kind='fp'``);
    ``p`` is the characteristic, 0 for the rationals."""

    def __init__(self, kind: str, p: int = 0):
        if kind not in ("q", "fp"):
            raise DomainError(f"unknown field kind {kind!r}")
        if kind == "q" and p:
            raise DomainError("the rationals have characteristic 0")
        if kind == "fp" and not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.kind = kind
        self.p = p

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    # -- arithmetic on coefficient values -------------------------------

    def zero(self):
        return 0 if self.kind == "fp" else Fraction(0)

    def one(self):
        return 1 if self.kind == "fp" else Fraction(1)

    def from_int(self, n: int):
        return n % self.p if self.kind == "fp" else Fraction(n)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "fp" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "fp" else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        return pow(a, -1, self.p) if self.kind == "fp" else Fraction(1) / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def describe(self) -> str:
        return "Q" if self.kind == "q" else f"F{self.p}"


QQ = FieldSpec("q")


def GF(p: int) -> FieldSpec:
    return FieldSpec("fp", p)
