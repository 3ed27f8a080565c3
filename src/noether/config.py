"""Resource budgets with documented defaults and environment overrides.

Every potentially unbounded computation (Buchberger, exhaustive module
searches, digraph enumeration, the tower) consults a ``Budgets`` value.
Digraph extraction reads none: each node it adds is a distinct open strictly
inside its parent's, so it ends once the candidate opens run out.  Environment
variables of the form ``NOETHER_BUDGET_<FIELD>`` override the defaults,
e.g. ``NOETHER_BUDGET_MAX_PAIRS=500000``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import ParseError


@dataclass(frozen=True)
class Budgets:
    # Buchberger: maximum number of S-polynomial pairs processed.
    max_pairs: int = 10**6
    # Maximum total degree of any polynomial seen during a basis computation.
    max_degree: int = 64
    # Exhaustive finite-ring / finite-module operations refuse larger carriers.
    finite_ring_bound: int = 256
    # Subset-stratum iteration is exponential in the node count.
    digraph_node_cap: int = 16
    # Deepest etale tower level any etale job or run_tower_suite accepts.
    tower_max_depth: int = 8
    # Vocabulary size cap for count_digraph_space enumeration.
    digraph_vocab_cap: int = 20000
    # Largest one-step extension module a Baer step may construct (its size
    # after the identification quotient; elements are kept in normal form,
    # never tabulated, so this may exceed finite_ring_bound).
    baer_bound: int = 2**24
    # Largest Baer-step output eagerly tabulated as an explicit FiniteModule.
    baer_materialize_bound: int = 4096

    @staticmethod
    def from_env() -> "Budgets":
        overrides = {}
        for f in fields(Budgets):
            var = f"NOETHER_BUDGET_{f.name.upper()}"
            raw = os.environ.get(var)
            if raw is not None:
                try:
                    overrides[f.name] = int(raw)
                except ValueError:
                    raise ParseError(f"{var} must be an integer, got {raw!r}") from None
        return Budgets(**overrides)


DEFAULT_BUDGETS = Budgets()
