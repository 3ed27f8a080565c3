"""Resource budgets with documented defaults and environment overrides.

Every potentially unbounded computation (Buchberger, exhaustive module
searches, digraph enumeration, the tower) consults a ``Budgets`` value.
Digraph extraction reads none: each node it adds is a distinct open strictly
inside its parent's, so it ends once the candidate opens run out.  Environment
variables of the form ``NOETHER_BUDGET_<FIELD>`` override the defaults,
e.g. ``NOETHER_BUDGET_MAX_PAIRS=500000``; any other ``NOETHER_BUDGET_*``
name is refused, as an unknown key of a job's ``budgets`` is.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import ParseError

ENV_PREFIX = "NOETHER_BUDGET_"


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
    # Most ideal assignments count_digraph_space walks for one node set.
    digraph_vocab_cap: int = 20000
    # Largest one-step extension module a Baer step may construct (its size
    # after the identification quotient; elements are kept in normal form,
    # never tabulated, so this may exceed finite_ring_bound).
    baer_bound: int = 2**24
    # Largest Baer-step output eagerly tabulated as an explicit FiniteModule.
    baer_materialize_bound: int = 4096

    @staticmethod
    def checked(values: dict, env: bool = False) -> dict:
        """``values`` as field overrides, keyed by field name, or for ``env`` by
        variable name ``NOETHER_BUDGET_<FIELD>`` with integer texts; a key or
        value it cannot take is a ParseError naming the key."""
        names = {(ENV_PREFIX + f.name.upper() if env else f.name): f.name
                 for f in fields(Budgets)}
        out = {}
        for key, value in values.items():
            if key not in names:
                raise ParseError(f"unknown budget field {key!r}")
            if env:
                try:
                    value = int(value)
                except ValueError:
                    pass
            if type(value) is not int:
                what = key if env else f"budget {key!r}"
                raise ParseError(f"{what} must be an integer, got {value!r}")
            out[names[key]] = value
        return out

    @staticmethod
    def from_env() -> "Budgets":
        """The defaults under every ``NOETHER_BUDGET_*`` variable."""
        env = {var: raw for var, raw in os.environ.items() if var.startswith(ENV_PREFIX)}
        return Budgets(**Budgets.checked(env, env=True))


DEFAULT_BUDGETS = Budgets()
