"""Resource budgets with documented defaults and environment overrides.

Every potentially unbounded computation (Buchberger, exhaustive module
searches, digraph enumeration, the tower) consults a ``Budgets`` value.
Digraph extraction reads none: each node it adds is a distinct open strictly
inside its parent's, so it ends once the candidate opens run out.  Environment
variables of the form ``NOETHER_BUDGET_<FIELD>`` override the defaults,
e.g. ``NOETHER_BUDGET_MAX_PAIRS=500000``; any other ``NOETHER_BUDGET_*``
name is refused, as an unknown key of a job's ``budgets`` is.

The package's records (``Budgets`` among them) compare through
``Record``: equal to an instance of its own class whose fields, the
instance ``__dict__``, are equal.  A ``FrozenRecord`` is also hashed, as
the tuple of its fields in the order its ``__init__`` sets them.  Both are
plain classes, since importing ``dataclasses`` would cost every CLI
process 8-11 ms.  ``Budgets.FIELDS`` names the budgets for ``checked``.
"""

from __future__ import annotations

import os

from .errors import ParseError

ENV_PREFIX = "NOETHER_BUDGET_"


class Record:
    """Equal to an instance of its own class with equal fields; unhashable."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__


class FrozenRecord(Record):
    """A ``Record`` hashed as the tuple of its fields."""

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))


class Budgets(FrozenRecord):
    """Every budget a computation consults, by keyword or in the order of
    ``FIELDS``."""

    FIELDS = ("max_pairs", "max_degree", "finite_ring_bound", "digraph_node_cap",
              "tower_max_depth", "digraph_vocab_cap", "baer_bound",
              "baer_materialize_bound")

    def __init__(self, max_pairs: int = 10**6, max_degree: int = 64,
                 finite_ring_bound: int = 256, digraph_node_cap: int = 16,
                 tower_max_depth: int = 8, digraph_vocab_cap: int = 20000,
                 baer_bound: int = 2**24, baer_materialize_bound: int = 4096):
        # Buchberger: maximum number of S-polynomial pairs processed.
        self.max_pairs = max_pairs
        # Maximum total degree of any polynomial seen during a basis computation.
        self.max_degree = max_degree
        # Exhaustive finite-ring / finite-module operations refuse larger carriers.
        self.finite_ring_bound = finite_ring_bound
        # Subset-stratum iteration is exponential in the node count.
        self.digraph_node_cap = digraph_node_cap
        # Deepest etale tower level any etale job or run_tower_suite accepts.
        self.tower_max_depth = tower_max_depth
        # Most ideal assignments count_digraph_space walks for one node set.
        self.digraph_vocab_cap = digraph_vocab_cap
        # Largest one-step extension module a Baer step may construct (its size
        # after the identification quotient; elements are kept in normal form,
        # never tabulated, so this may exceed finite_ring_bound).
        self.baer_bound = baer_bound
        # Largest Baer-step output eagerly tabulated as an explicit FiniteModule.
        self.baer_materialize_bound = baer_materialize_bound

    def replace(self, **changes) -> "Budgets":
        """These budgets with the named ones changed."""
        return Budgets(**{**self.__dict__, **changes})

    @staticmethod
    def checked(values: dict, env: bool = False) -> dict:
        """``values`` as field overrides, keyed by field name, or for ``env`` by
        variable name ``NOETHER_BUDGET_<FIELD>`` with integer texts; a key or
        value it cannot take is a ParseError naming the key."""
        names = {(ENV_PREFIX + name.upper() if env else name): name
                 for name in Budgets.FIELDS}
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
        """The defaults under every ``NOETHER_BUDGET_*`` variable, found by name."""
        env = {var: os.environ[var] for var in os.environ if var.startswith(ENV_PREFIX)}
        return Budgets(**Budgets.checked(env, env=True))


DEFAULT_BUDGETS = Budgets()
