"""noether: exact commutative algebra for finiteness phenomena on affine schemes.

The package couples a small Groebner kernel over exact fields with four
applications that are usually left non-constructive: digraphs of ideals
presenting arbitrary sheaves of ideals, Cech cohomology with exact ranks,
Baer-style injective constructions over finite rings, and a tower of
localized rings whose union fails finite generation.

``import noether`` loads no layer: each exported name is imported from its
module on first use (PEP 562), so a process pays only for the layers it
touches.  A layer needed in only a few functions of another is imported
in those functions, and no module imports ``dataclasses``.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "config": ("Budgets", "DEFAULT_BUDGETS"),
    "errors": (
        "NoetherError", "ParseError", "DomainError", "ValidationError",
        "ResourceBudgetError", "BoundExceededError", "CapabilityError",
        "OracleError",
    ),
    "fields": ("FieldSpec", "QQ", "GF"),
    "poly": (
        "Polynomial", "MonomialOrder", "DegRevLex", "Lex", "BlockElim",
        "DEGREVLEX", "LEX",
    ),
    "parse": ("parse_polynomial",),
    "groebner": ("groebner_basis", "normal_form"),
    "rings": (
        "PresentedRing", "IdealHandle", "op_groebner_basis",
        "ideal_membership", "ideal_equal", "ideal_contains", "ideal_combine",
        "saturate", "colon_ideal", "radical_membership",
    ),
    "finite": (
        "FiniteRing", "FiniteModule", "zmod", "gf_poly_quotient",
        "product_ring", "ideal_closure", "is_ideal", "enumerate_ideals",
        "minimal_generators", "is_prime_ideal", "NoetherianReport",
        "noetherian_witness", "ring_as_module", "zero_module", "submodule",
        "span", "enumerate_submodules", "quotient_module", "free_module",
        "direct_sum", "DirectSum", "module_generators", "all_homs",
        "is_linear_map", "hom_from_ideal",
    ),
    "topology": (
        "DistinguishedOpen", "open_contains", "open_equal",
        "open_strictly_below", "open_intersect", "OpenCover", "cover_check",
        "coordinate_ring", "enumerate_spec", "FiniteSpace",
    ),
    "digraph": (
        "DigraphNode", "IdealDigraph", "DigraphReport", "validate_digraph",
        "clear_denominators", "section_membership", "evaluate_sheaf",
        "SheafOracle", "quasi_coherent_oracle", "digraph_oracle",
        "extract_digraph", "is_quasi_coherent", "ZZSheafData", "ZZDigraph",
        "extract_zz_digraph", "zz_sheaf_value", "count_digraph_space",
    ),
    "cech": (
        "CechComplex", "TwistData", "twisted_cohomology_dims", "AffineWindow",
        "cech_complex_affine", "affine_vanishing_check", "matrix_rank",
    ),
    "baer": (
        "BaerReport", "baer_test", "LedgerEntry", "BaerModule",
        "baer_step", "BaerChain", "baer_chain",
        "injective_envelope_bruteforce", "first_principles_injective",
    ),
    "tower": (
        "EXPONENT_RULES", "deleted_exponents", "TowerLevel", "tower_ring",
        "CoverMapReport", "verify_cover_map", "StrictnessReport",
        "pullback_strictness", "MaximalityReport",
        "properness_and_maximality", "TowerSuiteReport", "run_tower_suite",
    ),
    "jobs": ("JobSpec", "Report", "parse_job", "run_job", "COMMANDS"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
