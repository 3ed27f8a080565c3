"""noether: exact commutative algebra for finiteness phenomena on affine schemes.

The package couples a small Groebner kernel over exact fields with four
applications that are usually left non-constructive: digraphs of ideals
presenting arbitrary sheaves of ideals, Cech cohomology with exact ranks,
Baer-style injective constructions over finite rings, and a tower of
localized rings whose union fails finite generation.
"""

from .config import Budgets, DEFAULT_BUDGETS
from .errors import (
    NoetherError,
    ParseError,
    DomainError,
    ValidationError,
    ResourceBudgetError,
    BoundExceededError,
    CapabilityError,
    OracleError,
)
from .fields import FieldSpec, QQ, GF
from .poly import (
    Polynomial,
    MonomialOrder,
    DegRevLex,
    Lex,
    BlockElim,
    DEGREVLEX,
    LEX,
    order_by_name,
)
from .parse import parse_polynomial
from .groebner import groebner_basis, normal_form
from .rings import (
    PresentedRing,
    IdealHandle,
    op_groebner_basis,
    ideal_membership,
    ideal_equal,
    ideal_contains,
    ideal_combine,
    saturate,
    colon_ideal,
    radical_membership,
)
from .finite import (
    FiniteRing,
    FiniteModule,
    zmod,
    gf_poly_quotient,
    product_ring,
    ideal_closure,
    is_ideal,
    enumerate_ideals,
    minimal_generators,
    is_prime_ideal,
    NoetherianReport,
    noetherian_witness,
    ring_as_module,
    zero_module,
    submodule,
    span,
    enumerate_submodules,
    quotient_module,
    free_module,
    direct_sum,
    DirectSum,
    module_generators,
    all_homs,
    is_linear_map,
    hom_from_ideal,
)
from .topology import (
    DistinguishedOpen,
    open_contains,
    open_equal,
    open_strictly_below,
    open_intersect,
    OpenCover,
    cover_check,
    coordinate_ring,
    enumerate_spec,
    FiniteSpace,
)
from .digraph import (
    DigraphNode,
    IdealDigraph,
    DigraphReport,
    validate_digraph,
    clear_denominators,
    section_membership,
    evaluate_sheaf,
    SheafOracle,
    quasi_coherent_oracle,
    digraph_oracle,
    extract_digraph,
    is_quasi_coherent,
    ZZSheafData,
    ZZDigraph,
    extract_zz_digraph,
    zz_sheaf_value,
    count_digraph_space,
)
from .cech import (
    CechComplex,
    TwistData,
    twisted_cohomology_dims,
    AffineWindow,
    cech_complex_affine,
    affine_vanishing_check,
    matrix_rank,
)
from .baer import (
    BaerReport,
    baer_test,
    LedgerEntry,
    BaerModule,
    BaerStepResult,
    baer_step,
    BaerChain,
    baer_chain,
    chain_fixed_pointwise,
    injective_envelope_bruteforce,
    first_principles_injective,
)
from .tower import (
    EXPONENT_RULES,
    deleted_exponents,
    TowerLevel,
    tower_ring,
    CoverMapReport,
    verify_cover_map,
    StrictnessReport,
    pullback_strictness,
    MaximalityReport,
    properness_and_maximality,
    TowerSuiteReport,
    run_tower_suite,
)
from .jobs import JobSpec, Report, parse_job, run_job, COMMANDS

__version__ = "0.1.0"
