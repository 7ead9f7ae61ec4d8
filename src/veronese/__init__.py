"""Exact-arithmetic toolkit for presentation ideals of monomial algebras:
sparse polynomials over the rationals and prime fields, a deterministic
Groebner engine, two independent toric-ideal constructions, dimension and
graded local-cohomology closed forms, characteristic-p tests, and assembled
JSON certificates with an explicit computed-versus-cited boundary."""

from .polycore import (
    CoeffDomain, GF, GrevLex, Lex, Block, ParseError, PolyRing, Polynomial,
    PrimeField, QQ, Rationals, homogeneous_degree, is_homogeneous,
    parse_polynomial, parse_polynomial_list,
)
from .groebner import (
    GroebnerBasis, Ideal, buchberger, colon, colon_ideal, eliminate,
    ideal_equal, ideal_member, ideal_sum, initial_ideal, intersect,
    normal_form, radical_member, saturate,
)
from .toric import (
    CIReport, MonomialMap, ci_check, ci_sequence, integer_kernel,
    minimal_generators, symmetric_minors_ideal, toric_ideal_elimination,
    toric_ideal_lattice, veronese_map,
)
from .invariants import (
    DimensionResult, GradedPiece, hilbert_piece, krull_dim, lc_top_piece,
    veronese_lc_piece,
)
from .charp import (
    FiberReport, FpurityReport, fedder_fiber, fedder_fpure, frobenius_power,
    monomial_ideal_member, semigroup_member,
)
from .pipeline import (
    Check, GENERIC_2X3_GENERATORS, GENERIC_2X3_NAMES, QUARTIC_CURVE_TARGETS,
    Report, ResourceCapError, VARIABLE_CAP, cd_certificate, char_compare,
    ensure_within_cap, present_monomial_algebra, radical_cover_check,
    render_json,
)

__version__ = "0.1.0"

__all__ = [
    "CoeffDomain", "GF", "GrevLex", "Lex", "Block", "ParseError", "PolyRing",
    "Polynomial", "PrimeField", "QQ", "Rationals", "homogeneous_degree",
    "is_homogeneous", "parse_polynomial", "parse_polynomial_list",
    "GroebnerBasis", "Ideal", "buchberger", "colon", "colon_ideal",
    "eliminate", "ideal_equal", "ideal_member", "ideal_sum", "initial_ideal",
    "intersect", "normal_form", "radical_member", "saturate",
    "CIReport", "MonomialMap", "ci_check", "ci_sequence", "integer_kernel",
    "minimal_generators", "symmetric_minors_ideal",
    "toric_ideal_elimination", "toric_ideal_lattice", "veronese_map",
    "DimensionResult", "GradedPiece", "hilbert_piece", "krull_dim",
    "lc_top_piece", "veronese_lc_piece",
    "FiberReport", "FpurityReport", "fedder_fiber", "fedder_fpure",
    "frobenius_power", "monomial_ideal_member", "semigroup_member",
    "Check", "GENERIC_2X3_GENERATORS", "GENERIC_2X3_NAMES",
    "QUARTIC_CURVE_TARGETS", "Report", "ResourceCapError", "VARIABLE_CAP",
    "cd_certificate", "char_compare", "ensure_within_cap",
    "present_monomial_algebra", "radical_cover_check", "render_json",
    "__version__",
]
