"""Exact arithmetic for repeated binomial coefficients.

The central object is the equation C(x, y) = C(x - a, y + b) for a
shift pair (a, b) of positive integers. The package finds all its
solutions up to a bound with a proved-complete row solver, certifies
the smoothness of the associated plane curve, isolates the limiting
ratio zeta(a, b) as an exact rational enclosure, and counts how often a
value repeats inside Pascal's triangle. Everything is integer or
rational arithmetic; no floats enter any decision.
"""

from .census import MultiplicityRecord, intersect_curves, multiplicity, scan_high_multiplicity
from .combinatorics import binomial, falling_factorial, fibonacci
from .curves import (
    Certificate,
    Finiteness,
    Verdict,
    affine_singular_check,
    build_curve,
    certify,
    classify_finiteness,
    infinity_singular_check,
    lattice_points_in_box,
    quad_factor_test,
    real_branches,
)
from .errors import CacheError, PreconditionError, ZeroPolynomialError
from .polynomials import (
    BiPoly,
    UniPoly,
    bipoly_resultant,
    format_bipoly,
    format_unipoly,
    isolate_real_roots,
    unipoly_gcd,
)
from .ratios import (
    Interval,
    IrrationalityWitness,
    ShiftPair,
    bracket,
    irrationality_check,
    isolate_zeta,
    ratio_identity_check,
    row_expansion_check,
    zeta_poly,
)
from .search import (
    FamilyMember,
    Solution,
    brute_search,
    candidate_window,
    convergent_bracket_check,
    equality_check,
    family_member,
    family_verify,
    search,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "CacheError",
    "Certificate",
    "FamilyMember",
    "Finiteness",
    "Interval",
    "IrrationalityWitness",
    "MultiplicityRecord",
    "PreconditionError",
    "ShiftPair",
    "Solution",
    "UniPoly",
    "Verdict",
    "ZeroPolynomialError",
    "affine_singular_check",
    "binomial",
    "bipoly_resultant",
    "bracket",
    "brute_search",
    "build_curve",
    "candidate_window",
    "certify",
    "classify_finiteness",
    "convergent_bracket_check",
    "equality_check",
    "falling_factorial",
    "family_member",
    "family_verify",
    "fibonacci",
    "format_bipoly",
    "format_unipoly",
    "infinity_singular_check",
    "intersect_curves",
    "irrationality_check",
    "isolate_real_roots",
    "isolate_zeta",
    "lattice_points_in_box",
    "multiplicity",
    "quad_factor_test",
    "ratio_identity_check",
    "real_branches",
    "row_expansion_check",
    "scan_high_multiplicity",
    "search",
    "unipoly_gcd",
    "zeta_poly",
]
