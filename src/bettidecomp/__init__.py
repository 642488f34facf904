"""Exact chain decompositions of Betti diagrams.

Betti diagrams of graded modules over a polynomial ring form a cone whose
extremal rays are the pure diagrams; every diagram in the cone is a unique
positive combination of a totally ordered chain of them.  This package
implements that machinery with exact rational arithmetic: pure diagrams and
their partial order, maximal chains and their tableau numberings, the
integer dual functionals and boundary facets of the simplicial fan, greedy
decomposition with certificates, and Hilbert series with the shift bounds
on the multiplicity.
"""

from .core import (
    BettiDiagram,
    DegreeSequence,
    LaurentPolynomial,
    NormalizedPureDiagram,
    PureDiagram,
    Rational,
    codimension,
    hk_residuals,
    normalize,
    numerator_polynomial,
    pure_diagram,
    window_of,
)
from .decompose import Decomposition, VerificationResult, greedy_decompose, verify_decomposition
from .functionals import (
    BoundaryFacet,
    ConvexityReport,
    FacetKind,
    Functional,
    FunctionalCase,
    MembershipResult,
    boundary_facets,
    classify_facet,
    coefficient_functional,
    derived_window,
    expand_in_chain,
    membership_by_inequalities,
    verify_fan_convexity,
)
from .hilbert import (
    BoundsReport,
    HilbertSeries,
    MonotonicityReport,
    ShiftBounds,
    check_monotonicity,
    hilbert_series,
    multiplicity,
    multiplicity_bounds,
    shift_bounds,
)
from .io import emit_decomposition, emit_diagram, emit_report, parse_diagram
from .poset import (
    Chain,
    Tableau,
    Window,
    chain_from_tableau,
    chain_length,
    count_maximal_chains,
    covers,
    leq,
    maximal_chains,
    tableau_from_chain,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BettiDiagram",
    "BoundaryFacet",
    "BoundsReport",
    "Chain",
    "ConvexityReport",
    "Decomposition",
    "DegreeSequence",
    "FacetKind",
    "Functional",
    "FunctionalCase",
    "HilbertSeries",
    "LaurentPolynomial",
    "MembershipResult",
    "MonotonicityReport",
    "NormalizedPureDiagram",
    "PureDiagram",
    "Rational",
    "ShiftBounds",
    "Tableau",
    "VerificationResult",
    "Window",
    "boundary_facets",
    "chain_from_tableau",
    "chain_length",
    "check_monotonicity",
    "classify_facet",
    "codimension",
    "coefficient_functional",
    "count_maximal_chains",
    "covers",
    "derived_window",
    "emit_decomposition",
    "emit_diagram",
    "emit_report",
    "errors",
    "expand_in_chain",
    "greedy_decompose",
    "hilbert_series",
    "hk_residuals",
    "leq",
    "maximal_chains",
    "membership_by_inequalities",
    "multiplicity",
    "multiplicity_bounds",
    "normalize",
    "numerator_polynomial",
    "parse_diagram",
    "pure_diagram",
    "shift_bounds",
    "tableau_from_chain",
    "verify_decomposition",
    "verify_fan_convexity",
    "window_of",
]
