"""Exact power-logarithmic expansions for algebraic q-difference equations.

The pipeline: parse an equation built from x, y and the scaling operator
S (S y(x) = y(q x)); take the Newton polygon of its support; read leading
candidates y ~ c*x^r off the polygon's faces; then expand term by term,
y = c*x^r + sum beta_k(log_q x) * x^k, solving one polynomial difference
equation per exponent.  All arithmetic is exact rational.
"""

from .algebra import ParamPoly, TPoly, q_log, q_pow, rational_roots
from .errors import (
    DegreeBoundError,
    EmptySupportError,
    ExponentOrderError,
    InconsistentEdgeError,
    IndeterminateEquationError,
    InternalInvariantError,
    InvalidQError,
    IrrationalQPowerError,
    LinearCoefficientError,
    LinearPartError,
    LinearVertexError,
    NotAVertexError,
    ParseError,
    QDulacError,
    ReservedSymbolError,
    ResourceLimitError,
    TruncatedSolutionError,
    UnboundSymbolError,
)
from .expand import (
    CriticalData,
    ExpansionResult,
    LinearPart,
    critical_numbers,
    degree_bound,
    expand_solution,
    extract_linear_part,
    k_lattice,
    solve_poly_difference,
    verify_residual,
)
from .parser import parse_equation, parse_param_expr
from .polygon import (
    Face,
    NewtonPolygon,
    build_polygon,
    faces_for_x_to_zero,
    find_face,
    render_svg,
)
from .qexpr import (
    PowerLogSeries,
    QPolynomial,
    QTerm,
    evaluate_on_series,
    format_qpolynomial,
    substitute_shift,
    support,
)
from .truncate import (
    FaceAnalysis,
    TruncatedSolution,
    analyze_face,
    determining_poly,
    truncated_sum,
    verify_truncated,
    vertex_char_poly,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalData",
    "DegreeBoundError",
    "EmptySupportError",
    "ExpansionResult",
    "ExponentOrderError",
    "Face",
    "FaceAnalysis",
    "InconsistentEdgeError",
    "IndeterminateEquationError",
    "InternalInvariantError",
    "InvalidQError",
    "IrrationalQPowerError",
    "LinearCoefficientError",
    "LinearPart",
    "LinearPartError",
    "LinearVertexError",
    "NewtonPolygon",
    "NotAVertexError",
    "ParamPoly",
    "ParseError",
    "PowerLogSeries",
    "QDulacError",
    "QPolynomial",
    "QTerm",
    "ReservedSymbolError",
    "ResourceLimitError",
    "TPoly",
    "TruncatedSolution",
    "TruncatedSolutionError",
    "UnboundSymbolError",
    "analyze_face",
    "build_polygon",
    "critical_numbers",
    "degree_bound",
    "determining_poly",
    "evaluate_on_series",
    "expand_solution",
    "extract_linear_part",
    "faces_for_x_to_zero",
    "find_face",
    "format_qpolynomial",
    "k_lattice",
    "parse_equation",
    "parse_param_expr",
    "q_log",
    "q_pow",
    "rational_roots",
    "render_svg",
    "solve_poly_difference",
    "substitute_shift",
    "support",
    "truncated_sum",
    "verify_residual",
    "verify_truncated",
    "vertex_char_poly",
]
