"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: input/parse problems exit 2,
structural conditions that abort an expansion, resource limits and
internal invariant violations, exit 3.
"""


class QDulacError(Exception):
    """Base class for all package errors."""


class ParseError(QDulacError):
    """Syntax or identifier error in the equation DSL, with location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ReservedSymbolError(QDulacError):
    """A parameter symbol clashes with a reserved name (x, y, t)."""


class UnboundSymbolError(QDulacError):
    """An evaluation was attempted with an unbound symbol."""


class InvalidQError(QDulacError):
    """q must be a positive rational different from 1."""


class IrrationalQPowerError(QDulacError):
    """q^k left the rationals; the exact engine stops here."""


class IndeterminateEquationError(QDulacError):
    """Root finding was asked for the zero polynomial (roots unconstrained)."""


class EmptySupportError(QDulacError):
    """The zero q-difference sum has no support."""


class NotAVertexError(QDulacError):
    """A vertex operation received terms at more than one support point."""


class InconsistentEdgeError(QDulacError):
    """x-dependence survived the edge normalization (wrong r for the edge)."""


class TruncatedSolutionError(QDulacError):
    """A candidate (c, r) does not solve its face's truncated equation."""


class LinearPartError(QDulacError):
    """Base for the two structural conditions on the shifted equation."""


class LinearVertexError(LinearPartError):
    """Support point (0,1) is absent or is not a vertex of the Newton polygon."""


class LinearCoefficientError(LinearPartError):
    """A term at support point (0,1) has a non-constant coefficient."""


class ExponentOrderError(LinearPartError):
    """A shifted support point would feed coefficients backwards: the
    recursion on series exponents is only well-founded when every shifted
    support point (q1, q2-1) satisfies q1 + r*(q2-1) >= 0."""


class ResourceLimitError(QDulacError):
    """A legal input exceeds a fixed limit of the engine, such as exponent 2^31."""


class DegreeBoundError(QDulacError):
    """A computed log-polynomial exceeded the proven degree bound (internal bug)."""


class InternalInvariantError(QDulacError):
    """A proven identity failed at run time (internal bug).

    Raised explicitly rather than asserted, so the check also runs under
    `python -O`.
    """
