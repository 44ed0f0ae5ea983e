"""Exception hierarchy shared by the whole package.

Each class owns the exit code the CLI returns for it, as `exit_code`.
Input and parse problems exit 2: ParseError, InvalidQError,
ReservedSymbolError, UnboundSymbolError, TruncatedSolutionError,
IndeterminateEquationError and EmptySupportError.  Every other class
inherits 3 from QDulacError: structural conditions that abort an
expansion (LinearPartError and its subclasses, NotAVertexError,
InconsistentEdgeError), irrational q-powers, resource limits and internal
invariant violations.
"""


class QDulacError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class ParseError(QDulacError):
    """Syntax or identifier error in the equation DSL, with location."""

    exit_code = 2

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ReservedSymbolError(QDulacError):
    """A parameter symbol clashes with a reserved name (x, y, t, S)."""

    exit_code = 2


class UnboundSymbolError(QDulacError):
    """An evaluation was attempted with an unbound symbol."""

    exit_code = 2


class InvalidQError(QDulacError):
    """q must be a positive rational different from 1."""

    exit_code = 2


class IrrationalQPowerError(QDulacError):
    """q^k left the rationals; the exact engine stops here."""


class IndeterminateEquationError(QDulacError):
    """Root finding was asked for the zero polynomial (roots unconstrained)."""

    exit_code = 2


class EmptySupportError(QDulacError):
    """The zero q-difference sum has no support."""

    exit_code = 2


class NotAVertexError(QDulacError):
    """A vertex operation received terms at more than one support point."""


class InconsistentEdgeError(QDulacError):
    """x-dependence survived the edge normalization (wrong r for the edge)."""


class TruncatedSolutionError(QDulacError):
    """A candidate (c, r) does not solve its face's truncated equation."""

    exit_code = 2


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
