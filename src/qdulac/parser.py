"""Parser for the equation DSL.

Grammar (whitespace-insignificant, `#` starts a comment running to end of
line, an optional trailing "= 0" is accepted):

    equation := expr ("=" "0")?
    expr     := ["-"] term (("+"|"-") term)*
    term     := factor ("*" factor)*
    factor   := atom ("^" INT)? | "x" "^" XPOWER
    atom     := RATIONAL | INT | IDENT | "x" | "y"
              | "S" ("^" INT)? "(" "y" ")" | "(" expr ")"
    XPOWER   := ["-"] INT | "(" ["-"] (RATIONAL | INT) ")"
    RATIONAL := INT "/" INT

IDENT must be one of the declared parameter names.  Powers are nonnegative
integers, except on x, which also takes the negative and fractional powers
the text notation prints ("x^-1", "x^(3/2)", "x^(-1/2)"); "y^1/2", "y^-1"
and "x^1/2" are rejected with the specific diagnostics the pipeline
reports to users.  Parentheses nest at most 100 levels deep, well inside
the interpreter's recursion limit; deeper input raises ResourceLimitError.
The result is a canonical QPolynomial: powers and products expanded, like
terms merged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import ParamPoly, RESERVED_SYMBOLS
from .errors import ParseError, ReservedSymbolError, ResourceLimitError
from .qexpr import QPolynomial

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^()/=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | one of "+-*^()/=" | "end"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "newline":
            line += 1
            col = 1
        else:
            if kind == "int":
                tokens.append(Token("int", value, line, col))
            elif kind == "ident":
                tokens.append(Token("ident", value, line, col))
            elif kind == "op":
                tokens.append(Token(value, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(Token("end", "", line, col))
    return tokens


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
_MAX_NESTING = 100


def check_params(params) -> tuple[str, ...]:
    """Validate a parameter-name list: well-formed, unreserved, distinct."""
    seen: list[str] = []
    for name in params:
        if not _NAME_RE.match(name or ""):
            raise ValueError(f"malformed parameter name {name!r}")
        if name in RESERVED_SYMBOLS or name == "S":
            raise ReservedSymbolError(f"parameter name {name!r} is reserved")
        if name in seen:
            raise ValueError(f"duplicate parameter name {name!r}")
        seen.append(name)
    return tuple(seen)


class _Parser:
    def __init__(self, tokens: list[Token], params: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.params = params
        self.depth = 0  # open parentheses around the current atom

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {self.cur.text or 'end of input'!r}",
                self.cur.line,
                self.cur.col,
            )
        return self.advance()

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.cur.line, self.cur.col)

    # equation := expr ("=" "0")? end
    def parse_equation(self) -> QPolynomial:
        result = self.parse_expr()
        if self.cur.kind == "=":
            self.advance()
            rhs = self.expect("int")
            if rhs.text != "0":
                raise ParseError("right-hand side must be 0", rhs.line, rhs.col)
        if self.cur.kind != "end":
            raise self.fail(f"unexpected {self.cur.text!r} after equation")
        return result

    def parse_expr(self) -> QPolynomial:
        negate = False
        if self.cur.kind == "-":
            self.advance()
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while self.cur.kind in ("+", "-"):
            op = self.advance()
            term = self.parse_term()
            result = result + term if op.kind == "+" else result - term
        return result

    def parse_term(self) -> QPolynomial:
        result = self.parse_factor()
        while self.cur.kind == "*":
            self.advance()
            result = result * self.parse_factor()
        return result

    def parse_power(self, subject: str) -> int | Fraction:
        """A nonnegative INT, or on x any XPOWER of the grammar."""
        grouped = subject == "x" and self.cur.kind == "("
        if grouped:
            self.advance()
        sign = 1
        if self.cur.kind == "-":
            if subject != "x":
                raise self.fail(f"negative power on {subject}")
            self.advance()
            sign = -1
        if grouped:
            power = self.parse_rational()
            self.expect(")")
            return sign * power
        tok = self.expect("int")
        if self.cur.kind == "/":
            raise ParseError(
                f"non-integer power on {subject}", tok.line, tok.col
            )
        return sign * int(tok.text)

    def parse_factor(self) -> QPolynomial:
        atom, subject = self.parse_atom()
        if self.cur.kind == "^":
            self.advance()
            power = self.parse_power(subject)
            atom = QPolynomial.x_power(power) if subject == "x" else atom**power
        return atom

    def parse_rational(self) -> Fraction:
        tok = self.expect("int")
        if self.cur.kind != "/":
            return Fraction(int(tok.text))
        self.advance()
        den = self.expect("int")
        if den.text == "0":
            raise ParseError("zero denominator", den.line, den.col)
        return Fraction(int(tok.text), int(den.text))

    def parse_atom(self) -> tuple[QPolynomial, str]:
        tok = self.cur
        if tok.kind == "int":
            return QPolynomial.constant(self.parse_rational()), "a constant"
        if tok.kind == "(":
            if self.depth == _MAX_NESTING:
                raise ResourceLimitError(
                    f"parentheses nest deeper than {_MAX_NESTING} levels "
                    f"(line {tok.line}, column {tok.col})"
                )
            self.depth += 1
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner, "a subexpression"
        if tok.kind == "ident":
            return self.parse_ident()
        raise self.fail(f"expected a factor, found {tok.text or 'end of input'!r}")

    def parse_ident(self) -> tuple[QPolynomial, str]:
        tok = self.advance()
        name = tok.text
        if name == "x":
            return QPolynomial.x_power(1), "x"
        if name == "y":
            return QPolynomial.unknown(0), "y"
        if name == "S":
            level = 1
            if self.cur.kind == "^":
                self.advance()
                level = self.parse_power("the shift operator")
            self.expect("(")
            arg = self.expect("ident")
            if arg.text != "y":
                raise ParseError(
                    "the shift operator applies to y only", arg.line, arg.col
                )
            self.expect(")")
            return QPolynomial.unknown(level), "a shifted factor"
        if name in self.params:
            return (
                QPolynomial.constant(ParamPoly.symbol(name)),
                f"parameter {name}",
            )
        raise ParseError(f"undeclared identifier {name!r}", tok.line, tok.col)


def parse_equation(text: str, params=()) -> QPolynomial:
    """Parse DSL text into a canonical QPolynomial.

    `params` lists the identifiers allowed besides x, y and S.  Raises
    ParseError with a 1-based line/column on any malformed input.
    """
    declared = check_params(params)
    return _Parser(tokenize(text), declared).parse_equation()


def parse_param_expr(text: str, params=()) -> ParamPoly:
    """Parse an expression in parameters only (used for user-supplied c)."""
    poly = parse_equation(text, params)
    if poly.is_zero():
        return ParamPoly.zero()
    terms = poly.terms
    if len(terms) != 1 or terms[0].x_exp != 0 or terms[0].sigma_powers:
        raise ParseError("expected an expression in parameters only", 1, 1)
    return terms[0].coeff
