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
the interpreter's recursion limit; deeper input raises ResourceLimitError,
as does a shift level or a power of y of 2^31.  The result is a canonical
QPolynomial: powers and products expanded, like terms merged.

One pass, linear in the length of the text: one regex makes (kind, text,
offset) tokens, and an error counts its (line, column) from the offset.
A term's factors fold into one monomial; only a parenthesised sum of
several terms is a QPolynomial.  A sum merges its terms, each sign a
factor of +1 or -1, in one `qexpr._combination` pass on one int grid.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import _ONE, ParamPoly, _check_symbol
from .errors import ParseError, ResourceLimitError
from .qexpr import QPolynomial, _check_sigma, _combination

_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]+ | \#[^\n]*
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^()/=])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> list[tuple]:
    """(kind, text, offset) per token, kind "int", "ident", the operator
    itself or "end"; whitespace, newlines and comments give none."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind:
            value = m.group()
            if kind == "bad":
                raise ParseError(f"unexpected character {value!r}", *_position(text, m.start()))
            tokens.append((value if kind == "op" else kind, value, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


_MAX_NESTING = 100
_SIGNS = {"+": _ONE, "-": -_ONE}  # a term's factor in a sum


def check_params(params) -> tuple[str, ...]:
    """Validate a parameter-name list: legal symbol names, each once."""
    seen: list[str] = []
    for name in params:
        if _check_symbol(name) in seen:
            raise ValueError(f"duplicate parameter name {name!r}")
        seen.append(name)
    return tuple(seen)


def _as_poly(mono) -> QPolynomial:
    """The QPolynomial of a (coeff, x-exponent, {level: power}) monomial,
    coeff None meaning 1, the x-exponent an int or a reduced Fraction."""
    coeff, x, sigma = mono
    coeff = _ONE if coeff is None else coeff
    key = (x.numerator, tuple(sorted((l, d) for l, d in sigma.items() if d)))
    return QPolynomial._trusted({key: coeff} if coeff._nums else {}, x.denominator)


class _Parser:
    """Recursive descent; a factor is a monomial (coeff, x-exponent,
    {level: power}) or a QPolynomial of several terms."""

    def __init__(self, text: str, params: tuple[str, ...]):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.params = params
        self.depth = 0  # open parentheses around the current atom

    @property
    def cur(self) -> tuple:
        return self.tokens[self.pos]

    def expect(self, kind: str) -> tuple:
        tok = self.cur
        if tok[0] != kind:
            raise self.fail(f"expected {kind!r}, found {tok[1] or 'end of input'!r}")
        self.pos += 1
        return tok

    def fail(self, message: str, tok: tuple | None = None) -> ParseError:
        return ParseError(message, *_position(self.text, (tok or self.cur)[2]))

    # equation := expr ("=" "0")? end
    def parse_equation(self) -> QPolynomial:
        result = self.parse_expr()
        if self.cur[0] == "=":
            self.pos += 1
            rhs = self.expect("int")
            if rhs[1] != "0":
                raise self.fail("right-hand side must be 0", rhs)
        if self.cur[0] != "end":
            raise self.fail(f"unexpected {self.cur[1]!r} after equation")
        return result

    def parse_expr(self) -> QPolynomial:
        terms = []  # (term, sign) of every term, merged once
        op = "+"
        if self.cur[0] == "-":
            self.pos, op = self.pos + 1, "-"
        while True:
            terms.append((self.parse_term(), _SIGNS[op]))
            op = self.cur[0]
            if op not in _SIGNS:
                return _combination(terms)
            self.pos += 1

    def parse_term(self) -> QPolynomial:
        """The product of the factors.  Monomials fold into one monomial
        until a factor of several terms; from there on the product is a
        QPolynomial taking each factor as it comes, so an exponent reaching
        2^31 is refused at the factor that reaches it."""
        coeff, x, sigma, poly = None, 0, {}, None
        while True:
            factor = self.parse_factor()
            if poly is None and not isinstance(factor, QPolynomial):
                fc, fx, fsigma = factor
                if fc is not None:
                    coeff = fc if coeff is None else coeff * fc
                x += fx
                for level, power in fsigma.items():
                    sigma[level] = sigma.get(level, 0) + power
            else:
                if poly is None:
                    poly = _as_poly((coeff, x, sigma))
                poly = poly * (factor if isinstance(factor, QPolynomial) else _as_poly(factor))
            if self.cur[0] != "*":
                return _as_poly((coeff, x, sigma)) if poly is None else poly
            self.pos += 1

    def parse_power(self, subject: str) -> int | Fraction:
        """A nonnegative INT, or on x any XPOWER of the grammar."""
        grouped = subject == "x" and self.cur[0] == "("
        if grouped:
            self.pos += 1
        sign = 1
        if self.cur[0] == "-":
            if subject != "x":
                raise self.fail(f"negative power on {subject}")
            self.pos += 1
            sign = -1
        if grouped:
            power = self.parse_rational()
            self.expect(")")
            return sign * power
        tok = self.expect("int")
        if self.cur[0] == "/":
            raise self.fail(f"non-integer power on {subject}", tok)
        return sign * int(tok[1])

    def parse_factor(self):
        atom, subject = self.parse_atom()
        if self.cur[0] == "^":
            self.pos += 1
            n = self.parse_power(subject)
            if subject == "x":
                atom = (None, n, {})
            elif isinstance(atom, QPolynomial):
                atom = atom**n
            else:
                coeff, x, sigma = atom
                atom = (None if coeff is None else coeff**n, x * n,
                        {level: power * n for level, power in sigma.items()})
        if isinstance(atom, QPolynomial) and len(atom._terms) < 2:  # one term or none
            ((e, sigma), coeff), = atom._terms.items() or [((0, ()), ParamPoly.zero())]
            atom = (coeff, e if atom._grid == 1 else Fraction(e, atom._grid), dict(sigma))
        return atom

    def parse_rational(self) -> int | Fraction:
        tok = self.expect("int")
        if self.cur[0] != "/":
            return int(tok[1])
        self.pos += 1
        den = self.expect("int")
        if not int(den[1]):
            raise self.fail("zero denominator", den)
        return Fraction(int(tok[1]), int(den[1]))

    def parse_atom(self) -> tuple:
        tok = self.cur
        if tok[0] == "int":
            return (ParamPoly.const(self.parse_rational()), 0, {}), "a constant"
        if tok[0] == "(":
            if self.depth == _MAX_NESTING:
                line, col = _position(self.text, tok[2])
                raise ResourceLimitError(
                    f"parentheses nest deeper than {_MAX_NESTING} levels "
                    f"(line {line}, column {col})"
                )
            self.depth += 1
            self.pos += 1
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner, "a subexpression"
        if tok[0] == "ident":
            return self.parse_ident()
        raise self.fail(f"expected a factor, found {tok[1] or 'end of input'!r}")

    def parse_ident(self) -> tuple:
        tok = self.cur
        self.pos += 1
        name = tok[1]
        if name == "x":
            return (None, 1, {}), "x"
        if name == "y":
            return (None, 0, {0: 1}), "y"
        if name == "S":
            level = 1
            if self.cur[0] == "^":
                self.pos += 1
                level = self.parse_power("the shift operator")
            self.expect("(")
            arg = self.expect("ident")
            if arg[1] != "y":
                raise self.fail("the shift operator applies to y only", arg)
            self.expect(")")
            return (None, 0, {level: 1}), "a shifted factor"
        if name in self.params:
            return (ParamPoly.symbol(name), 0, {}), f"parameter {name}"
        raise self.fail(f"undeclared identifier {name!r}", tok)


def parse_equation(text: str, params=()) -> QPolynomial:
    """Parse DSL text into a canonical QPolynomial.

    `params` lists the identifiers allowed besides x, y and S.  Raises
    ParseError with a 1-based line/column on any malformed input.
    """
    declared = check_params(params)
    poly = _Parser(text, declared).parse_equation()
    _check_sigma(poly._terms)
    return poly


def parse_param_expr(text: str, params=()) -> ParamPoly:
    """Parse an expression in parameters only (used for user-supplied c)."""
    poly = parse_equation(text, params)
    if poly.is_zero():
        return ParamPoly.zero()
    terms = poly.terms
    if len(terms) != 1 or terms[0].x_exp != 0 or terms[0].sigma_powers:
        raise ParseError("expected an expression in parameters only", 1, 1)
    return terms[0].coeff
