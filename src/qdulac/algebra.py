"""Exact arithmetic tower: rationals, parameter polynomials, log-polynomials.

Everything is computed over Q.  Rational numbers are `fractions.Fraction`
(always reduced, positive denominator, arbitrary precision).  On top of that
sit two polynomial layers:

  ParamPoly -- multivariate polynomial in named symbols (equation parameters
               such as a3, a4 and generated free constants C1, C2, ...) over
               Q, stored fraction-free: int numerators over one positive int
               denominator, content reduced.  Monomials are packed int keys
               (32-bit exponent fields); zero coefficients are never stored.
  TPoly     -- univariate polynomial over ParamPoly.  The variable is the
               logarithmic time t = log_q x, but the same class doubles for
               the auxiliary variables w = q^r, c and s when a univariate
               polynomial over the parameter ring is needed.

Products and sums of products in both layers run through one kernel,
`_sum_products`: one accumulator and one gcd per result.

The module also provides the number-theoretic helpers of the expansion
engine, none of which factors an integer, so each runs in time polynomial
in the bit size of its input:

  rational_roots -- exact rational roots with multiplicities, isolated by
                    Sturm-sequence bisection over the candidates z/b, b the
                    leading coefficient of the primitive integer polynomial;
  q_pow          -- q^(p/m) from exact integer m-th roots (Newton iteration)
                    of the numerator and denominator of q, erroring when the
                    value leaves Q;
  q_log          -- the rational k = log_q w, from the primitive-power
                    decompositions q = q0^e and w = w0^f.

It also owns the notation every printed expression is written in: one
`Notation` holds the shared printers (monomial, signed sum, ParamPoly,
TPoly and power-logarithmic series) and two styles, TEXT (the equation
DSL) and LATEX.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    IndeterminateEquationError,
    InternalInvariantError,
    InvalidQError,
    IrrationalQPowerError,
    ReservedSymbolError,
    ResourceLimitError,
    UnboundSymbolError,
)

# Symbol names the parameter ring must not use: the independent variable,
# the unknown and the logarithmic variable.
RESERVED_SYMBOLS = frozenset({"x", "y", "t"})

# A monomial as shown: ((name, exp), ...) sorted by name, every exp >= 1.
Monomial = tuple  # tuple[tuple[str, int], ...]

# ParamPoly's append-only symbol registry (slot i of a key holds _NAMES[i]);
# _guard has each field's top bit, which only an exponent >= 2^31 sets.
_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_EXP_LIMIT = 1 << (_FIELD_BITS - 1)
_NAMES: list[str] = []
_guard = 0
_REGISTER = threading.Lock()

Scalar = Union[int, Fraction]


def _as_rat(value) -> Fraction:
    """Coerce int/Fraction to Fraction, rejecting floats (exactness)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _check_symbol(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise ReservedSymbolError("symbol names must be nonempty strings")
    if name in RESERVED_SYMBOLS:
        raise ReservedSymbolError(f"symbol name {name!r} is reserved")
    return name


def _slot(name: str) -> int:
    """The field of a validated symbol name, registering it on first sight."""
    global _guard
    with _REGISTER:
        if name not in _NAMES:
            _guard |= _EXP_LIMIT << (_FIELD_BITS * len(_NAMES))
            _NAMES.append(name)
        return _NAMES.index(name)


def _decode(key: int) -> Monomial:
    """The sorted ((name, exp), ...) tuple of a packed monomial key."""
    pairs, slot = [], 0
    while key:
        if key & _FIELD_MASK:
            pairs.append((_NAMES[slot], key & _FIELD_MASK))
        key, slot = key >> _FIELD_BITS, slot + 1
    return tuple(sorted(pairs))


class ParamPoly:
    """Multivariate polynomial over Q in named parameter symbols.

    Stored fraction-free, as FLINT's fmpq_mpoly is: `_nums` maps each
    monomial to a nonzero int numerator and `_den` is one positive int
    denominator, with gcd(den, *numerators) == 1; the zero polynomial is
    {} over 1.  That form is unique, so equality and hashing compare it;
    `_sum_products` forms each product, paying one gcd per result.
    A monomial is a packed int key (Monagan and Pearce): registry slot i's
    exponent in bits [32*i, 32*i + 32), so a monomial product is one
    addition; a field reaching 2^31 raises ResourceLimitError.  The public
    constructors (`ParamPoly(mapping)`, `const`, `symbol`, `coerce`)
    validate exact rational coefficients, unreserved names and int
    exponents in [1, 2^31), each name once per monomial; arithmetic results
    are trusted.  `items()` and `sorted_terms()` decode the keys.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        for mono, coef in (terms or {}).items():
            coef = _as_rat(coef)
            if coef == 0:
                continue
            key = 0
            for name, exp in mono:
                shift = _FIELD_BITS * _slot(_check_symbol(name))
                if exp < 1:
                    raise ValueError("monomial exponents must be >= 1")
                if exp >= _EXP_LIMIT:
                    raise ResourceLimitError(f"exponent of {name} reaches 2^31")
                if key >> shift & _FIELD_MASK:
                    raise ValueError(f"symbol {name!r} repeats in a monomial")
                key |= exp << shift
            clean[key] = coef
        # over the lcm of reduced denominators the content is already 1
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._nums = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self._den = den

    @classmethod
    def _canonical(cls, nums: dict, den: int) -> "ParamPoly":
        out = cls.__new__(cls)
        out._nums, out._den = nums, den
        return out

    @classmethod
    def _trusted(cls, nums: dict, den: int) -> "ParamPoly":
        """Canonical form of an arithmetic result over den > 0: zero
        numerators dropped, the content divided out with one gcd."""
        g = math.gcd(den, *nums.values())
        if g == 1:
            return cls._canonical({m: n for m, n in nums.items() if n}, den)
        return cls._canonical({m: n // g for m, n in nums.items() if n}, den // g)

    # -- constructors

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls._canonical({}, 1)

    @classmethod
    def const(cls, value: Scalar) -> "ParamPoly":
        value = _as_rat(value)
        return cls._canonical({0: value.numerator} if value else {}, value.denominator)

    @classmethod
    def symbol(cls, name: str) -> "ParamPoly":
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def coerce(cls, value: "ParamPoly | Scalar") -> "ParamPoly":
        if isinstance(value, ParamPoly):
            return value
        return cls.const(value)

    # -- structure

    def items(self):
        den = self._den
        return {_decode(m): Fraction(n, den) for m, n in self._nums.items()}.items()

    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        return self._nums.keys() <= {0}

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (zero polynomial gives 0)."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._nums.get(0, 0), self._den)

    def symbols(self) -> set[str]:
        return {name for key in self._nums for name, _ in _decode(key)}

    # -- ring operations

    def _add(self, other: "ParamPoly", sign: int) -> "ParamPoly":
        """self + sign*other, both over lcm(d1, d2)."""
        d1, d2 = self._den, other._den
        den = d1 // math.gcd(d1, d2) * d2
        s1, s2 = den // d1, sign * (den // d2)
        out = {m: n * s1 for m, n in self._nums.items()} if s1 != 1 else dict(self._nums)
        for mono, n in other._nums.items():
            out[mono] = out.get(mono, 0) + n * s2
        return ParamPoly._trusted(out, den)

    def __add__(self, other) -> "ParamPoly":
        other = ParamPoly.coerce(other)
        if not other._nums:
            return self
        return self._add(other, 1) if self._nums else other

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._canonical({m: -n for m, n in self._nums.items()}, self._den)

    def __sub__(self, other) -> "ParamPoly":
        return self._add(ParamPoly.coerce(other), -1)

    def __rsub__(self, other) -> "ParamPoly":
        return ParamPoly.coerce(other)._add(self, -1)

    def __mul__(self, other) -> "ParamPoly":
        return _sum_products(((self, ParamPoly.coerce(other)),))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "ParamPoly":
        scalar = _as_rat(scalar)
        if scalar == 0:
            raise ZeroDivisionError("division of ParamPoly by zero")
        num, den = scalar.numerator, scalar.denominator
        if num < 0:  # the stored denominator stays positive
            num, den = -num, -den
        nums = {mono: n * den for mono, n in self._nums.items()}
        return ParamPoly._trusted(nums, self._den * num)

    def __pow__(self, exponent: int) -> "ParamPoly":
        return _power(self, exponent, ParamPoly.const(1))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((frozenset(self._nums.items()), self._den))

    # -- evaluation and display

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value after substituting every symbol from `assignment`."""
        total = Fraction(0)
        for mono, coef in self.items():
            term = coef
            for name, exp in mono:
                if name not in assignment:
                    raise UnboundSymbolError(f"unbound symbol {name!r}")
                term *= _as_rat(assignment[name]) ** exp
            total += term
        return total

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical display order (graded lexicographic)."""
        return sorted(
            self.items(),
            key=lambda item: (sum(e for _, e in item[0]), item[0]),
        )

    def __str__(self) -> str:
        return TEXT.param_poly(self)

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


def _sum_products(pairs: Iterable[tuple[ParamPoly, ParamPoly]]) -> ParamPoly:
    """The sum of a*b over the pairs, in one accumulator: int numerators
    over a running common denominator, rescaled only when a pair's
    a._den*b._den does not divide it; one exponent guard and one gcd."""
    out: dict[int, int] = {}
    get, den = out.get, 1
    for a, b in pairs:
        if not (a._nums and b._nums):
            continue
        d = a._den * b._den
        if den % d:
            up = d // math.gcd(den, d)
            den *= up
            for mono in out:
                out[mono] *= up
        s = den // d
        for m1, n1 in a._nums.items():
            n1 *= s
            for m2, n2 in b._nums.items():
                mono = m1 + m2
                out[mono] = get(mono, 0) + n1 * n2
    seen = 0
    for mono in out:
        seen |= mono
    if seen & _guard:
        name = _NAMES[((seen & _guard).bit_length() - 1) // _FIELD_BITS]
        raise ResourceLimitError(f"exponent of {name} reaches 2^31")
    return ParamPoly._trusted(out, den)


def _power(base, exponent: int, one):
    """base**exponent by repeated squaring; squaring only while bits remain
    builds no factor above the result (a^(2^31 - 1) never forms a^(2^31))."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError(f"{type(base).__name__} powers must be nonnegative integers")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


class TPoly:
    """Univariate polynomial over ParamPoly, low degree first.

    Houses the log-polynomials beta_k(t); by convention the degree of the
    zero polynomial is 0.  The public constructor coerces each coefficient;
    arithmetic results are trusted and only drop trailing zeros.  Products
    and shifts gather, per t-degree, every ParamPoly product that lands
    there and hand them to one `_sum_products` call, so each coefficient
    of a result has one accumulator and pays one gcd.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[ParamPoly | Scalar] = ()):
        self._coeffs = TPoly._trusted([ParamPoly.coerce(c) for c in coeffs])._coeffs

    @classmethod
    def _trusted(cls, coeffs: list[ParamPoly]) -> "TPoly":
        """An arithmetic result: ParamPoly coefficients, trailing zeros dropped."""
        while coeffs and not coeffs[-1]._nums:
            coeffs.pop()
        out = cls.__new__(cls)
        out._coeffs = tuple(coeffs)
        return out

    @classmethod
    def zero(cls) -> "TPoly":
        return cls()

    @classmethod
    def const(cls, value: ParamPoly | Scalar) -> "TPoly":
        return cls([ParamPoly.coerce(value)])

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple["TPoly", "TPoly"]]) -> "TPoly":
        """The sum of a*b over the pairs: one kernel call per t-degree."""
        by_degree: list[list] = []
        for a, b in pairs:
            for i, x in enumerate(a._coeffs):
                for j, y in enumerate(b._coeffs, i):
                    if j == len(by_degree):
                        by_degree.append([])
                    by_degree[j].append((x, y))
        return TPoly._trusted([_sum_products(p) for p in by_degree])

    @property
    def coeffs(self) -> tuple[ParamPoly, ...]:
        return self._coeffs

    def coeff(self, i: int) -> ParamPoly:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return ParamPoly.zero()

    def degree(self) -> int:
        # degree of the zero polynomial is 0 by convention
        return max(len(self._coeffs) - 1, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        return len(self._coeffs) <= 1

    def __add__(self, other: "TPoly") -> "TPoly":
        n = max(len(self._coeffs), len(other._coeffs))
        return TPoly._trusted([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self) -> "TPoly":
        return TPoly._trusted([-c for c in self._coeffs])

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __mul__(self, other: "TPoly") -> "TPoly":
        return TPoly.sum_of_products(((self, other),))

    def shift(self, step: Scalar, factor: Scalar = 1) -> "TPoly":
        """factor * beta(t + step): the shift operator T applied `step` times."""
        return self.shift_sum({step: factor})

    def shift_sum(self, weights: Mapping[Scalar, Scalar]) -> "TPoly":
        """The sum of weights[j] * beta(t + j) over j, in one pass.

        Expanding (t + j)^d binomially, t^i collects beta_d times
        comb(d, i) * M_{d-i} with the moment M_m = sum_j weights[j] * j^m.
        """
        ws = [(_as_rat(j), _as_rat(w)) for j, w in weights.items()]
        n = len(self._coeffs)
        moments = [sum((w * j**m for j, w in ws), Fraction(0)) for m in range(n)]
        return TPoly._trusted([
            _sum_products(
                (c, ParamPoly.const(math.comb(d, i) * moments[d - i]))
                for d, c in enumerate(self._coeffs[i:], i)
            )
            for i in range(n)
        ])

    def evaluate_coeffs(self, assignment: Mapping[str, Scalar]) -> "TPoly":
        """Bind all parameter symbols, leaving a rational-coefficient TPoly."""
        return TPoly._trusted([ParamPoly.const(c.evaluate(assignment)) for c in self._coeffs])

    def rational_coeffs(self) -> list[Fraction]:
        """Coefficient list as plain rationals; error if any is non-constant."""
        return [c.constant_value() for c in self._coeffs]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def to_string(self, var: str = "t") -> str:
        return TEXT.tpoly(self, var)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"TPoly({self})"


# ---------------------------------------------------------------------------
# notation: how every printed expression is written, in text or in LaTeX

# A symbol such as a3 or C12: letters, then the digits that become an index.
_INDEXED_SYMBOL = re.compile(r"^([A-Za-z]+)([0-9]+)$")


@dataclass(frozen=True)
class Notation:
    """One style of writing expressions; the printers are shared.

    A style is only data: the formats below.  Every printed expression is
    a signed sum "-a + b - c" whose parts are products of a coefficient
    and a tail of factors (powers of t, x or the unknown's shifts); a
    one-term coefficient carries its sign into the sum, a longer one is
    grouped.  TEXT writes the DSL, which the parser reads back; LATEX
    writes math-mode LaTeX.
    """

    fraction: str  # a reduced p/m, from p and m
    indexed: str  # an indexed symbol, from its letters and digits
    exponent: str  # an integer exponent after "^"
    fraction_exponent: str  # a non-integer exponent after "^"
    factor_sep: str  # between the factors of a product
    coef_sep: str  # between a one-term coefficient and its tail
    parens: str  # a grouped sum

    def rational(self, value: Fraction) -> str:
        if value.denominator == 1:
            return str(value.numerator)
        sign = "-" if value < 0 else ""
        return sign + self.fraction.format(abs(value.numerator), value.denominator)

    def symbol(self, name: str) -> str:
        m = _INDEXED_SYMBOL.match(name)
        return self.indexed.format(*m.groups()) if m else name

    def power(self, base: str, exp: Scalar) -> str:
        """base^exp; the exponent is always written as in the DSL."""
        if exp == 1:
            return base
        fmt = self.exponent if exp.denominator == 1 else self.fraction_exponent
        return f"{base}^" + fmt.format(rat_str(exp))

    def monomial(self, mono: Monomial, coef_abs: Fraction, scales: bool = False) -> str:
        """|coef|*mono, leaving out a unit coefficient where another
        factor shows: a symbol, or the tail the monomial `scales`."""
        factors = [self.power(self.symbol(name), exp) for name, exp in mono]
        if coef_abs != 1 or not (factors or scales):
            factors.insert(0, self.rational(coef_abs))
        return self.factor_sep.join(factors)

    def grouped(self, body: str, tail: str) -> tuple[bool, str]:
        """The part (body)*tail; a group carries no sign of its own."""
        group = self.parens.format(body)
        return False, group + self.factor_sep + tail if tail else group

    def term(self, coef: ParamPoly, tail: str) -> tuple[bool, str]:
        """The part coef*tail as (negative, body); `tail` may be empty."""
        terms = coef.sorted_terms()
        if len(terms) > 1:
            return self.grouped(self.param_poly(coef), tail)
        ((mono, c),) = terms
        lead = self.monomial(mono, abs(c), bool(tail))
        return c < 0, lead + self.coef_sep + tail if lead and tail else lead or tail

    @staticmethod
    def signed_sum(parts: Sequence[tuple[bool, str]]) -> str:
        """Join (negative, body) parts as "-a + b - c"; no parts give "0"."""
        if not parts:
            return "0"
        (negative, first), rest = parts[0], parts[1:]
        out = ["-" + first if negative else first]
        out += [("- " if neg else "+ ") + body for neg, body in rest]
        return " ".join(out)

    def _poly_parts(self, p: ParamPoly) -> list[tuple[bool, str]]:
        return [(c < 0, self.monomial(mono, abs(c))) for mono, c in p.sorted_terms()]

    def param_poly(self, p: ParamPoly) -> str:
        return self.signed_sum(self._poly_parts(p))

    def tpoly(self, beta: TPoly, var: str) -> str:
        """beta(var), highest power first; the constant term is not grouped."""
        parts = [
            self.term(beta.coeff(d), self.power(var, d))
            for d in range(beta.degree(), 0, -1)
            if not beta.coeff(d).is_zero()
        ]
        return self.signed_sum(parts + self._poly_parts(beta.coeff(0)))

    def series(self, s, var: str) -> str:
        """A PowerLogSeries as sum beta_k(var)*x^k, base pair first."""
        parts = []
        for k, beta in s.all_terms:
            tail = self.power("x", k) if k else ""
            if beta.is_constant():
                parts.append(self.term(beta.coeff(0), tail))
            else:
                parts.append(self.grouped(self.tpoly(beta, var), tail))
        return self.signed_sum(parts)


TEXT = Notation(
    fraction="{}/{}",
    indexed="{}{}",
    exponent="{}",
    fraction_exponent="({})",
    factor_sep="*",
    coef_sep="*",
    parens="({})",
)
LATEX = Notation(
    fraction="\\frac{{{}}}{{{}}}",
    indexed="{}_{{{}}}",
    exponent="{{{}}}",
    fraction_exponent="{{{}}}",
    factor_sep=" ",
    coef_sep=" \\, ",
    parens="\\left({}\\right)",
)


def rat_str(value: Fraction) -> str:
    """Reduced rational as 'p' or 'p/m'; reparses to the identical value."""
    return TEXT.rational(_as_rat(value))


# ---------------------------------------------------------------------------
# rational roots; integer polynomials are coefficient lists, lowest degree first


def _deflate(coeffs: list[int], root: Fraction) -> list[int]:
    """Exact division of an integer polynomial by m*s - p, for root = p/m.

    The quotient is integral when root is a root (Gauss's lemma); an
    inexact step or a nonzero remainder means it is not.
    """
    p, m = root.numerator, root.denominator
    out = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry, rest = divmod(coeffs[i] + carry * p, m)
        if rest:
            break
        out[i - 1] = carry
    else:
        if coeffs[0] + carry * p == 0:
            return out
    raise InternalInvariantError(f"deflation by a non-root {root}")


def _primitive(coeffs: list[int]) -> list[int]:
    """The primitive multiple with a positive leading coefficient of an
    integer polynomial whose leading coefficient is nonzero."""
    g = math.gcd(*coeffs)
    if coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def _neg_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of -(a mod b), content removed; [] when b | a.

    Pseudo-division scaled by |lead(b)| only, so that the sign, which the
    Sturm chain depends on, is kept.
    """
    a = list(a)
    mag = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    for shift in range(len(a) - len(b), -1, -1):
        c = a[-1] * sign
        if c:
            a = [v * mag for v in a]
            for i, v in enumerate(b):
                a[shift + i] -= c * v
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    if not a:
        return []
    g = math.gcd(*a)
    return [-v // g for v in a]


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p', then negated remainders down to a multiple of gcd(p, p')."""
    chain = [p]
    nxt = _primitive([i * c for i, c in enumerate(p)][1:])
    while nxt:
        chain.append(nxt)
        nxt = _neg_remainder(chain[-2], chain[-1])
    return chain


def _homogeneous(p: list[int], num: int, den_powers: list[int]) -> int:
    """den**deg(p) * p(num/den), given den_powers[i] = den**i (homogeneous
    Horner: integers only, and with den > 0 the sign of p(num/den))."""
    d = len(p) - 1
    acc = p[d]
    for i in range(d - 1, -1, -1):
        acc = acc * num + p[i] * den_powers[d - i]
    return acc


def _sign_changes(chain: list[list[int]], num: int, den_powers: list[int]) -> int:
    values = (_homogeneous(p, num, den_powers) for p in chain)
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def rational_roots(coeffs: Sequence[Scalar]) -> list[tuple[Fraction, int]]:
    """All rational roots of a rational polynomial, with multiplicities.

    `coeffs` lists the coefficients lowest degree first.  The polynomial is
    made a primitive integer polynomial p with leading coefficient b > 0.
    Every rational root is z/b for an integer z with |z| <= b + max|p_i|
    (the Cauchy bound), and one Sturm chain of p counts the distinct roots
    between two points (z + 1/2)/b, which are never roots, so bisection
    over z isolates them; an interval holding one root is narrowed by the
    sign of the squarefree part p/gcd(p, p') alone.  Each interval of one
    candidate is tested exactly, and every root found is divided out of p
    until it no longer vanishes, which gives its multiplicity.  The work is
    polynomial in the bit size of the coefficients: the bisection depth is
    the bit length of the bound, and no integer is factored.  Raises
    IndeterminateEquationError on the zero polynomial, whose roots are
    unconstrained.
    """
    cs = [_as_rat(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise IndeterminateEquationError("indeterminate equation")
    roots: list[tuple[Fraction, int]] = []

    zero_mult = 0
    while cs[0] == 0:
        cs = cs[1:]
        zero_mult += 1
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if len(cs) == 1:
        return roots

    den_lcm = math.lcm(*(c.denominator for c in cs))
    poly = _primitive([int(c * den_lcm) for c in cs])
    chain = _sturm_chain(poly)
    gcd = chain[-1]  # poly/gcd is squarefree and has the same roots
    lead = poly[-1]
    den_powers = [1]
    for _ in range(len(poly) - 1):
        den_powers.append(den_powers[-1] * 2 * lead)

    def squarefree_positive(z: int) -> bool:
        point = 2 * z + 1
        return (_homogeneous(poly, point, den_powers) > 0) == (
            _homogeneous(gcd, point, den_powers) > 0
        )

    # an entry (lo, hi, ...) holds the candidates z/lead with lo < z <= hi and
    # the chain's sign changes at the never-roots (2*lo + 1)/(2*lead) and
    # (2*hi + 1)/(2*lead); their difference counts the distinct roots between
    bound = lead + max(abs(c) for c in poly[:-1])
    found: list[Fraction] = []
    stack = [(
        -bound - 1,
        bound,
        _sign_changes(chain, -2 * bound - 1, den_powers),
        _sign_changes(chain, 2 * bound + 1, den_powers),
    )]
    while stack:
        lo, hi, changes_lo, changes_hi = stack.pop()
        count = changes_lo - changes_hi
        if count == 0:
            continue
        if count == 1:
            # one root, simple in poly/gcd, which changes sign there only
            lo_positive = squarefree_positive(lo)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if squarefree_positive(mid) == lo_positive:
                    lo = mid
                else:
                    hi = mid
        elif hi - lo > 1:
            mid = (lo + hi) // 2
            changes_mid = _sign_changes(chain, 2 * mid + 1, den_powers)
            stack.append((lo, mid, changes_lo, changes_mid))
            stack.append((mid, hi, changes_mid, changes_hi))
            continue
        if _homogeneous(poly, 2 * hi, den_powers) == 0:
            found.append(Fraction(hi, lead))

    work = poly
    for root in found:
        den_powers = [root.denominator**i for i in range(len(poly))]
        mult = 0
        while _homogeneous(work, root.numerator, den_powers) == 0:
            work = _deflate(work, root)
            mult += 1
        roots.append((root, mult))
    return sorted(roots)


# ---------------------------------------------------------------------------
# exact q-powers and q-logarithms


def _exact_root(n: int, m: int) -> int | None:
    """The integer m-th root of n >= 0, or None when n is not an m-th power.

    Integer Newton iteration from above, as in `math.isqrt`: it starts at
    2**ceil(bits/m) > n**(1/m) and stops at floor(n**(1/m)), where the
    iterate stops falling.  An n >= 2 of at most m bits lies strictly
    between 1**m and 2**m, which keeps x**(m - 1) small.
    """
    if m == 1 or n < 2:
        return n
    bits = n.bit_length()
    if m >= bits:
        return None
    if m == 2:
        root = math.isqrt(n)
    else:
        root = 1 << -(-bits // m)
        while True:
            nxt = ((m - 1) * root + n // root ** (m - 1)) // m
            if nxt >= root:
                break
            root = nxt
    return root if root**m == n else None


def _primitive_power(x: Fraction) -> tuple[Fraction, int]:
    """(x0, e) with x = x0**e and e maximal, for a positive rational x != 1.

    An m-th power above 1 has more than m bits, so only exponents below the
    bit length of the numerator or denominator (whichever exceeds 1) can
    occur; each is tried until its exact root stops existing.  Composite
    exponents always fail, as their prime factors were taken out first.
    """
    num, den = x.numerator, x.denominator
    e = 1
    m = 2
    while m < min(v.bit_length() for v in (num, den) if v > 1):
        num_root = _exact_root(num, m)
        den_root = None if num_root is None else _exact_root(den, m)
        if den_root is None:
            m += 1
        else:
            num, den, e = num_root, den_root, e * m
    return Fraction(num, den), e


def check_q(q: Scalar) -> Fraction:
    """Validate the dilation base: a positive rational different from 1."""
    q = _as_rat(q)
    if q <= 0 or q == 1:
        raise InvalidQError(f"q must be a positive rational != 1, got {q}")
    return q


def q_pow(q: Scalar, k: Scalar) -> Fraction:
    """Exact q^k for rational k; errors when the value is irrational.

    For k = p/m in lowest terms, q^k is rational iff the numerator and the
    denominator of q are both perfect m-th powers; their exact integer
    m-th roots are raised to the p-th power.
    """
    q = _as_rat(q)
    if q <= 0:
        raise InvalidQError(f"q must be positive, got {q}")
    k = _as_rat(k)
    if k == 0 or q == 1:
        return Fraction(1)
    m = k.denominator
    num = _exact_root(q.numerator, m)
    den = None if num is None else _exact_root(q.denominator, m)
    if den is None:
        raise IrrationalQPowerError(f"irrational q-power: ({q})^({k})")
    return Fraction(num, den) ** k.numerator


def q_log(q: Scalar, w: Scalar) -> Fraction | None:
    """The unique rational k with q^k = w, or None when no such k exists.

    Uses the primitive-power decomposition q = q0^e, w = w0^f with e and f
    maximal: q0 and w0 are then no perfect powers, so q^k = w for some
    rational k iff w0 = q0 (k = f/e) or w0 = 1/q0 (k = -f/e).
    """
    q = check_q(q)
    w = _as_rat(w)
    if w == 0:
        raise ValueError("q_log requires w != 0")
    if w < 0:
        return None
    if w == 1:
        return Fraction(0)
    q0, e = _primitive_power(q)
    w0, f = _primitive_power(w)
    if w0 == q0:
        return Fraction(f, e)
    if w0 * q0 == 1:
        return Fraction(-f, e)
    return None


def parse_rat(text: str) -> Fraction:
    """Parse 'p' or 'p/m' into a Fraction (no floats accepted)."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational 'p' or 'p/m': {text!r}") from exc
