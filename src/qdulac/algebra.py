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
               polynomial over the parameter ring is needed.  Stored flat,
               in the same fraction-free form: one denominator for all
               coefficients, the t-degree packed into the key's field 0,
               which every ParamPoly key leaves at 0.

Products and sums of products in both layers run through one kernel,
`_sum_products`: one accumulator and one gcd per result, and one divmod
per pair of operands; a ParamPoly times a constant only scales (`_scaled`).
`_sums_by_key` is every merge of like terms: one product or pass per key.

The module also provides the number-theoretic helpers of the expansion
engine, none of which factors an integer, so each runs in time polynomial
in the bit size of its input:

  rational_roots -- exact rational roots with multiplicities of
                    s^low*P(s^g), g the gcd of the degree gaps: the simple
                    roots of P's squarefree part modulo the first prime l
                    not dividing lead*disc are lifted l-adically by
                    Newton's step to the candidates z/b, each tested by
                    exact division in Z[s] (a linear P is read directly),
                    and each root u of P gives the exact g-th roots of u;
  q_pow          -- q^(p/m) from exact integer m-th roots (Newton iteration)
                    of the numerator and denominator of q, erroring when the
                    value leaves Q;
  q_log          -- the rational k = log_q w, from the primitive-power
                    decompositions q = q0^e and w = w0^f.

It also owns the notation every printed expression is written in: one
`Notation`, a named tuple of formats, holds the shared printers (monomial,
signed sum, ParamPoly, TPoly and power-logarithmic series); TEXT (the
equation DSL) and LATEX are its two styles.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
import re
import threading
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import (
    IndeterminateEquationError,
    InternalInvariantError,
    InvalidQError,
    IrrationalQPowerError,
    ReservedSymbolError,
    ResourceLimitError,
    UnboundSymbolError,
)

# Symbol names the parameter ring must not use, as the DSL reads each as
# itself: the variables x, y and t = log_q x, and the shift operator S.
RESERVED_SYMBOLS = frozenset({"x", "y", "t", "S"})

# A monomial as shown: ((name, exp), ...) sorted by name, every exp >= 1.
Monomial = tuple  # tuple[tuple[str, int], ...]

# A packed key's field 0 holds TPoly's t-degree and field i + 1 the exponent
# of _NAMES[i], ParamPoly's append-only symbol registry (slot i); _guard has
# each field's top bit, which only an exponent >= 2^31 sets.
_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_EXP_LIMIT = 1 << (_FIELD_BITS - 1)
_NAMES: list[str] = []
_guard = _EXP_LIMIT
_REGISTER = threading.Lock()

Scalar = Union[int, Fraction]


def _exact(value) -> Scalar:
    """An int or Fraction unchanged; floats are refused (exactness)."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _as_rat(value) -> Fraction:
    """`_exact(value)` as a Fraction."""
    return Fraction(value) if isinstance(_exact(value), int) else value


def _check_symbol(name: str) -> str:
    """name, if an ASCII identifier (else ValueError) and not reserved."""
    if not isinstance(name, str) or not name:
        raise ReservedSymbolError("symbol names must be nonempty strings")
    if not (name.isascii() and name.isidentifier()):
        raise ValueError(f"malformed symbol name {name!r}")
    if name in RESERVED_SYMBOLS:
        raise ReservedSymbolError(f"symbol name {name!r} is reserved")
    return name


def fresh_names(taken: Iterable[str], names: Iterable[str]) -> Iterator[str]:
    """The names of the sequence `names` that are not in `taken`, in order."""
    used = set(taken)
    return (name for name in names if name not in used)


def _slot(name: str) -> int:
    """The field of a validated symbol name, registering it on first sight."""
    global _guard
    with _REGISTER:
        if name not in _NAMES:
            _NAMES.append(name)
            _guard |= _EXP_LIMIT << (_FIELD_BITS * len(_NAMES))
        return _NAMES.index(name)


def _decode(key: int) -> Monomial:
    """The sorted ((name, exp), ...) tuple of a packed key's symbol fields."""
    pairs, slot, key = [], 0, key >> _FIELD_BITS
    while key:
        if key & _FIELD_MASK:
            pairs.append((_NAMES[slot], key & _FIELD_MASK))
        key, slot = key >> _FIELD_BITS, slot + 1
    return tuple(sorted(pairs))


class _FractionFree:
    """The store ParamPoly and TPoly share, as FLINT's fmpq_mpoly is: `_nums`
    maps each packed key to a nonzero int numerator and `_den` is one
    positive int denominator, with gcd(den, *numerators) == 1; zero is {}
    over 1.  That form is unique, so hashing and same-class equality compare
    it, and `_scaled` by a constant needs gcds with p and m alone."""

    __slots__ = ("_nums", "_den")

    @classmethod
    def _canonical(cls, nums: dict, den: int):
        out = cls.__new__(cls)
        out._nums, out._den = nums, den
        return out

    @classmethod
    def _trusted(cls, nums: dict, den: int):
        """Canonical form of an arithmetic result over den > 0: zero
        numerators dropped, the content divided out with one gcd."""
        g = math.gcd(den, *nums.values())
        if g == 1:
            return cls._canonical({m: n for m, n in nums.items() if n}, den)
        return cls._canonical({m: n // g for m, n in nums.items() if n}, den // g)

    def is_zero(self) -> bool:
        return not self._nums

    def _add(self, other):
        """self + other, both over lcm(d1, d2)."""
        d1, d2 = self._den, other._den
        den = d1 // math.gcd(d1, d2) * d2
        s1, s2 = den // d1, den // d2
        out = {m: n * s1 for m, n in self._nums.items()} if s1 != 1 else dict(self._nums)
        for mono, n in other._nums.items():
            out[mono] = out.get(mono, 0) + n * s2
        return type(self)._trusted(out, den)

    def __neg__(self):
        return self._canonical({m: -n for m, n in self._nums.items()}, self._den)

    def _scaled(self, k: "ParamPoly"):
        """self times the constant k = p/m: each numerator times p over den*m,
        divided by their content gcd(den, p) * gcd(m, numerators)."""
        p, m = k._nums.get(0, 0), k._den
        if p == m or not self._nums:  # k is 1, or self is 0
            return self
        g, h = math.gcd(self._den, p), math.gcd(m, *self._nums.values()) if m > 1 else 1
        p, den = p // g, self._den // g * (m // h)  # p = 0 leaves {} over 1
        return self._canonical({key: n // h * p for key, n in self._nums.items() if p}, den)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((frozenset(self._nums.items()), self._den))


class ParamPoly(_FractionFree):
    """Multivariate polynomial over Q in named parameter symbols.

    Stored fraction-free (`_FractionFree`); `*` scales by a constant, and
    `_sum_products` forms other products, one gcd per result.  A monomial
    is a packed int key (Monagan and Pearce): registry slot i's exponent in
    bits [32*(i + 1), 32*(i + 2)), so a monomial product is one addition; a
    field reaching 2^31 raises ResourceLimitError.  The public
    constructors (`ParamPoly(mapping)`, `const`, `symbol`, `coerce`)
    validate exact rational coefficients, legal names (`_check_symbol`) and
    int exponents in [1, 2^31), each name once per monomial; arithmetic
    results are trusted.  `items()` and `sorted_terms()` decode the keys.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        for mono, coef in (terms or {}).items():
            coef = _as_rat(coef)
            if coef == 0:
                continue
            key = 0
            for name, exp in mono:
                shift = _FIELD_BITS * (_slot(_check_symbol(name)) + 1)
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

    # -- constructors

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls._canonical({}, 1)

    @classmethod
    def const(cls, value: Scalar) -> "ParamPoly":
        value = _exact(value)
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

    def __add__(self, other) -> "ParamPoly":
        other = ParamPoly.coerce(other)
        if not other._nums:
            return self
        return self._add(other) if self._nums else other

    __radd__ = __add__

    def __mul__(self, other) -> "ParamPoly":
        """A constant on either side scales the other; else one kernel pass."""
        other = ParamPoly.coerce(other)
        if other._nums.keys() <= {0}:
            return self._scaled(other)
        return other._scaled(self) if self._nums.keys() <= {0} else _sum_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ParamPoly":
        return _power(self, exponent, ParamPoly.const(1))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        return super().__eq__(other)

    def __hash__(self):  # a constant equals its rational, so it hashes alike
        return hash(self.constant_value()) if self.is_constant() else super().__hash__()

    # -- evaluation and display

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value after substituting every symbol from `assignment`."""
        total, common = _bind(self._nums, assignment).get(0, (0, 1))
        return Fraction(total, common * self._den)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical display order (graded lexicographic)."""
        return sorted(self.items(), key=_display_order)

    def __str__(self) -> str:
        return TEXT.param_poly(self)

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


def _display_order(term: tuple) -> tuple:
    """Graded lexicographic order of a term (monomial, ...) by its monomial."""
    return sum(e for _, e in term[0]), term[0]


def _bind(nums: dict, assignment: Mapping[str, Scalar]) -> dict[int, tuple[int, int]]:
    """t-degree -> (total, common): that degree's terms with every symbol
    bound sum to total/common over the stored denominator.  Each slot's
    value is read once per call as an int pair; no Fraction is built."""
    values: dict = {}  # slot -> (numerator, denominator) of its value
    sums: dict[int, tuple[int, int]] = {}
    for key, num in nums.items():
        den, slot, rest = 1, 0, key >> _FIELD_BITS
        while rest:
            exp = rest & _FIELD_MASK
            if exp:
                value = values.get(slot)
                if value is None:
                    value = assignment.get(_NAMES[slot])
                    if not isinstance(value, (int, Fraction)):
                        for name, _ in _decode(key):  # the first fault by name
                            if name not in assignment:
                                raise UnboundSymbolError(f"unbound symbol {name!r}")
                            _exact(assignment[name])
                    value = values[slot] = value.as_integer_ratio()
                num, den = num * value[0] ** exp, den * value[1] ** exp
            rest, slot = rest >> _FIELD_BITS, slot + 1
        degree = key & _FIELD_MASK
        total, common = sums.get(degree, (0, 1))
        if common % den:
            scale = den // math.gcd(common, den)
            total, common = total * scale, common * scale
        sums[degree] = total + num * (common // den), common
    return sums


def _sum_products(pairs: Iterable[tuple], kind: type = ParamPoly):
    """The sum of a*b over pairs of ParamPolys, or of TPolys with `kind`
    TPoly, in one accumulator: int numerators over a running common
    denominator, rescaled only when a pair's a._den*b._den does not divide
    it; one exponent guard and one gcd."""
    out: dict[int, int] = {}
    get, den = out.get, 1
    for a, b in pairs:
        if not (a._nums and b._nums):
            continue
        d = a._den * b._den
        s, rest = divmod(den, d)
        if rest:
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
        field = ((seen & _guard).bit_length() - 1) // _FIELD_BITS
        name = _NAMES[field - 1] if field else "t"
        raise ResourceLimitError(f"exponent of {name} reaches 2^31")
    return kind._trusted(out, den)


def _sums_by_key(groups: Mapping, kind: type = ParamPoly) -> dict:
    """{key: the sum of a*b over the (a, b) pairs of groups[key]}, zero sums
    dropped.  A one-pair group is a*b, so a constant only scales; any other
    is one `_sum_products` pass of `kind`: one gcd per key, not per pair."""
    sums = ((key, pairs[0][0] * pairs[0][1] if len(pairs) == 1 else _sum_products(pairs, kind))
            for key, pairs in groups.items())
    return {key: total for key, total in sums if total._nums}


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


def _check_power(coeffs: Iterable[ParamPoly], exponent: int) -> None:
    """Refuse up front a power whose top exponents, exponent times the base's, reach 2^31."""
    if isinstance(exponent, int) and exponent > 1:  # `_power` refuses a bad exponent
        over = {name for c in coeffs for key in c._nums for name, e in _decode(key)
                if e * exponent >= _EXP_LIMIT}
        if over:  # named as the kernel would name it, after the squarings
            raise ResourceLimitError(f"exponent of {max(over, key=_slot)} reaches 2^31")


class TPoly(_FractionFree):
    """Univariate polynomial over ParamPoly, low degree first.

    Houses the log-polynomials beta_k(t); by convention the degree of the
    zero polynomial is 0.  Stored flat, as one fraction-free store
    (`_FractionFree`): a key is a ParamPoly monomial key plus the t-degree
    in field 0, so t^d*m is m + d, and all coefficients share one
    denominator.  The public constructor takes the coefficients low degree
    first, or a {degree: coefficient} mapping, and coerces each; arithmetic
    results are trusted.  A product is one `_sum_products` pass, and sums
    of products by key are one `_sums_by_key`, so a result pays one gcd.
    `coeffs` builds canonical ParamPolys from the store; `terms_by_degree`
    reads it for display, text, LaTeX and JSON alike, and `rational_terms`
    for root finding, with no ParamPoly built.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable | Mapping = ()):
        degrees = list(coeffs) if isinstance(coeffs, Mapping) else None
        coeffs = [ParamPoly.coerce(c) for c in (coeffs if degrees is None else coeffs.values())]
        degrees = range(len(coeffs)) if degrees is None else degrees
        if any(type(d) is not int or d < 0 for d in degrees):
            raise ValueError("degrees of t must be nonnegative ints")
        if any(d >= _EXP_LIMIT for d in degrees):
            raise ResourceLimitError("exponent of t reaches 2^31")
        # over the lcm of content-reduced denominators the content is already 1
        den = math.lcm(*(c._den for c in coeffs))
        self._nums = {m + d: n * (den // c._den)
                      for d, c in zip(degrees, coeffs) for m, n in c._nums.items()}
        self._den = den

    @classmethod
    def zero(cls) -> "TPoly":
        return cls._canonical({}, 1)

    @classmethod
    def const(cls, value: ParamPoly | Scalar) -> "TPoly":
        value = ParamPoly.coerce(value)
        return cls._canonical(value._nums, value._den)

    def _rows(self) -> tuple[dict[int, dict[int, int]], int]:
        """(t-degree -> {ParamPoly key: numerator}, den); `_from_rows` inverts it."""
        rows: dict[int, dict] = {}
        for key, n in self._nums.items():
            d = key & _FIELD_MASK
            rows.setdefault(d, {})[key - d] = n
        return rows, self._den

    @classmethod
    def _from_rows(cls, rows: Mapping[int, Mapping[int, int]], den: int) -> "TPoly":
        return cls._trusted({m + d: n for d, row in rows.items() for m, n in row.items()}, den)

    @property
    def coeffs(self) -> tuple[ParamPoly, ...]:
        """The coefficients up to the degree, formed in one pass."""
        (rows, den), zero = self._rows(), ParamPoly.zero()
        return tuple(ParamPoly._trusted(rows[d], den) if d in rows else zero
                     for d in range(max(rows, default=-1) + 1))

    def terms_by_degree(self) -> list[tuple[int, list[tuple]]]:
        """(d, terms) per nonzero t-degree d, highest first: the terms of
        t^d's coefficient in display order as (monomial, p, m), p/m reduced,
        read from the store in one pass, each packed key decoded once."""
        rows, den = self._rows()
        decoded = {key: _decode(key) for row in rows.values() for key in row}
        return [(d, sorted(((decoded[key], n // (g := math.gcd(n, den)), den // g)
                            for key, n in row.items()), key=_display_order))
                for d, row in sorted(rows.items(), reverse=True)]

    def rational_terms(self) -> dict[int, Fraction] | None:
        """{degree: coefficient} of the nonzero terms, or None if one holds a parameter."""
        if any(key >> _FIELD_BITS for key in self._nums):
            return None
        return {d: Fraction(n, self._den) for d, n in self._nums.items()}

    def degree(self) -> int:
        # degree of the zero polynomial is 0 by convention
        return max((key & _FIELD_MASK for key in self._nums), default=0)

    def is_constant(self) -> bool:
        return not any(key & _FIELD_MASK for key in self._nums)

    def __add__(self, other: "TPoly") -> "TPoly":
        return self._add(other)

    def __mul__(self, other: "TPoly") -> "TPoly":
        return _sum_products(((self, other),), TPoly)

    def shift(self, step: Scalar, factor: Scalar = 1) -> "TPoly":
        """factor * beta(t + step): the shift operator T applied `step` times."""
        return self.shift_sum({step: factor})

    def shift_sum(self, weights: Mapping[Scalar, Scalar]) -> "TPoly":
        """The sum of weights[j] * beta(t + j) over j, in one pass.

        Expanding (t + j)^d binomially, t^i collects beta_d times
        comb(d, i) * M_{d-i} with the moment M_m = sum_j weights[j] * j^m.
        With v and b the lcm of the denominators of the steps and of the
        weights and D the degree, b * v^D * M_m is an int: no moment is a
        Fraction, and the result is over den * b * v^D.
        """
        ws = [(_exact(j), _exact(w)) for j, w in weights.items()]
        v = math.lcm(*(j.denominator for j, _ in ws))
        b = math.lcm(*(w.denominator for _, w in ws))
        ws = [(j.numerator * (v // j.denominator), w.numerator * (b // w.denominator))
              for j, w in ws]
        top = self.degree()
        moments = [sum(w * j**m for j, w in ws) * v ** (top - m) for m in range(top + 1)]
        rows = {d: [(i, math.comb(d, i) * moments[d - i]) for i in range(d + 1) if moments[d - i]]
                for d in {key & _FIELD_MASK for key in self._nums}}  # t^d -> (t^i, weight) pairs
        out: dict[int, int] = {}
        get = out.get
        for key, n in self._nums.items():
            d = key & _FIELD_MASK
            key -= d
            for i, c in rows[d]:
                out[key + i] = get(key + i, 0) + n * c
        return TPoly._trusted(out, self._den * b * v**top)

    def evaluate_coeffs(self, assignment: Mapping[str, Scalar]) -> "TPoly":
        """Bind all parameter symbols, leaving a rational-coefficient TPoly."""
        sums = _bind(self._nums, assignment)
        common = math.lcm(*(c for _, c in sums.values()))
        nums = {d: total * (common // c) for d, (total, c) in sums.items()}
        return TPoly._trusted(nums, common * self._den)

    def to_string(self, var: str = "t") -> str:
        return TEXT.tpoly(self, var)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"TPoly({self})"


def _param_terms(p: ParamPoly) -> list[tuple]:
    """p's terms as `TPoly.terms_by_degree` gives those of t^0: (monomial, p, m)."""
    return [term for _, terms in TPoly.const(p).terms_by_degree() for term in terms]


# ---------------------------------------------------------------------------
# notation: how every printed expression is written, in text or in LaTeX

# A symbol such as a3 or C12: letters, then the digits that become an index.
_INDEXED_SYMBOL = re.compile(r"^([A-Za-z]+)([0-9]+)$")


class Notation(NamedTuple):
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

    def rational(self, num: int, den: int) -> str:
        if den == 1:
            return str(num)
        sign = "-" if num < 0 else ""
        return sign + self.fraction.format(abs(num), den)

    def symbol(self, name: str) -> str:
        m = _INDEXED_SYMBOL.match(name)
        return self.indexed.format(*m.groups()) if m else name

    def power(self, base: str, exp: Scalar) -> str:
        """base^exp; the exponent is always written as in the DSL."""
        if exp == 1:
            return base
        fmt = self.exponent if exp.denominator == 1 else self.fraction_exponent
        return f"{base}^" + fmt.format(rat_str(exp))

    def monomial(self, mono: Monomial, num_abs: int, den: int, scales: bool = False) -> str:
        """(num_abs/den)*mono, leaving out a unit coefficient where another
        factor shows: a symbol, or the tail the monomial `scales`."""
        factors = [self.power(self.symbol(name), exp) for name, exp in mono]
        if num_abs != den or not (factors or scales):
            factors.insert(0, self.rational(num_abs, den))
        return self.factor_sep.join(factors)

    def grouped(self, body: str, tail: str) -> tuple[bool, str]:
        """The part (body)*tail; a group carries no sign of its own."""
        group = self.parens.format(body)
        return False, group + self.factor_sep + tail if tail else group

    def term(self, terms: list[tuple], tail: str) -> tuple[bool, str]:
        """The part coef*tail as (negative, body), coef given by its
        (monomial, p, m) terms in display order; `tail` may be empty."""
        if len(terms) > 1:
            return self.grouped(self.signed_sum(self._poly_parts(terms)), tail)
        ((mono, p, m),) = terms
        lead = self.monomial(mono, abs(p), m, bool(tail))
        return p < 0, lead + self.coef_sep + tail if lead and tail else lead or tail

    @staticmethod
    def signed_sum(parts: Sequence[tuple[bool, str]]) -> str:
        """Join (negative, body) parts as "-a + b - c"; no parts give "0"."""
        if not parts:
            return "0"
        (negative, first), rest = parts[0], parts[1:]
        out = ["-" + first if negative else first]
        out += [("- " if neg else "+ ") + body for neg, body in rest]
        return " ".join(out)

    def _poly_parts(self, terms: list[tuple]) -> list[tuple[bool, str]]:
        return [(p < 0, self.monomial(mono, abs(p), m)) for mono, p, m in terms]

    def param_poly(self, p: ParamPoly) -> str:
        return self.signed_sum(self._poly_parts(_param_terms(p)))

    def tpoly(self, beta: TPoly, var: str) -> str:
        """beta(var), highest power first; the constant term is not grouped."""
        parts = []
        for d, terms in beta.terms_by_degree():
            if d:
                parts.append(self.term(terms, self.power(var, d)))
            else:
                parts += self._poly_parts(terms)
        return self.signed_sum(parts)

    def series(self, s, var: str) -> str:
        """A PowerLogSeries as sum beta_k(var)*x^k, base pair first."""
        parts = []
        for k, beta in s.all_terms:
            tail = self.power("x", k) if k else ""
            if beta.is_constant():
                parts.append(self.term(beta.terms_by_degree()[0][1], tail))
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
    return TEXT.rational(*_as_rat(value).as_integer_ratio())


# ---------------------------------------------------------------------------
# rational roots; integer polynomials are coefficient lists, lowest degree first


def _quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a/b for integer polynomials, or None unless b divides a in Z[s]."""
    a = list(a)
    out = []
    for shift in range(len(a) - len(b), -1, -1):
        c, rest = divmod(a[-1], b[-1])
        if rest:
            return None
        for i, v in enumerate(b):
            a[shift + i] -= c * v
        a.pop()
        out.append(c)
    return None if any(a) else out[::-1]


def _primitive(coeffs: list[int]) -> list[int]:
    """The primitive multiple with a positive leading coefficient of an
    integer polynomial whose leading coefficient is nonzero."""
    g = math.gcd(*coeffs)
    if coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def _gcd(a: list[int], b: list[int], ell: int = 0) -> list[int]:
    """A gcd of integer polynomials a and b != 0: over Q with its content
    removed when ell is 0, else over the integers mod the prime ell.

    Euclid's algorithm on pseudo-remainders, each reduced (content divided
    out, or coefficients taken mod ell); with deg a < deg b the first step
    only reduces a.  b's leading coefficient is nonzero (mod ell).
    """
    while b:
        a = list(a)
        for shift in range(len(a) - len(b), -1, -1):
            c = a[-1]
            if c:
                a = [v * b[-1] for v in a]
                for i, v in enumerate(b):
                    a[shift + i] -= c * v
            a.pop()
        if ell:
            a = [v % ell for v in a]
        while a and a[-1] == 0:
            a.pop()
        if a and not ell:
            g = math.gcd(*a)
            a = [v // g for v in a]
        a, b = b, a
    return a


def _value(p: list[int], x: int, m: int) -> int:
    """p(x) mod m, by Horner's rule."""
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % m
    return acc


def _primes() -> Iterator[int]:
    """2, 3, 5, 7, 11, ... by trial division."""
    return (
        n for n in itertools.count(2) if all(n % d for d in range(2, math.isqrt(n) + 1))
    )


def _lifted_roots(poly: list[int]) -> Iterator[tuple[Fraction, int]]:
    """The rational roots, with multiplicities, of an integer polynomial
    of degree >= 1 that does not vanish at 0.

    Its squarefree part s = poly/gcd(poly, poly'), made primitive with
    leading coefficient b, has each rational root as z/b for an integer z
    with |z| <= B = b + max|s_i| (the Cauchy bound), found by p-adic
    lifting (R. Loos, SIAM J. Comput. 12, 1983).  At the first prime l
    dividing neither b nor disc(s), which exists as b*disc(s) != 0, each
    root of s mod l is simple, and Newton's step x - s(x)/s'(x) lifts it to
    the l-adic root a above it, doubling the known digits each time, until
    the modulus m exceeds 2B; z is b*a mod m read in (-m/2, m/2].  A
    candidate u/v has as multiplicity the number of times v*s - u divides
    poly exactly in Z[s] (Gauss's lemma); a non-root divides it no times.
    No integer is factored: l is about the bit length of b*disc(s) at
    most, the roots mod l are found by trying each residue, and the lift
    takes about log2 of the bit length of B steps.
    """
    s = _quotient(poly, _gcd([i * c for i, c in enumerate(poly)][1:], poly))
    if s is None:
        raise InternalInvariantError("gcd(p, p') does not divide p")
    s = _primitive(s)
    ds, lead = [i * c for i, c in enumerate(s)][1:], s[-1]
    ell = next(ell for ell in _primes() if lead % ell and len(_gcd(ds, s, ell)) == 1)
    bound = lead + max(abs(c) for c in s[:-1])
    residues = [c % ell for c in s]
    work = poly
    for a in range(ell):
        if _value(residues, a, ell):
            continue
        m, inv = ell, pow(_value(ds, a, ell), -1, ell)  # s(a) = 0, s'(a)*inv = 1 mod m
        while m <= 2 * bound:  # one Newton step for each, modulo m squared
            m *= m
            a = (a - _value(s, a, m) * inv) % m
            inv = inv * (2 - _value(ds, a, m) * inv) % m
        z = lead * a % m
        root = Fraction(z - m if 2 * z > m else z, lead)
        factor, mult = [-root.numerator, root.denominator], 0
        while (rest := _quotient(work, factor)) is not None:
            work, mult = rest, mult + 1
        if mult:
            yield root, mult


def rational_roots(coeffs: Sequence[Scalar] | Mapping[int, Scalar]) -> list[tuple[Fraction, int]]:
    """All rational roots of a rational polynomial, with multiplicities.

    `coeffs` lists the coefficients lowest degree first, or maps degrees
    (ints >= 0) to them, as `TPoly.rational_terms` does; only the nonzero
    terms are read.  The root 0 has the least degree as its multiplicity.
    With g the gcd of the gaps between the degrees, the polynomial is
    s^low * P(s^g), P of degree (top - low)/g: a linear P0 + P1*u has the
    root -P0/P1, and any other P goes to `_lifted_roots` as an integer list
    dense in u.  A root u != 0 of P of multiplicity m gives the real g-th
    roots of u, each of multiplicity m as (s^g)' != 0 at s != 0, and each
    rational iff the numerator and denominator of u are exact g-th powers.
    Raises ValueError on a degree that is not an int >= 0 and
    IndeterminateEquationError on the zero polynomial, whose roots are
    unconstrained.
    """
    terms: dict[int, Fraction] = {}
    for d, c in coeffs.items() if isinstance(coeffs, Mapping) else enumerate(coeffs):
        if type(d) is not int or d < 0:
            raise ValueError("degrees must be nonnegative ints")
        if c := _as_rat(c):
            terms[d] = c
    if not terms:
        raise IndeterminateEquationError("indeterminate equation")
    low, top = min(terms), max(terms)
    roots = [(Fraction(0), low)] if low else []
    if len(terms) == 1:
        return roots
    g = math.gcd(*(d - low for d in terms))
    if top - low == g:  # P is linear
        found = [(-terms[low] / terms[top], 1)]
    else:
        den_lcm = math.lcm(*(c.denominator for c in terms.values()))
        found = _lifted_roots([int(terms.get(d, 0) * den_lcm) for d in range(low, top + 1, g)])
    for u, mult in found:
        num = _exact_root(abs(u.numerator), g)
        den = None if num is None else _exact_root(u.denominator, g)
        if den is not None and (u > 0 or g % 2):  # s^g = u < 0 has no real root for even g
            root = Fraction(num if u > 0 else -num, den)
            roots += [(root, mult)] if g % 2 else [(root, mult), (-root, mult)]
    return sorted(roots)


# ---------------------------------------------------------------------------
# exact q-powers and q-logarithms


def _exact_root(n: int, m: int) -> int | None:
    """The integer m-th root of n >= 0, or None when n is not an m-th power.

    Integer Newton iteration from above, as in `math.isqrt`: from a start
    at or above floor(n**(1/m)) (a float estimate raised past its rounding
    error, or 2**ceil(bits/m) if the root overflows a float) it falls to
    floor(n**(1/m)) and stops.  An n >= 2 of at most m bits lies strictly
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
        if bits < 1000 * m:  # the root is below 2**1000, a finite float
            root = min(root, int(2.0 ** (math.log2(n) / m) * (1 + 1e-9)) + 1)
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
    occur; each prime is tried until its exact root stops existing, and
    composites, whose prime factors were taken out first, are skipped.
    """
    num, den = x.numerator, x.denominator
    e = 1
    primes = _primes()
    m = next(primes)
    while m < min(v.bit_length() for v in (num, den) if v > 1):
        num_root = _exact_root(num, m)
        den_root = None if num_root is None else _exact_root(den, m)
        if den_root is None:
            m = next(primes)
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
