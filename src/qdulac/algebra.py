"""Exact arithmetic tower: rationals, parameter polynomials, log-polynomials.

Everything is computed over Q.  Rational numbers are `fractions.Fraction`
(always reduced, positive denominator, arbitrary precision).  On top of that
sit two polynomial layers:

  ParamPoly -- multivariate polynomial in named symbols (equation parameters
               such as a3, a4 and generated free constants C1, C2, ...) with
               Fraction coefficients.  Monomials are tuples of sorted
               (name, exponent) pairs; zero coefficients are never stored.
  TPoly     -- univariate polynomial over ParamPoly.  The variable is the
               logarithmic time t = log_q x, but the same class doubles for
               the auxiliary variables w = q^r, c and s when a univariate
               polynomial over the parameter ring is needed.

The module also provides the number-theoretic helpers of the expansion
engine: exact rational roots of a rational polynomial, q^k for rational k
(erroring when the value leaves Q), and the discrete logarithm k = log_q w.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    IndeterminateEquationError,
    InvalidQError,
    IrrationalQPowerError,
    ReservedSymbolError,
    UnboundSymbolError,
)

# Symbol names the parameter ring must not use: the independent variable,
# the unknown and the logarithmic variable.
RESERVED_SYMBOLS = frozenset({"x", "y", "t"})

# A monomial: ((name, exp), ...) sorted by name, every exp >= 1.
Monomial = tuple  # tuple[tuple[str, int], ...]

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


class ParamPoly:
    """Multivariate polynomial over Q in named parameter symbols.

    The public constructors (`ParamPoly(mapping)`, `const`, `symbol`,
    `coerce`) validate what they are given: exact rational coefficients,
    nonempty unreserved symbol names, exponents >= 1.  Arithmetic results
    are trusted: they are built from operands already in canonical form
    and only drop zero coefficients.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                coef = _as_rat(coef)
                if coef == 0:
                    continue
                for name, exp in mono:
                    _check_symbol(name)
                    if exp < 1:
                        raise ValueError("monomial exponents must be >= 1")
                clean[tuple(sorted(mono))] = coef
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: dict) -> "ParamPoly":
        """Canonical terms from arithmetic: sorted valid monomials."""
        out = cls.__new__(cls)
        out._terms = {mono: coef for mono, coef in terms.items() if coef}
        return out

    # -- constructors

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> "ParamPoly":
        return cls._trusted({(): _as_rat(value)})

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
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(mono == () for mono in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (zero polynomial gives 0)."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get((), Fraction(0))

    def symbols(self) -> set[str]:
        return {name for mono in self._terms for name, _ in mono}

    # -- ring operations

    def __add__(self, other) -> "ParamPoly":
        other = ParamPoly.coerce(other)
        out = dict(self._terms)
        for mono, coef in other._terms.items():
            out[mono] = out.get(mono, 0) + coef
        return ParamPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._trusted(
            {mono: -coef for mono, coef in self._terms.items()}
        )

    def __sub__(self, other) -> "ParamPoly":
        return self + (-ParamPoly.coerce(other))

    def __rsub__(self, other) -> "ParamPoly":
        return ParamPoly.coerce(other) + (-self)

    def __mul__(self, other) -> "ParamPoly":
        other = ParamPoly.coerce(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _merge_monomials(m1, m2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return ParamPoly._trusted(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "ParamPoly":
        scalar = _as_rat(scalar)
        if scalar == 0:
            raise ZeroDivisionError("division of ParamPoly by zero")
        return ParamPoly._trusted(
            {mono: coef / scalar for mono, coef in self._terms.items()}
        )

    def __pow__(self, exponent: int) -> "ParamPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("ParamPoly powers must be nonnegative integers")
        result = ParamPoly.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- evaluation and display

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value after substituting every symbol from `assignment`."""
        total = Fraction(0)
        for mono, coef in self._terms.items():
            term = coef
            for name, exp in mono:
                if name not in assignment:
                    raise UnboundSymbolError(f"unbound symbol {name!r}")
                term *= _as_rat(assignment[name]) ** exp
            total += term
        return total

    def substitute(self, assignment: Mapping[str, "ParamPoly | Scalar"]) -> "ParamPoly":
        """Replace some symbols by polynomials; unlisted symbols stay."""
        total = ParamPoly.zero()
        for mono, coef in self._terms.items():
            term = ParamPoly.const(coef)
            for name, exp in mono:
                if name in assignment:
                    term = term * ParamPoly.coerce(assignment[name]) ** exp
                else:
                    term = term * ParamPoly.symbol(name) ** exp
            total = total + term
        return total

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical display order (graded lexicographic)."""
        return sorted(
            self._terms.items(),
            key=lambda item: (sum(e for _, e in item[0]), item[0]),
        )

    def __str__(self) -> str:
        return format_param_poly(self)

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    merged: dict[str, int] = dict(m1)
    for name, exp in m2:
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted(merged.items()))


def rat_str(value: Fraction) -> str:
    """Reduced rational as 'p' or 'p/m'; reparses to the identical value."""
    value = _as_rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def monomial_factor_strings(mono: Monomial, coef_abs: Fraction) -> list[str]:
    """DSL factor strings for |coef| * monomial, omitting a bare 1."""
    factors = []
    if coef_abs != 1 or not mono:
        factors.append(rat_str(coef_abs))
    for name, exp in mono:
        factors.append(name if exp == 1 else f"{name}^{exp}")
    return factors


def format_param_poly(p: ParamPoly) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for mono, coef in p.sorted_terms():
        body = "*".join(monomial_factor_strings(mono, abs(coef)))
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts)


class TPoly:
    """Univariate polynomial over ParamPoly, low degree first.

    Houses the log-polynomials beta_k(t); by convention the degree of the
    zero polynomial is 0.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[ParamPoly | Scalar] = ()):
        cs = [ParamPoly.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "TPoly":
        return cls()

    @classmethod
    def const(cls, value: ParamPoly | Scalar) -> "TPoly":
        return cls([ParamPoly.coerce(value)])

    @classmethod
    def variable(cls) -> "TPoly":
        return cls([ParamPoly.zero(), ParamPoly.const(1)])

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
        return TPoly(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __neg__(self) -> "TPoly":
        return TPoly([-c for c in self._coeffs])

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __mul__(self, other: "TPoly") -> "TPoly":
        if self.is_zero() or other.is_zero():
            return TPoly.zero()
        out = [ParamPoly.zero()] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(other._coeffs):
                out[i + j] = out[i + j] + a * b
        return TPoly(out)

    def scale(self, factor: ParamPoly | Scalar) -> "TPoly":
        factor = ParamPoly.coerce(factor)
        return TPoly([c * factor for c in self._coeffs])

    def __truediv__(self, scalar) -> "TPoly":
        scalar = _as_rat(scalar)
        return TPoly([c / scalar for c in self._coeffs])

    def shift(self, step: Scalar) -> "TPoly":
        """Composition t -> t + step (the shift operator T applied `step` times)."""
        step = _as_rat(step)
        if step == 0 or self.is_zero():
            return self
        n = len(self._coeffs)
        out = [ParamPoly.zero()] * n
        for d, c in enumerate(self._coeffs):
            if c.is_zero():
                continue
            # (t + step)^d expanded binomially
            for i in range(d + 1):
                out[i] = out[i] + c * (math.comb(d, i) * step ** (d - i))
        return TPoly(out)

    def evaluate_coeffs(self, assignment: Mapping[str, Scalar]) -> "TPoly":
        """Bind all parameter symbols, leaving a rational-coefficient TPoly."""
        return TPoly([ParamPoly.const(c.evaluate(assignment)) for c in self._coeffs])

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
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for d in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[d]
            if c.is_zero():
                continue
            var_part = "" if d == 0 else (var if d == 1 else f"{var}^{d}")
            terms = c.sorted_terms()
            if len(terms) > 1 and var_part:
                body = f"({format_param_poly(c)})*{var_part}"
                parts.append(body if not parts else f"+ {body}")
                continue
            if not var_part:
                body = format_param_poly(c)
                if not parts:
                    parts.append(body)
                elif body.startswith("-"):
                    parts.append(f"- {body[1:]}")
                else:
                    parts.append(f"+ {body}")
                continue
            mono, coef = terms[0]
            factors = monomial_factor_strings(mono, abs(coef))
            if factors == ["1"]:
                body = var_part
            else:
                body = "*".join(factors) + f"*{var_part}"
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"TPoly({self})"


# ---------------------------------------------------------------------------
# rational roots


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _eval_rat_poly(coeffs: Sequence[Fraction], point: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * point + c
    return total


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    """Exact synthetic division by (s - root); remainder must be zero."""
    out: list[Fraction] = [Fraction(0)] * (len(coeffs) - 1)
    carry = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + carry * root
        out[i - 1] = carry
    assert coeffs[0] + carry * root == 0, "deflation by a non-root"
    return out


def rational_roots(coeffs: Sequence[Scalar]) -> list[tuple[Fraction, int]]:
    """All rational roots of a rational polynomial, with multiplicities.

    `coeffs` lists the coefficients lowest degree first.  The polynomial is
    normalized to integer coefficients, candidates p/m are enumerated from
    the divisors of the trailing and leading coefficients, and every
    candidate is verified by exact evaluation and removed by deflation.
    Raises IndeterminateEquationError on the zero polynomial, whose roots
    are unconstrained.
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
        return sorted(roots)

    # integer normalization: clear denominators, then the content
    den_lcm = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * den_lcm) for c in cs]
    content = math.gcd(*ints)
    ints = [v // content for v in ints]
    work = [Fraction(v) for v in ints]

    candidates: set[Fraction] = set()
    for p in _divisors(ints[0]):
        for m in _divisors(ints[-1]):
            candidates.add(Fraction(p, m))
            candidates.add(Fraction(-p, m))
    for cand in sorted(candidates):
        mult = 0
        while len(work) > 1 and _eval_rat_poly(work, cand) == 0:
            work = _deflate(work, cand)
            mult += 1
        if mult:
            roots.append((cand, mult))
    return sorted(roots)


# ---------------------------------------------------------------------------
# exact q-powers and q-logarithms


def _factor_int(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs are desk-scale)."""
    assert n >= 1
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _factor_fraction(value: Fraction) -> dict[int, int]:
    assert value > 0
    exps = _factor_int(value.numerator)
    for p, e in _factor_int(value.denominator).items():
        exps[p] = exps.get(p, 0) - e
    return {p: e for p, e in exps.items() if e}


def check_q(q: Scalar) -> Fraction:
    """Validate the dilation base: a positive rational different from 1."""
    q = _as_rat(q)
    if q <= 0 or q == 1:
        raise InvalidQError(f"q must be a positive rational != 1, got {q}")
    return q


def q_pow(q: Scalar, k: Scalar) -> Fraction:
    """Exact q^k for rational k; errors when the value is irrational."""
    q = _as_rat(q)
    if q <= 0:
        raise InvalidQError(f"q must be positive, got {q}")
    k = _as_rat(k)
    if k == 0 or q == 1:
        return Fraction(1)
    m = k.denominator
    result = Fraction(1)
    for p, e in _factor_fraction(q).items():
        if (e * k.numerator) % m != 0:
            raise IrrationalQPowerError(f"irrational q-power: ({q})^({k})")
        result *= Fraction(p) ** ((e * k.numerator) // m)
    return result


def q_log(q: Scalar, w: Scalar) -> Fraction | None:
    """The unique rational k with q^k = w, or None when no such k exists.

    Compares prime exponent vectors: q = prod p^e, w = prod p^f, and k
    exists iff f/e is one and the same ratio for every prime occurring in
    either factorization.
    """
    q = check_q(q)
    w = _as_rat(w)
    if w == 0:
        raise ValueError("q_log requires w != 0")
    if w < 0:
        return None
    if w == 1:
        return Fraction(0)
    fq = _factor_fraction(q)
    fw = _factor_fraction(w)
    ratio: Fraction | None = None
    for p in set(fq) | set(fw):
        e = fq.get(p, 0)
        f = fw.get(p, 0)
        if e == 0:
            if f != 0:
                return None
            continue
        r = Fraction(f, e)
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio


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
