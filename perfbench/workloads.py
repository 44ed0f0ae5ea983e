"""Seeded input generators for the three benchmark workloads.

Every generator takes a `random.Random` built from the run's seed and
returns a pool of `Case`s; the benchmark cycles through the pool, so
later cycles repeat earlier inputs (which the byte-identity check needs).
A case carries the DSL text the program receives plus what the benchmark
knows about it in advance: the planted leading term (c, r) and the
bindings for `verify`.  Nothing here imports qdulac or the test suite.

Equations are built in the frame qdulac expands in.  After the shift
y = c*x^r + z, every term x^e * M(y) of degree d spreads over the points
(e - m + r*(d - j), j) for j = 0..d, where m is the x-exponent of the
linear core.  `_higher_term` only emits terms whose points satisfy the
README's structural hypotheses: all abscissas >= 0, so (0,1) stays a
vertex carrying the constant linear part; z-free points beyond r and 0;
z-linear points beyond 0; and q1 + r*(q2 - 1) >= 0 elsewhere, so the
exponent recursion is well founded.  Exponents stay integral except for
critical numbers r + 1/2 at q = 1/4, whose square root is rational.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from speed import KINDS

F = Fraction

# Roots of L(s) that are never a rational power of any q used here: they
# are negative, or contain the primes 5 or 7 that no q has.
_PLAIN_ROOTS = (F(-2), F(-1, 3), F(5), F(7, 5))
_PLANTED_QS = (F(1, 2), F(1, 4), F(2, 3), F(3))
_CONSTANT_NAMES = ("C1", "C2", "C3", "C4")

MAIN_QDE = (
    "-a3*x*y^3 + a3*x*y^2 - a4*x^2*y^3 - a4*x^2*y^2 + S^2(y)*y^2\n"
    "  - (3/2)*S(y)^2*y - S^2(y)*y + (1/2)*S(y)^2 = 0\n"
)


@dataclass(frozen=True)
class Case:
    """One equation with the command-line options of every op on it."""

    name: str
    dsl: str
    params: tuple
    q: Fraction
    face: str
    kmax: Fraction
    assign: str
    commands: tuple
    c: dict  # expected leading coefficient: {monomial tuple: Fraction}
    r: Fraction
    c_opt: str | None = None
    r_opt: str | None = None


def rat(value: Fraction) -> str:
    value = F(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _const_c(value: Fraction) -> dict:
    return {(): F(value)}


_FREE_C = {(("c", 1),): F(1)}


# -- equation text


def _factor_text(level: int, power: int) -> str:
    base = "y" if level == 0 else ("S(y)" if level == 1 else f"S^{level}(y)")
    return base if power == 1 else f"{base}^{power}"


def dsl_text(terms: dict) -> str:
    """DSL for {(param or None, e, sig): coef}, sig = ((level, power), ...)."""
    parts = []
    for (param, e, sig), coef in sorted(
        terms.items(), key=lambda item: (item[0][1], item[0][2], item[0][0] or "")
    ):
        if coef == 0:
            continue
        factors = [] if abs(coef) == 1 else [rat(abs(coef))]
        if param:
            factors.append(param)
        if e:
            factors.append("x" if e == 1 else f"x^{e}")
        factors += [_factor_text(level, power) for level, power in sig]
        body = "*".join(factors) or "1"
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts) + " = 0\n"


def _add_term(terms: dict, key, coef) -> None:
    terms[key] = terms.get(key, F(0)) + coef
    if terms[key] == 0:
        del terms[key]


def _poly_from_roots(roots, scale) -> list:
    """Coefficients, low degree first, of scale * prod (s - root)."""
    poly = [F(scale)]
    for root in roots:
        poly = [F(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= root * poly[i + 1]
    return poly


def _eval_poly(coeffs, s) -> Fraction:
    return sum((a * s**j for j, a in enumerate(coeffs)), F(0))


def _sigma(rng: random.Random, degree: int) -> tuple:
    """Random product of S^l(y) factors of total degree `degree`, l <= 2."""
    if degree == 0:
        return ()
    levels = sorted(rng.sample(range(3), rng.randint(1, min(2, degree))))
    powers = [1] * len(levels)
    for _ in range(degree - len(levels)):
        powers[rng.randrange(len(levels))] += 1
    return tuple(zip(levels, powers))


def _min_exponent(r: Fraction, m: int, d: int) -> int:
    """Least e >= 0 such that x^e * M(y), deg M = d, meets the hypotheses."""
    e = 0
    while True:
        points = [e - m + r * (d - j) for j in range(d + 1)]
        ok = all(a >= 0 for a in points) and points[0] > max(r, 0)
        if d >= 1:
            ok = ok and points[1] > 0 and points[d] + r * (d - 1) >= 0
        if ok:
            return e
        e += 1


def _higher_term(rng: random.Random, r: Fraction, m: int, d: int, lift: int):
    e = _min_exponent(r, m, d) + lift
    coef = F(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 3]))
    return e, _sigma(rng, d), coef


def _linear_core(coeffs, e: int) -> dict:
    """x^e * A(S) y for A low degree first."""
    return {
        (None, e, ((level, 1),)): F(a) for level, a in enumerate(coeffs) if a
    }


def _root_choice(rng: random.Random, q: Fraction, r: Fraction, step):
    """A root of L(s): q^(r + step), a critical number when step > 0, or
    a root that is no rational power of q when step is None."""
    if step is None:
        return rng.choice(_PLAIN_ROOTS)
    if step.denominator == 1:
        return q ** int(r + step)
    return F(1, 2) ** int(2 * (r + step))  # q = 1/4


# -- planted-batch


def _planted(rng: random.Random, q: Fraction, family: str, variant: int, index: int) -> Case:
    """One planted equation: a linear or nonlinear core solved exactly by
    the planted leading term, plus higher terms above its face.  `variant`
    fixes the shape (r, the roots of L(s), parameters, the number and
    degrees of the higher terms) so that every seed draws the same mix of
    costs; the seed picks coefficients, shift levels and the plain roots."""
    terms: dict = {}
    c_opt = r_opt = None
    critical = (variant // 3) % 2 == 1
    step = None
    if critical:
        step = F(1, 2) if q == F(1, 4) and variant >= 6 else F(1 + variant % 2)
    params = ("a1", "a2") if variant % 4 == 3 else ()
    r = F((-1, 0, 1)[variant % 3])
    if family == "vertex":
        # A(S) y with A(q^r) = 0: a vertex face whose leading c is free.
        other = [_root_choice(rng, q, r, step)] if critical or variant >= 6 else []
        coeffs = _poly_from_roots([q**int(r)] + other, rng.choice([1, 2, -3]))
        terms.update(_linear_core(coeffs, 0))
        m, face, c = 0, "(0,1)", _FREE_C
        if other and other[0] not in _PLAIN_ROOTS:
            r_opt = rat(r)
    elif family == "linear-edge":
        # x^m A(S) y - c A(q^r) x^(m+r): an edge with slope r, c fixed.
        m = max(0, -int(r))
        n_roots = 1 + variant % 2
        roots = [_root_choice(rng, q, r, step if i == 0 else None) for i in range(n_roots)]
        coeffs = _poly_from_roots(roots, rng.choice([1, -2, 3]))
        c_val = F(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2]))
        terms.update(_linear_core(coeffs, m))
        _add_term(terms, (None, m + int(r), ()), -c_val * _eval_poly(coeffs, q**int(r)))
        face, c = f"({m},1)-({m + int(r)},0)", _const_c(c_val)
    else:
        # G(u) = A(S)u - c*A(1) + b*(S^i u - c)(S^j u - c) at x^0: a nonlinear
        # edge on the axis, like the paper's cubic; r = 0 and A is the
        # linear part because the quadratic factor vanishes to second order.
        r = m = F(0)
        roots = [_root_choice(rng, q, r, step)]
        coeffs = _poly_from_roots(roots, rng.choice([1, -1, 2]))
        c_val = F(rng.choice([1, -1, 2, -3]), rng.choice([1, 2]))
        b = F(rng.choice([1, -1, 3, -2]), rng.choice([1, 2]))
        i, j = ((0, 0), (0, 1), (1, 2))[variant % 3]
        terms.update(_linear_core(coeffs, 0))
        _add_term(terms, (None, 0, ()), -c_val * sum(coeffs) + b * c_val * c_val)
        for key, coef in (
            (((i, 1), (j, 1)) if i != j else ((i, 2),), b),
            (((i, 1),), -b * c_val),
            (((j, 1),), -b * c_val),
        ):
            _add_term(terms, (None, 0, key), coef)
        degrees = sorted({sum(p for _, p in sig) for (_, e, sig) in terms if e == 0})
        face = f"(0,{degrees[-1]})-(0,{degrees[0]})"
        c, c_opt = _const_c(c_val), rat(c_val)
    for n in range(1 + (variant // 4) % 3):
        e, sig, coef = _higher_term(rng, r, m, (variant + n) % 4, (variant + n) % 2)
        param = params[n % len(params)] if params and n < 2 else None
        _add_term(terms, (param, e, sig), coef)
    bindings = [f"{name}={rat(F(rng.randint(-9, 9) or 1, rng.randint(1, 5)))}"
                for name in params + ("c",) + _CONSTANT_NAMES]
    return Case(
        name=f"planted-{index}-{family}-q{rat(q)}",
        dsl=dsl_text(terms),
        params=params,
        q=q,
        face=face,
        kmax=r + 3,
        assign=",".join(bindings),
        commands=("polygon", "truncate", "expand", "verify"),
        c=c,
        r=r,
        c_opt=c_opt,
        r_opt=r_opt,
    )


PLANTED_PER_STRATUM = 12


def planted_batch(rng: random.Random) -> list:
    """Small planted equations, stratified so every seed gets the same mix:
    each (q, family) pair contributes the variants 0..PLANTED_PER_STRATUM-1
    (r in -1, 0, 1; half with a critical root; a quarter with parameters)."""
    cases = []
    for q in _PLANTED_QS:
        for family in ("vertex", "linear-edge", "nonlinear-edge"):
            for variant in range(PLANTED_PER_STRATUM):
                cases.append(_planted(rng, q, family, variant, len(cases)))
    rng.shuffle(cases)
    return cases


# -- deep-log


def deep_log(rng: random.Random) -> list:
    """The paper's cubic at q = 1/2, k_max = 8: |K| = 8, log degree up to 8.
    Only the verify bindings differ between cases."""
    cases = []
    for n in range(4):
        a3, a4, c1 = (F(rng.randint(-9, 9) or 1, rng.randint(1, 7)) for _ in range(3))
        cases.append(
            Case(
                name=f"deep-log-{n}",
                dsl=MAIN_QDE,
                params=("a3", "a4"),
                q=F(1, 2),
                face="(0,3)-(0,2)",
                kmax=F(8),
                assign=f"a3={rat(a3)},a4={rat(a4)},C1={rat(c1)}",
                commands=("truncate", "expand", "verify"),
                c=_const_c(-1),
                r=F(0),
            )
        )
    return cases


# -- bigint


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_near(rng: random.Random, digits: int) -> int:
    """A prime in [10^(digits-1), 1.01 * 10^(digits-1)): a narrow band, so
    trial-division cost (~sqrt) varies by under 1% between seeds."""
    low = 10 ** (digits - 1)
    n = rng.randrange(low, low + low // 100)
    while not _is_prime(n):
        n += 1
    return n


def _smooth_near(rng: random.Random, digits: int) -> int:
    """A 31-smooth number in [10^(digits-1), 1.05 * 10^(digits-1)) with
    560 to 640 divisors: rational_roots tries every divisor as a root, so
    the divisor count is held in a band as well as the size."""
    low = 10 ** (digits - 1)
    while True:
        n, exponents = 1, {}
        while n < low:
            p = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
            n *= p
            exponents[p] = exponents.get(p, 0) + 1
        divisors = math.prod(e + 1 for e in exponents.values())
        if n < low + low // 20 and 560 <= divisors <= 640:
            return n


def bigint(rng: random.Random) -> list:
    """Ops whose cost is exact number theory on 12-13 digit integers: the
    divisors of a smooth N, and q = 1/p for a prime p, whose every q-power
    and q-logarithm factors p.  Three cases of each of three kinds (13-digit
    N, 12-digit p), each number in a narrow band, so the cost of a kind
    varies little between seeds."""
    common = dict(kmax=F(3), commands=("truncate", "expand", "verify"))
    cases = []
    for n in range(3):
        big = _smooth_near(rng, 13)
        cases.append(Case(
            name=f"bigint-edge-{n}", dsl=f"y^2 - {big}*y + x = 0\n",
            params=(), q=F(1, 2), face="(0,2)-(0,1)", assign="C1=1",
            c=_const_c(big), r=F(0), **common,
        ))
    for n in range(3):
        p = _prime_near(rng, 12)
        cases.append(Case(
            name=f"bigint-cubic-{n}", dsl=MAIN_QDE, params=("a3", "a4"),
            q=F(1, p), face="(0,3)-(0,2)", assign="a3=2,a4=-3,C1=5",
            c=_const_c(-1), r=F(0), **common,
        ))
    for n in range(3):
        # the root w of the vertex polynomial is q^-1 (r = -1) or q (r = 1)
        p = _prime_near(rng, 12)
        dsl = f"S(y) - {p}*y + x = 0\n" if n != 1 else f"{p}*S(y) - y + x^2 = 0\n"
        cases.append(Case(
            name=f"bigint-vertex-{n}", dsl=dsl, params=(), q=F(1, p),
            face="(0,1)", assign="c=3,C1=1", c=_FREE_C,
            r=F(1) if n == 1 else F(-1), **common,
        ))
    return cases


# The reference loops (speed.py) each workload is rescaled by: those that
# resemble its work.  Trial division slows down by a different factor than
# Fraction arithmetic when the machine does, and bigint ops are trial
# division.
REFERENCE_KINDS = {
    "deep-log": KINDS,
    "planted-batch": KINDS,
    "bigint": ("trial_division",),
}

WORKLOADS = {
    "deep-log": deep_log,
    "planted-batch": planted_batch,
    "bigint": bigint,
}
