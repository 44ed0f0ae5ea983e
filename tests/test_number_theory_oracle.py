"""sympy as an independent oracle for rational roots, q-powers and q-logs.

The engine finds roots by p-adic lifting and q-logs by exact integer
roots; sympy factors polynomials and integers instead, so the two share
no method.  Inputs carry 20- to 60-digit numbers.
"""

import math
import random
from fractions import Fraction

import pytest

from qdulac.algebra import q_log, q_pow, rational_roots
from qdulac.errors import IrrationalQPowerError

sympy = pytest.importorskip("sympy")

F = Fraction
S = sympy.Symbol("s")


def big_rat(rng: random.Random) -> Fraction:
    """A nonzero rational whose larger part has 20 to 60 digits."""
    num = rng.randint(10**19, 10 ** rng.randint(20, 60)) * rng.choice((1, -1))
    den = rng.randint(1, 10 ** rng.randint(1, 40))
    return F(num, den)


def multiply(p: list, q: list) -> list:
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def planted_poly(rng: random.Random) -> tuple[list, list]:
    """Coefficients and planted roots of a product of linear factors (roots
    may repeat) and at most one quadratic without rational roots: either
    s^2 + d or d*s^2 - (d^2 + 1), whose real roots are irrational."""
    degree = rng.randint(1, 5)
    quadratic = degree >= 3 and rng.random() < 0.5
    roots: list = []
    while len(roots) < degree - 2 * quadratic:
        repeat = roots and rng.random() < 0.3
        roots.append(rng.choice(roots) if repeat else big_rat(rng))
    coeffs = [big_rat(rng)]  # a leading factor that is no unit
    for root in roots:
        coeffs = multiply(coeffs, [-root, F(1)])
    if quadratic:
        d = rng.randint(10**19, 10**40)
        if rng.random() < 0.5:
            coeffs = multiply(coeffs, [F(d), F(0), F(1)])
        else:
            coeffs = multiply(coeffs, [F(-(d * d + 1)), F(0), F(d)])
    return coeffs, roots


def sympy_rational_roots(coeffs: list) -> list:
    """sympy.roots(poly, filter="Q") with multiplicities, for P(0) != 0.

    When the leading coefficient is the smaller one in absolute value,
    sympy first factors the gcd of the other coefficients to rescale s,
    which takes seconds on 60-digit inputs; it gets s^n P(1/s) instead,
    whose roots are the reciprocals.
    """
    ints = [c * math.lcm(*(c.denominator for c in coeffs)) for c in coeffs]
    flip = abs(ints[-1]) < abs(ints[0])
    poly = sympy.Poly([int(c) for c in (ints if flip else reversed(ints))], S)
    found = sympy.roots(poly, filter="Q")
    roots = [(F(int(r.p), int(r.q)), m) for r, m in found.items()]
    return sorted((1 / r if flip else r, m) for r, m in roots)


def test_rational_roots_against_sympy():
    rng = random.Random(20250)
    for _ in range(40):
        coeffs, planted = planted_poly(rng)
        found = rational_roots(coeffs)
        assert found == sympy_rational_roots(coeffs)
        assert sum(m for _, m in found) == len(planted)


def prime_power_rat(rng: random.Random, primes: list) -> Fraction:
    """A rational built from a few primes with exponents of either sign."""
    value = F(1)
    for p in rng.sample(primes, rng.randint(1, 4)):
        value *= F(p) ** rng.choice((-3, -2, -1, 1, 2, 3, 5))
    return value if value != 1 else F(primes[0])


def exponent_ratio(q: Fraction, w: Fraction):
    """k with q^k = w from sympy's prime factorizations, or None."""
    fq = sympy.factorrat(sympy.Rational(q.numerator, q.denominator))
    fw = sympy.factorrat(sympy.Rational(w.numerator, w.denominator))
    if set(fq) != set(fw):
        return None
    ratios = {F(int(fw[p]), int(fq[p])) for p in fq}
    return ratios.pop() if len(ratios) == 1 else None


def test_q_log_against_factorrat():
    rng = random.Random(4711)
    primes = [int(sympy.prime(i)) for i in range(1, 60)] + [10**9 + 7, 2**31 - 1]
    for _ in range(300):
        base = prime_power_rat(rng, primes)
        q = base ** rng.randint(1, 12)
        if q == 1:
            continue
        shape = rng.random()
        if shape < 0.6:
            w = base ** rng.choice((-9, -4, -1, 1, 2, 7, 15))
        elif shape < 0.8:
            w = base ** rng.randint(1, 9) * rng.choice(primes)
        else:
            w = prime_power_rat(rng, primes)
        assert q_log(q, w) == exponent_ratio(q, w)


def test_q_pow_round_trip_against_factorrat():
    rng = random.Random(1859)
    primes = [int(sympy.prime(i)) for i in range(1, 40)] + [10**9 + 7]
    for _ in range(150):
        q = prime_power_rat(rng, primes) ** rng.randint(1, 6)
        if q == 1:
            continue
        k = F(rng.randint(-7, 7), rng.randint(1, 8))
        factors = sympy.factorrat(sympy.Rational(q.numerator, q.denominator))
        rational = all(e * k.numerator % k.denominator == 0 for e in factors.values())
        if not rational:
            with pytest.raises(IrrationalQPowerError):
                q_pow(q, k)
            continue
        w = q_pow(q, k)
        assert w ** k.denominator == q ** k.numerator
        if k != 0:
            assert q_log(q, w) == k
