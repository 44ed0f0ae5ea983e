"""Independent residual oracle: substitutes a returned series into the
equation with sympy and checks that every coefficient through k_max
vanishes identically, in t, in the parameters and in the introduced
constants.  It shares no code with qdulac: it reads the DSL text the
program received and the JSON document the program printed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import sympy
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

_MAX_LEVEL = 9


def equation_terms(dsl: str, params) -> list:
    """(x-exponent, ((level, power), ...), sympy coefficient) per monomial."""
    body = re.sub(r"#[^\n]*", "", dsl).replace("\n", " ").split("=")[0]
    body = re.sub(r"S\^(\d+)\(y\)", r"Y\1", body)
    body = re.sub(r"\by\b", "Y0", body.replace("S(y)", "Y1")).replace("^", "**")
    x = sympy.Symbol("x")
    ys = [sympy.Symbol(f"Y{level}") for level in range(_MAX_LEVEL + 1)]
    names = {str(s): s for s in ys}
    names.update({name: sympy.Symbol(name) for name in params})
    names["x"] = x
    poly = sympy.Poly(sympy.expand(sympy.sympify(body, locals=names)), x, *ys)
    out = []
    for monom, coeff in poly.terms():
        sig = tuple((level, p) for level, p in enumerate(monom[1:]) if p)
        out.append((monom[0], sig, coeff))
    return out


def residual_failures(dsl: str, params, doc: dict, kmax) -> list:
    """Exponents <= kmax at which f(x, y, Sy, ...) has a nonzero coefficient
    for the series y of the expand document `doc` (empty when correct)."""
    terms = equation_terms(dsl, params)
    q = Fraction(doc["q"])
    names = set(params)

    def monomials(entries):
        for entry in entries:
            names.update(entry["monomial"])

    monomials(doc["c"])
    for term in doc["terms"]:
        for beta in term["beta"]:
            monomials(beta["coeff"])
    gens = ["t"] + sorted(names)
    R, *symbols = ring(",".join(gens), QQ)
    t = symbols[0]
    by_name = dict(zip(gens, symbols))

    def poly(entries):
        out = R.zero
        for entry in entries:
            coef = Fraction(entry["coef"])
            mono = R.one * QQ(coef.numerator, coef.denominator)
            for name, exp in entry["monomial"].items():
                mono *= by_name[name] ** int(exp)
            out += mono
        return out

    # Exponents become integers in X = x^(1/D).
    r = Fraction(doc["r"])
    ks = [Fraction(term["k"]) for term in doc["terms"]]
    D = math.lcm(r.denominator, *(k.denominator for k in ks))
    series = {int(r * D): poly(doc["c"])}
    for term, k in zip(doc["terms"], ks):
        beta = R.zero
        for entry in term["beta"]:
            beta += poly(entry["coeff"]) * t ** int(entry["t_power"])
        series[int(k * D)] = series.get(int(k * D), R.zero) + beta
    cap = int(Fraction(kmax) * D)
    q_sym = sympy.Rational(q.numerator, q.denominator)

    def q_power(n):  # q^(n/D), which the program only emits when rational
        value = q_sym ** sympy.Rational(n, D)
        if not value.is_Rational:
            raise ValueError(f"irrational q-power {value}")
        return QQ(int(value.p), int(value.q))

    shifted = {}

    def sigma(level):
        # (S^l y)(x) = y(q^l x): x^k -> q^(l k) x^k and t -> t + l
        if level not in shifted:
            shifted[level] = {
                n: beta.compose(t, t + level) * q_power(level * n)
                for n, beta in series.items()
            }
        return shifted[level]

    total = {}
    for e, sig, coeff in terms:
        factors = [sigma(level) for level, power in sig for _ in range(power)]
        # suffix[i]: least exponent the factors from i on can still add
        suffix = [0] * (len(factors) + 1)
        for i in range(len(factors) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + min(factors[i])
        acc = {e * D: R(coeff.as_expr())}
        for i, factor in enumerate(factors):
            limit = cap - suffix[i + 1]
            nxt = {}
            for n1, c1 in acc.items():
                for n2, c2 in factor.items():
                    if n1 + n2 <= limit:
                        nxt[n1 + n2] = nxt.get(n1 + n2, R.zero) + c1 * c2
            acc = nxt
        for n, c in acc.items():
            total[n] = total.get(n, R.zero) + c
    return sorted(Fraction(n, D) for n, c in total.items() if n <= cap and c != 0)
