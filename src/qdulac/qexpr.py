"""q-difference sums and their actions on power-logarithmic series.

A q-difference sum is a finite sum of monomials

    coeff * x^e * (S^0 y)^d0 * (S^1 y)^d1 * ... ,

where S is the dilation operator (S y)(x) = y(q x) and S^l its l-fold
composition (level 0 is y itself).  Each monomial carries an exponent point
Q(term) = (e, d0 + d1 + ...) in Q^2; the set of these points is the support
of the sum, the input to the Newton polygon.

The module implements the three transformations the expansion pipeline
needs: the support map, the shift substitution y = c*x^r + z, and exact
evaluation of a sum on a finite power-logarithmic series
y = c*x^r + sum_k beta_k(t) x^k with t = log_q x.  A series checks, and
never repairs, its input once: the k ascend strictly above r and c != 0,
so the pair and the beta_k form one ascending term tuple.  S acts on a
series term as S(x^k beta(t)) = q^k x^k beta(t+1), q^k from `q_pow`, so
every result is exact, or refused when a needed q-power is irrational.
Evaluation computes only an exponent window [k_min, k_max], with the sum
nested the Horner way over the prefix tree of its monomials' factors: each
node costs one product of series, and a chain of equal levels goes two
levels a step through the square of the shifted series.  An optional
caller-owned carry keeps, for calls on a growing series, the shifted terms
and each coefficient that is final (every series term it reads is known);
results are the same without it, and it refuses another f, another q or
a non-extending series.
Exponents are Fractions at the boundary (terms, series, results) and ints
on one grid 1/D, i.e. powers of x^(1/D), inside the shift and the
evaluator.  Every merge of like terms is one `algebra._sums_by_key` pass
per key.  Both kinds of sum print in the text notation of `algebra.TEXT`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .algebra import (
    TEXT,
    _EXP_LIMIT,
    ParamPoly,
    Scalar,
    TPoly,
    _as_rat,
    _check_power,
    _param_terms,
    _power,
    _sums_by_key,
    check_q,
    q_pow,
    rat_str,
)
from .errors import EmptySupportError, ResourceLimitError

# ((level, power), ...): levels ascending and distinct, powers >= 1
SigmaPowers = tuple

Point = tuple  # (Fraction, Fraction)

_exponent = itemgetter(0)  # of a (k, beta) pair
_ONE = ParamPoly.const(1)


def _merge_sigma(s1: SigmaPowers, s2) -> SigmaPowers:
    """The sigma powers of a product: s1 canonical, s2 any (level, power) pairs."""
    if not s2:
        return s1
    merged: dict[int, int] = dict(s1)
    for level, power in s2:
        merged[level] = merged.get(level, 0) + power
    return tuple(sorted(merged.items()))


def _normalize_sigma(powers: SigmaPowers) -> SigmaPowers:
    for level, power in powers:
        if not isinstance(level, int) or level < 0:
            raise ValueError("shift levels must be nonnegative integers")
        if not isinstance(power, int) or power < 1:
            raise ValueError("shift powers must be positive integers")
    return _merge_sigma((), powers)


def _check_sigma(keys, times: int = 1) -> None:
    """Refuse a shift level, or `times` a power, of 2^31 in (x_exp, sigma) keys."""
    for _, sigma in keys:
        for level, power in sigma:
            if level >= _EXP_LIMIT:
                raise ResourceLimitError("shift level reaches 2^31")
            if power * times >= _EXP_LIMIT:
                raise ResourceLimitError("power of y or S^l(y) reaches 2^31")


class QTerm(NamedTuple):
    """One monomial of a q-difference sum."""

    coeff: ParamPoly
    x_exp: Fraction
    sigma_powers: SigmaPowers

    @property
    def y_degree(self) -> int:
        return sum(d for _, d in self.sigma_powers)

    @property
    def shift_weight(self) -> int:
        """Sum of level*power; the w-exponent under y = c*x^r (w = q^r)."""
        return sum(l * d for l, d in self.sigma_powers)

    @property
    def q_point(self) -> Point:
        return (self.x_exp, Fraction(self.y_degree))


class QPolynomial:
    """Canonical finite sum of QTerms (like terms merged, zeros dropped).

    Stored as {(x_exp, sigma_powers): coeff} and never changed in place;
    sums with equal stores are equal and hash alike.  `QPolynomial(terms)`
    validates each term (exact coefficient and exponent, nonnegative
    levels, positive powers), merges like terms and, as `*` and `**` do,
    refuses a level or merged power of 2^31 (ResourceLimitError).
    The constructor, `+` and `*` merge like terms by `_sums_by_key`, one
    pass and one gcd per output term.  Arithmetic results are trusted.
    `terms` is the sorted view for iteration and display, built once on first use.
    """

    __slots__ = ("_terms", "_sorted")

    def __init__(self, terms: Iterable[QTerm] = ()):
        groups: dict[tuple[Fraction, SigmaPowers], list] = {}
        for term in terms:
            key = (_as_rat(term.x_exp), _normalize_sigma(term.sigma_powers))
            groups.setdefault(key, []).append((ParamPoly.coerce(term.coeff), _ONE))
        _check_sigma(groups)
        self._terms = _sums_by_key(groups)
        self._sorted = None

    @classmethod
    def _trusted(cls, terms: dict) -> "QPolynomial":
        """Canonical keys from arithmetic; only zero coefficients drop."""
        out = cls.__new__(cls)
        out._terms = {key: c for key, c in terms.items() if not c.is_zero()}
        out._sorted = None
        return out

    @classmethod
    def constant(cls, value: ParamPoly | Scalar) -> "QPolynomial":
        return cls([QTerm(ParamPoly.coerce(value), Fraction(0), ())])

    # -- structure

    @property
    def terms(self) -> tuple[QTerm, ...]:
        if self._sorted is None:
            keys = sorted(self._terms, key=lambda k: (k[0], sum(d for _, d in k[1]), k[1]))
            self._sorted = tuple(QTerm(self._terms[k], k[0], k[1]) for k in keys)
        return self._sorted

    def is_zero(self) -> bool:
        return not self._terms

    def min_x_exponent(self) -> Fraction:
        if not self._terms:
            raise EmptySupportError("zero polynomial has no support")
        return min(key[0] for key in self._terms)

    def shift_x(self, delta: Scalar) -> "QPolynomial":
        """Multiply by x^delta (delta may be negative)."""
        delta = _as_rat(delta)
        return QPolynomial._trusted(
            {(e + delta, sig): c for (e, sig), c in self._terms.items()}
        )

    # -- ring operations

    def _coerce(self, other) -> "QPolynomial":
        if isinstance(other, QPolynomial):
            return other
        if isinstance(other, (int, Fraction, ParamPoly)):
            return QPolynomial.constant(other)
        raise TypeError(f"cannot combine QPolynomial with {type(other).__name__}")

    def __add__(self, other) -> "QPolynomial":
        groups: dict = {}
        for key, c in [*self._terms.items(), *self._coerce(other)._terms.items()]:
            groups.setdefault(key, []).append((c, _ONE))
        return QPolynomial._trusted(_sums_by_key(groups))

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial._trusted({key: -c for key, c in self._terms.items()})

    def __sub__(self, other) -> "QPolynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "QPolynomial":
        other = self._coerce(other)
        groups: dict = {}
        for (e1, s1), c1 in self._terms.items():
            for (e2, s2), c2 in other._terms.items():
                key = (e1 + e2, _merge_sigma(s1, s2) if s1 else s2)
                groups.setdefault(key, []).append((c1, c2))
        _check_sigma(groups)
        return QPolynomial._trusted(_sums_by_key(groups))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "QPolynomial":
        _check_power(self._terms.values(), exponent)
        if isinstance(exponent, int):  # `_power` refuses any other exponent
            _check_sigma(self._terms, exponent)
        return _power(self, exponent, QPolynomial.constant(1))

    def __eq__(self, other) -> bool:
        return self._terms == other._terms if isinstance(other, QPolynomial) else NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- display

    def __str__(self) -> str:
        return format_qpolynomial(self)

    def __repr__(self) -> str:
        return f"QPolynomial({self})"


def format_qpolynomial(f: QPolynomial) -> str:
    """f in the text notation (the DSL), the unknown written y."""
    parts = []
    for term in f.terms:
        tail = [TEXT.power("x", term.x_exp)] if term.x_exp else []
        for level, power in term.sigma_powers:
            base = f"{TEXT.power('S', level)}(y)" if level else "y"
            tail.append(TEXT.power(base, power))
        parts.append(TEXT.term(_param_terms(term.coeff), TEXT.factor_sep.join(tail)))
    return TEXT.signed_sum(parts)


def support(f: QPolynomial) -> set[Point]:
    """Exponent points of all terms; duplicates collapse to one point."""
    if f.is_zero():
        raise EmptySupportError("zero polynomial has no support")
    return {t.q_point for t in f.terms}


class PowerLogSeries:
    """Finite power-logarithmic series sum_k beta_k(t) x^k, t = log_q x.

    `base_shift`, when present, is the leading pair (c, r) of a solution
    y = c*x^r + sum beta_k x^k: c must be nonzero and r below every
    exponent of `terms`, else ValueError.  `terms` is checked, never repaired:
    strictly ascending in k (else ValueError), TPoly betas (else TypeError),
    zeros dropped.  `all_terms` prepends the pair as the constant (r, c).
    Series are equal, and hash alike, when their (q, terms, base_shift) are.
    """

    __slots__ = ("q", "terms", "base_shift", "all_terms")

    def __init__(
        self,
        q: Scalar,
        terms: Iterable[tuple] = (),
        base_shift: tuple | None = None,
    ):
        self.q = check_q(q)
        checked, prev = [], -math.inf
        for k, beta in terms:
            if (k := _as_rat(k)) <= prev:
                raise ValueError(f"series k must ascend: {rat_str(k)} after {rat_str(prev)}")
            if not isinstance(beta, TPoly):
                raise TypeError(f"beta at k = {rat_str(k)} is not a TPoly: {beta!r}")
            if not beta.is_zero():
                checked.append((k, beta))
            prev = k
        self.terms = self.all_terms = tuple(checked)
        if base_shift is not None:
            c, r = ParamPoly.coerce(base_shift[0]), _as_rat(base_shift[1])
            if c.is_zero():
                raise ValueError("the base coefficient c must be nonzero")
            if self.terms and self.terms[0][0] <= r:
                raise ValueError("the base exponent r must lie below every term")
            base_shift = (c, r)
            self.all_terms = ((r, TPoly.const(c)),) + self.terms
        self.base_shift = base_shift

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerLogSeries):
            return NotImplemented
        return (self.q, self.terms, self.base_shift) == (other.q, other.terms, other.base_shift)

    def __hash__(self):
        return hash((self.q, self.terms, self.base_shift))

    def coefficient(self, k: Scalar) -> TPoly:
        k = _as_rat(k)
        return next((beta for kk, beta in self.terms if kk == k), TPoly.zero())

    def bind_parameters(self, assignment: Mapping[str, Scalar]) -> "PowerLogSeries":
        """`all_terms` with every parameter symbol evaluated, t kept symbolic.

        The result is a plain series (no base pair), so c may bind to zero.
        """
        return PowerLogSeries(
            self.q, [(k, b.evaluate_coeffs(assignment)) for k, b in self.all_terms]
        )

    def to_string(self, var: str = "t") -> str:
        return TEXT.series(self, var)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"PowerLogSeries({self})"


def substitute_shift(
    f: QPolynomial,
    c: ParamPoly | Scalar,
    r: Scalar,
    q: Scalar,
) -> QPolynomial:
    """The substitution y = c*x^r + z, fully expanded and merged.

    Each factor S^l y becomes lead_l*x^r + S^l z, lead_l = c*q^{l r}, and
    its p-th power is written out by the binomial theorem; the result is a
    q-difference sum in z, which prints as y.  One walk of f: lead_l and
    its powers are formed once per call, each binomial from the one before,
    and each monomial expands into (key, coefficient times binomials, lead
    powers) pairs: a shifted coefficient is one product or one kernel pass.
    Keys sum x-exponents as ints on one grid 1/D, D the lcm of r's and f's
    denominators, and each distinct output key forms one Fraction.
    Needs q^{l r} rational for every level l that occurs (always true for
    integer r); the first irrational one in `f.terms` order is named.
    """
    q = check_q(q)
    c = ParamPoly.coerce(c)
    r = _as_rat(r)
    if c.is_zero():
        return f
    grid = math.lcm(r.denominator, *(e.denominator for e, _ in f._terms))
    step, leads, groups = r.numerator * (grid // r.denominator), {}, {}  # leads[l][i] = lead_l^i
    for term in f.terms:
        e = term.x_exp.numerator * (grid // term.x_exp.denominator)
        partial = [(0, (), 1, _ONE)]  # (power of x^r, sigma left, binomials, lead powers)
        for level, power in term.sigma_powers:
            row = leads.get(level) or leads.setdefault(level, [_ONE, c * q_pow(q, level * r)])
            while len(row) <= power:
                row.append(row[-1] * row[1])
            nxt = []
            for n, rest, b, lead in partial:
                binomial = 1
                for i in range(power + 1):
                    nxt.append((n + i, rest + ((level, power - i),) if i < power else rest,
                                b * binomial, row[i] if lead is _ONE else lead * row[i]))
                    binomial = binomial * (power - i) // (i + 1)
            partial = nxt
        for n, rest, b, lead in partial:
            groups.setdefault((e + step * n, rest), []).append((term.coeff * b, lead))
    return QPolynomial._trusted({(Fraction(e, grid), rest): coeff
                                 for (e, rest), coeff in _sums_by_key(groups).items()})


def evaluate_on_series(
    f: QPolynomial,
    s: PowerLogSeries,
    k_max: Scalar,
    k_min: Scalar | None = None,
    carry: dict | None = None,
) -> PowerLogSeries:
    """The terms of f at y = s with exponent in [k_min, k_max], exact.

    k_min None means no lower limit; k_min above k_max gives the empty
    series.  Inside, exponents are ints on the grid 1/D (powers of
    t = x^(1/D), D the lcm of the denominators of s's exponents and f's
    x-exponents), with k_max floored and k_min raised to the grid; the
    result turns them back into Fractions.  Each factor q^(l*k) of S^l s
    is `q_pow(q, l*k)`, all formed before a carry changes.  f is nested
    the Horner way over a prefix tree: a monomial coeff*x^e*F_1*...*F_d
    (F_i = S^{l_i} s, levels ascending) ends at the node l_1, ..., l_d,
    C_n sums its coeff*x^e there, and H_n = C_n + sum of F_l*H_{n+(l)}
    over the children, so f(s) = H_root.  A grandchild n+(l, l) below a
    child hung by F_l hangs from n by F_l^2 (Estrin's scheme), formed from
    the pairs k1 <= k2 with 2*b1 off the diagonal, so d equal levels cost
    about d/2 series products.  Nodes are formed deepest first, without
    recursion.  With `low` and `last` the lowest and top exponent of s,
    H_n at depth i is needed up to k_max - i*low; a node is skipped when
    e + d*low > k_max for its every monomial.  Each (node, exponent)
    coefficient sums C_n's term and every product landing there in one
    pass.

    `carry`, an empty dict at first, keeps for the next call the tree, each
    term of s shifted once per level, and each coefficient that is final,
    meaning every term of s it can read is in s: H_n at depth i and
    exponent E once E <= last + e + (d - i - 1)*low for every monomial
    x^e*F_1*...*F_d below n (C_n reads no term), and F_l^2 at E once
    E <= last + low.  The rest is formed again per call, so results are
    the same as without a carry.  A carried call on another f object,
    another q or a series that does not extend the carried terms raises
    ValueError.
    """
    q = s.q
    k_max = _as_rat(k_max)
    k_min = None if k_min is None else _as_rat(k_min)
    c = {} if carry is None else carry
    if not c:
        grid = math.lcm(*(term.x_exp.denominator for term in f.terms))
        nodes, consts = {(): (0, None, 0, 1)}, {}  # node -> (depth, parent, level, power)
        for term in f.terms:
            node, depth = term.sigma_powers, term.y_degree
            e = term.x_exp.numerator * (grid // term.x_exp.denominator)
            consts.setdefault(node, []).append((e, TPoly.const(term.coeff)))
            while node not in nodes:  # up to the first node already in the tree
                level, power = node[-1]
                parent = node[:-1] + (((level, power - 1),) if power > 1 else ())
                nodes[node] = (depth, parent, level, 1)
                node, depth = parent, depth - 1
        order = sorted(nodes, key=lambda node: -nodes[node][0])  # deepest first
        for node in reversed(order):  # below a node hung by F_l, F_l*(F_l*H) is F_l^2*H
            depth, parent, level, _ = nodes[node]
            if parent and nodes[parent][2:] == (level, 1):
                nodes[node] = (depth, nodes[parent][1], level, 2)
        c.update(f=f, q=q, given=(), nodes=nodes, consts=consts, order=order, base=[], kept={},
                 fin={}, grid=grid, shifted={nodes[node][2]: [] for node in nodes if node})
    if c.get("f") is not f or c["q"] != q or s.all_terms[: len(c["given"])] != c["given"]:
        raise ValueError("the carry holds another equation, q or series")
    given, base, shifted, kept, fin = c["given"], c["base"], c["shifted"], c["kept"], c["fin"]
    nodes, consts, order = c["nodes"], c["consts"], c["order"]
    new = s.all_terms[len(given):]
    factors = [[q_pow(q, level * k) for level in shifted] for k, _ in new]
    grid = math.lcm(c["grid"], *(k.denominator for k, _ in new))
    if grid != c["grid"]:  # a new denominator: every carried exponent rescales
        scale = grid // c["grid"]
        for pairs in (base, *shifted.values(), *kept.values(), *consts.values()):
            pairs[:] = [(k * scale, beta) for k, beta in pairs]
        c["fin"] = fin = {key: bound * scale for key, bound in fin.items()}
    for (k, beta), ws in zip(new, factors):
        base.append((k.numerator * (grid // k.denominator), beta))
        for (level, pairs), w in zip(shifted.items(), ws):
            pairs.append((base[-1][0], beta.shift(level, w) if level else beta))
    c.update(given=s.all_terms, grid=grid)

    top = k_max.numerator * grid // k_max.denominator
    bottom = -math.inf if k_min is None else -(-k_min.numerator * grid // k_min.denominator)
    low, last = (base[0][0], base[-1][0]) if base else (0, -math.inf)
    least, below = {}, {}  # node -> least e + d*low of a monomial through it, below it
    for node in order:
        depth, parent = nodes[node][:2]
        here = consts[node][0][0] + depth * low if node in consts else math.inf  # e ascends
        least[node] = min(here, below.get(node, math.inf))
        below[parent] = min(below.get(parent, math.inf), least[node])
    windows, need = {}, {}  # node -> (start, hi), formed on [start, hi]; level -> F_l^2's hi
    for node in reversed(order):  # the root first
        depth, parent, level, power = nodes[node]
        if least[node] > top or node and not (
                base and parent in windows and windows[parent][0] <= windows[parent][1]):
            continue  # no monomial reaches k_max, S^l(s) is zero or the parent forms nothing
        start = max(-math.inf if node else bottom, fin.get(node, -math.inf) + 1)
        windows[node] = (start, top - depth * low)
        if power == 2:  # F_l^2 up to the parent's hi less H_node's lowest exponent
            hi = windows[parent][1] - least[node] + depth * low
            need[level] = max(need.get(level, hi), hi)

    def form(key, pairs, bound):  # the kept terms, then one sum per exponent; keep up to bound
        done = kept.setdefault(key, [])
        formed = sorted(_sums_by_key(pairs, TPoly).items())
        out, fin[key] = done + formed, max(fin.get(key, -math.inf), bound)
        done += formed[: bisect_right(formed, fin[key], key=_exponent)]
        return out
    squares = {}  # level -> F_l^2 from the pairs k1 <= k2, (k2, k1) through 2*b1
    for level, hi in need.items():
        factor, start, pairs = shifted[level], fin.get(level, -math.inf) + 1, {}
        for i, (k1, b1) in enumerate(factor):
            if 2 * k1 > hi:
                break
            twice = None
            for j in range(max(i, bisect_left(factor, start - k1, key=_exponent)), len(factor)):
                k2, b2 = factor[j]
                if k1 + k2 > hi:
                    break
                if k2 != k1 and twice is None:
                    twice = b1 + b1
                pairs.setdefault(k1 + k2, []).append((b1 if k2 == k1 else twice, b2))
        squares[level] = form(level, pairs, min(hi, last + low))
    one, h = TPoly.const(1), []
    sums: dict = {}  # node -> exponent -> the pairs whose products sum to it
    for node in order:
        if node not in windows:
            continue
        depth, parent, level, power = nodes[node]
        start, hi = windows[node]
        pairs = sums.pop(node, {})
        for e, coeff in consts.get(node, ()):
            if start <= e <= hi:
                pairs.setdefault(e, []).append((coeff, one))
        reach = below.get(node, math.inf) - (depth + 1) * low
        bound = hi if reach == math.inf else min(hi, last + reach)
        h = form(node, pairs, bound if start <= fin.get(node, -math.inf) + 1 else -math.inf)
        if node and h:  # F_l*H or F_l^2*H into the parent's window
            (start, hi), into = windows[parent], sums.setdefault(parent, {})
            for k1, b1 in shifted[level] if power == 1 else squares[level]:
                if k1 + h[0][0] > hi:
                    break
                for j in range(bisect_left(h, start - k1, key=_exponent), len(h)):
                    k2, b2 = h[j]
                    if k1 + k2 > hi:
                        break
                    into.setdefault(k1 + k2, []).append((b1, b2))
    h = h[bisect_left(h, bottom, key=_exponent):]  # the root's, formed last
    return PowerLogSeries(q, [(Fraction(k, grid), beta) for k, beta in h if k <= top])
