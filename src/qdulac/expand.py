"""Term-by-term power-logarithmic expansion around a truncated solution.

After the shift y = c*x^r + z the equation takes the form

    L(S) z + h(x, z) = 0,

where L(S) = a_m S^m + ... + a_0 is the constant-coefficient linear part
collected at support point (0,1) and h holds everything else.  Writing
z = sum_{k in K} beta_k(t) x^k with t = log_q x turns each exponent level
into a polynomial difference equation

    L(q^k T) beta_k(t) + theta_k(t) = 0,      (T f)(t) = f(t+1),

whose inhomogeneity theta_k is the x^k residual of the lower-order partial
sum.  The admissible exponent set K is generated additively from the
critical numbers (rational k > r with nu(k) = sum_j a_j q^{jk} = 0) and the
z-free support of h.  The solver works degree by degree using the moment
values m_i = sum_j a_j j^i q^{jk}; when q^k is a root of L(s) of
multiplicity mu, the operator kills degrees below mu and each expansion
step introduces mu fresh arbitrary constants.

Everything is exact: the engine refuses (with a named error) any input
that would force irrational q-powers or a non-well-founded exponent
recursion, instead of silently approximating.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from fractions import Fraction
from itertools import count
from typing import Callable, Iterable, Mapping, NamedTuple

from .algebra import (
    _EXP_LIMIT,
    ParamPoly,
    TPoly,
    _as_rat,
    check_q,
    fresh_names,
    q_log,
    q_pow,
    rat_str,
    rational_roots,
)
from .errors import (
    DegreeBoundError,
    ExponentOrderError,
    InternalInvariantError,
    LinearCoefficientError,
    LinearVertexError,
    ResourceLimitError,
)
from .polygon import _chain
from .qexpr import PowerLogSeries, QPolynomial, _grid_points, evaluate_on_series, substitute_shift
from .truncate import TruncatedSolution


class _LinearPart(NamedTuple):
    coeffs: tuple


class LinearPart(_LinearPart):
    """Constant coefficients a_0 ... a_m of the linear operator L(S).

    Built, copied by `_replace` and remade by `_make` through one check:
    exact coefficients, trailing zeros dropped, one nonzero.  No attribute
    can be set; the instance dict holds only the cache of `roots`."""

    def __new__(cls, coeffs):
        cs = tuple(_as_rat(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        if not cs:
            raise ValueError("linear part must have a nonzero coefficient")
        return super().__new__(cls, cs)

    @classmethod
    def _make(cls, values) -> LinearPart:
        return cls(*values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: LinearPart is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def roots(self) -> dict:
        """Rational roots of L(s) with their multiplicities, found once."""
        if "roots" not in self.__dict__:
            self.__dict__["roots"] = dict(rational_roots(self.coeffs))
        return self.__dict__["roots"]

    def root_multiplicity(self, w: Fraction) -> int:
        """Multiplicity of w as a root of L(s)."""
        return self.roots.get(w, 0)


class CriticalData(NamedTuple):
    """Rational eigenvalues of the linear part relative to a base exponent.

    eigen_rational lists (k, mu) with nu(k) = 0 exactly, mu the
    multiplicity of q^k in L(s); those with k > r are the critical numbers.
    skipped_irrational lists roots s of L(s) admitting no rational log;
    unresolved counts roots of L(s) that are not rational at all.
    """

    eigen_rational: tuple
    skipped_irrational: tuple
    unresolved: int
    r: Fraction

    def criticals(self) -> tuple:
        return tuple((k, mu) for k, mu in self.eigen_rational if k > self.r)


class ExpansionResult(NamedTuple):
    """A computed expansion y = c*x^r + sum beta_k(t) x^k up to k_max."""

    series: PowerLogSeries
    constants_introduced: tuple  # ((name, k), ...)
    k_set: tuple  # realized exponent set K within (r, k_max]
    critical_report: tuple  # ((k, mu, theta_k vanished), ...)
    skipped_irrational: tuple
    unresolved: int
    linear_part: LinearPart

    @property
    def log_free(self) -> bool:
        return all(beta.degree() == 0 for _, beta in self.series.terms)


def extract_linear_part(ft: QPolynomial):
    """Split the shifted equation into (LinearPart, h).

    Requires the two structural hypotheses: the point (0,1) carries terms
    and is a vertex of the Newton polygon, and every coefficient there is a
    plain constant.  One walk of ft's keys reads a_l from the key
    (0, ((l, 1),)); the vertex test runs on ft's points as ints on one grid.
    """
    if ft.is_zero():
        raise LinearVertexError(
            "the substituted equation is identically zero; nothing to expand"
        )
    linear, rest = {}, {}  # level l -> a_l; every other term
    for (e, sigma), coeff in ft._terms.items():
        if not e and len(sigma) == 1 and sigma[0][1] == 1:
            linear[sigma[0][0]] = coeff
        else:
            rest[e, sigma] = coeff
    if not linear:
        raise LinearVertexError("no terms at support point (0,1): the linear part is missing")
    if (0, 1) not in _chain(sorted(_grid_points(ft)[2])):
        raise LinearVertexError("support point (0,1) is not a vertex of the Newton polygon")
    if (top := max(linear)) >= _EXP_LIMIT:
        raise ResourceLimitError("exponent of w reaches 2^31")
    if varying := [c for _, c in sorted(linear.items()) if not c.is_constant()]:
        raise LinearCoefficientError(f"coefficient at (0,1) is not constant: {varying[0]}")
    coeffs = [linear[l].constant_value() if l in linear else 0 for l in range(top + 1)]
    return LinearPart(coeffs), QPolynomial._trusted(rest, ft._grid)


def critical_numbers(L: LinearPart, q, r) -> CriticalData:
    """Rational eigenvalues k (nu(k)=0) and the critical ones (k > r)."""
    q = check_q(q)
    r = _as_rat(r)
    eigen, skipped = [], []
    for s, mult in L.roots.items():
        k = q_log(q, s) if s > 0 else None
        if k is None:
            skipped.append(s)
        else:
            eigen.append((k, mult))
    return CriticalData(
        eigen_rational=tuple(sorted(eigen)),
        skipped_irrational=tuple(skipped),
        unresolved=L.order - sum(L.roots.values()),
        r=r,
    )


def k_lattice(h: QPolynomial, criticals, r, k_max) -> list:
    """The exponent set K within (r, k_max], as a least fixed point.

    Seeds: the critical numbers and the abscissas of h's z-free points
    (q1, 0).  Closure: k = q1 + l_1 + ... + l_{q2} for every point
    (q1, q2) of h with q2 >= 1 and l_i already generated.  h is read
    through `_grid_points(h, r)`, the grid of its exponent-order check;
    exponents are ints scaled by the lcm of that grid and the critical
    numbers' denominators, and each k of K is formed as a Fraction once.
    The rounds are semi-naive: a sum is new only if one of its summands
    came in the round before, so each round takes its first summand from
    those alone and the rest from all of K, one summand at a time, pruned
    by min(K) times the summands left; K stays sorted by inserting what
    each round adds.
    """
    r, k_max, criticals = _as_rat(r), _as_rat(k_max), [_as_rat(k) for k in criticals]
    grid, low, points = _grid_points(h, r)
    scale = math.lcm(grid, *(k.denominator for k in criticals))
    up, cap = scale // grid, k_max.numerator * scale // k_max.denominator
    low *= up
    seeds = {k.numerator * (scale // k.denominator) for k in criticals}
    seeds.update(e * up for e, d in points if not d)
    generators = [(e * up, d) for e, d in points if d]
    known = {s for s in seeds if low <= s <= cap}
    elems = new = sorted(known)
    while new:
        found = set()
        for q1, d in generators:
            sums = {q1}
            for left in range(d - 1, -1, -1):
                pool = new if left == d - 1 else elems
                bound = cap - left * elems[0]
                sums = {s + k for s in sums for k in pool[: bisect_right(pool, bound - s)]}
            found.update(s for s in sums if s >= low)
        new = sorted(found - known)
        known.update(new)
        for s in new:
            insort(elems, s)
    return [Fraction(s, scale) for s in elems if s > low]


def apply_difference_operator(L: LinearPart, q, k, beta: TPoly) -> TPoly:
    """L(q^k T) applied to beta: sum_j a_j q^{jk} beta(t + j)."""
    w = q_pow(check_q(q), _as_rat(k))
    return beta.shift_sum({j: a * w**j for j, a in enumerate(L.coeffs) if a})


def constant_namer(taken: Iterable[str]) -> Callable[[], str]:
    """Yields C1, C2, ... skipping names already in use."""
    return fresh_names(taken, (f"C{i}" for i in count(1))).__next__


def solve_poly_difference(
    L: LinearPart, q, k, theta: TPoly, const_namer: Callable[[], str]
):
    """Solve L(q^k T) beta + theta = 0 for a polynomial beta in t.

    With mu the multiplicity of q^k as a root of L(s), the operator lowers
    polynomial degree by exactly mu, so a particular solution of degree
    deg(theta) + mu exists and is found by descending back-substitution on
    the moments m_i = sum_j a_j j^i q^{jk} (m_i = 0 for i < mu, m_mu != 0).
    The kernel is span(1, t, ..., t^{mu-1}); its coordinates are fresh
    named constants.  Returns (beta, new_constant_names).

    The solve runs on ints.  With E the lcm of the a_j's denominators
    times den(q^k)^order, each E*m_i is an int; theta's store splits once
    into int rows {parameter key: numerator} per t-degree, and
    beta_{i+mu} = -(E*theta_i + sum_d comb(d, i)*E*m_{d-i}*beta_d)
    / (comb(i+mu, i)*E*m_mu) is an int row over a denominator that each
    step multiplies by comb(i+mu, i)*|E*m_mu|.  beta is those rows over
    the last denominator, reduced by one gcd.
    """
    q = check_q(q)
    k = _as_rat(k)
    w = q_pow(q, k)
    mu = L.root_multiplicity(w)
    rows, dens, den = {}, {}, 1  # t-degree -> {parameter key: int}, over dens[t-degree]
    if not theta.is_zero():
        (thetas, theta_den), size = theta._rows(), theta.degree() + mu + 1
        lcm, wn, wd = math.lcm(*(a.denominator for a in L.coeffs)), w.numerator, w.denominator
        weights = [(j, a.numerator * (lcm // a.denominator) * wn**j * wd ** (L.order - j))
                   for j, a in enumerate(L.coeffs) if a]  # E*a_j*w^j
        moments = [sum(c * j**i for j, c in weights) for i in range(size)]
        if any(moments[:mu]) or moments[mu] == 0:
            raise InternalInvariantError(f"moment criterion broken at k = {k}")
        e, lead = lcm * wd**L.order, moments[mu]
        sign, dens[size] = (-1 if lead > 0 else 1), theta_den
        for i in range(size - mu - 1, -1, -1):
            below = dens[i + mu + 1]
            scale = sign * e * (below // theta_den)
            row = {m: n * scale for m, n in thetas.get(i, {}).items()}
            for d in range(i + mu + 1, size):
                if c := sign * math.comb(d, i) * moments[d - i] * (below // dens[d]):
                    for m, n in rows[d].items():
                        row[m] = row.get(m, 0) + n * c
            rows[i + mu], dens[i + mu] = row, below * math.comb(i + mu, i) * abs(lead)
        den = dens[mu]
    beta = TPoly._from_rows(
        {d: {m: n * (den // dens[d]) for m, n in row.items()} for d, row in rows.items()}, den)
    names = [const_namer() for _ in range(mu)]  # C_i*t^i, i < mu, span the kernel
    beta += TPoly({i: ParamPoly.symbol(name) for i, name in enumerate(names)})
    check = apply_difference_operator(L, q, k, beta) + theta
    if not check.is_zero():
        raise InternalInvariantError(f"difference solve failed to verify at k = {k}")
    return beta, names


def check_exponent_order(h: QPolynomial, r) -> None:
    """Well-foundedness of the exponent recursion over S(h).

    Every support point (q1, q2) of h must satisfy q1 + r*(q2 - 1) >= 0,
    strictly when q2 <= 1; otherwise a term could feed the residual at an
    exponent at or below the one being solved and the term-by-term
    recursion would not terminate.  One scan of h's points, ints on one
    grid, names the least such point; only its message forms Fractions.
    """
    r = _as_rat(r)
    grid, step, points = _grid_points(h, r)
    late = [(x, d, value) for x, d in points
            if (value := x + step * (d - 1)) < 0 or (value == 0 and d <= 1)]
    if late:
        x, d, value = min(late)
        raise ExponentOrderError(
            f"support point ({rat_str(Fraction(x, grid))},{d}) breaks the "
            f"exponent ordering for r={rat_str(r)}: "
            f"q1 + r*(q2-1) = {rat_str(Fraction(value, grid))}"
        )


def expand_solution(
    f: QPolynomial, ts: TruncatedSolution, k_max
) -> ExpansionResult:
    """Drive the expansion of f around y = c*x^r at ts.q up to exponent k_max."""
    k_max = _as_rat(k_max)
    q, r = ts.q, ts.r
    if k_max <= r:
        raise ValueError("k_max must exceed the base exponent r")
    ft = substitute_shift(f, ts.c, r, q)
    if not ft.is_zero():
        delta = ft.min_x_exponent()
        if delta > 0:
            ft = ft.shift_x(-delta)
    L, h = extract_linear_part(ft)
    check_exponent_order(h, r)
    crit = critical_numbers(L, q, r)
    k_set = k_lattice(h, [k for k, _ in crit.criticals()], r, k_max)
    # exactness gate: ft already holds q^(l*r); the loop takes q^(l*k) for k in K only
    q_pow(q, Fraction(1, math.lcm(*(k.denominator for k in k_set))))

    namer = constant_namer(ts.c.symbols().union(*(coeff.symbols() for coeff in f._terms.values())))
    carry: dict = {}  # the residual's products, formed once across the loop
    collected: list = []
    constants: list = []
    report: list = []
    for k in k_set:
        partial = PowerLogSeries(q, collected)
        residual = evaluate_on_series(ft, partial, k, k, carry)
        theta = residual.coefficient(k)
        beta, names = solve_poly_difference(L, q, k, theta, namer)
        if names:  # k is critical, with mu = len(names)
            report.append((k, len(names), theta.is_zero()))
        constants.extend((name, k) for name in names)
        collected.append((k, beta))  # the series drops a zero beta
    result = ExpansionResult(
        series=PowerLogSeries(q, collected, base_shift=(ts.c, r)),
        constants_introduced=tuple(constants),
        k_set=tuple(k_set),
        critical_report=tuple(report),
        skipped_irrational=crit.skipped_irrational,
        unresolved=crit.unresolved,
        linear_part=L,
    )
    if not degree_bound(result):
        raise DegreeBoundError(
            "computed term exceeds the logarithmic degree bound; "
            "this indicates an internal error"
        )
    return result


def verify_residual(
    f: QPolynomial,
    result: ExpansionResult,
    assignment: Mapping,
    k_max,
):
    """Smallest exponent with nonzero residual up to k_max, or None.

    Binds every parameter and introduced constant with `assignment` (both
    in the equation's coefficients and in the series), substitutes the
    full truncated solution into f at the series' q, and inspects what is
    left.  None means the residual vanishes identically through k_max.
    """
    k_max = _as_rat(k_max)
    bound_f = QPolynomial._trusted({  # a coefficient can bind to zero
        key: ParamPoly.const(value) for key, coeff in f._terms.items()
        if (value := coeff.evaluate(assignment))
    }, f._grid)
    bound = result.series.bind_parameters(assignment)
    residual = evaluate_on_series(bound_f, bound, k_max).all_terms
    return residual[0][0] if residual else None


def degree_bound(result: ExpansionResult) -> bool:
    """deg beta_k <= C*(k - r)*sum of mu(j) over critical j <= k."""
    r = result.series.base_shift[1]
    k_set = result.k_set
    if not k_set:
        return True
    c_factor = 1 + 1 / (min(k_set) - r)
    mus = [(k, mu) for k, mu, _ in result.critical_report]
    for k, beta in result.series.terms:
        mu_sum = sum(mu for j, mu in mus if r < j <= k)
        if beta.degree() > c_factor * (k - r) * mu_sum:
            return False
    return True
