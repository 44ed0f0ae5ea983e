"""Independent oracles used by the test suite.

Each function here recomputes a result by a different method than the
library uses, so agreement is meaningful: an all-pairs halfplane hull, a
Newton polygon whose geometry runs on Fractions instead of the integer
grid, a support scan of a face's normal cone, a dense
Gaussian-elimination solve of the polynomial difference operator, its
back-substitution on parameter polynomials and Fraction moments, a
reference parameter polynomial, the Sturm-bisection search for rational
roots, a brute-force evaluation of a q-difference sum on a
power-logarithmic series, a recursive multiset enumerator of the
exponent set K, a generator of random equations with a planted edge
solution (`verified_solution` builds such a solution and checks it with
the library's `verify_truncated`), the substitutions y = c*x^r + z and
y = c*x^r done term by term (each binomial power a QPolynomial, each face
term's factor formed on its own, every scalar product a kernel pass), the
split of the shifted equation into L(S) and h and its exponent-order check
on Fraction points, the expansion loop that evaluates the residual afresh
at every exponent, the `expand` JSON document built from Fraction
coefficients through `rat_str`, the merge of like terms done
incrementally (`reference_add`, `reference_mul`, `reference_power` and
`reference_qpolynomial`: terms keyed by Fraction x-exponents read from
the sorted view, one ParamPoly product and one sum per pair of terms,
where `QPolynomial` forms each output term in one pass on an int grid;
the merged terms become a sum through `QTerm` and the public
constructor), and the
equation parser that multiplies out every factor and adds up every term
through that merge.  `support` reads a sum's exponent points from its
`terms`, where `polygon.build_polygon` reads them from the int store, and
`point_sum` turns a rational point set into a sum with that support, up
to an increasing affine map of y; `monomial_sum` does so with no map,
for points with integer y-degrees.
"""

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from qdulac import algebra
from qdulac.algebra import _EXP_LIMIT, ParamPoly, TPoly, _as_rat, _sum_products, check_q, q_pow, rat_str
from qdulac.errors import (
    EmptySupportError,
    ExponentOrderError,
    InconsistentEdgeError,
    IndeterminateEquationError,
    LinearCoefficientError,
    LinearVertexError,
    NotAVertexError,
    ParseError,
    ResourceLimitError,
)
from qdulac.expand import (
    ExpansionResult,
    LinearPart,
    constant_namer,
    critical_numbers,
    k_lattice,
    solve_poly_difference,
)
from qdulac.parser import check_params
from qdulac.polygon import Face, NewtonPolygon
from qdulac.qexpr import (
    PowerLogSeries,
    QPolynomial,
    QTerm,
    evaluate_on_series,
    substitute_shift,
)
from qdulac.truncate import TruncatedSolution, vertex_char_poly, verify_truncated

F = Fraction


def _cross(a, b, s):
    return (b[0] - a[0]) * (s[1] - a[1]) - (b[1] - a[1]) * (s[0] - a[0])


def _between(a, b, s):
    d = (b[0] - a[0], b[1] - a[1])
    t = (s[0] - a[0]) * d[0] + (s[1] - a[1]) * d[1]
    return 0 <= t <= d[0] * d[0] + d[1] * d[1]


def brute_force_hull(points):
    """Counterclockwise hull by testing every directed pair as an edge.

    (a, b) is a hull edge iff every other point is strictly left of the
    line a->b or lies on the segment between them.  Starting at the
    smallest vertex and following edges yields the hull in ccw order.
    """
    pts = sorted({(F(p[0]), F(p[1])) for p in points})
    if len(pts) == 1:
        return list(pts)
    nxt = {}
    for a in pts:
        for b in pts:
            if a == b:
                continue
            ok = True
            for s in pts:
                if s == a or s == b:
                    continue
                cr = _cross(a, b, s)
                if cr > 0:
                    continue
                if cr == 0 and _between(a, b, s):
                    continue
                ok = False
                break
            if ok:
                if a in nxt:
                    raise AssertionError("non-unique hull successor")
                nxt[a] = b
    start = min(nxt)
    hull = [start]
    cur = nxt[start]
    while cur != start:
        hull.append(cur)
        cur = nxt[cur]
    return hull


def _reference_chain(pts):
    """Counterclockwise hull of sorted distinct points, strict turns only,
    by the monotone chain on Fractions."""
    if len(pts) <= 2:
        return list(pts)

    def half(order):
        out = []
        for p in order:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(pts[::-1])


def _reference_r_range(v, support):
    """Open interval of r with (-1,-r) strictly maximal at v, or None: each
    other point s asks (s1 - v1) + r (s2 - v2) > 0."""
    lo = hi = None
    for s in support:
        if s == v:
            continue
        num, den = v[0] - s[0], s[1] - v[1]
        if den == 0:
            if s[0] <= v[0]:
                return None
            continue
        bound = num / den
        if den > 0 and (lo is None or bound > lo):
            lo = bound
        if den < 0 and (hi is None or bound < hi):
            hi = bound
    if lo is not None and hi is not None and lo >= hi:
        return None
    return (lo, hi)


def _reference_edge_r(a, b, subset, support):
    """The r with (-1,-r) normal to edge ab and outward, or None."""
    if b[1] == a[1]:
        return None
    r = -(b[0] - a[0]) / (b[1] - a[1])
    face_val = -a[0] - r * a[1]
    if any(-s[0] - r * s[1] >= face_val for s in support if s not in subset):
        return None
    return r


def reference_polygon(support) -> NewtonPolygon:
    """`polygon.build_polygon` with every predicate evaluated on Fractions."""
    pts = sorted({(_as_rat(p[0]), _as_rat(p[1])) for p in support})
    hull = _reference_chain(pts)
    faces = [Face(0, (v,), (v,), None, _reference_r_range(v, pts)) for v in hull]
    n = len(hull)
    for a, b in [(hull[i], hull[(i + 1) % n]) for i in range(n if n >= 3 else n - 1)]:
        subset = tuple(s for s in pts if _cross(a, b, s) == 0 and _between(a, b, s))
        faces.append(Face(1, subset, (a, b), _reference_edge_r(a, b, subset, pts), None))
    return NewtonPolygon(tuple(pts), tuple(hull), tuple(faces))


def cone_contains(face, support, r) -> bool:
    """Normal-cone test by a scan of the support: (-1,-r) takes one value
    on the face's points and a strictly smaller one off them."""
    def value(s):
        return -s[0] - r * s[1]

    values = {value(s) for s in face.points}
    if len(values) != 1:
        return False
    (face_value,) = values
    return all(value(s) < face_value for s in support if s not in face.points)


def y_degree(term) -> int:
    """d0 + d1 + ... of a QTerm, read from its sigma powers."""
    return sum(d for _, d in term.sigma_powers)


def shift_weight(term) -> int:
    """Sum of level*power of a QTerm; the w-exponent under y = c*x^r (w = q^r)."""
    return sum(l * d for l, d in term.sigma_powers)


def support(f) -> set:
    """The exponent points (x_exp, y-degree) of f's terms, as Fractions."""
    return {(t.x_exp, F(y_degree(t))) for t in f.terms}


def point_sum(points) -> QPolynomial:
    """A sum with one term x^a*y^d per rational point (a, b), d = (b - min b)*L
    for L the lcm of the b denominators.  That map of b is affine and
    increasing, so it keeps every hull vertex, collinear run and which
    edges face x -> 0; `support` of the sum is the mapped points."""
    pts = [(_as_rat(a), _as_rat(b)) for a, b in points]
    low, scale = min(b for _, b in pts), math.lcm(*(b.denominator for _, b in pts))
    return QPolynomial([QTerm(1, a, ((0, int((b - low) * scale)),) if b != low else ())
                        for a, b in pts])


def monomial_sum(points) -> QPolynomial:
    """A sum with one term x^a*y^d per point (a, d), d an integer y-degree;
    `support` of the sum is the points."""
    return QPolynomial([QTerm(1, a, ((0, int(d)),) if d else ()) for a, d in points])


def random_point_set(rng: random.Random, max_size: int = 12):
    """Random rational points; half the draws use a small integer grid so
    duplicates and collinear runs are common."""
    n = rng.randint(1, max_size)
    pts = []
    gridded = rng.random() < 0.5
    for _ in range(n):
        if gridded:
            pts.append((F(rng.randint(0, 4)), F(rng.randint(0, 4))))
        else:
            pts.append(
                (
                    F(rng.randint(-8, 8), rng.randint(1, 4)),
                    F(rng.randint(-8, 8), rng.randint(1, 4)),
                )
            )
    return pts


def dense_difference_solve(coeffs, q, k, theta_coeffs, mu):
    """Solve sum_j a_j q^{jk} beta(t+j) = -theta by dense row reduction.

    Builds the matrix of the operator on the basis 1, t, ..., t^{D+mu}
    (entries C(d,i) * m_{d-i} with moments m_e = sum_j a_j j^e q^{jk}),
    fixes the mu kernel coordinates (degrees < mu) to zero, and solves the
    remaining square system exactly.  Returns the coefficient list of the
    particular solution, length D + mu + 1 (or [0] for theta = 0).
    """
    w = q_pow(q, k)
    target = [-c for c in theta_coeffs]
    while target and target[-1] == 0:
        target.pop()
    if not target:
        return [F(0)]
    deg_theta = len(target) - 1
    n = deg_theta + mu + 1
    moments = [
        sum((a * F(j) ** e * w**j for j, a in enumerate(coeffs)), F(0))
        for e in range(n)
    ]
    rows = []
    for i in range(deg_theta + 1):
        row = [F(0)] * n
        for d in range(i, n):
            row[d] = math.comb(d, i) * moments[d - i]
        rows.append(row + [target[i]])
    # kernel coordinates (columns < mu) pinned to zero: drop the columns
    reduced = [row[mu:] for row in rows]
    m = len(reduced)
    for col in range(m):
        pivot = next(r for r in range(col, m) if reduced[r][col] != 0)
        reduced[col], reduced[pivot] = reduced[pivot], reduced[col]
        pv = reduced[col][col]
        reduced[col] = [v / pv for v in reduced[col]]
        for r in range(m):
            if r != col and reduced[r][col] != 0:
                factor = reduced[r][col]
                reduced[r] = [
                    v - factor * pvv for v, pvv in zip(reduced[r], reduced[col])
                ]
    solution = [F(0)] * mu + [reduced[i][-1] for i in range(m)]
    return solution


def reference_solve(L, q, k, theta, const_namer):
    """`solve_poly_difference` as first written: ParamPoly rows, Fraction
    moments m_i = sum_j a_j j^i q^{jk}, each row divided by its Fraction
    lead, with no moment or identity check.  Returns
    (beta, new_constant_names)."""
    w = q_pow(q, k)
    mu = L.root_multiplicity(w)
    b = [ParamPoly.zero()] * mu
    if not theta.is_zero():
        deg = theta.degree()
        size = deg + mu + 1
        moments = [sum(a * j**i * w**j for j, a in enumerate(L.coeffs)) for i in range(size)]
        b = [ParamPoly.zero()] * size
        thetas = theta.coeffs
        for i in range(deg, -1, -1):
            total = thetas[i]
            for d in range(i + mu + 1, size):
                total = total + b[d] * (math.comb(d, i) * moments[d - i])
            b[i + mu] = total * (F(-1) / (math.comb(i + mu, i) * moments[mu]))
    names = []
    for i in range(mu):
        names.append(const_namer())
        b[i] = b[i] + ParamPoly.symbol(names[-1])
    return TPoly(b), names


class ReferencePoly:
    """Multivariate polynomial over Q, the reference for ParamPoly.

    A plain dict from sorted ((name, exp), ...) tuples to nonzero
    Fractions, with schoolbook arithmetic and the DSL's text rules written
    out again; it uses nothing from qdulac.algebra.
    """

    def __init__(self, terms=()):
        self.terms = {mono: F(c) for mono, c in dict(terms).items() if c != 0}

    @classmethod
    def symbol(cls, name):
        return cls({((name, 1),): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return ReferencePoly(out)

    def __neg__(self):
        return ReferencePoly({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps = dict(m1)
                for name, e in m2:
                    exps[name] = exps.get(name, 0) + e
                mono = tuple(sorted(exps.items()))
                out[mono] = out.get(mono, 0) + c1 * c2
        return ReferencePoly(out)

    def __pow__(self, n):
        out = ReferencePoly({(): 1})
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, scalar):
        return ReferencePoly({mono: c / scalar for mono, c in self.terms.items()})

    def sorted_terms(self):
        """Graded lexicographic: total degree, then the sorted pairs."""
        return sorted(self.terms.items(), key=lambda t: (sum(e for _, e in t[0]), t[0]))

    def __str__(self):
        parts = []
        for mono, c in self.sorted_terms():
            factors = [name if e == 1 else f"{name}^{e}" for name, e in mono]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            body = "*".join(factors)
            if not parts:
                parts.append("-" + body if c < 0 else body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts) or "0"


def _int_root(n, m):
    """The exact m-th root of the integer n >= 0, by bisection; ValueError if none."""
    lo, hi = 0, 1
    while hi**m <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**m <= n else (lo, mid)
    if lo**m != n:
        raise ValueError(f"{n} has no exact root of order {m}")
    return lo


def exact_rational_power(q, e):
    """q^e for rational q > 0 and e, exactly; ValueError when irrational."""
    q, e = F(q), F(e)
    p = q ** e.numerator
    return F(_int_root(p.numerator, e.denominator), _int_root(p.denominator, e.denominator))


def _ref_primitive(coeffs):
    g = math.gcd(*coeffs)
    if coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def _ref_neg_remainder(a, b):
    """A positive multiple of -(a mod b), content removed; [] when b | a.
    Pseudo-division scaled by |lead(b)| only, which keeps the sign."""
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


def _ref_homogeneous(p, num, den_powers):
    """den**deg(p) * p(num/den), given den_powers[i] = den**i."""
    d = len(p) - 1
    acc = p[d]
    for i in range(d - 1, -1, -1):
        acc = acc * num + p[i] * den_powers[d - i]
    return acc


def _ref_sign_changes(chain, num, den_powers):
    values = (_ref_homogeneous(p, num, den_powers) for p in chain)
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _ref_deflate(coeffs, root):
    """Exact division by m*s - p for root = p/m; ValueError if inexact."""
    p, m = root.numerator, root.denominator
    out = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry, rest = divmod(coeffs[i] + carry * p, m)
        if rest:
            raise ValueError(f"deflation by a non-root {root}")
        out[i - 1] = carry
    if coeffs[0] + carry * p:
        raise ValueError(f"deflation by a non-root {root}")
    return out


def reference_rational_roots(coeffs) -> list:
    """Rational roots with multiplicities by Sturm-sequence bisection.

    The search `rational_roots` used before p-adic lifting, binomials
    included: with p primitive and b = lead(p) > 0, every rational root is
    z/b with |z| <= b + max|p_i|, and the Sturm chain of p counts the
    distinct roots between the never-roots (z + 1/2)/b, so bisection over
    z isolates them; an interval of one root is narrowed by the sign of
    p/gcd(p, p') alone, and its last candidate is tested exactly.
    """
    cs = [F(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise IndeterminateEquationError("indeterminate equation")
    zero_mult = next(i for i, c in enumerate(cs) if c)
    cs = cs[zero_mult:]
    roots = [(F(0), zero_mult)] if zero_mult else []
    if len(cs) == 1:
        return roots
    den_lcm = math.lcm(*(c.denominator for c in cs))
    poly = _ref_primitive([int(c * den_lcm) for c in cs])
    chain = [poly]
    nxt = _ref_primitive([i * c for i, c in enumerate(poly)][1:])
    while nxt:
        chain.append(nxt)
        nxt = _ref_neg_remainder(chain[-2], chain[-1])
    gcd = chain[-1]
    lead = poly[-1]
    den_powers = [1]
    for _ in range(len(poly) - 1):
        den_powers.append(den_powers[-1] * 2 * lead)

    def squarefree_positive(z):
        point = 2 * z + 1
        return (_ref_homogeneous(poly, point, den_powers) > 0) == (
            _ref_homogeneous(gcd, point, den_powers) > 0
        )

    bound = lead + max(abs(c) for c in poly[:-1])
    found = []
    stack = [(
        -bound - 1,
        bound,
        _ref_sign_changes(chain, -2 * bound - 1, den_powers),
        _ref_sign_changes(chain, 2 * bound + 1, den_powers),
    )]
    while stack:
        lo, hi, changes_lo, changes_hi = stack.pop()
        count = changes_lo - changes_hi
        if count == 0:
            continue
        if count == 1:
            lo_positive = squarefree_positive(lo)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if squarefree_positive(mid) == lo_positive:
                    lo = mid
                else:
                    hi = mid
        elif hi - lo > 1:
            mid = (lo + hi) // 2
            changes_mid = _ref_sign_changes(chain, 2 * mid + 1, den_powers)
            stack.append((lo, mid, changes_lo, changes_mid))
            stack.append((mid, hi, changes_mid, changes_hi))
            continue
        if _ref_homogeneous(poly, 2 * hi, den_powers) == 0:
            found.append(F(hi, lead))

    work = poly
    for root in found:
        den_powers = [root.denominator**i for i in range(len(poly))]
        mult = 0
        while _ref_homogeneous(work, root.numerator, den_powers) == 0:
            work = _ref_deflate(work, root)
            mult += 1
        roots.append((root, mult))
    return sorted(roots)


def _log_poly_add(a, b):
    n = max(len(a), len(b))
    a, b = (list(p) + [ReferencePoly()] * (n - len(p)) for p in (a, b))
    return [x + y for x, y in zip(a, b)]


def _log_poly_mul(a, b):
    out = [ReferencePoly()] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _log_poly_shift_scale(beta, step, factor):
    """factor * beta(t + step), term by term from (t + step)^d."""
    out = [ReferencePoly()] * len(beta)
    for d, c in enumerate(beta):
        for i in range(d + 1):
            scalar = ReferencePoly({(): factor * math.comb(d, i) * F(step) ** (d - i)})
            out[i] = out[i] + c * scalar
    return out


def brute_force_evaluate(terms, series, q, k_max, k_min=None):
    """f(x, y, S y, ...) at y = series, kept on [k_min, k_max].

    `terms` are (coeff, e, ((level, power), ...)) for the monomials
    coeff * x^e * prod (S^level y)^power; `series` is [(k, beta)] with each
    beta a list of ReferencePoly coefficients of t = log_q x, low first.
    Every product is multiplied out in full, with no pruning, and only then
    cut to the window.  Returns {k: beta} with zero coefficients trimmed
    and zero betas dropped.
    """
    total = {}
    for coeff, e, sigma in terms:
        prod = {F(e): [coeff]}
        for level, power in sigma:
            factor = [
                (F(k), _log_poly_shift_scale(beta, level, exact_rational_power(q, level * F(k))))
                for k, beta in series
            ]
            for _ in range(power):
                new = {}
                for k1, b1 in prod.items():
                    for k2, b2 in factor:
                        new[k1 + k2] = _log_poly_add(new.get(k1 + k2, []), _log_poly_mul(b1, b2))
                prod = new
        for k, beta in prod.items():
            total[k] = _log_poly_add(total.get(k, []), beta)
    out = {}
    for k, beta in total.items():
        while beta and not beta[-1].terms:
            beta = beta[:-1]
        if beta and k <= k_max and (k_min is None or k >= k_min):
            out[k] = beta
    return out


def reference_k_lattice(h_support, criticals, r, k_max) -> list:
    """The exponent set K within (r, k_max] by multiset enumeration.

    Each round of the fixed-point loop re-enumerates, for every support
    point (q1, q2) with q2 >= 1, every multiset of q2 known exponents by
    recursion, pruning a partial sum once the summands left, each at
    least the smallest known exponent, would overshoot k_max.
    """
    r = _as_rat(r)
    k_max = _as_rat(k_max)
    seeds = {_as_rat(k) for k in criticals}
    generators = []
    for point in h_support:
        q1, q2 = _as_rat(point[0]), _as_rat(point[1])
        if q2 == 0:
            seeds.add(q1)
        else:
            if q2.denominator != 1:
                raise ValueError(f"non-integer y-degree in support: {point}")
            generators.append((q1, int(q2)))
    pool = sorted(k for k in seeds if r <= k <= k_max)
    known = set(pool)

    def sums(q1: Fraction, d: int, elems: list) -> set:
        if not elems:
            return set()
        low = elems[0]
        found = set()

        def rec(start: int, remaining: int, acc: Fraction):
            if acc + remaining * low > k_max:
                return
            if remaining == 0:
                found.add(acc)
                return
            for j in range(start, len(elems)):
                rec(j, remaining - 1, acc + elems[j])

        rec(0, d, q1)
        return found

    changed = True
    while changed:
        changed = False
        elems = sorted(known)
        for q1, d in generators:
            for k in sums(q1, d, elems):
                if r <= k <= k_max and k not in known:
                    known.add(k)
                    changed = True
    return sorted(k for k in known if k > r)


def random_k_lattice_input(rng: random.Random):
    """Random (support points, criticals, r, k_max) for k_lattice.

    r lies in [-2, 2], denominators are 1-3 and y-degrees 0-3.  A support
    point (q1, q2) with q2 >= 1 keeps q1 + r*(q2 - 1) >= 0, strictly when
    q2 = 1, as check_exponent_order demands of every expansion.  About
    one seed in fifty has denominator 1000003 and one case in a hundred
    carries a float (refused with TypeError).  `monomial_sum` turns the
    support into the sum h that k_lattice takes.
    """

    def den():
        return rng.randint(1, 3)

    def seed():
        d = 1000003 if rng.random() < 0.02 else den()
        return r + F(rng.randint(-d, 4 * d), d)

    d = den()
    r = F(rng.randint(-2 * d, 2 * d), d)
    k_max = r + F(rng.randint(1, 12), 3)
    support = []
    for _ in range(rng.randint(0, 6)):
        q2 = rng.randint(0, 3)
        if q2 == 0:
            support.append((seed(), F(0)))
        else:
            q1 = -r * (q2 - 1) + F(rng.randint(int(q2 == 1), 6), den())
            support.append((q1, F(q2)))
    criticals = [seed() for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.01:
        criticals.append(0.5)
    return support, criticals, r, k_max


def random_linear_part(rng: random.Random, q, k, mu=None):
    """Coefficients of L(s) with q^k planted as a root of multiplicity mu,
    drawn from 0, 1, 2 unless given.

    Returns (coeffs low-first, mu).  Degree stays <= 4.
    """
    if mu is None:
        mu = rng.choice([0, 0, 1, 1, 2])
    w = q_pow(q, k)
    poly = [F(1)]
    for _ in range(mu):
        # multiply by (s - w)
        poly = [F(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= w * poly[i + 1]
    extra = rng.randint(0, 4 - mu)
    for _ in range(extra):
        while True:
            root = F(rng.randint(-4, 4), rng.randint(1, 3))
            if root != w:
                break
        poly = [F(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= root * poly[i + 1]
    scale = F(rng.randint(1, 5), rng.randint(1, 3))
    return [scale * c for c in poly], mu


def random_edge_equation(rng: random.Random):
    """A random equation with a planted truncated solution y = c x^r.

    Two terms are placed on the line q1 + r*q2 = const with coefficients
    chosen to cancel exactly at y = c x^r; every other term lies strictly
    above the line, so the pair is an edge face of the Newton polygon and
    the planted (c, r) solves its truncated equation.  Returns
    (equation, q, c, r, edge endpoints).
    """
    q = rng.choice([F(1, 2), F(1, 4), F(2, 3)])
    r = F(rng.randint(-2, 2))
    if q == F(1, 4) and rng.random() < 0.5:
        r += F(1, 2)
    c = F(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2]))

    def rand_sigma(degree):
        if degree == 0:
            return ()
        levels = sorted(rng.sample(range(3), rng.randint(1, min(2, degree))))
        powers = [1] * len(levels)
        for _ in range(degree - len(levels)):
            powers[rng.randrange(len(levels))] += 1
        return tuple(zip(levels, powers))

    d_a = rng.randint(1, 3)
    while True:
        d_b = rng.randint(0, 3)
        if d_b != d_a:
            break
    sig_a = rand_sigma(d_a)
    sig_b = rand_sigma(d_b)
    e_a = F(rng.randint(0, 3))
    e_b = e_a + r * (d_a - d_b)
    if e_b < 0:
        shift = -e_b
        e_a += shift
        e_b += shift
    w_a = sum(l * d for l, d in sig_a)
    w_b = sum(l * d for l, d in sig_b)
    alpha = F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
    beta = -alpha * q_pow(q, r * (w_a - w_b)) * c ** (d_a - d_b)
    terms = [
        QTerm(ParamPoly.const(alpha), e_a, sig_a),
        QTerm(ParamPoly.const(beta), e_b, sig_b),
    ]
    line_val = e_a + r * d_a
    for _ in range(rng.randint(0, 3)):
        d = rng.randint(0, 3)
        min_e = line_val - r * d
        e = min_e + F(rng.randint(1, 3))
        if e < 0:
            continue
        terms.append(
            QTerm(
                ParamPoly.const(F(rng.randint(1, 4), rng.choice([1, 2]))),
                e,
                rand_sigma(d),
            )
        )
    eq = QPolynomial(terms)
    a_pt = (e_a, F(d_a))
    b_pt = (e_b, F(d_b))
    return eq, q, c, r, (a_pt, b_pt)


# -- like terms merged incrementally: one product and one sum per pair of terms


def _merge_into(out: dict, key, coeff) -> None:
    """out[key] += coeff, one ParamPoly sum per term."""
    out[key] = out[key] + coeff if key in out else coeff


def _reference_sigma(*sigmas) -> tuple:
    """The canonical (level, power) tuple of a product of sigma powers."""
    powers: dict = {}
    for sigma in sigmas:
        for level, power in sigma:
            if not isinstance(level, int) or level < 0:
                raise ValueError("shift levels must be nonnegative integers")
            if not isinstance(power, int) or power < 1:
                raise ValueError("shift powers must be positive integers")
            powers[level] = powers.get(level, 0) + power
    return tuple(sorted(powers.items()))


def _reference_sigma_guard(keys, times: int = 1) -> None:
    for _, sigma in keys:
        for level, power in sigma:
            if level >= _EXP_LIMIT or power * times >= _EXP_LIMIT:
                raise ResourceLimitError("shift level or power of y reaches 2^31")


def _from_merged(out: dict) -> QPolynomial:
    """The QPolynomial of merged {(Fraction x-exponent, sigma): coeff} terms,
    each key holding one QTerm, built by the public constructor."""
    return QPolynomial([QTerm(c, e, sigma) for (e, sigma), c in out.items() if not c.is_zero()])


def _merged(f: QPolynomial) -> dict:
    """f's terms as {(Fraction x-exponent, sigma): coeff}, read from `terms`."""
    return {(t.x_exp, t.sigma_powers): t.coeff for t in f.terms}


def reference_qpolynomial(terms) -> QPolynomial:
    """`QPolynomial(terms)`, each term's coefficient added to its key's one by one."""
    out: dict = {}
    for t in terms:
        key = (_as_rat(t.x_exp), _reference_sigma(t.sigma_powers))
        _merge_into(out, key, ParamPoly.coerce(t.coeff))
    _reference_sigma_guard(out)
    return _from_merged(out)


def reference_add(f: QPolynomial, g: QPolynomial) -> QPolynomial:
    """f + g, g's terms added into a copy of f's one by one."""
    out = _merged(f)
    for key, c in _merged(g).items():
        _merge_into(out, key, c)
    return _from_merged(out)


def reference_mul(f: QPolynomial, g: QPolynomial) -> QPolynomial:
    """f * g, one ParamPoly product and one sum for every pair of terms."""
    out: dict = {}
    for (e1, s1), c1 in _merged(f).items():
        for (e2, s2), c2 in _merged(g).items():
            _merge_into(out, (e1 + e2, _reference_sigma(s1, s2)), c1 * c2)
    return _from_merged(out)


def reference_power(f: QPolynomial, n: int) -> QPolynomial:
    """f**n by repeated squaring through `reference_mul`, refused up front
    when a parameter exponent, shift level or power of y would reach 2^31."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("QPolynomial powers must be nonnegative integers")
    terms = _merged(f)
    over = [name for c in terms.values() for mono, _ in c.items()
            for name, e in mono if e * n >= _EXP_LIMIT]
    if over:
        name = max(over, key=algebra._NAMES.index)  # the top slot, as the kernel names it
        raise ResourceLimitError(f"exponent of {name} reaches 2^31")
    _reference_sigma_guard(terms, n)
    result = reference_qpolynomial([QTerm(ParamPoly.const(1), F(0), ())])
    while n:
        if n & 1:
            result = reference_mul(result, f)
        n >>= 1
        if n:  # square only while bits remain, as `algebra._power` does
            f = reference_mul(f, f)
    return result


def _kernel_mul(a, b) -> ParamPoly:
    """a*b through the general product kernel, a constant factor included."""
    return _sum_products(((ParamPoly.coerce(a), ParamPoly.coerce(b)),))


def _kernel_power(c: ParamPoly, d: int) -> ParamPoly:
    """c^d by repeated squaring, every product through the kernel."""
    result = ParamPoly.const(1)
    while d:
        if d & 1:
            result = _kernel_mul(result, c)
        d >>= 1
        if d:
            c = _kernel_mul(c, c)
    return result


def reference_substitute_shift(f, c, r, q) -> QPolynomial:
    """y = c*x^r + z term by term: each (level, power) factor's binomial
    power built as a QPolynomial, each monomial a chain of `reference_mul`
    products, the results added up one by one, and every scalar product a
    kernel pass.  The first q-power it needs that is irrational, in
    `f.terms` order, is the one it names."""
    q, c, r = check_q(q), ParamPoly.coerce(c), _as_rat(r)
    if c.is_zero():
        return f
    powers, out = {}, QPolynomial()
    for term in f.terms:
        prod = reference_qpolynomial([QTerm(term.coeff, term.x_exp, ())])
        for level, power in term.sigma_powers:
            if (level, power) not in powers:
                lead = _kernel_mul(c, q_pow(q, level * r))
                lead_i, binomial, terms = ParamPoly.const(1), 1, []
                for i in range(power + 1):
                    sigma = ((level, power - i),) if i < power else ()
                    terms.append(QTerm(_kernel_mul(lead_i, binomial), r * i, sigma))
                    if i < power:
                        lead_i = _kernel_mul(lead_i, lead)
                    binomial = binomial * (power - i) // (i + 1)
                powers[level, power] = reference_qpolynomial(terms)
            prod = reference_mul(prod, powers[level, power])
        out = reference_add(out, prod)
    return out


def _reference_collect(terms, key, value) -> dict:
    """{key(t): value(t) summed one term at a time}, zero sums dropped."""
    out: dict = {}
    for t in terms:
        k = key(t)
        out[k] = out[k] + value(t) if k in out else value(t)
    return {k: v for k, v in out.items() if not v.is_zero()}


def _reference_face_poly(coeffs: dict, var: str) -> TPoly:
    if max(coeffs, default=0) >= _EXP_LIMIT:
        raise ResourceLimitError(f"exponent of {var} reaches 2^31")
    return TPoly(coeffs)


def reference_substitute(g, ts) -> dict:
    """g(x, c*x^r) by power of x, each term coeff * c^d * q^(r*w) formed in
    that order on its own, as `truncate._substitute` must agree."""
    c, r, q = ts.c, ts.r, ts.q
    return _reference_collect(
        g.terms, lambda t: t.x_exp + r * y_degree(t),
        lambda t: _kernel_mul(_kernel_mul(t.coeff, _kernel_power(c, y_degree(t))),
                              q_pow(q, r * shift_weight(t))))


def reference_vertex_char_poly(g) -> TPoly:
    """chi(w) of a one-point truncation, its coefficients added term by term."""
    if not g.terms:
        raise EmptySupportError("empty truncation has no characteristic polynomial")
    points = support(g)
    if len(points) != 1:
        raise NotAVertexError(f"terms span {len(points)} exponent points; a vertex has one")
    return _reference_face_poly(
        _reference_collect(g.terms, shift_weight, lambda t: t.coeff), "w")


def reference_determining_poly(g, r, q) -> TPoly:
    """The determining polynomial in c of an edge truncation at slope r,
    each term's coeff * q^(r*w) formed on its own."""
    if not g.terms:
        raise EmptySupportError("empty truncation has no determining polynomial")
    r, q = _as_rat(r), check_q(q)
    powers = {t.x_exp + r * y_degree(t) for t in g.terms}
    if len(powers) != 1:
        raise InconsistentEdgeError(
            f"substitution leaves {len(powers)} distinct x-powers; "
            f"r={rat_str(r)} is not this edge's slope")
    return _reference_face_poly(_reference_collect(
        g.terms, y_degree,
        lambda t: _kernel_mul(t.coeff, q_pow(q, r * shift_weight(t)))), "c")


def verified_solution(f, face, c, r, q) -> TruncatedSolution:
    """The edge-root solution y = c*x^r of f on face at base q, checked to
    solve the face's truncated equation (AssertionError if not, also under
    python -O)."""
    ts = TruncatedSolution(ParamPoly.coerce(c), r, q, face, "edge-root")
    if not verify_truncated(ts, f):
        raise AssertionError(f"({c})*x^({r}) does not solve {f} on {face.label()} at q = {q}")
    return ts


def reference_extract_linear_part(ft):
    """`expand.extract_linear_part` on Fraction points: the terms at (0,1)
    split off through the sorted view, (0,1) looked up in the Fraction
    hull of `support(ft)` and L(s) read from `vertex_char_poly`."""
    if ft.is_zero():
        raise LinearVertexError("the substituted equation is identically zero; nothing to expand")
    linear, rest = [], {}
    for t in ft.terms:
        if t.x_exp == 0 and y_degree(t) == 1:
            linear.append(t)
        else:
            rest[t.x_exp, t.sigma_powers] = t.coeff
    if not linear:
        raise LinearVertexError("no terms at support point (0,1): the linear part is missing")
    if (F(0), F(1)) not in _reference_chain(sorted(support(ft))):
        raise LinearVertexError("support point (0,1) is not a vertex of the Newton polygon")
    # the terms at (0,1) as ft less h: arithmetic keeps a level of 2^31 there,
    # which the constructor refuses
    h = _from_merged(rest)
    coeffs = vertex_char_poly(ft - h).coeffs  # S^l y has weight l
    if varying := [coeff for coeff in coeffs if not coeff.is_constant()]:
        raise LinearCoefficientError(f"coefficient at (0,1) is not constant: {varying[0]}")
    return LinearPart(tuple(c.constant_value() for c in coeffs)), h


def reference_check_exponent_order(h, r) -> None:
    """`expand.check_exponent_order` on Fraction points: every q1 + r*(q2 - 1)
    formed as a Fraction, the least offending point named."""
    r = _as_rat(r)
    late = [(q1, q2, value) for q1, q2 in support(h)
            if (value := q1 + r * (q2 - 1)) < 0 or (value == 0 and q2 <= 1)]
    if late:
        q1, q2, value = min(late)
        raise ExponentOrderError(
            f"support point ({rat_str(q1)},{rat_str(q2)}) breaks the "
            f"exponent ordering for r={rat_str(r)}: q1 + r*(q2-1) = {rat_str(value)}")


def reference_expansion(f, ts, k_max) -> ExpansionResult:
    """The expansion of f around ts up to k_max, with theta_k evaluated afresh.

    The preamble runs on Fraction points (`reference_extract_linear_part`,
    `reference_check_exponent_order`); K is `k_lattice` of h.  Each
    step calls the public `evaluate_on_series` with no carry on the
    partial sum below k and solves with the public
    `solve_poly_difference`, so nothing formed for one k is reused at the
    next.  The degree-bound check of `expand_solution` is left out.
    """
    k_max = _as_rat(k_max)
    q, r = ts.q, ts.r
    ft = substitute_shift(f, ts.c, r, q)
    if not ft.is_zero() and ft.min_x_exponent() > 0:
        ft = ft.shift_x(-ft.min_x_exponent())
    L, h = reference_extract_linear_part(ft)
    reference_check_exponent_order(h, r)
    crit = critical_numbers(L, q, r)
    k_set = k_lattice(h, [k for k, _ in crit.criticals()], r, k_max)
    q_pow(q, F(1, math.lcm(*(k.denominator for k in k_set))))
    namer = constant_namer(ts.c.symbols().union(*(t.coeff.symbols() for t in f.terms)))
    collected, constants, report = [], [], []
    for k in k_set:
        theta = evaluate_on_series(ft, PowerLogSeries(q, collected), k, k).coefficient(k)
        beta, names = solve_poly_difference(L, q, k, theta, namer)
        if names:
            report.append((k, len(names), theta.is_zero()))
        constants.extend((name, k) for name in names)
        collected.append((k, beta))
    return ExpansionResult(
        series=PowerLogSeries(q, collected, base_shift=(ts.c, r)),
        constants_introduced=tuple(constants),
        k_set=tuple(k_set),
        critical_report=tuple(report),
        skipped_irrational=crit.skipped_irrational,
        unresolved=crit.unresolved,
        linear_part=L,
    )


def _reference_poly_json(p: ParamPoly) -> list:
    return [{"coef": rat_str(c), "monomial": dict(mono)} for mono, c in p.sorted_terms()]


def reference_expansion_json(result: ExpansionResult) -> dict:
    """The `expand` document of result, each coefficient a Fraction of a
    ParamPoly's `sorted_terms` written by `rat_str`, each beta read through
    `coeffs` from the highest degree down."""
    c, r = result.series.base_shift
    return {
        "q": rat_str(result.series.q),
        "r": rat_str(r),
        "c": _reference_poly_json(c),
        "terms": [
            {
                "k": rat_str(k),
                "beta": [
                    {"t_power": d, "coeff": _reference_poly_json(coeff)}
                    for d, coeff in reversed(list(enumerate(beta.coeffs)))
                    if not coeff.is_zero()
                ],
            }
            for k, beta in result.series.terms
        ],
        "constants": [name for name, _ in result.constants_introduced],
        "critical": [
            {"k": rat_str(k), "mu": mu, "compatible": ok} for k, mu, ok in result.critical_report
        ],
        "skipped_irrational": [rat_str(s) for s in result.skipped_irrational],
        "unresolved": result.unresolved,
        "log_free": result.log_free,
    }


# -- the equation parser as first written: a token list of dataclasses,
# each factor a QPolynomial, each sum formed by repeated `+` (quadratic in
# the number of terms)

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


_MAX_NESTING = 100


def _reference_constant(value) -> QPolynomial:
    return reference_qpolynomial([QTerm(ParamPoly.coerce(value), F(0), ())])


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
            result = reference_add(result, term if op.kind == "+" else -term)
        return result

    def parse_term(self) -> QPolynomial:
        result = self.parse_factor()
        while self.cur.kind == "*":
            self.advance()
            result = reference_mul(result, self.parse_factor())
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
            if subject == "x":
                atom = reference_qpolynomial([QTerm(ParamPoly.const(1), F(power), ())])
            else:
                atom = reference_power(atom, power)
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
            return _reference_constant(self.parse_rational()), "a constant"
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
            return reference_qpolynomial([QTerm(ParamPoly.const(1), F(1), ())]), "x"
        if name == "y":
            return reference_qpolynomial([QTerm(ParamPoly.const(1), F(0), ((0, 1),))]), "y"
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
            return (
                reference_qpolynomial([QTerm(ParamPoly.const(1), F(0), ((level, 1),))]),
                "a shifted factor",
            )
        if name in self.params:
            return _reference_constant(ParamPoly.symbol(name)), f"parameter {name}"
        raise ParseError(f"undeclared identifier {name!r}", tok.line, tok.col)


def reference_parse_equation(text: str, params=()) -> QPolynomial:
    """`parser.parse_equation` as first written, for comparison."""
    declared = check_params(params)
    return _Parser(tokenize(text), declared).parse_equation()
