"""Independent oracles used by the test suite.

Each function here recomputes a result by a different method than the
library uses, so agreement is meaningful: an all-pairs halfplane hull, a
support scan of a face's normal cone, a dense Gaussian-elimination solve of the polynomial difference operator,
a reference parameter polynomial, a brute-force evaluation of a
q-difference sum on a power-logarithmic series, a recursive multiset
enumerator of the exponent set K, and a generator of random equations
with a planted edge solution.
"""

import math
import random
from fractions import Fraction

from qdulac.algebra import ParamPoly, _as_rat, q_pow
from qdulac.qexpr import QPolynomial, QTerm

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
    """Random (h_support, criticals, r, k_max) for k_lattice.

    r lies in [-2, 2], denominators are 1-3 and y-degrees 0-3.  A support
    point (q1, q2) with q2 >= 1 keeps q1 + r*(q2 - 1) >= 0, strictly when
    q2 = 1, as check_exponent_order demands of every expansion.  About
    one seed in fifty has denominator 1000003, one case in a hundred
    carries a float (refused with TypeError) and one in a hundred a
    non-integer y-degree (ValueError).
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
    if rng.random() < 0.01:
        support.append((F(1), F(rng.randint(1, 5), 2)))
    criticals = [seed() for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.01:
        criticals.append(0.5)
    return support, criticals, r, k_max


def random_linear_part(rng: random.Random, q, k):
    """Coefficients of L(s) with q^k planted as a root of multiplicity mu.

    Returns (coeffs low-first, mu).  Degree stays <= 4.
    """
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
