"""The windowed evaluator against a brute-force oracle.

`evaluate_on_series` prunes partial products to the exponents a window
needs and shares them between monomials; `oracles.brute_force_evaluate`
multiplies every product out in full with `ReferencePoly` coefficients and
cuts the window afterwards.  The two share no code.  The evaluator works
on ints over one exponent grid 1/D, so a second set of cases mixes the
denominators 2, 3 and 6 and puts the window bounds off that grid.
"""

import random
from fractions import Fraction

import pytest
from oracles import ReferencePoly, brute_force_evaluate

from qdulac.algebra import ParamPoly, TPoly
from qdulac.errors import IrrationalQPowerError
from qdulac.parser import parse_equation
from qdulac.qexpr import (
    PowerLogSeries,
    QPolynomial,
    QTerm,
    evaluate_on_series,
    substitute_shift,
)

F = Fraction
CASES = 1000
NAMES = ("a", "b")


def _half(rng, lo, hi):
    """A random element of (1/2)Z in [lo, hi]."""
    return F(rng.randint(2 * lo, 2 * hi), 2)


def _half_or_third(rng, lo, hi):
    """A random element of (1/2)Z or of (1/3)Z in [lo, hi]."""
    den = rng.choice((2, 3))
    return F(rng.randint(den * lo, den * hi), den)


def _sixth(rng, lo, hi):
    """A random element of (1/6)Z in [lo, hi]."""
    return F(rng.randint(6 * lo, 6 * hi), 6)


def _off_grid(rng, lo, hi):
    """A random bound in [lo, hi] over 5 or 7, mostly off the grid 1/6."""
    den = rng.choice((5, 7))
    return F(rng.randint(den * lo, den * hi), den)


def _coeff(rng, parametric, nonzero=False):
    """Equal ReferencePoly and ParamPoly values, at most two monomials."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 2)):
            mono = ()
            if parametric and rng.random() < 0.5:
                mono = ((rng.choice(NAMES), rng.randint(1, 2)),)
            terms[mono] = F(rng.randint(-3, 3), rng.randint(1, 2))
        ref = ReferencePoly(terms)
        if ref.terms or not nonzero:
            return ref, ParamPoly(ref.terms)


def _log_poly(rng, parametric):
    """A nonzero log-polynomial of degree 0-2, as both representations."""
    pairs = [_coeff(rng, parametric) for _ in range(rng.randint(1, 3) - 1)]
    pairs.append(_coeff(rng, parametric, nonzero=True))
    return [ref for ref, _ in pairs], TPoly([pp for _, pp in pairs])


def _sigma(rng):
    degree = rng.randint(0, 4)
    powers = {}
    for _ in range(degree):
        level = rng.randint(0, 2)
        powers[level] = powers.get(level, 0) + 1
    return tuple(sorted(powers.items()))


def _case(rng, qs=(F(1, 4), F(4), F(9, 4), F(1, 9)), exps=_half, x_exps=_half, bounds=_half):
    """f, s and a window; q drawn from qs, the series' exponents by `exps`,
    f's x-exponents by `x_exps` and the window bounds by `bounds`."""
    parametric = rng.random() < 0.5
    q = rng.choice(qs)
    ks = sorted({exps(rng, -2, 3) for _ in range(rng.randint(0, 3))})
    series = [(k, _log_poly(rng, parametric)) for k in ks]
    base = None
    if rng.random() < 0.5:
        r = exps(rng, -3, 1) if not ks else ks[0] - exps(rng, 1, 2)
        c_ref, c = _coeff(rng, parametric, nonzero=True)
        base = (c, r)
        ref_series = [(r, [c_ref])] + [(k, ref) for k, (ref, _) in series]
    else:
        ref_series = [(k, ref) for k, (ref, _) in series]
    s = PowerLogSeries(q, [(k, tp) for k, (_, tp) in series], base_shift=base)

    ref_terms, terms = [], []
    for _ in range(rng.randint(1, 3)):
        c_ref, c = _coeff(rng, parametric, nonzero=True)
        e, sigma = x_exps(rng, -2, 2), _sigma(rng)
        ref_terms.append((c_ref, e, sigma))
        terms.append(QTerm(c, e, sigma))
    # merged like terms must agree with the oracle, which keeps them apart
    f = QPolynomial(terms)

    k_max = bounds(rng, -4, 6)
    lowest = ref_series[0][0] if ref_series else F(0)
    k_min = rng.choice(
        [
            None,
            lowest * 4 - 10,
            bounds(rng, -4, 6) if rng.random() < 0.5 else k_max - F(1, 2),
            k_max,
            k_max + bounds(rng, 1, 2),
        ]
    )
    return f, s, k_max, k_min, (ref_terms, ref_series, q)


def _as_reference(series):
    return {
        k: [ReferencePoly(dict(c.items())) for c in beta.coeffs]
        for k, beta in series.terms
    }


def _same(got, want):
    return got.keys() == want.keys() and all(
        len(got[k]) == len(want[k])
        and all(g.terms == w.terms for g, w in zip(got[k], want[k]))
        for k in got
    )


def _check_cases(rng, cases, **draws):
    """The evaluator against the oracle on `cases` drawn cases; how many
    of the windows hold terms."""
    nonempty = 0
    for case in range(cases):
        f, s, k_max, k_min, (ref_terms, ref_series, q) = _case(rng, **draws)
        got = evaluate_on_series(f, s, k_max, k_min)
        assert got.base_shift is None
        want = brute_force_evaluate(ref_terms, ref_series, q, k_max, k_min)
        assert _same(_as_reference(got), want), (case, str(f), str(s), k_max, k_min)
        nonempty += bool(want)
    return nonempty


def test_windowed_evaluation_matches_brute_force():
    # a fifth of the windows start above k_max; most others hold terms
    assert _check_cases(random.Random(1301), CASES) > CASES // 3


def test_mixed_denominators_and_off_grid_windows():
    """Exponents over 2 and 3, x-exponents over 6 and bounds over 5 or 7,
    at a q whose sixth root is rational, so every q^(l*k) is too."""
    cases = 300
    nonempty = _check_cases(
        random.Random(1907),
        cases,
        qs=(F(64), F(1, 729), F(729, 64)),
        exps=_half_or_third,
        x_exps=_sixth,
        bounds=_off_grid,
    )
    assert nonempty > cases // 3


def test_q_powers_refused_only_when_irrational():
    """q^(l*k) must be rational, not q^(1/D) for the grid 1/D: at q = 2,
    S^2 reads q^(2*1/2) = 2 though q^(1/2) and q^(1/6) are irrational."""
    s = PowerLogSeries(2, [(F(1, 2), TPoly.const(3))])
    out = evaluate_on_series(parse_equation("x^(1/3)*S^2(y)"), s, 3)
    assert out.terms == ((F(5, 6), TPoly.const(6)),)
    with pytest.raises(IrrationalQPowerError):
        evaluate_on_series(parse_equation("S(y)"), s, 3)


def _carried_case(rng):
    """f with x-exponents over 2, and a series fed term by term: exponents
    over 2 from -2 on, then often one over 3 above them all, so that the
    grid of the carried calls grows after the first calls.  q's sixth
    root is rational, so every q^(l*k) is too."""
    parametric = rng.random() < 0.5
    q = rng.choice((F(64), F(1, 729), F(729, 64)))
    ks = sorted({_half(rng, -2, 2) for _ in range(rng.randint(1, 4))})
    if rng.random() < 0.6:
        ks.append(ks[-1] + F(rng.choice((1, 2, 4)), 3))
    series = [(k, _log_poly(rng, parametric)) for k in ks]
    ref_series = [(k, ref) for k, (ref, _) in series]
    terms = [(k, tp) for k, (_, tp) in series]
    base = None
    if rng.random() < 0.5:
        c_ref, c = _coeff(rng, parametric, nonzero=True)
        base = (c, ks[0] - _half(rng, 1, 2))
        ref_series.insert(0, (base[1], [c_ref]))
    ref_terms, f_terms = [], []
    for _ in range(rng.randint(1, 3)):
        c_ref, c = _coeff(rng, parametric, nonzero=True)
        e, sigma = _half(rng, -2, 2), _sigma(rng)
        ref_terms.append((c_ref, e, sigma))
        f_terms.append(QTerm(c, e, sigma))
    return QPolynomial(f_terms), q, terms, base, (ref_terms, ref_series)


def test_carried_calls_match_fresh_calls_and_brute_force():
    """Ascending prefixes of one series through one carry per window kind,
    as the expansion feeds them: with k the next exponent, each window
    [k, k], [k, k_max] and (-inf, k] equals a fresh call and the
    brute-force oracle."""
    rng = random.Random(2020)
    cases, nonempty = 100, 0
    for case in range(cases):
        f, q, terms, base, (ref_terms, ref_series) = _carried_case(rng)
        k_max = terms[-1][0] + 2
        carries = ({}, {}, {})
        for n in range(len(terms) + 1):
            s = PowerLogSeries(q, terms[:n], base_shift=base)
            k = terms[n][0] if n < len(terms) else k_max
            want = brute_force_evaluate(ref_terms, ref_series[: len(s.all_terms)], q, k_max)
            for carry, (lo, hi) in zip(carries, ((k, k), (k, k_max), (None, k))):
                got = evaluate_on_series(f, s, hi, lo, carry)
                fresh = evaluate_on_series(f, s, hi, lo)
                assert got.terms == fresh.terms, (case, n, str(f), str(s), lo, hi)
                cut = {kk: b for kk, b in want.items() if kk <= hi and (lo is None or kk >= lo)}
                assert _same(_as_reference(got), cut), (case, n, str(f), str(s), lo, hi)
                nonempty += bool(cut)
    assert nonempty > cases


def test_carry_refuses_a_call_it_does_not_match():
    """A carry serves one f object, one q and a series that extends the
    terms it has seen; anything else is a ValueError, and the carry still
    serves the matching call afterwards."""
    f = parse_equation("y^2*S(y) + x*S^2(y)")
    one, two, three = TPoly.const(1), TPoly([2, 1]), TPoly.const(3)
    s = PowerLogSeries(F(1, 64), [(1, one), (F(3, 2), two)])
    carry = {}
    evaluate_on_series(f, s, 4, 4, carry)
    refused = [
        (QPolynomial(f.terms), s),  # an equal f, but another object
        (f, PowerLogSeries(F(64), [(1, one), (F(3, 2), two)])),  # another q
        (f, PowerLogSeries(F(1, 64), [(1, one), (F(3, 2), three)])),  # a changed term
        (f, PowerLogSeries(F(1, 64), [(1, one), (F(5, 4), three), (F(3, 2), two)])),  # a term below the top
        (f, PowerLogSeries(F(1, 64), [(1, one)])),  # a term dropped
        (f, PowerLogSeries(F(1, 64), [(1, one), (F(3, 2), two)], base_shift=(1, 0))),  # a base pair
    ]
    for other_f, other_s in refused:
        with pytest.raises(ValueError, match="carry"):
            evaluate_on_series(other_f, other_s, 4, 4, carry)
    longer = PowerLogSeries(F(1, 64), [(1, one), (F(3, 2), two), (F(7, 3), three)])
    assert evaluate_on_series(f, longer, 5, None, carry).terms == evaluate_on_series(f, longer, 5).terms


def test_carry_survives_a_refused_q_power():
    """A term whose q-power is irrational is refused before the carry
    changes, so the carry still serves a series without it."""
    f = parse_equation("y*S(y)")
    one = TPoly.const(1)
    carry = {}
    evaluate_on_series(f, PowerLogSeries(2, [(1, one)]), 3, 3, carry)
    with pytest.raises(IrrationalQPowerError):
        evaluate_on_series(f, PowerLogSeries(2, [(1, one), (F(3, 2), one)]), 4, 4, carry)
    s = PowerLogSeries(2, [(1, one), (2, one)])
    assert evaluate_on_series(f, s, 4, None, carry).terms == evaluate_on_series(f, s, 4).terms


def test_square_nodes_match_brute_force():
    """y^2, S(y)^2 and S^2(y)^2 each hang from the root by one shifted
    series squared, formed from the pairs k2 >= k1 alone: k2 from
    max(start - k1, k1) on, the diagonal once and every other pair through
    2*b1.  y^2*S(y) hangs below the node y^2, and the squares and that
    inner node keep their final coefficients in the carry, so a carried
    call forms them only from above the kept ones.  Carried calls at every
    k, in windows whose start falls between sums of the series' exponents,
    equal fresh calls and the brute-force oracle; so do fresh calls on the
    whole series from every start on a quarter grid."""
    q = F(1, 4)

    def coeff(terms):
        return ReferencePoly(terms), ParamPoly(terms)

    a, b = (("a", 1),), (("b", 1),)
    c_ref, c = coeff({(): 2, a: F(-1, 3)})
    betas = [  # (k, [coefficient of t^i, ...]) with gaps between the k
        (F(1), [coeff({a: 1}), coeff({(): 1})]),
        (F(3, 2), [coeff({(): F(-1, 2)})]),
        (F(5, 2), [coeff({b: 1}), coeff({}), coeff({(): 3, a: 1})]),
        (F(4), [coeff({(): 1, b: F(5, 7)})]),
    ]
    terms = [(k, TPoly([pp for _, pp in cs])) for k, cs in betas]
    ref_series = [(F(1, 2), [c_ref])] + [(k, [ref for ref, _ in cs]) for k, cs in betas]
    ref_terms = [
        (coeff({(): 1})[0], F(0), ((0, 2),)),
        (coeff({(): -2})[0], F(0), ((1, 2),)),
        (coeff({(): F(3, 2)})[0], F(0), ((2, 2),)),
        (coeff({a: 1})[0], F(1, 2), ((0, 2),)),
        (coeff({b: -1})[0], F(1), ((0, 2), (1, 1))),
    ]
    f = QPolynomial([QTerm(ParamPoly(dict(ref.terms)), e, sigma) for ref, e, sigma in ref_terms])
    k_max = F(9)

    full = [brute_force_evaluate(ref_terms, ref_series[:n], q, k_max + 3) for n in range(6)]

    def check(s, lo, hi, carry=None):
        got = evaluate_on_series(f, s, hi, lo, carry)
        assert got.terms == evaluate_on_series(f, s, hi, lo).terms, (str(s), lo, hi)
        want = {kk: b for kk, b in full[len(s.all_terms)].items()
                if kk <= hi and (lo is None or kk >= lo)}
        assert _same(_as_reference(got), want), (str(s), lo, hi)
        return bool(want)

    kinds = [
        lambda k: (k, k),
        lambda k: (k - F(1, 2), k + 1),
        lambda k: (k + F(1, 2), k_max),
        lambda k: (k + F(3, 4), k + F(5, 2)),
        lambda k: (None, k),
    ]
    carries, nonempty = [{} for _ in kinds], 0
    for n in range(len(terms) + 1):
        s = PowerLogSeries(q, terms[:n], base_shift=(c, F(1, 2)))
        k = terms[n][0] if n < len(terms) else k_max
        for carry, kind in zip(carries, kinds):
            nonempty += check(s, *kind(k), carry)
    whole = PowerLogSeries(q, terms, base_shift=(c, F(1, 2)))
    for start in range(-4, 4 * int(k_max) + 1):
        nonempty += check(whole, F(start, 4), k_max)
    assert nonempty > 40


def test_horner_nodes_with_inner_coefficients():
    """The Horner nesting on deep-log's equation shape
    a*x*y^3 + b*x^2*y^3 + y^2*S^2(y) + y*S(y)^2, and on its shift
    y = (2 + a) + y, which puts a coefficient C_n at every inner node of the
    tree (y, y^2, y*S(y), ...), on a series with terms below 0, so that
    the windows of deeper nodes reach higher.  Carried calls at every k,
    in the windows [k, k], [k, k_max] and (-inf, k], equal fresh calls and
    the brute-force oracle."""
    q = F(1, 16)  # q^(l*k) rational on the quarter grid
    a, b = (("a", 1),), (("b", 1),)

    def coeff(terms):
        return ReferencePoly(terms), ParamPoly(terms)

    betas = [  # (k, [coefficient of t^i, ...]), the first two below 0
        (F(-1, 2), [coeff({a: 1}), coeff({(): F(1, 3)})]),
        (F(-1, 4), [coeff({(): 2, b: -1})]),
        (F(1, 2), [coeff({(): F(-1, 2)}), coeff({}), coeff({a: 1, b: 1})]),
        (F(3, 2), [coeff({b: F(5, 7)})]),
        (F(9, 4), [coeff({(): 1}), coeff({a: -2})]),
    ]
    terms = [(k, TPoly([pp for _, pp in cs])) for k, cs in betas]
    ref_series = [(k, [ref for ref, _ in cs]) for k, cs in betas]
    shape = parse_equation("a*x*y^3 + b*x^2*y^3 + y^2*S^2(y) + y*S(y)^2", ["a", "b"])
    k_max, nonempty = F(3), 0
    for f in (shape, substitute_shift(shape, ParamPoly({(): 2, a: 1}), 0, q)):
        ref_terms = [(ReferencePoly(dict(t.coeff.items())), t.x_exp, t.sigma_powers)
                     for t in f.terms]
        carries = ({}, {}, {})
        for n in range(len(terms) + 1):
            s = PowerLogSeries(q, terms[:n])
            k = terms[n][0] if n < len(terms) else k_max
            want = brute_force_evaluate(ref_terms, ref_series[:n], q, k_max)
            for carry, (lo, hi) in zip(carries, ((k, k), (k, k_max), (None, k))):
                got = evaluate_on_series(f, s, hi, lo, carry)
                assert got.terms == evaluate_on_series(f, s, hi, lo).terms, (str(f), n, lo, hi)
                cut = {kk: b for kk, b in want.items() if kk <= hi and (lo is None or kk >= lo)}
                assert _same(_as_reference(got), cut), (str(f), n, lo, hi)
                nonempty += bool(cut)
    assert nonempty > 20
