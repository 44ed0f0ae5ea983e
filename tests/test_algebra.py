import math
import random
from fractions import Fraction

import pytest
from oracles import reference_rational_roots

from qdulac.algebra import (
    ParamPoly,
    TPoly,
    parse_rat,
    q_log,
    q_pow,
    rat_str,
    rational_roots,
)
from qdulac.errors import (
    IndeterminateEquationError,
    InvalidQError,
    IrrationalQPowerError,
    QDulacError,
    ReservedSymbolError,
    UnboundSymbolError,
)

F = Fraction


def rand_rat(rng, span=6):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return F(num, den)


def rand_ppoly(rng):
    names = ["a3", "a4", "C1"]
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple(
            sorted(
                (name, rng.randint(1, 2))
                for name in rng.sample(names, rng.randint(0, 2))
            )
        )
        terms[mono] = terms.get(mono, F(0)) + rand_rat(rng)
    return ParamPoly(terms)


def test_param_poly_ring_axioms():
    rng = random.Random(20260815)
    for _ in range(200):
        p, q, r = rand_ppoly(rng), rand_ppoly(rng), rand_ppoly(rng)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + ParamPoly.zero() == p
        assert p * ParamPoly.const(1) == p
        assert p + -p == ParamPoly.zero()


def test_param_poly_evaluate_matches_structure():
    rng = random.Random(7)
    assignment = {"a3": F(2, 3), "a4": F(-1), "C1": F(5, 7)}
    for _ in range(100):
        p, q = rand_ppoly(rng), rand_ppoly(rng)
        assert (p * q).evaluate(assignment) == p.evaluate(assignment) * q.evaluate(
            assignment
        )
        assert (p + q).evaluate(assignment) == p.evaluate(assignment) + q.evaluate(
            assignment
        )


def test_param_poly_evaluate_example():
    # -(2/5)*(8*a3 + C^2) at a3=1, C=2 gives -24/5
    a3 = ParamPoly.symbol("a3")
    C = ParamPoly.symbol("C")
    p = (a3 * 8 + C * C) * F(-2, 5)
    assert p.evaluate({"a3": 1, "C": 2}) == F(-24, 5)


def test_param_poly_unbound_symbol():
    p = ParamPoly.symbol("a3") + 1
    with pytest.raises(UnboundSymbolError):
        p.evaluate({})


def test_param_poly_evaluate_matches_term_sum():
    rng = random.Random(20261019)
    for _ in range(300):
        p = rand_ppoly(rng)
        assignment = {
            name: rng.choice([rng.randint(-3, 3), rand_rat(rng)])
            for name in ("a3", "a4", "C1")
        }
        expected = sum(
            (
                coef * math.prod(F(assignment[name]) ** exp for name, exp in mono)
                for mono, coef in p.items()
            ),
            F(0),
        )
        value = p.evaluate(assignment)
        assert type(value) is F and value == expected, (p, assignment)


def test_param_poly_unbound_symbol_message():
    # z takes the lower slot of the packed key, yet the error names the
    # first unbound symbol of the monomial by name
    z, b = ParamPoly.symbol("unbound_z"), ParamPoly.symbol("unbound_b")
    p = ParamPoly.symbol("a3") + z * b
    with pytest.raises(UnboundSymbolError) as err:
        p.evaluate({"a3": 1})
    assert str(err.value) == "unbound symbol 'unbound_b'"
    with pytest.raises(UnboundSymbolError) as err:
        p.evaluate({"a3": 1, "unbound_b": 2})
    assert str(err.value) == "unbound symbol 'unbound_z'"
    with pytest.raises(TypeError, match="got float"):
        p.evaluate({"a3": 1, "unbound_b": 0.5, "unbound_z": 1})


def test_param_poly_reserved_symbols():
    for bad in ("x", "y", "t"):
        with pytest.raises(ReservedSymbolError):
            ParamPoly.symbol(bad)


def test_param_poly_power_and_substitute():
    C = ParamPoly.symbol("C")
    assert C**0 == ParamPoly.const(1)
    assert C**3 == C * C * C


def test_tpoly_shift_binomial():
    # (t^2): shift by 1 gives t^2 + 2t + 1
    t = TPoly([0, 1])
    p = t * t
    assert p.shift(1) == t * t + t * TPoly.const(2) + TPoly.const(1)
    # shift by a rational step
    assert (t * t).shift(F(1, 2)) == t * t + t + TPoly.const(F(1, 4))
    # shifts compose additively
    rng = random.Random(11)
    for _ in range(50):
        coeffs = [rand_rat(rng) for _ in range(rng.randint(0, 4))]
        p = TPoly(coeffs)
        a, b = rand_rat(rng), rand_rat(rng)
        assert p.shift(a).shift(b) == p.shift(a + b)


def test_tpoly_degree_conventions():
    assert TPoly.zero().degree() == 0
    assert TPoly.zero().is_zero()
    assert TPoly.const(5).degree() == 0
    assert not TPoly.const(5).is_zero()
    assert TPoly([0, 1]).degree() == 1
    assert TPoly([1, 0, 0]).degree() == 0  # trailing zeros stripped


def test_tpoly_arithmetic_consistency():
    rng = random.Random(13)
    point = F(3, 2)
    for _ in range(100):
        p = TPoly([rand_rat(rng) for _ in range(rng.randint(0, 4))])
        q = TPoly([rand_rat(rng) for _ in range(rng.randint(0, 4))])

        def value(tp, at):
            return sum(
                (c.constant_value() * at**i for i, c in enumerate(tp.coeffs)),
                F(0),
            )

        assert value(p * q, point) == value(p, point) * value(q, point)
        assert value(p + q, point) == value(p, point) + value(q, point)
        assert value(p.shift(F(1, 3)), point) == value(p, point + F(1, 3))


def test_rational_roots_examples():
    # 2s^2 - 4s + 3/2 has roots 1/2 and 3/2
    assert rational_roots([F(3, 2), F(-4), F(2)]) == [
        (F(1, 2), 1),
        (F(3, 2), 1),
    ]
    # s^2 + 1 has no rational roots
    assert rational_roots([1, 0, 1]) == []
    # (s - 1)^3 = s^3 - 3s^2 + 3s - 1
    assert rational_roots([-1, 3, -3, 1]) == [(F(1), 3)]
    # zero roots are reported with multiplicity
    assert rational_roots([0, 0, 1]) == [(F(0), 2)]
    # constant nonzero polynomial has no roots
    assert rational_roots([5]) == []


def test_rational_roots_zero_polynomial():
    with pytest.raises(IndeterminateEquationError):
        rational_roots([0, 0])
    with pytest.raises(IndeterminateEquationError):
        rational_roots([])


def test_rational_roots_random_products():
    # build polynomials as products of known linear factors and a rootless part
    rng = random.Random(99)
    for _ in range(100):
        roots = [rand_rat(rng) for _ in range(rng.randint(1, 3))]
        coeffs = [F(1)]
        for r in roots:
            coeffs = [F(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        if rng.random() < 0.5:
            # multiply by s^2 + 1 (no rational roots)
            lifted = [F(0), F(0)] + coeffs
            for i, c in enumerate(coeffs):
                lifted[i] += c
            coeffs = lifted
        found = rational_roots(coeffs)
        expected = {}
        for r in roots:
            expected[r] = expected.get(r, 0) + 1
        assert found == sorted(expected.items())


def test_rational_roots_binomial_against_sturm():
    """s^z*(a + b*s^d) is answered from exact d-th roots; times 2 + s + s^2,
    which has no rational root and keeps a middle term, it goes through the
    p-adic search, which must agree."""
    rng = random.Random(20261019)
    for _ in range(300):
        d = rng.randint(1, 9)
        root = F(rng.randint(1, 12), rng.randint(1, 12))
        sign = rng.choice((1, -1))
        planted = rng.random() < 0.6
        ratio = sign * root**d if planted else rand_rat(rng, 40)
        if ratio == 0:
            continue
        b = F(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
        zeros = [F(0)] * rng.randint(0, 2)
        binomial = zeros + [-ratio * b] + [F(0)] * (d - 1) + [b]
        product = [F(0)] * (len(binomial) + 2)
        for i, c in enumerate(binomial):
            for j, e in enumerate((2, 1, 1)):
                product[i + j] += c * e
        found = rational_roots(binomial)
        assert found == rational_roots(product), (binomial, product)
        if planted:
            expected = [(root, 1)] if sign > 0 else []
            if d % 2 == 0 and sign > 0:
                expected.append((-root, 1))
            elif d % 2:
                expected = [(sign * root, 1)]
            if zeros:
                expected.append((F(0), len(zeros)))
            assert found == sorted(expected), (binomial, found)


def multiply(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def random_root_poly(rng):
    """A binomial, or a product of linear factors (repeated at times) and
    up to two quadratics without rational roots, times s or s^2 at times;
    numerators and denominators have 1 to 30 digits."""
    digits = rng.randint(1, 30)

    def part():
        return rng.randint(1, 10 ** rng.randint(1, digits))

    def rat():
        return F(rng.choice((1, -1)) * part(), part())

    coeffs = [rat()]
    if rng.random() < 0.15:  # s^d - a, a an exact d-th power half the time
        d = rng.randint(1, 6)
        a = rat() ** d if rng.random() < 0.5 else rat()
        coeffs = multiply(coeffs, [-a] + [F(0)] * (d - 1) + [F(1)])
    else:
        roots = []
        for _ in range(rng.randint(1, 4)):
            roots.append(rng.choice(roots) if roots and rng.random() < 0.3 else rat())
        for root in roots:
            coeffs = multiply(coeffs, [-root, F(1)])
        for _ in range(rng.choice((0, 0, 1, 2))):
            a, b = part(), rng.randint(-part(), part())
            if rng.random() < 0.5:  # (s + b)^2 + a^2 > 0
                coeffs = multiply(coeffs, [F(a * a + b * b), F(2 * b), F(1)])
            else:  # roots +-sqrt(a + 1/a), irrational
                coeffs = multiply(coeffs, [F(-(a * a + 1)), F(0), F(a)])
    return [F(0)] * rng.choice((0, 0, 0, 1, 2)) + coeffs


def roots_or_error(coeffs, search):
    try:
        return search(coeffs)
    except QDulacError as exc:
        return type(exc)


def test_rational_roots_against_sturm_reference():
    rng = random.Random(20261020)
    cases = [[], [F(0), F(0)], [F(7)]] + [random_root_poly(rng) for _ in range(250)]
    for coeffs in cases:
        expected = roots_or_error(coeffs, reference_rational_roots)
        assert roots_or_error(coeffs, rational_roots) == expected, coeffs


def test_rational_roots_of_nonzero_terms_match_the_list():
    rng = random.Random(20261020)
    cases = [[], [F(0), F(0)], [F(7)]] + [random_root_poly(rng) for _ in range(250)]
    for coeffs in cases:
        terms = {d: c for d, c in enumerate(coeffs) if c}
        assert roots_or_error(terms, rational_roots) == roots_or_error(coeffs, rational_roots)


def lattice_poly(rng, g):
    """s^low * P(s^g) as a dense list, and the features it has: P is a
    product of linear factors, repeated at times, whose roots are signed
    g-th powers more often than not, and at times u^2 + u + 2, which has
    no real root."""
    roots = []
    for _ in range(rng.randint(1, 3)):
        if roots and rng.random() < 0.3:
            roots.append(rng.choice(roots))
        else:
            base = F(rng.randint(1, 5), rng.randint(1, 5))
            roots.append(rng.choice((1, -1)) * (base**g if rng.random() < 0.6 else base))
    p = [F(rng.randint(1, 9), rng.randint(1, 9))]
    for root in roots:
        p = multiply(p, [-root, F(1)])
    features = {"negative"} if min(roots) < 0 else set()
    if len(set(roots)) < len(roots):
        features.add("repeated")
    if rng.random() < 0.3:
        p = multiply(p, [F(2), F(1), F(1)])
        features.add("irreducible")
    low = rng.choice((0, 0, 1, 2))
    if low:
        features.add("low")
    coeffs = [F(0)] * (low + g * (len(p) - 1) + 1)
    for i, c in enumerate(p):
        coeffs[low + g * i] = c
    return coeffs, features


@pytest.mark.parametrize("g", [2, 3, 4, 6])
def test_rational_roots_on_a_lattice_against_sturm(g):
    """Degrees on the lattice low + g*Z: a negative root u of P gives no
    real root for even g and one for odd g, and a root of multiplicity m
    gives g-th roots of multiplicity m."""
    rng = random.Random(20261021 + g)
    seen = set()
    for _ in range(60):
        coeffs, features = lattice_poly(rng, g)
        expected = reference_rational_roots(coeffs)
        assert rational_roots(coeffs) == expected, coeffs
        assert rational_roots({d: c for d, c in enumerate(coeffs) if c}) == expected, coeffs
        seen |= features
    assert seen == {"negative", "repeated", "irreducible", "low"}


@pytest.mark.parametrize("degree", [-1, F(1), 1.0, True, "1"])
def test_rational_roots_refuses_bad_degrees(degree):
    with pytest.raises(ValueError):
        rational_roots({0: 1, degree: 1})


def test_q_pow_and_q_log_examples():
    assert q_pow(F(1, 4), F(1, 2)) == F(1, 2)
    assert q_pow(4, F(3, 2)) == 8
    assert q_pow(F(8, 27), F(2, 3)) == F(4, 9)
    with pytest.raises(IrrationalQPowerError):
        q_pow(2, F(1, 2))
    with pytest.raises(IrrationalQPowerError):
        q_pow(F(1, 2), F(1, 3))
    assert q_log(F(1, 2), F(1, 2)) == 1
    assert q_log(F(1, 2), 2) == -1
    assert q_log(F(1, 4), F(1, 2)) == F(1, 2)
    assert q_log(2, 3) is None
    assert q_log(2, -4) is None
    assert q_log(F(1, 2), 1) == 0
    assert q_log(4, 8) == F(3, 2)
    assert q_log(F(4, 9), F(8, 27)) == F(3, 2)
    assert q_log(F(2, 3), F(4, 6)) == 1


def test_q_validation():
    with pytest.raises(InvalidQError):
        q_log(1, 2)
    with pytest.raises(InvalidQError):
        q_log(0, 2)
    with pytest.raises(InvalidQError):
        q_log(F(-1, 2), 2)
    with pytest.raises(InvalidQError):
        q_pow(F(-2), 2)


def test_q_log_q_pow_roundtrip():
    rng = random.Random(17)
    qs = [F(1, 2), F(1, 4), F(2, 3), F(3), F(9, 4), F(8, 27)]
    for _ in range(200):
        q = rng.choice(qs)
        k = F(rng.randint(-8, 8), rng.randint(1, 6))
        try:
            w = q_pow(q, k)
        except IrrationalQPowerError:
            continue
        assert q_log(q, w) == k


def test_q_log_denominator_scan():
    # every representable k with denominator <= 64 must round-trip
    q = F(1, 4)
    for den in range(1, 65):
        for num in (-3, -1, 1, 2, 5):
            k = F(num, den)
            try:
                w = q_pow(q, k)
            except IrrationalQPowerError:
                assert 2 * k.numerator % k.denominator != 0
                continue
            assert q_log(q, w) == k


def test_rat_str_and_parse_rat():
    assert rat_str(F(3, 2)) == "3/2"
    assert rat_str(F(-4, 8)) == "-1/2"
    assert rat_str(F(7)) == "7"
    assert rat_str(F(0)) == "0"
    assert parse_rat("3/2") == F(3, 2)
    assert parse_rat("-5") == F(-5)
    assert parse_rat(" 1 / 4 ") == F(1, 4)
    with pytest.raises(ValueError):
        parse_rat("0.5")
    with pytest.raises(ValueError):
        parse_rat("1/0")
    rng = random.Random(23)
    for _ in range(100):
        v = rand_rat(rng, span=40)
        assert parse_rat(rat_str(v)) == v


def test_param_poly_str_forms():
    a3 = ParamPoly.symbol("a3")
    C = ParamPoly.symbol("C")
    assert str(ParamPoly.zero()) == "0"
    assert str(ParamPoly.const(F(-3, 2))) == "-3/2"
    assert str(a3 * 2 + 1) == "1 + 2*a3"
    assert str(-(C**2) * F(2, 5) + a3 * F(-16, 5)) == "-16/5*a3 - 2/5*C^2"


def test_tpoly_str_forms():
    t = TPoly([0, 1])
    a3 = ParamPoly.symbol("a3")
    C1 = ParamPoly.symbol("C1")
    p = t * TPoly.const(a3 * 2) + TPoly.const(C1)
    assert p.to_string() == "2*a3*t + C1"
    assert TPoly.zero().to_string() == "0"
    q = t * TPoly.const(a3 + 1) + TPoly.const(2)
    assert q.to_string() == "(1 + a3)*t + 2"
