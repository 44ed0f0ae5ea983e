import random
from fractions import Fraction

import pytest

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
        assert p - p == ParamPoly.zero()


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
    assert str(-(C**2) * F(2, 5) - a3 * F(16, 5)) == "-16/5*a3 - 2/5*C^2"


def test_tpoly_str_forms():
    t = TPoly([0, 1])
    a3 = ParamPoly.symbol("a3")
    C1 = ParamPoly.symbol("C1")
    p = t * TPoly.const(a3 * 2) + TPoly.const(C1)
    assert p.to_string() == "2*a3*t + C1"
    assert TPoly.zero().to_string() == "0"
    q = t * TPoly.const(a3 + 1) + TPoly.const(2)
    assert q.to_string() == "(1 + a3)*t + 2"
