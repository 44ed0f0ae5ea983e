"""The fused sum-of-products kernel against schoolbook arithmetic.

`_sum_products` accumulates a whole sum of ParamPoly or TPoly products over
one running denominator; TPoly sums of products, the fused shift-and-scale
and `apply_difference_operator` are built on it.  Each is compared with
the reference polynomials of tests/oracles.py, which use nothing from
qdulac.algebra, and every result must be in the one canonical form.  A
TPoly is one flat store: the t-degree in its keys' field 0, one
denominator for every coefficient.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferencePoly, _log_poly_add, _log_poly_mul, _log_poly_shift_scale
from qdulac import algebra
from qdulac.algebra import ParamPoly, TPoly, _sum_products
from qdulac.errors import ResourceLimitError
from qdulac.expand import LinearPart, apply_difference_operator
from qdulac.qexpr import PowerLogSeries, QPolynomial, QTerm, evaluate_on_series

F = Fraction

NAMES = ("a", "b", "C1")
# 2 | 4 | 8 and 3 | 9, while 2, 3 and 5 are coprime: products of stored
# denominators hit every case of the running denominator
DENS = (1, 2, 3, 4, 5, 8, 9)

monomials = st.lists(
    st.tuples(st.sampled_from(NAMES), st.integers(1, 3)), max_size=2, unique_by=lambda p: p[0]
).map(lambda pairs: tuple(sorted(pairs)))
coefficients = st.builds(F, st.integers(-6, 6), st.sampled_from(DENS))
polys = st.dictionaries(monomials, coefficients, max_size=4).map(ReferencePoly)
log_polys = st.lists(polys, max_size=4)
relaxed = settings(deadline=None)


def param(ref: ReferencePoly) -> ParamPoly:
    return ParamPoly(ref.terms)


def tpoly(refs) -> TPoly:
    return TPoly([param(r) for r in refs])


def reference_sum(pairs) -> ReferencePoly:
    total = ReferencePoly()
    for a, b in pairs:
        total = total + a * b
    return total


def assert_canonical(got: ParamPoly, ref: ReferencePoly):
    """got is ref, stored in the unique form: den > 0, content 1, no zeros."""
    assert got._den > 0
    assert math.gcd(got._den, *got._nums.values()) == 1
    assert all(got._nums.values())
    expected = param(ref)
    assert got == expected and hash(got) == hash(expected)
    assert got.sorted_terms() == ref.sorted_terms()


def assert_tpoly(got: TPoly, refs):
    expected = tpoly(refs)
    assert got == expected and hash(got) == hash(expected)
    assert not got.coeffs or not got.coeffs[-1].is_zero()
    for c, r in zip(got.coeffs, refs):
        assert_canonical(c, r)


@relaxed
@given(st.lists(st.tuples(polys, polys), max_size=5))
def test_kernel_matches_schoolbook(pairs):
    got = _sum_products([(param(a), param(b)) for a, b in pairs])
    assert_canonical(got, reference_sum(pairs))
    naive = sum((param(a) * param(b) for a, b in pairs), ParamPoly.zero())
    assert got == naive


@pytest.mark.parametrize(
    "d1, d2",
    [(4, 4), (2, 8), (8, 2), (3, 5), (6, 9)],
    ids=["equal", "dividing", "divided", "coprime", "common-factor"],
)
def test_kernel_denominators(d1, d2):
    a, b = ReferencePoly.symbol("a"), ReferencePoly.symbol("b")
    x = a / d1 + ReferencePoly({(): F(1, 3)})
    y = b / d2 - a / 7
    cases = [[(x, b)], [(x, b), (y, a)], [(y, a), (x, b)], [(x, y), (y, x), (x, -y)]]
    for pairs in cases:
        got = _sum_products([(param(p), param(r)) for p, r in pairs])
        assert_canonical(got, reference_sum(pairs))
    # terms that cancel leave a result whose content must be divided out
    four = ReferencePoly({(): 4})
    cancel = [(x, a * four), (x, b - a * four), (ReferencePoly({(): F(-1, d2)}), b)]
    assert_canonical(_sum_products([(param(p), param(r)) for p, r in cancel]), reference_sum(cancel))


def test_kernel_zero_operands_and_empty_list():
    zero, a = ParamPoly.zero(), ParamPoly.symbol("a") * F(1, 3)
    assert_canonical(_sum_products([]), ReferencePoly())
    assert_canonical(_sum_products([(zero, a), (a, zero), (zero, zero)]), ReferencePoly())
    assert_canonical(_sum_products([(zero, a), (a, a)]), ReferencePoly.symbol("a") ** 2 / 9)
    assert_canonical(_sum_products([(a, a), (-a, a)]), ReferencePoly())


@relaxed
@given(st.lists(st.tuples(log_polys, log_polys), max_size=4))
def test_tpoly_sum_of_products(pairs):
    expected: list = []
    for a, b in pairs:
        expected = _log_poly_add(expected, _log_poly_mul(a, b))
    got = _sum_products([(tpoly(a), tpoly(b)) for a, b in pairs], TPoly)
    assert_tpoly(got, expected)
    naive = TPoly.zero()
    for a, b in pairs:
        naive = naive + tpoly(a) * tpoly(b)
    assert got == naive


@relaxed
@given(
    log_polys,
    st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 3))),
    st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 5))),
)
def test_shift_fused_with_scale(beta, step, factor):
    got = tpoly(beta).shift(step, factor)
    assert_tpoly(got, _log_poly_shift_scale(beta, step, factor))
    assert got == tpoly(beta).shift(step) * TPoly.const(factor)


@relaxed
@given(
    log_polys,
    st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(any),
    st.sampled_from((F(1, 2), F(2, 3), F(3))),
    st.integers(-2, 3),
)
def test_apply_difference_operator(beta, coeffs, q, k):
    w = q**k
    expected: list = []
    for j, a in enumerate(coeffs):
        expected = _log_poly_add(expected, _log_poly_shift_scale(beta, j, a * w**j))
    got = apply_difference_operator(LinearPart(tuple(coeffs)), q, k, tpoly(beta))
    assert_tpoly(got, expected)


def test_exponent_reaching_limit_raises_through_kernel():
    """A monomial product reaching 2^31 must raise, never wrap into the
    next field; a real raise, so it holds under python -O too."""
    a = ParamPoly.symbol("a")
    half = a ** (2**30)
    top = a ** (2**31 - 1)
    beta = TPoly([1, half])
    with pytest.raises(ResourceLimitError, match="exponent of a reaches 2\\^31"):
        beta * beta
    with pytest.raises(ResourceLimitError):
        _sum_products([(TPoly.const(1), beta), (TPoly.const(half), beta)], TPoly)
    with pytest.raises(ResourceLimitError):
        _sum_products([(top, a)])
    assert _sum_products([(top, ParamPoly.const(2))]) == 2 * top
    series = PowerLogSeries(F(1, 2), [(1, TPoly.const(half))])
    with pytest.raises(ResourceLimitError):
        evaluate_on_series(QPolynomial([QTerm(ParamPoly.const(1), F(0), ((0, 2),))]), series, 2)


@relaxed
@given(log_polys, st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 3))))
def test_one_denominator_whatever_the_route(refs, step):
    """Coefficients over unequal denominators give the one stored form that
    products and shifts reach: equal, and equal hashes."""
    t = TPoly([0, 1])
    formed, power = TPoly.zero(), TPoly.const(1)
    for r in refs:
        formed = formed + power * TPoly.const(param(r))
        power = power * t
    formed = formed.shift(step, 3).shift(-step, F(1, 3))
    got = tpoly(refs)
    assert got == formed and hash(got) == hash(formed)
    assert got._den == math.lcm(*(param(r)._den for r in refs))
    assert math.gcd(got._den, *got._nums.values()) == 1


def test_sparse_tpoly_stores_its_terms_only():
    a = ParamPoly.symbol("a") * F(1, 2)
    beta = TPoly([1] + [0] * 99999 + [a])
    assert len(beta._nums) == 2 and beta.degree() == 100000
    assert beta.terms_by_degree() == [(100000, [((("a", 1),), 1, 2)]), (0, [((), 1, 1)])]
    assert len((beta * beta)._nums) == 3


def test_sparse_tpoly_shifts_only_its_degrees(deadline):
    """A shift expands each stored t-degree binomially and no other: 1 + t^1000
    at step 1 is 2 + sum of comb(1000, i)*t^i over 0 < i <= 1000, in a
    fraction of a second (a row for every degree up to 1000 took 9 s)."""
    with deadline(1):
        got = TPoly({1000: 1, 0: 1}).shift(1)
    want = {0: 2, **{i: math.comb(1000, i) for i in range(1, 1001)}}
    assert got == TPoly(want)
    assert TPoly({3: 1, 1: 2}).shift(F(1, 2), 4) == TPoly(
        [F(9, 2), 11, 6, 4]  # 4*((t + 1/2)^3 + 2*(t + 1/2))
    )


def test_overflow_in_a_later_slot_is_named_through_tpoly():
    a = ParamPoly.symbol("a")
    late = ParamPoly.symbol("z_late")
    assert algebra._NAMES.index("z_late") > algebra._NAMES.index("a")
    beta = TPoly([a, late ** (2**30)])
    with pytest.raises(ResourceLimitError, match="exponent of z_late reaches 2\\^31"):
        beta * beta
    with pytest.raises(ResourceLimitError, match="exponent of z_late reaches 2\\^31"):
        _sum_products([(TPoly.const(a), beta), (beta, beta)], TPoly)


def test_t_degree_never_carries_into_a_parameter():
    """No list holds 2^31 coefficients, so the degrees are set in the store:
    a product whose t-degree reaches 2^31 is refused, never carried into
    the field of the first symbol."""
    ParamPoly.symbol("a")
    first = ParamPoly.symbol(algebra._NAMES[0])
    top = TPoly._canonical({2**31 - 1: 1}, 1)
    assert top.degree() == 2**31 - 1
    with pytest.raises(ResourceLimitError, match="exponent of t reaches 2\\^31"):
        top * TPoly([0, 1])
    with pytest.raises(ResourceLimitError, match="exponent of t reaches 2\\^31"):
        top * top
    product = top * TPoly.const(first)
    assert product.terms_by_degree() == [(2**31 - 1, [(((algebra._NAMES[0], 1),), 1, 1)])]


BIG = 10**59 + 151  # 60 digits
SCALARS = (0, 1, -1, 6, -35, F(-35, 12), F(10, 21), BIG, -BIG, F(BIG, 2**199), F(-1, BIG))


def _scalar_operands():
    a, b = ParamPoly.symbol("a"), ParamPoly.symbol("b")
    yield ParamPoly.zero()
    yield ParamPoly.const(1)
    yield ParamPoly.const(F(-6, 35))
    yield ParamPoly.const(F(BIG, 3**40))
    yield a * F(3, 4) + F(-9, 10)
    yield (a + b * F(1, 6)) * (a + -b) * F(14, 15)
    yield a * F(2**70, BIG) + F(-BIG, 21)


def assert_stored_canonically(p: ParamPoly):
    assert p._den > 0 and all(p._nums.values())
    assert math.gcd(p._den, *p._nums.values()) == 1


@pytest.mark.parametrize("p", list(_scalar_operands()), ids=str)
def test_a_constant_scales_on_either_side(p):
    for s in SCALARS:
        want = _sum_products([(p, ParamPoly.const(s))])  # the kernel's product
        for got in (p * s, s * p, p * ParamPoly.const(s), ParamPoly.const(s) * p):
            assert got == want and hash(got) == hash(want), (p, s)
            assert_stored_canonically(got)


@relaxed
@given(polys, st.integers(-10**60, 10**60), st.integers(1, 10**60))
def test_scaling_matches_the_kernel(ref, num, den):
    p, s = param(ref), F(num, den)
    want = _sum_products([(p, ParamPoly.const(s))])
    for got in (p * s, s * p, ParamPoly.const(s) * p):
        assert got == want
        assert_stored_canonically(got)


def test_a_product_of_two_parametric_polys_keeps_the_kernel():
    a, b = ParamPoly.symbol("a") * F(2, 3) + 1, ParamPoly.symbol("b") + F(-1, 4)
    assert a * b == _sum_products([(a, b)]) == b * a
    with pytest.raises(TypeError):
        a * 1.5
    with pytest.raises(TypeError):
        1.5 * a
