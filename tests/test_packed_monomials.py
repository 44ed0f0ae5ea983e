"""ParamPoly's packed monomial keys against an independent reference.

Each case runs on an empty symbol registry, so the slots are handed out
in the order the case first names its symbols; the process registry is
restored afterwards.  Names come from a fixed pool, because every name
the process registers widens every later key.
"""

import contextlib
import random
from fractions import Fraction

import pytest

from oracles import ReferencePoly
from qdulac import algebra
from qdulac.algebra import ParamPoly
from qdulac.errors import ResourceLimitError

F = Fraction

POOL = ("a", "b", "a3", "a4", "C1", "z")
LIMIT = 2**31


@contextlib.contextmanager
def fresh_registry():
    saved = algebra._NAMES, algebra._guard
    algebra._NAMES, algebra._guard = [], 0
    try:
        yield
    finally:
        algebra._NAMES, algebra._guard = saved


def rand_pair(rng, names):
    """One random polynomial over `names`, built in both representations."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        picked = rng.sample(names, rng.randint(0, min(3, len(names))))
        mono = tuple(sorted((name, rng.randint(1, 3)) for name in picked))
        terms[mono] = terms.get(mono, 0) + F(rng.randint(-5, 5), rng.randint(1, 4))
    return ParamPoly(terms), ReferencePoly(terms)


def assert_same(got, ref, what):
    assert got.sorted_terms() == ref.sorted_terms(), what
    assert str(got) == str(ref), what
    assert got == ParamPoly(ref.terms), what
    assert got.symbols() == {n for mono in ref.terms for n, _ in mono}, what


def step(rng, acc, names):
    """acc (op) a fresh operand over `names`, in both representations."""
    (p, r), (q, s) = acc, rand_pair(rng, names)
    op = rng.choice(("+", "-", "*", "*", "**", "/"))
    if op == "+":
        return op, (p + q, r + s)
    if op == "-":
        return op, (p + -q, r - s)
    if op == "*":
        return op, (p * q, r * s)
    if op == "**":
        n = rng.randint(0, 3)
        return op, (p**n, r**n)
    scalar = F(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
    return op, (p * (1 / scalar), r / scalar)


def test_differential_against_reference():
    rng = random.Random(20261018)
    for case in range(2000):
        order = rng.sample(POOL, len(POOL))
        cut = rng.randint(1, len(POOL) - 1)
        early, late = order[:cut], order[cut]
        with fresh_registry():
            for name in early:
                ParamPoly.symbol(name)
            acc = rand_pair(rng, early)
            for _ in range(rng.randint(1, 3)):
                op, acc = step(rng, acc, early)
                assert_same(*acc, (case, op))
            # `late` gets its slot only now, as C1 does mid-expansion
            op, acc = step(rng, acc, early + [late])
            assert_same(*acc, (case, "late", op))
            assert algebra._NAMES[:cut] == early


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_exponent_field_edges(slot):
    with fresh_registry():
        for name in POOL[:3]:
            ParamPoly.symbol(name)
        name = POOL[slot]
        a = ParamPoly.symbol(name)
        top = a ** (LIMIT - 1)
        assert top.sorted_terms() == [(((name, LIMIT - 1),), 1)]
        other = ParamPoly.symbol(POOL[slot - 1])
        assert (top * other).sorted_terms() == [
            (tuple(sorted([(name, LIMIT - 1), (POOL[slot - 1], 1)])), 1)
        ]
        assert ParamPoly({((name, LIMIT - 1),): 1}) == top
        with pytest.raises(ResourceLimitError, match=f"exponent of {name} "):
            a**LIMIT
        half = a ** (2**30)
        with pytest.raises(ResourceLimitError):
            half * half
        with pytest.raises(ResourceLimitError):  # only the last product overflows
            (1 + half) * (other + half)
        with pytest.raises(ResourceLimitError):
            top * a
        with pytest.raises(ResourceLimitError):
            ParamPoly({((name, LIMIT),): 1})


def test_constructor_refuses_repeated_symbol():
    with pytest.raises(ValueError, match="repeats"):
        ParamPoly({(("a", 1), ("a", 2)): 1})
