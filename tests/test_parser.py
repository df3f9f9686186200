"""Expression grammar, error positions and print/parse round trips."""

import random
from fractions import Fraction

import pytest

from nlie.groebner import BudgetExhausted
from nlie.parser import (MAX_POWER_TERMS, ParseError, infer_context,
                         parse_polynomial, tokenize)
from nlie.poly import context
from nlie.brackets import random_polynomial

XY = context("x", "y")
XYZ = context("x", "y", "z")


def parse(src, ctx=XYZ):
    return parse_polynomial(src, ctx)


def test_precedence():
    x, y, z = XYZ.gens()
    assert parse("x + y*z^2") == x + y * z ** 2
    assert parse("(x + y)*z") == (x + y) * z
    assert parse("2*x - 3*y + 1") == 2 * x - 3 * y + 1
    assert parse("2ef", context("e", "f")) == \
        2 * context("e", "f").variable("e") * context("e", "f").variable("f")


def test_unary_minus():
    x, y, _ = XYZ.gens()
    assert parse("-x^2") == -(x ** 2)
    assert parse("--x") == x
    assert parse("-x + y") == y - x
    assert parse("-(x + y)^2") == -((x + y) ** 2)


def test_juxtaposition():
    x, y, _ = XYZ.gens()
    assert parse("3x^2 y") == 3 * x ** 2 * y
    assert parse("2x(x + y)") == 2 * x * (x + y)
    assert parse("x y x") == x ** 2 * y


def test_fractions():
    x = XYZ.variable("x")
    assert parse("1/2") == XYZ.constant(Fraction(1, 2))
    assert parse("3/4*x") == Fraction(3, 4) * x
    with pytest.raises(ParseError):
        parse("1/0")
    with pytest.raises(ParseError):
        parse("x/2")  # division only between integer literals
    with pytest.raises(ParseError):
        parse("(x + 1)/2")


def test_primed_variables():
    ctx = context("x", "x'")
    xp = ctx.variable("x'")
    assert parse_polynomial("2*x'^3", ctx) == 2 * xp ** 3
    with pytest.raises(ParseError):
        tokenize("x''")


def test_unknown_variable_position():
    with pytest.raises(ParseError) as info:
        parse("x + q*y")
    assert info.value.offset == 4
    assert "unknown variable 'q'" in str(info.value)


def test_error_offsets():
    with pytest.raises(ParseError) as info:
        parse("x + $")
    assert info.value.offset == 4
    with pytest.raises(ParseError) as info:
        parse("x +")
    assert info.value.expected  # tells the user what could follow


def test_structural_errors():
    for bad in ["", "(x", "x)", "x ^ y", "* x", "x *", "2 3", "x ^", "()",
                "x^2^1"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_longest_match_tokenizing():
    # a context may contain names that prefix each other
    ctx = context("a", "ab")
    a, ab = ctx.gens()
    assert parse_polynomial("ab + a", ctx) == ab + a


def test_infer_context():
    ctx = infer_context("z*y + x1 - x1^2")
    assert ctx.names == ("x1", "y", "z")


def test_round_trip_random():
    rng = random.Random(23)
    for _ in range(60):
        p = random_polynomial(rng, XYZ, max_degree=4, max_terms=6)
        assert parse(str(p)) == p


def test_round_trip_primed():
    ctx = context("h", "x", "y", "z", "x'", "y'", "z'")
    rng = random.Random(29)
    for _ in range(30):
        p = random_polynomial(rng, ctx, max_degree=3, max_terms=5)
        assert parse_polynomial(str(p), ctx) == p


def test_power_term_bound():
    # (x+y+z)^e has C(e+2, 2) terms: 1,953 for e = 61, 2,016 for e = 62
    assert MAX_POWER_TERMS == 2_000
    assert parse("(x + y + z)^61").num_terms() == 1953
    with pytest.raises(BudgetExhausted, match="offset 12"):
        parse("(x + y + z)^62")
    # the degree bound C(n + d*e, n) caps powers of bases with many terms
    with pytest.raises(BudgetExhausted):
        parse("(x*y + y*z + x*z + x + y + z + 1)^30")
    assert parse("(x - x)^1000000").is_zero()
    assert parse("(2*x)^1000") == XYZ.constant(2 ** 1000) * XYZ.variable("x") ** 1000


def test_product_bits_bound():
    # (x+y)^400 has 401 terms of about 400 bits; the square of it may
    # have 160,801 terms of 814 bits, far over MAX_POWER_BITS
    with pytest.raises(BudgetExhausted, match="product at offset 9"):
        parse("(x+y)^400*(x+y)^400")
    with pytest.raises(BudgetExhausted, match="product at offset 10"):
        parse("(x+y)^400 (x+y)^400")
    assert parse("(x+y)^815*(x+y)").num_terms() == 817
    assert parse("(x+y+z)^61*2").num_terms() == 1953
    assert parse("(x - x)*(x - x)").is_zero()
