"""Exact polynomial arithmetic, calculus and structure queries."""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nlie.groebner import GREVLEX, spoly
from nlie.poly import ContextMismatch, Polynomial, VarContext, _cleared, context
from nlie.brackets import random_polynomial

XY = context("x", "y")
XYZ = context("x", "y", "z")
X, Y = XY.gens()


def rnd(rng, ctx=XYZ, **kw):
    return random_polynomial(rng, ctx, **kw)


def test_context_basics():
    assert XYZ.nvars == 3
    assert XYZ.index("z") == 2
    assert XYZ.variable("y") == XYZ.gens()[1]
    with pytest.raises(ValueError):
        VarContext(("x", "x"))
    with pytest.raises(KeyError):
        XYZ.index("w")


def test_construction_is_canonical():
    p = X + Y - X
    assert p == Y
    assert p.num_terms() == 1
    assert (X - X).is_zero()
    assert not (X - X).terms


def test_context_mismatch_rejected():
    with pytest.raises(ContextMismatch):
        X + XYZ.variable("x")


def test_scalar_mixing():
    p = 2 * X + 1
    assert p - 1 == 2 * X
    assert p * Fraction(1, 2) == X + Fraction(1, 2)
    assert (p / 2) * 2 == p
    assert 1 - X == -(X - 1)
    with pytest.raises(ZeroDivisionError):
        X / 0


def test_pow():
    p = X + Y
    assert p ** 0 == XY.one()
    assert p ** 3 == p * p * p
    assert (p ** 5).coefficient((2, 3)) == 10
    with pytest.raises(ValueError):
        p ** -1


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (rnd(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * XYZ.one() == a
        assert a + XYZ.zero() == a


def test_degrees_and_coefficients():
    p = X ** 2 * Y + 3 * X - Fraction(1, 4)
    assert p.total_degree() == 3
    assert p.coefficient((1, 0)) == 3
    assert p.coefficient((5, 5)) == 0
    assert XY.zero().total_degree() == -1


def test_partial_product_rule():
    rng = random.Random(11)
    for _ in range(25):
        f, g = rnd(rng), rnd(rng)
        for v in "xyz":
            lhs = (f * g).partial(v)
            assert lhs == f.partial(v) * g + f * g.partial(v)


def test_partial_schwarz():
    rng = random.Random(13)
    for _ in range(25):
        f = rnd(rng, max_degree=4)
        assert f.partial("x").partial("y") == f.partial("y").partial("x")


def test_gradient():
    x, y, z = XYZ.gens()
    grad = (x * y * z).gradient()
    assert grad == (y * z, x * z, x * y)


def test_substitute_composition():
    x, y, z = XYZ.gens()
    f = x ** 2 + y * z
    g = f.substitute({"x": y + z, "y": XYZ.one(), "z": x})
    assert g == (y + z) ** 2 + x
    # unmapped variables carry over by name
    h = f.substitute({"x": 2 * x})
    assert h == 4 * x ** 2 + y * z


def test_substitute_changes_context():
    p = X * Y
    uv = context("u", "v", "w")
    u, v, _ = uv.gens()
    q = p.substitute({"x": u + v, "y": u - v})
    assert q.ctx == uv
    assert q == u ** 2 - v ** 2


def test_substitute_scalar_images():
    p = X ** 2 + 3 * Y
    assert p.substitute({"y": 0}) == X ** 2
    assert p.substitute({"x": 2, "y": Fraction(1, 3)}) == 5


def test_substitute_mixed_contexts_rejected():
    uv = context("u", "v")
    with pytest.raises(ContextMismatch):
        (X * Y).substitute({"x": uv.variable("u"), "y": XYZ.variable("z")})


def test_evaluate():
    p = X ** 2 - Y
    assert p.evaluate([3, 2]) == 7
    assert p.evaluate([Fraction(1, 2), 0]) == Fraction(1, 4)
    q = X ** 2 / 2 - Y / 3
    assert q.evaluate([3, 2]) == Fraction(23, 6)
    assert q.evaluate([Fraction(1, 2), Fraction(2, 3)]) == Fraction(-7, 72)
    with pytest.raises(ValueError):
        p.evaluate([1])


def test_homogeneous_components():
    p = X ** 3 + X * Y + 2 * X + 5
    comps = p.homogeneous_components()
    assert sorted(comps) == [0, 1, 2, 3]
    assert sum(comps.values(), XY.zero()) == p
    assert all(c.is_homogeneous() for c in comps.values())
    assert not p.is_homogeneous()
    assert (X ** 2 + Y ** 2).is_homogeneous()




def test_str_frozen():
    e, f, h = context("e", "f", "h").gens()
    assert str(2 * e * f + Fraction(1, 2) * h ** 2) == "2*e*f + 1/2*h^2"
    assert str(-X + 1) == "-x + 1"
    assert str(XY.zero()) == "0"
    assert str(X - Fraction(3, 4)) == "x - 3/4"


def test_sorted_terms_grevlex():
    p = X + Y ** 2 + X * Y
    monos = [m for m, _ in p.sorted_terms()]
    assert monos == [(1, 1), (0, 2), (1, 0)]


def test_hash_and_dict_keys():
    a = X + Y
    b = Y + X
    assert hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1
    assert a == a + 0 and a != a + 1


def test_equality_with_scalars():
    assert XY.constant(3) == 3
    assert XY.zero() == 0
    assert X != 1
    # equal objects hash alike, so a constant and its value are one key
    assert len({XY.constant(5), 5}) == 1 and len({XY.zero(), 0}) == 1
    assert {5: "a"}.get(XY.constant(5)) == "a"
    assert {Fraction(1, 2): "b"}.get(XY.constant(Fraction(1, 2))) == "b"


# -- the product kernel against sympy --------------------------------------
#
# `__mul__` and `__pow__` pack each operand once (integer numerators over
# its least common denominator d, monomials as ints in bit fields sized by
# the degrees), sum integer products in `poly._int_mul` and divide by
# d_a * d_b once per surviving term; these properties check the values,
# the canonical form and the clearing step.  Exponents up to 40 give
# multi-bit fields and degrees just under a power of two, and the zero
# polynomial (total degree -1) is among the draws.

PROPERTY = settings(max_examples=80, deadline=None)

_fractions = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                       st.sampled_from([1, 1, 2, 3, 4, 6, 9]))


@st.composite
def fraction_polys(draw, ctx):
    """Sparse polynomials (zero included) with mixed denominators."""
    monos = st.tuples(*[st.integers(0, 2) | st.integers(0, 40)] * ctx.nvars)
    return Polynomial(ctx, draw(st.dictionaries(monos, _fractions, max_size=5)))


def _poly_pairs(n):
    ctx = VarContext(tuple(f"x{i}" for i in range(n)))
    return st.tuples(fraction_polys(ctx), fraction_polys(ctx))


_pairs = st.integers(1, 3).flatmap(_poly_pairs)


def _to_sympy(p):
    syms = sympy.symbols(p.ctx.names)
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[s ** e for s, e in zip(syms, mono)])
                for mono, c in p.terms.items()), sympy.Integer(0))


def _assert_canonical(p):
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())


@PROPERTY
@given(_pairs)
def test_mul_matches_sympy(pair):
    a, b = pair
    prod = a * b
    _assert_canonical(prod)
    assert sympy.expand(_to_sympy(a) * _to_sympy(b) - _to_sympy(prod)) == 0


@PROPERTY
@given(_pairs.flatmap(lambda ab: st.tuples(st.just(ab[0]), st.integers(0, 4))))
def test_pow_matches_sympy(case):
    a, k = case
    power = a ** k
    _assert_canonical(power)
    assert sympy.expand(_to_sympy(a) ** k - _to_sympy(power)) == 0


@PROPERTY
@given(_pairs)
def test_mul_cancellation_leaves_no_zero_terms(pair):
    # the cross terms of (a + b)(a - b) cancel inside one product
    a, b = pair
    diff = (a + b) * (a - b)
    _assert_canonical(diff)
    assert diff == a * a - b * b
    assert sympy.expand(_to_sympy(a) ** 2 - _to_sympy(b) ** 2
                        - _to_sympy(diff)) == 0
    assert (a * b - b * a).terms == {}


@PROPERTY
@given(_pairs)
def test_cleared_form_is_least(pair):
    # d is the lcm of the denominators exactly when no prime divides d
    # and every numerator
    terms = pair[0].terms
    d, cleared = _cleared(terms)
    assert [m for m, _ in cleared] == list(terms)
    assert all(type(n) is int and Fraction(n, d) == terms[m] for m, n in cleared)
    assert gcd(d, *(n for _, n in cleared)) == 1


def test_pickle_and_copy_round_trip():
    ctx = context("x", "y", "z")
    x, y, z = ctx.gens()
    p = Fraction(3, 4) * x * x * y - 2 * z + 5
    for q in (p, ctx.zero(), ctx.constant(Fraction(-7, 3))):
        for back in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
            assert back == q and back.ctx == q.ctx and hash(back) == hash(q)
            assert str(back) == str(q)


def test_record_backed_polynomial_pickles_its_terms():
    # a polynomial known by its packed record reduces to its terms, and
    # the copy keeps no record
    ctx = context("x", "y", "z")
    x, y, z = ctx.gens()
    s = spoly(x * x * y - Fraction(1, 3) * z, 2 * x * y * y + y, GREVLEX)
    assert s._packed is not None
    for back in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert back._packed is None and back == s and str(back) == str(s)
