"""Jacobian and table brackets plus the identity verifiers.

Both bracket classes evaluate one minor expansion; the property tests at
the end check it against the full determinant `jacobian`, and that
against sympy, so the reference does not share the code it checks.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nlie.brackets import (ArityMismatch, JacobianBracket, ternary_jacobian,
                           jacobian, poly_det, random_homogeneous,
                           random_polynomial, verify_filippov, verify_leibniz,
                           verify_malcev, verify_skew, verify_strong)
from nlie.parser import parse_polynomial
from nlie.poly import Polynomial, VarContext, context
from nlie.structures import (make_elliptic, make_malcev_splittable, make_nlie,
                             make_quadric, make_sl2)


def test_poly_det():
    ctx = context("x", "y")
    x, y = ctx.gens()
    rows = [[x, y], [ctx.one(), x]]
    assert poly_det(rows, ctx) == x ** 2 - y
    assert poly_det([[x]], ctx) == x


def test_jacobian_determinant():
    ctx = context("x", "y")
    x, y = ctx.gens()
    assert jacobian([x ** 2, x * y]) == 2 * x ** 2
    assert jacobian([x + y, x + y]).is_zero()
    with pytest.raises(ValueError):
        jacobian([x])


def test_sl2_generator_brackets():
    spec = make_sl2()
    e, f, h = spec.ctx.gens()
    b = spec.jacobian_bracket()
    assert b(e, f) == h
    assert b(e, h) == -2 * e
    assert b(f, h) == 2 * f
    assert b(spec.casimir, e).is_zero()


def test_elliptic_generator_brackets():
    spec = make_elliptic(alpha=1)
    x, y, z = spec.ctx.gens()
    b = spec.bracket
    assert b(x, y) == z ** 2 - x * y
    assert b(y, z) == x ** 2 - y * z
    assert b(z, x) == y ** 2 - x * z


def test_bracket_is_alternating_and_linear():
    spec = make_quadric(3)
    b = spec.bracket
    rng = random.Random(43)
    fs = [random_polynomial(rng, spec.ctx) for _ in range(3)]
    assert b(fs[0], fs[1], fs[2]) == -b(fs[1], fs[0], fs[2])
    assert b(fs[0], fs[0], fs[2]).is_zero()
    g = random_polynomial(rng, spec.ctx)
    assert b(fs[0] + 2 * g, fs[1], fs[2]) == \
        b(fs[0], fs[1], fs[2]) + 2 * b(g, fs[1], fs[2])


def test_arity_mismatch():
    b = make_sl2().bracket
    e = make_sl2().ctx.variable("e")
    with pytest.raises(ArityMismatch):
        b(e, e, e)


def test_table_agrees_with_jacobian():
    # same bracket along two routes: structure table vs determinant
    spec = make_quadric(2)
    bt = spec.table_bracket()
    bj = spec.jacobian_bracket()
    rng = random.Random(47)
    for _ in range(20):
        fs = [random_polynomial(rng, spec.ctx) for _ in range(2)]
        assert bt(*fs) == bj(*fs)


def test_random_generators():
    rng = random.Random(53)
    ctx = context("x", "y", "z")
    for _ in range(40):
        p = random_polynomial(rng, ctx, max_degree=3, coeff_bound=9)
        assert not p.is_zero()
        assert p.total_degree() <= 3
        assert all(abs(c) <= 9 for c in p.terms.values())
    for d in (1, 2, 3):
        q = random_homogeneous(rng, ctx, d)
        assert q.is_homogeneous() and q.total_degree() == d


@pytest.mark.parametrize("make", [make_sl2, lambda: make_elliptic(1),
                                  lambda: make_quadric(3)])
def test_identities_pass_on_jacobian_brackets(make):
    spec = make()
    b = spec.bracket
    for verify in (verify_skew, verify_leibniz, verify_filippov, verify_strong):
        report = verify(b, trials=12, seed=3)
        assert report.passed, (spec.name, report.identity, report.failures[:1])


def test_filippov_failure_is_detected_and_reported():
    # the split Malcev table satisfies Leibniz + skew but not Filippov
    spec = make_malcev_splittable()
    b = spec.bracket
    assert verify_skew(b, trials=30, seed=5).passed
    assert verify_leibniz(b, trials=30, seed=5).passed
    report = verify_filippov(b, trials=30, seed=5)
    assert not report.passed
    assert report.failure_count > 0
    assert report.failures and "defect" in report.failures[0]
    d = report.to_dict()
    assert d["pass"] is False and d["identity"] == "filippov"


def test_malcev_identity():
    spec = make_malcev_splittable()
    assert verify_malcev(spec.bracket, trials=10, seed=7).passed


def test_ternary_jacobian_constants():
    spec = make_malcev_splittable()
    b = spec.bracket
    v = {n: parse_polynomial(n, spec.ctx) for n in spec.ctx.names}
    J = lambda a, c, d: ternary_jacobian(b, v[a], v[c], v[d])
    assert J("x", "y", "h") == 12 * v["z'"]
    assert J("y", "x", "h") == -12 * v["z'"]
    assert J("z", "x", "h") == 12 * v["y'"]
    assert J("x'", "y", "h").is_zero()
    assert J("y'", "y", "h").is_zero()
    assert J("z'", "y", "h").is_zero()
    assert J("y'", "x", "x'") == -6 * v["y'"]
    assert J("z'", "x", "x'") == -6 * v["z'"]


def test_report_trial_accounting():
    report = verify_skew(make_sl2().bracket, trials=10, seed=1)
    assert report.trials >= 10
    assert report.failure_count == 0 and report.failures == []


# -- property tests against independent references -------------------------

PROPERTY = settings(max_examples=60, deadline=None)

_coeffs = st.integers(-6, 6).filter(bool)


def _ctx(nvars):
    return VarContext(tuple(f"x{i}" for i in range(nvars)))


@st.composite
def polynomials(draw, ctx, max_exp=2, max_terms=4):
    """Sparse nonzero polynomials; about one draw in five is a constant."""
    if draw(st.integers(0, 4)) == 0:
        return ctx.constant(draw(st.integers(-6, 6)))
    monos = st.tuples(*[st.integers(0, max_exp)] * ctx.nvars)
    return Polynomial(ctx, draw(st.dictionaries(monos, _coeffs, min_size=1,
                                                max_size=max_terms)))


def _to_sympy(p, syms):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[s ** e for s, e in zip(syms, mono)])
                for mono, c in p.terms.items()), sympy.Integer(0))


@PROPERTY
@given(st.sampled_from([2, 3]).flatmap(
    lambda n: st.tuples(*[polynomials(_ctx(n + 1))] * (n + 1))))
def test_jacobian_bracket_matches_full_determinant(polys):
    *fs, casimir = polys
    assert JacobianBracket(casimir)(*fs) == jacobian(list(fs) + [casimir])


@PROPERTY
@given(st.integers(1, 3).flatmap(
    lambda nv: st.lists(polynomials(_ctx(nv)), min_size=nv, max_size=nv)))
def test_jacobian_matches_sympy_det(fs):
    syms = sympy.symbols(fs[0].ctx.names)
    exprs = [_to_sympy(f, syms) for f in fs]
    expected = sympy.Matrix([[sympy.diff(e, s) for s in syms]
                             for e in exprs]).det()
    assert sympy.expand(expected - _to_sympy(jacobian(fs), syms)) == 0


@st.composite
def quadratic_forms(draw):
    ctx = _ctx(draw(st.integers(3, 4)))
    n = ctx.nvars
    monos = [tuple(int(k == i) + int(k == j) for k in range(n))
             for i in range(n) for j in range(i, n)]
    terms = draw(st.lists(st.integers(-4, 4), min_size=len(monos),
                          max_size=len(monos)).filter(any))
    return Polynomial(ctx, dict(zip(monos, map(Fraction, terms))))


@PROPERTY
@given(quadratic_forms().flatmap(lambda form: st.tuples(
    st.just(form),
    st.lists(polynomials(form.ctx), min_size=form.ctx.nvars - 1,
             max_size=form.ctx.nvars - 1))))
def test_nlie_table_agrees_with_jacobian_on_random_forms(case):
    form, fs = case
    assert make_nlie(form).table_bracket()(*fs) == JacobianBracket(form)(*fs)
