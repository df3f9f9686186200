"""Roots, closedness, rank tools, center probes and ideal saturation."""

import dataclasses
import itertools
import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlie import analysis, poly
from nlie.analysis import (NotHomogeneous, center_membership,
                           center_membership_jacobian, center_membership_table,
                           center_probe, is_closed_homogeneous, kth_root,
                           minimal_root_homogeneous, rational_nullspace,
                           saturate_poisson_ideal)
from nlie.brackets import JacobianBracket, random_homogeneous, random_polynomial
from nlie.groebner import GREVLEX
from nlie.parser import parse_polynomial
from nlie.poly import Polynomial, VarContext, context
from nlie.quotient import QuotientContext
from nlie.structures import (make_elliptic, make_malcev_abg,
                             make_malcev_canonical, make_malcev_splittable,
                             make_nlie, make_nlie_diagonal, make_quadric,
                             make_sl2)

XY = context("x", "y")
XYZ = context("x", "y", "z")


def pp(src, ctx=XYZ):
    return parse_polynomial(src, ctx)


# -- k-th roots and closedness ----------------------------------------


def test_root_simple():
    res = kth_root(pp("x^2 + 2*x*y + y^2"), 2)
    assert res.found and res.root == pp("x + y") and res.alpha == 1


def test_root_scaled_and_monic():
    res = kth_root(pp("8*x^3 + 36*x^2*y + 54*x*y^2 + 27*y^3"), 3)
    assert res.found
    assert res.root == pp("x + 3/2*y")  # normalized monic in the lead variable
    assert res.alpha == 8
    assert res.alpha * res.root ** 3 == pp("8*x^3 + 36*x^2*y + 54*x*y^2 + 27*y^3")


def test_root_needs_shear():
    # x^2*y^2 has no variable with a pure top power
    res = kth_root(pp("x^2*y^2", XY), 2)
    assert res.found and res.root == pp("x*y", XY)


def test_root_absent():
    assert not kth_root(pp("x^2 + y^2"), 2).found
    res = kth_root(pp("x^2 + x*y"), 2)
    assert not res.found and res.reason


def test_root_argument_validation():
    with pytest.raises(NotHomogeneous):
        kth_root(pp("x^2 + y"), 2)
    with pytest.raises(ValueError):
        kth_root(pp("x^2"), 0)
    res = kth_root(pp("x^3"), 2)
    assert not res.found and "not divisible" in res.reason


def test_root_planted_random():
    rng = random.Random(71)
    for _ in range(40):
        nv = rng.choice([2, 3, 4])
        ctx = context(*[f"x{i}" for i in range(1, nv + 1)])
        k = rng.choice([2, 3, 4])
        c = random_homogeneous(rng, ctx, rng.choice([1, 2, 3]), max_terms=3)
        alpha = Fraction(rng.choice([1, 2, -3, 5]), rng.choice([1, 2]))
        res = kth_root(alpha * c ** k, k)
        assert res.found
        assert res.alpha * res.root ** k == alpha * c ** k


def test_closedness():
    assert is_closed_homogeneous(pp("x^2 + y^2")).closed
    rep = is_closed_homogeneous(pp("(x + y)^6"))
    assert not rep.closed
    assert rep.witness_k == 6 and rep.witness_root == pp("x + y")
    # built-in Casimirs are closed
    assert is_closed_homogeneous(make_sl2().casimir).closed
    assert is_closed_homogeneous(make_elliptic(1).casimir).closed
    assert is_closed_homogeneous(make_quadric(3).casimir).closed


def test_minimal_root():
    mr = minimal_root_homogeneous(pp("x^4 + 2*x^2*y^2 + y^4"))
    assert mr.k == 2 and mr.root == pp("x^2 + y^2") and not mr.was_closed
    assert is_closed_homogeneous(mr.root).closed
    mr2 = minimal_root_homogeneous(pp("2*x*y + y^2"))
    assert mr2.k == 1 and mr2.was_closed
    assert mr2.alpha * mr2.root == pp("2*x*y + y^2")


def test_minimal_root_random_invariant():
    rng = random.Random(73)
    for _ in range(25):
        c = random_homogeneous(rng, XY, rng.choice([1, 2]), max_terms=2)
        k = rng.choice([1, 2, 3])
        f = c ** k
        mr = minimal_root_homogeneous(f)
        assert mr.alpha * mr.root ** mr.k == f
        assert is_closed_homogeneous(mr.root).closed


@st.composite
def factored_forms(draw):
    """Products of powers of small homogeneous forms in 2 or 3 variables.

    Two thirds of them lose every pure top power, so kth_root must
    shear: either every variable is a factor, or x0*x1 and x1 - t*x0 for
    t = 1, 2, 3 are, so that C(1, t, ...) vanishes at t = 0..3 and the
    shear scan has to go past those grid points.
    """
    n = draw(st.integers(2, 3))
    ctx = VarContext(tuple(f"x{i}" for i in range(n)))
    c = ctx.one()
    for _ in range(draw(st.integers(1, 2))):
        degree = draw(st.integers(1, 2))
        monos = [m for m in itertools.product(range(degree + 1), repeat=n)
                 if sum(m) == degree]
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos),
                               max_size=len(monos)).filter(any))
        c = c * Polynomial(ctx, dict(zip(monos, coeffs))) ** draw(st.integers(1, 3))
    x0, x1 = ctx.gens()[:2]
    shape = draw(st.sampled_from(["plain", "all-variables", "grid-zeros"]))
    if shape == "all-variables":
        for v in ctx.gens():
            c = c * v
    elif shape == "grid-zeros":
        c = c * x0 * x1 * (x1 - x0) * (x1 - 2 * x0) * (x1 - 3 * x0)
    return c


def _multiplicity_gcd(c):
    syms = sympy.symbols(c.ctx.names)
    expr = sum((sympy.Rational(q.numerator, q.denominator)
                * sympy.Mul(*[s ** e for s, e in zip(syms, mono)])
                for mono, q in c.terms.items()), sympy.Integer(0))
    _, factors = sympy.factor_list(expr, *syms)
    return reduce(gcd, (m for _, m in factors), 0)


ROOT_PROPERTY = settings(max_examples=40, deadline=None)


@ROOT_PROPERTY
@given(factored_forms(), st.integers(1, 3),
       st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)))
def test_kth_root_rebuilds_planted_power(c, k, alpha):
    target = alpha * c ** k
    res = kth_root(target, k)
    assert res.found
    assert res.alpha * res.root ** k == target


@ROOT_PROPERTY
@given(factored_forms(), st.integers(1, 4))
def test_kth_root_found_iff_k_divides_multiplicities(c, k):
    assert kth_root(c, k).found == (_multiplicity_gcd(c) % k == 0)


@ROOT_PROPERTY
@given(factored_forms())
def test_closedness_matches_factor_list(c):
    assert is_closed_homogeneous(c).closed == (_multiplicity_gcd(c) == 1)


@ROOT_PROPERTY
@given(factored_forms(), st.integers(1, 3))
def test_minimal_root_k_is_multiplicity_gcd(c, e):
    # the planted power e lets the gcd have two prime factors, as 6 does
    mr = minimal_root_homogeneous(c ** e)
    assert mr.k == e * _multiplicity_gcd(c)
    assert mr.alpha * mr.root ** mr.k == c ** e
    assert is_closed_homogeneous(mr.root).closed


# (input, context, k) with what kth_root(C, k), minimal_root_homogeneous
# and is_closed_homogeneous return, recorded from the divisor-by-divisor
# search that prime peeling replaced.  The roots are monic in the first
# variable with a pure top power, or equal to 1 at the shear point when
# there is none (the square of the no-pure-power form, and the fourth
# power of x^2*y + y^2*z + z^2*x), and alpha takes the rest.
NO_PURE_POWER = "x*y*(y-x)*(y-2*x)*(y-3*x)*(x-2*y)*(x-3*y)"
SHEARED_ROOT = ("-1/308*x^6*y + 41/1848*x^5*y^2 - 97/1848*x^4*y^3"
                " + 97/1848*x^3*y^4 - 41/1848*x^2*y^5 + 1/308*x*y^6")
ROOT_PINS = [
    ("(2*x - y + 3*z)^2", XYZ, 2, ("x - 1/2*y + 3/2*z", "4")),
    (f"({NO_PURE_POWER})^2", XY, 2, (SHEARED_ROOT, "3415104")),
    ("(x^5*y + y^6 - 2*z^6 + x*y*z^4)^2", XYZ, 2,
     ("x^5*y + y^6 + x*y*z^4 - 2*z^6", "1")),
    ("-(x*y^3 + 2*y*z^3 - z^4)^3", XYZ, 3, ("-x*y^3 - 2*y*z^3 + z^4", "1")),
    ("3*(x^2*y + y^2*z + z^2*x)^4", XYZ, 4,
     ("1/3*x^2*y + 1/3*y^2*z + 1/3*x*z^2", "243")),
    ("1/5*(x^2 - 3*y^2 + x*z)^6", XYZ, 6, ("x^2 - 3*y^2 + x*z", "1/5")),
    ("-7/3*(x + y)^4*(x - z)^4", XYZ, 4, ("x^2 + x*y - x*z - y*z", "-7/3")),
    ("x^3 + y^3 + z^3 - 3*x*y*z", XYZ, 3, None),
]


@pytest.mark.parametrize("src, ctx, k, want", ROOT_PINS)
def test_root_family_normalisation_is_pinned(src, ctx, k, want):
    c = pp(src, ctx)
    res, mr, rep = kth_root(c, k), minimal_root_homogeneous(c), is_closed_homogeneous(c)
    if want is None:
        assert (res.root, res.alpha) == (None, None)
        assert res.reason == f"forced candidate fails verification for k={k}"
        assert (str(mr.root), str(mr.alpha), mr.k) == ("x^3 + y^3 - 3*x*y*z + z^3", "1", 1)
        assert (rep.closed, rep.witness_k, rep.witness_root) == (True, None, None)
        return
    root, alpha = want
    assert (str(res.root), str(res.alpha), res.reason) == (root, alpha, "")
    assert (str(mr.root), str(mr.alpha), mr.k) == (root, alpha, k)
    assert (rep.closed, rep.witness_k, str(rep.witness_root)) == (False, k, root)


def test_candidate_agreeing_at_ones_gets_the_full_check(monkeypatch):
    # x + y is the forced square-root candidate; it and C are 2 and 4 at
    # (1, 1, 1), so only the exact check alpha * c^k == C rejects it
    calls = []
    real = analysis._int_pow
    monkeypatch.setattr(analysis, "_int_pow",
                        lambda items, k: calls.append(k) or real(items, k))
    res = kth_root(pp("(x + y)^2 + y^2 - z^2"), 2)
    assert (res.root, res.alpha) == (None, None)
    assert res.reason == "forced candidate fails verification for k=2"
    assert calls == [2]


def test_candidate_rejected_at_ones_forms_no_power(monkeypatch):
    # c(1, 1, 1) = -1, so C(1, 1, 1) = -alpha while alpha * r(1, 1, 1)^2
    # has the sign of alpha or is 0: the point rejects every candidate
    c = pp("x^2 + y^2 - 3*x*z")
    target = Fraction(-5, 2) * c ** 3

    def boom(items, k):
        raise AssertionError("a rejected candidate formed a power")

    monkeypatch.setattr(analysis, "_int_pow", boom)
    monkeypatch.setattr(poly, "_int_pow", boom)
    res = kth_root(target, 2)
    assert not res.found
    assert res.reason == "forced candidate fails verification for k=2"


# -- exact linear algebra ----------------------------------------------


def test_rational_nullspace():
    rows = [[1, 2, 3], [2, 4, 6]]
    basis = rational_nullspace([{c: Fraction(v) for c, v in enumerate(r)}
                                for r in rows], 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(a * b for a, b in zip(rows[0], vec)) == 0
    full = rational_nullspace([{0: Fraction(1), 1: Fraction(0)},
                               {0: Fraction(0), 1: Fraction(1)}], 2)
    assert full == []


# -- centers ------------------------------------------------------------


def test_center_membership_jacobian():
    spec = make_sl2()
    b = spec.jacobian_bracket()
    ok, _ = center_membership(b, spec.casimir)
    assert ok
    ok, witnesses = center_membership(b, spec.ctx.variable("e"))
    assert not ok and witnesses


def test_center_membership_table():
    spec = make_malcev_splittable()
    ok, _ = center_membership(spec.bracket, spec.casimir)
    assert ok
    ok, witnesses = center_membership(spec.bracket, spec.ctx.variable("h"))
    assert not ok and witnesses


def test_center_membership_in_quotient():
    spec = make_sl2()
    b = spec.jacobian_bracket()
    qctx = QuotientContext.create(b, 1)
    e, f, h = spec.ctx.gens()
    # h^2 + 4ef is 2C: central and even constant in the quotient
    ok, _ = center_membership(b, h ** 2 + 4 * e * f, qctx)
    assert ok
    ok, _ = center_membership(b, h, qctx)
    assert not ok


def test_center_probe_ambient():
    spec = make_sl2()
    probe = center_probe(spec.jacobian_bracket(), 2)
    assert probe.dimension == 2
    assert probe.mode == "ambient"
    basis = {str(p) for p in probe.basis}
    assert "1" in basis
    others = [pp(s, spec.ctx) for s in basis if s != "1"]
    span_check, _ = center_membership(spec.jacobian_bracket(), others[0])
    assert span_check


def test_center_probe_quotient_is_constants():
    spec = make_quadric(2)
    qctx = QuotientContext.create(spec.jacobian_bracket(), 1)
    probe = center_probe(spec.jacobian_bracket(), 3, qctx)
    assert probe.mode == "quotient"
    assert probe.dimension == 1
    assert [str(p) for p in probe.basis] == ["1"]


def reduce_each_image(bracket, max_degree, qctx):
    """The quotient center probe with every image {x_I, m} reduced on its
    own through the public bracket and QuotientContext.reduce."""
    ctx = bracket.ctx
    gens = ctx.gens()
    lead = qctx.modulus.leading_monomials()
    monos = [m for m in analysis._monomials_up_to(ctx, max_degree)
             if not any(all(a <= b for a, b in zip(l, m)) for l in lead)]
    rows = {}
    for col, m in enumerate(monos):
        for idxs in itertools.combinations(range(ctx.nvars), bracket.arity - 1):
            image = qctx.reduce(bracket(*[gens[i] for i in idxs], Polynomial(ctx, {m: 1})))
            for out, c in image.terms.items():
                rows.setdefault((idxs, out), {})[col] = c
    null = rational_nullspace(list(rows.values()), len(monos))
    return tuple(Polynomial(ctx, dict(zip(monos, vec))) for vec in null)


@pytest.mark.parametrize("bracket, degree, lam", [
    (make_sl2().jacobian_bracket(), 3, Fraction(-3, 2)),
    (make_elliptic(2).jacobian_bracket(), 3, 1),
    (make_quadric(3).jacobian_bracket(), 3, 2),
    (make_malcev_canonical().bracket, 2, Fraction(1, 2)),
    # C = D^2 with D = x^2 + y^2/2 + 3z^2: D is central and not constant
    # in the quotient, so the probe finds more than the constants
    (JacobianBracket(pp("x^2 + 1/2*y^2 + 3*z^2") ** 2), 4, 9),
    (JacobianBracket(pp("x*y - z^2") ** 3), 3, Fraction(-8, 27)),
])
def test_quotient_probe_reduces_each_monomial_once(bracket, degree, lam):
    # reduction is linear, so reducing each output monomial once and
    # combining gives the basis of reducing each image on its own
    casimir = getattr(bracket, "casimir", None) or make_malcev_canonical().casimir
    qctx = QuotientContext.create(bracket, lam, casimir)
    probe = center_probe(bracket, degree, qctx)
    assert probe.basis == reduce_each_image(bracket, degree, qctx)
    assert all(all(type(c) is Fraction for c in p.terms.values()) for p in probe.basis)


def test_probe_report_converts_to_a_dict():
    # dataclasses.asdict deep-copies every polynomial of the report
    probe = center_probe(make_sl2().bracket, 2)
    data = dataclasses.asdict(probe)
    assert data["basis"] == probe.basis and data["basis"][0] is not probe.basis[0]


@pytest.mark.parametrize("make", [make_malcev_canonical, make_malcev_splittable])
def test_malcev_quotient_centers_are_constants(make):
    # the paper's theorem: P(M)/(C - lambda) is central for the seven
    # dimensional Malcev algebra M and every nonzero lambda
    spec = make()
    for lam in (1, -2, Fraction(3, 2)):
        qctx = QuotientContext.create(spec.bracket, lam, casimir=spec.casimir)
        probe = center_probe(spec.bracket, 3, qctx)
        assert probe.mode == "quotient"
        assert probe.dimension == 1
        assert [str(p) for p in probe.basis] == ["1"]


def test_center_probe_degenerate_form_sees_radical():
    # rank-1 form: the kernel direction x - y is already central upstairs
    ctx = context("x", "y")
    x, y = ctx.gens()
    spec = make_nlie((x + y) ** 2, name="rank1")
    probe = center_probe(spec.jacobian_bracket(), 1)
    assert probe.dimension == 2  # constants and x - y


def _polys(ctx, max_degree, max_terms):
    """Nonzero polynomials of degree <= max_degree with few terms."""
    monos = [m for m in itertools.product(range(max_degree + 1), repeat=ctx.nvars)
             if sum(m) <= max_degree]
    coeffs = st.sampled_from([1, -1, 2, -3, Fraction(1, 2)])
    return st.dictionaries(st.sampled_from(monos), coeffs, min_size=1,
                           max_size=max_terms).map(lambda t: Polynomial(ctx, t))


def _quotient(draw, bracket, casimir):
    lam = draw(st.sampled_from([None, 1, -3, Fraction(1, 2)]))
    return None if lam is None else QuotientContext.create(bracket, lam, casimir=casimir)


@st.composite
def center_systems(draw):
    """A bracket, a probe degree <= 3 and, in three draws of four, a quotient.

    Half the brackets come from make_nlie on sums of weighted squares of
    linear forms, by either route; with fewer squares than variables the
    form is degenerate.  The others are Jacobian brackets of random
    Casimirs in three variables.
    """
    if draw(st.booleans()):
        n = draw(st.integers(3, 4))
        ctx = VarContext(tuple(f"x{i}" for i in range(n)))
        casimir = ctx.zero()
        for _ in range(draw(st.integers(1, n))):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
            line = Polynomial(ctx, {tuple(int(k == i) for k in range(n)): c
                                    for i, c in enumerate(coeffs)})
            casimir = casimir + draw(st.sampled_from([1, -1, 2])) * line ** 2
        assume(not casimir.is_zero())
        spec = make_nlie(casimir)
        bracket = draw(st.sampled_from([spec.table_bracket(), spec.jacobian_bracket()]))
    else:
        ctx = VarContext(("x0", "x1", "x2"))
        casimir = draw(_polys(ctx, 3, 4).filter(lambda p: not p.is_constant()))
        bracket = JacobianBracket(casimir)
    return bracket, draw(st.integers(0, 3)), _quotient(draw, bracket, casimir)


def _dense_center_system(bracket, degree, qctx):
    """Rows {x_I, m} -> coefficient of each output monomial, built densely."""
    ctx = bracket.ctx
    monos = [m for m in itertools.product(range(degree + 1), repeat=ctx.nvars)
             if sum(m) <= degree]
    if qctx is not None:
        lead = qctx.modulus.leading_monomials()
        monos = [m for m in monos
                 if not any(all(a <= b for a, b in zip(l, m)) for l in lead)]
    gens = ctx.gens()
    rows = []
    for idxs in itertools.combinations(range(ctx.nvars), bracket.arity - 1):
        images = []
        for m in monos:
            img = bracket(*(gens[i] for i in idxs), Polynomial(ctx, {m: 1}))
            images.append(img if qctx is None else qctx.reduce(img))
        for out in set().union(*(img.terms for img in images)):
            rows.append([img.coefficient(out) for img in images])
    return rows, len(monos)


CENTER_PROPERTY = settings(max_examples=30, deadline=None)


@CENTER_PROPERTY
@given(center_systems())
def test_center_probe_dimension_matches_sympy_rank(case):
    bracket, degree, qctx = case
    rows, ncols = _dense_center_system(bracket, degree, qctx)
    rank = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r]
                         for r in rows]).rank() if rows else 0
    probe = center_probe(bracket, degree, qctx)
    assert probe.dimension == ncols - rank
    for p in probe.basis:
        assert center_membership(bracket, p, qctx)[0]


@st.composite
def jacobian_memberships(draw):
    """A Jacobian bracket in 3 or 4 variables, an element, maybe a quotient.

    Half the elements are polynomials in C, so central ones are common.
    """
    n = draw(st.integers(3, 4))
    ctx = VarContext(tuple(f"x{i}" for i in range(n)))
    casimir = draw(_polys(ctx, 3, 3).filter(lambda p: not p.is_constant()))
    bracket = JacobianBracket(casimir)
    if draw(st.booleans()):
        a, b = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))
        f = a * casimir ** 2 + b * casimir + 1
    else:
        f = draw(_polys(ctx, 3, 4))
    return bracket, f, _quotient(draw, bracket, casimir)


@CENTER_PROPERTY
@given(jacobian_memberships())
def test_membership_routes_agree_on_jacobian_brackets(case):
    # {x_I, f} expands along the unit rows of x_I to +-(the 2x2 minor of
    # (df, dC) on the two variables outside I), so both routes see the
    # same values, one per pair of variables
    bracket, f, qctx = case
    ctx = bracket.ctx
    ok_t, wit_t = center_membership_table(bracket, f, qctx)
    ok_j, wit_j = center_membership_jacobian(bracket, f, qctx)
    assert ok_t == ok_j
    by_pair_t = {}
    for names, val in wit_t:
        inside = {ctx.index(nm) for nm in names}
        by_pair_t[tuple(i for i in range(ctx.nvars) if i not in inside)] = val
    by_pair_j = {(i, j): minor for i, j, minor in wit_j}
    assert len(by_pair_t) == len(wit_t) and len(by_pair_j) == len(wit_j)
    assert by_pair_t.keys() == by_pair_j.keys()
    for pair, val in by_pair_t.items():
        assert val in (by_pair_j[pair], -by_pair_j[pair])


# Mixed denominators, plain ints and a large integer, so that both the
# common denominator of the generator values and that of f are exercised.
_MIXED = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(5, 6),
                          Fraction(-7, 9), Fraction(1, 12), 10 ** 6 + 3])


@st.composite
def _mixed_polys(draw, ctx, max_degree, max_terms=4):
    """Polynomials of degree <= max_degree with coefficients from _MIXED."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        vars_ = draw(st.lists(st.integers(0, ctx.nvars - 1), max_size=max_degree))
        terms[tuple(vars_.count(i) for i in range(ctx.nvars))] = draw(_MIXED)
    return Polynomial(ctx, terms)


# The table brackets of the built-in algebras (by make_nlie's table for
# the Jacobian ones), elliptic's Jacobian bracket, and the diagonal nlie
# algebras at arities 3 and 4.
_TABLE_BRACKETS = [spec.table_bracket() for spec in (
    make_sl2(), make_quadric(2), make_quadric(3), make_quadric(4),
    make_malcev_canonical(), make_malcev_splittable(),
    make_malcev_abg(2, Fraction(1, 3), -1),
    make_nlie_diagonal([1, 2, Fraction(-1, 2), 3]),
    make_nlie_diagonal([1, Fraction(2, 3), -1, 3, 5]))] + [make_elliptic(2).bracket]


@st.composite
def generator_map_cases(draw):
    """A bracket and an element f of degree <= 4 in its context.

    Half the brackets are Jacobian brackets of random Casimirs in 2
    (arity 1), 3 or 4 variables; the rest are the brackets above.
    """
    if draw(st.booleans()):
        ctx = VarContext(tuple(f"x{i}" for i in range(draw(st.integers(2, 4)))))
        casimir = draw(_mixed_polys(ctx, 3).filter(lambda p: not p.is_constant()))
        bracket = JacobianBracket(casimir)
    else:
        bracket = draw(st.sampled_from(_TABLE_BRACKETS))
    return bracket, draw(_mixed_polys(bracket.ctx, 4))


@settings(max_examples=80, deadline=None)
@given(generator_map_cases())
def test_generator_map_equals_direct_brackets(case):
    # {x_I, f} assembled from the brackets of generator n-tuples must be
    # the bracket itself, for every increasing (n-1)-tuple I
    bracket, f = case
    ctx = bracket.ctx
    gens = ctx.gens()
    got = list(analysis._GeneratorBrackets(bracket)(f))
    assert [idxs for idxs, _ in got] == list(
        itertools.combinations(range(ctx.nvars), bracket.arity - 1))
    for idxs, val in got:
        assert val == bracket(*(gens[i] for i in idxs), f)


# -- saturation ----------------------------------------------------------


def quadric_quotient(lam=1):
    spec = make_quadric(2)
    return spec, QuotientContext.create(spec.jacobian_bracket(), lam)


def test_saturation_reaches_whole_ring():
    spec, qctx = quadric_quotient()
    x1 = spec.ctx.variable("x1")
    report = saturate_poisson_ideal(qctx, [x1])
    assert report.verdict == "whole-ring"
    assert report.contains_one
    assert report.steps_used > 0
    d = report.to_dict()
    assert d["verdict"] == "whole-ring" and d["lambda"] == "1"


def test_saturation_proper_stable_negative_control():
    ctx = context("x", "y", "z")
    x, y, z = ctx.gens()
    spec = make_nlie((x + y + z) ** 2, name="rank1")
    qctx = QuotientContext.create(spec.jacobian_bracket(), 1)
    report = saturate_poisson_ideal(qctx, [x + y + z - 1])
    assert report.verdict == "proper-stable"
    assert [str(p) for p in report.final_basis] == ["x + y + z - 1"]
    # A round depends only on the basis, so once one adds nothing the
    # ideal is stable; no repeat round is run.
    assert report.rounds == [{"basis_size": 1, "new_elements": 0}]
    one_round = saturate_poisson_ideal(qctx, [x + y + z - 1], max_rounds=1)
    assert one_round.verdict == "proper-stable"


def test_saturation_tests_the_last_basis_for_one():
    # the one round allowed brings 1 into the basis: that is a verdict,
    # not a spent round budget
    spec = make_quadric(4)
    qctx = QuotientContext.create(spec.jacobian_bracket(), 2)
    report = saturate_poisson_ideal(qctx, [spec.ctx.variable("x1")], max_rounds=1)
    assert report.verdict == "whole-ring"
    assert len(report.rounds) == 1
    assert [str(p) for p in report.final_basis] == ["1"]


@pytest.mark.parametrize("spec", [make_sl2(), make_quadric(2), make_quadric(3),
                                  make_quadric(4)], ids=lambda s: s.name)
@pytest.mark.parametrize("lam", [1, Fraction(-3, 2)], ids=["1", "-3/2"])
def test_saturation_agrees_through_both_bracket_forms(spec, lam):
    # the generator map is built from bracket calls, so a Jacobian and a
    # table bracket of the same algebra must give the same reports
    gens = spec.ctx.gens()
    seeds = list(gens) + [gens[0] * gens[1] - 2 * gens[-1] + 1]
    jacobian = QuotientContext.create(spec.jacobian_bracket(), lam)
    table = QuotientContext.create(spec.table_bracket(), lam, casimir=spec.casimir)
    for seed in seeds:
        assert (saturate_poisson_ideal(jacobian, [seed]).to_dict()
                == saturate_poisson_ideal(table, [seed]).to_dict())


def test_saturation_budget_exhaustion_is_reported():
    spec, qctx = quadric_quotient()
    x1 = spec.ctx.variable("x1")
    report = saturate_poisson_ideal(qctx, [x1], step_limit=2)
    assert report.verdict == "budget-exhausted"


def test_saturation_rejects_zero_seeds():
    spec, qctx = quadric_quotient()
    with pytest.raises(ValueError):
        saturate_poisson_ideal(qctx, [spec.casimir - 1])


def test_saturation_round_log():
    spec, qctx = quadric_quotient()
    report = saturate_poisson_ideal(qctx, [spec.ctx.variable("x2")])
    assert report.rounds and all(
        set(r) == {"basis_size", "new_elements"} for r in report.rounds)
