"""Jacobian and table brackets plus the identity verifiers.

Both bracket classes, `poly_det` and `jacobian` share one integer
determinant, so the property tests at the end check them against sympy,
which shares no code with them, on integer and on mixed-denominator
Fraction coefficients.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import nlie.brackets as brackets
from nlie.brackets import (VERIFIERS, ArityMismatch, JacobianBracket, TableBracket,
                           _int_bracket, ternary_jacobian,
                           jacobian, poly_det, random_homogeneous,
                           random_polynomial, verify_filippov, verify_leibniz,
                           verify_malcev, verify_skew, verify_strong)
from nlie.parser import parse_polynomial
from nlie.poly import Polynomial, VarContext, _cleared, _packing, context
from nlie.structures import (StructureTable, make_elliptic, make_malcev_splittable,
                             make_nlie, make_quadric, make_sl2)


def test_poly_det():
    ctx = context("x", "y")
    x, y = ctx.gens()
    rows = [[x, y], [ctx.one(), x]]
    assert poly_det(rows, ctx) == x ** 2 - y
    assert poly_det([[x]], ctx) == x
    top, bottom = [x, y, ctx.one()], [y, x, x]
    assert poly_det([top, [ctx.zero()] * 3, bottom], ctx).is_zero()
    assert poly_det([top, bottom], ctx, (0, 2)) == x ** 2 - y
    assert poly_det([], ctx) == ctx.one()  # the 0x0 determinant
    with pytest.raises(ValueError, match="non-square matrix"):
        poly_det([[x, y]], ctx)
    with pytest.raises(ValueError, match="non-square minor"):
        poly_det([[x, y], [y, x]], ctx, (0,))


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


# -- the verifiers against plain Polynomial arithmetic ----------------------

def _reference_defects(identity, b, trials, seed):
    """(defect, inputs) of every check of `identity`, in the verifier's
    order, from Polynomial arithmetic and bracket calls only."""
    ctx, n = b.ctx, b.arity
    gens = ctx.gens()
    rng = random.Random(seed)
    if identity == "malcev":
        def defect(a, y, c):
            return (b(ternary_jacobian(b, a, y, c), a)
                    - ternary_jacobian(b, a, y, b(a, c)))
        triples = list(itertools.product(gens, repeat=3))
        triples += [tuple(random_polynomial(rng, ctx, max_degree=1) for _ in range(3))
                    for _ in range(trials)]
        return [(defect(*abc), abc) for abc in triples]
    if identity == "filippov":
        nu, nv = n, n - 1

        def defect(us, vs):
            rhs = ctx.zero()
            for i in range(n):
                rhs = rhs + b(*(us[:i] + [b(us[i], *vs)] + us[i + 1:]))
            return b(b(*us), *vs) - rhs
    else:  # strong
        nu, nv = n - 1, n + 1

        def defect(us, vs):
            return sum(((-1) ** (i + 1) * b(*us, v) * b(*(vs[:i] + vs[i + 1:]))
                        for i, v in enumerate(vs)), ctx.zero())
    blocks = [([gens[i] for i in ui], [gens[i] for i in vi])
              for ui in itertools.combinations(range(ctx.nvars), nu)
              for vi in itertools.combinations(range(ctx.nvars), nv)]
    for _ in range(trials):
        us = [random_polynomial(rng, ctx) for _ in range(nu)]
        blocks.append((us, [random_polynomial(rng, ctx) for _ in range(nv)]))
    return [(defect(us, vs), us + vs) for us, vs in blocks]


def _random_table_bracket(nvars, arity, seed):
    # a table bracket with random linear values: no identity beyond
    # skew and Leibniz holds, so its defects are nonzero
    rng = random.Random(seed)
    ctx = _ctx(nvars)
    constants = {idxs: Polynomial(ctx, {tuple(int(k == j) for k in range(nvars)):
                                        rng.randint(-3, 3) for j in range(nvars)})
                 for idxs in itertools.combinations(range(nvars), arity)}
    return TableBracket(StructureTable(ctx, arity, constants))


@pytest.mark.parametrize("identity, make", [
    ("filippov", lambda: _random_table_bracket(3, 2, 1)),
    ("filippov", lambda: _random_table_bracket(4, 3, 2)),
    ("filippov", lambda: make_quadric(3).bracket),
    # a bivector in three variables, or a trivector in four, always has
    # the rank the strong identity needs, so these take more variables
    ("strong", lambda: _random_table_bracket(4, 2, 3)),
    ("strong", lambda: _random_table_bracket(5, 3, 4)),
    ("strong", lambda: make_elliptic(1).bracket),
    ("malcev", lambda: _random_table_bracket(3, 2, 5)),
    ("malcev", lambda: make_malcev_splittable().bracket),
])
def test_verifiers_match_polynomial_arithmetic(identity, make):
    # the verifiers run on packed integers and share fields between the
    # brackets of a check; the report must be the one plain arithmetic gives
    b = make()
    report = VERIFIERS[identity](b, trials=4, seed=7)
    failures = [(d, inputs) for d, inputs in _reference_defects(identity, b, 4, 7)
                if not d.is_zero()]
    assert report.trials == len(_reference_defects(identity, b, 4, 7))
    assert report.failure_count == len(failures)
    assert [(f["defect"], f["inputs"]) for f in report.failures] == \
        [(str(d), [str(p) for p in inputs]) for d, inputs in failures[:12]]


@st.composite
def table_brackets(draw):
    """Table brackets in 3-5 variables at arity 2-4 whose values are
    small linear forms, constants or zero."""
    nvars = draw(st.integers(3, 5))
    arity = draw(st.integers(2, min(4, nvars)))
    ctx = _ctx(nvars)
    monos = st.sampled_from([tuple(int(k == j) for k in range(nvars))
                             for j in range(-1, nvars)])
    values = st.dictionaries(monos, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
    constants = {idxs: Polynomial(ctx, draw(values))
                 for idxs in itertools.combinations(range(nvars), arity)
                 if draw(st.integers(0, 3))}
    return TableBracket(StructureTable(ctx, arity, constants))


@settings(max_examples=30, deadline=None)
@given(table_brackets(), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_filippov_matches_polynomial_arithmetic_on_random_tables(b, trials, seed):
    # the Lie-derivative route against the identity in its textbook form
    report = verify_filippov(b, trials=trials, seed=seed)
    checks = _reference_defects("filippov", b, trials, seed)
    failures = [(d, inputs) for d, inputs in checks if not d.is_zero()]
    assert report.trials == len(checks)
    assert report.failure_count == len(failures)
    assert [(f["defect"], f["inputs"]) for f in report.failures] == \
        [(str(d), [str(p) for p in inputs]) for d, inputs in failures[:12]]


def test_point_trials_run_the_kernel(monkeypatch):
    # drop the signs of the Laplace expansion along the first row: the
    # bracket stops being alternating, and the random trials, which
    # evaluate it at a point through the kernel, must see that
    signed = brackets._by_var

    def unsigned(nvars, keyed):
        return tuple(tuple((rest, mask, 1, c) for rest, mask, _, c in entries)
                     for entries in signed(nvars, keyed))

    monkeypatch.setattr(brackets, "_by_var", unsigned)
    for spec in (make_sl2(), make_quadric(3)):
        report = verify_skew(spec.bracket, trials=10, seed=0)
        notes = [f.get("note", "") for f in report.failures]
        assert any(note.startswith("swap") for note in notes), spec.name
        assert "duplicate slot" in notes, spec.name
        # each record holds the exact defect, through the public bracket
        swap = next(f for f in report.failures if f["note"].startswith("swap"))
        assert swap["defect"] != "0"


def _reference_draw(rng, ctx, degree, max_degree, coeff_bound, max_terms):
    # the draws of random_polynomial and random_homogeneous, spelled out
    # with the rng methods they have always used
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * ctx.nvars
        for _ in range(rng.randint(0, max_degree) if degree is None else degree):
            mono[rng.randrange(ctx.nvars)] += 1
        c = rng.randint(1, coeff_bound) * rng.choice((1, -1))
        terms.setdefault(tuple(mono), Fraction(c))
    return Polynomial(ctx, terms)


def test_random_draws_stay_pinned():
    for seed in range(200):
        params = random.Random(-seed)
        ctx = _ctx(params.randint(1, 6))
        bound = params.choice([1, 2, 3, 8, 9, 64, 1000, 2 ** 40 + 1])
        max_terms = params.randint(1, 9)
        got, want = random.Random(seed), random.Random(seed)
        for _ in range(4):
            if params.random() < 0.5:
                max_degree = params.randint(0, 7)
                p = random_polynomial(got, ctx, max_degree, bound, max_terms)
                q = _reference_draw(want, ctx, None, max_degree, bound, max_terms)
            else:
                degree = params.randint(0, 5)
                p = random_homogeneous(got, ctx, degree, bound, max_terms)
                q = _reference_draw(want, ctx, degree, 0, bound, max_terms)
            assert p == q and list(p.terms) == list(q.terms), seed
            assert all(type(c) is Fraction for c in p.terms.values())
            assert got.getstate() == want.getstate(), seed
    with pytest.raises(ValueError):
        random_polynomial(random.Random(0), _ctx(2), coeff_bound=0)


def test_packing_refuses_a_degree_it_cannot_hold():
    packing = _packing(3, 5)  # 3 bits a field: total degrees up to 7
    packing.check(7)
    with pytest.raises(OverflowError):
        packing.check(8)
    ctx = _ctx(3)
    x, y, z = ctx.gens()
    b = JacobianBracket(x * y * z)  # its c_I have degree 2

    def packed(*ps):
        return [(1, packing.pack(_cleared(p.terms)[1])) for p in ps]

    _int_bracket(packed(x ** 3 * y, y), b._coeffs, packing)  # 4 + 1 + 2
    with pytest.raises(OverflowError):
        _int_bracket(packed(x ** 3 * y ** 2, y), b._coeffs, packing)


# -- property tests against independent references -------------------------

PROPERTY = settings(max_examples=60, deadline=None)

_coeffs = st.integers(-6, 6).filter(bool)
# mixed denominators, so that entries, arguments and the c_I of one
# bracket are cleared over different ones
_fractions = st.builds(Fraction, _coeffs, st.sampled_from([1, 2, 3, 4, 5, 6, 7]))


def _ctx(nvars):
    return VarContext(tuple(f"x{i}" for i in range(nvars)))


@st.composite
def polynomials(draw, ctx, max_exp=2, max_terms=4, coeffs=_coeffs):
    """Sparse nonzero polynomials; about one draw in five is a constant."""
    if draw(st.integers(0, 4)) == 0:
        return ctx.constant(draw(st.just(0) | coeffs))
    monos = st.tuples(*[st.integers(0, max_exp)] * ctx.nvars)
    return Polynomial(ctx, draw(st.dictionaries(monos, coeffs, min_size=1,
                                                max_size=max_terms)))


def _to_sympy(p, syms):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[s ** e for s, e in zip(syms, mono)])
                for mono, c in p.terms.items()), sympy.Integer(0))


def _sympy_jacobian(fs):
    """sympy's determinant of the Jacobian matrix of fs, and its symbols."""
    syms = sympy.symbols(fs[0].ctx.names)
    exprs = [_to_sympy(f, syms) for f in fs]
    return sympy.Matrix([[sympy.diff(e, s) for s in syms]
                         for e in exprs]).det(), syms


def _assert_canonical(p):
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())


@PROPERTY
@given(st.sampled_from([2, 3]).flatmap(
    lambda n: st.tuples(*[polynomials(_ctx(n + 1))] * (n + 1))))
def test_jacobian_bracket_matches_full_determinant(polys):
    *fs, casimir = polys
    assert JacobianBracket(casimir)(*fs) == jacobian(list(fs) + [casimir])


@PROPERTY
@given(st.sampled_from([2, 3, 4]).flatmap(lambda n: st.tuples(
    *[polynomials(_ctx(n + 1), max_terms=3 if n < 4 else 2,
                  coeffs=_fractions)] * (n + 1))))
def test_jacobian_bracket_matches_sympy_on_fractions(polys):
    *fs, casimir = polys
    got = JacobianBracket(casimir)(*fs)
    _assert_canonical(got)
    expected, syms = _sympy_jacobian(polys)
    assert sympy.expand(expected - _to_sympy(got, syms)) == 0


@PROPERTY
@given(st.integers(1, 3).flatmap(
    lambda nv: st.lists(polynomials(_ctx(nv)), min_size=nv, max_size=nv)))
def test_jacobian_matches_sympy_det(fs):
    expected, syms = _sympy_jacobian(fs)
    assert sympy.expand(expected - _to_sympy(jacobian(fs), syms)) == 0


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(polynomials(_ctx(2), max_terms=3, coeffs=_fractions),
                      min_size=n + 1, max_size=n + 1),
             min_size=n, max_size=n),
    st.permutations(range(n + 1)).map(lambda p: tuple(p[:n])))))
def test_poly_det_minor_matches_sympy(case):
    # n rows of n + 1 entries; cols picks n of them, in any order
    rows, cols = case
    ctx = rows[0][0].ctx
    syms = sympy.symbols(ctx.names)
    expected = sympy.Matrix([[_to_sympy(row[c], syms) for c in cols]
                             for row in rows]).det()
    got = poly_det(rows, ctx, cols)
    _assert_canonical(got)
    assert sympy.expand(expected - _to_sympy(got, syms)) == 0


@st.composite
def quadratic_forms(draw, denominators):
    ctx = _ctx(draw(st.integers(3, 4)))
    n = ctx.nvars
    monos = [tuple(int(k == i) + int(k == j) for k in range(n))
             for i in range(n) for j in range(i, n)]
    terms = draw(st.lists(st.integers(-4, 4), min_size=len(monos),
                          max_size=len(monos)).filter(any))
    return Polynomial(ctx, {m: Fraction(t, draw(denominators))
                            for m, t in zip(monos, terms)})


@PROPERTY
@given(quadratic_forms(st.sampled_from([1, 2, 3, 5])).flatmap(
    lambda form: st.tuples(
        st.just(form),
        st.lists(polynomials(form.ctx, coeffs=_fractions),
                 min_size=form.ctx.nvars - 1, max_size=form.ctx.nvars - 1))))
def test_nlie_table_agrees_with_jacobian_on_random_forms(case):
    # Fraction forms and arguments, so the table's E and the Casimir's
    # E, and each argument's d_a, are all exercised
    form, fs = case
    got = make_nlie(form).table_bracket()(*fs)
    _assert_canonical(got)
    assert got == JacobianBracket(form)(*fs)


@PROPERTY
@given(st.tuples(*[polynomials(_ctx(3), max_exp=40, max_terms=3)] * 3))
def test_jacobian_bracket_matches_sympy_at_high_degree(polys):
    # exponents up to 40 and degrees up to 120 cross several packing
    # widths; a carry between exponent fields would show here
    *fs, casimir = polys
    got = JacobianBracket(casimir)(*fs)
    _assert_canonical(got)
    expected, syms = _sympy_jacobian(polys)
    assert sympy.expand(expected - _to_sympy(got, syms)) == 0


def test_one_variable_jacobian_bracket_is_rejected():
    with pytest.raises(ValueError, match=r"over \(x\).*at least two variables"):
        JacobianBracket(context("x").variable(0) ** 2)
