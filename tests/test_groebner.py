"""The grevlex order, multivariate division and Buchberger's algorithm.

sympy is used as an independent oracle for reduced Groebner bases; it is
a test dependency only.  Grevlex with another variable significance is
run by relabelling the variables (`relabel`).
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlie import groebner
from nlie.groebner import (BudgetExhausted, DEFAULT_BUDGET, GREVLEX, StepBudget, buchberger,
                           divide, leading_monomial, monic, mono_divides, mono_lcm,
                           normal_form, spoly)
from nlie.parser import parse_polynomial
from nlie.poly import ContextMismatch, Polynomial, VarContext, context, grevlex_key
from nlie.brackets import random_polynomial

XYZ = context("x", "y", "z")


def pp(src, ctx=XYZ):
    return parse_polynomial(src, ctx)


def to_sympy(p):
    return sympy.sympify(str(p).replace("^", "**"))


def relabel(p, perm):
    """p with variable perm[i] renamed x_i.  Grevlex on the result runs
    the computation of grevlex with perm[0] the most significant
    variable, perm[1] the next, and so on."""
    return Polynomial(p.ctx, {tuple(m[i] for i in perm): c for m, c in p.terms.items()})


def relabellings(perm):
    """The identity and perm, for tests that run each input both ways."""
    return [tuple(range(len(perm))), perm]


def test_mono_helpers():
    assert mono_lcm((1, 2), (3, 0)) == (3, 2)
    assert mono_divides((1, 0), (2, 5))
    assert not mono_divides((3, 0), (2, 5))


def test_grevlex_leading_terms():
    ef_h = context("e", "f", "h")
    casimir = pp("1/2*h^2 + 2*e*f", ef_h)
    assert leading_monomial(casimir) == (1, 1, 0)
    assert casimir.terms[leading_monomial(casimir)] == 2
    # same degree: the monomial with the smaller last exponent leads
    p = pp("x*z + y^2")
    assert leading_monomial(p) == (0, 2, 0)


def test_order_permutation():
    # relabelled by (2, 1, 0), grevlex ranks z most significant, which
    # flips the tie it breaks on the last exponent
    q = pp("x^2*y + y^2*z")
    assert leading_monomial(q) == (2, 1, 0)
    flipped = relabel(q, (2, 1, 0))
    assert flipped == pp("z^2*y + y^2*x")
    assert leading_monomial(flipped) == (1, 2, 0)


def test_leading_monomial_cache_follows_the_order():
    # a polynomial keeps its leading monomial once asked
    p, q = pp("x*z + y^2"), pp("x*z + y^2")
    assert p._lead is None
    for _ in range(2):
        assert leading_monomial(p) == (0, 2, 0)
        assert p._lead == (0, 2, 0)
    with pytest.raises(ValueError, match="no leading monomial"):
        leading_monomial(XYZ.zero())
    # equality and hashing ignore the cache
    assert p == q and hash(p) == hash(q)


def test_monic():
    p = pp("2*x^2 + 4*y")
    assert monic(p) == pp("x^2 + 2*y")
    assert monic(XYZ.zero()).is_zero()


def test_divide_identity_and_irreducibility():
    rng = random.Random(31)
    for _ in range(30):
        f = random_polynomial(rng, XYZ, max_degree=4, max_terms=6)
        gs = [random_polynomial(rng, XYZ, max_degree=2, max_terms=3)
              for _ in range(2)]
        qs, r = divide(f, gs)
        assert sum((q * g for q, g in zip(qs, gs)), XYZ.zero()) + r == f
        lead = [leading_monomial(g) for g in gs]
        for mono in r.terms:
            assert not any(mono_divides(lm, mono) for lm in lead)


def test_normal_form_frozen():
    assert normal_form(pp("(x + y)^2"), [pp("x + y")]).is_zero()
    assert normal_form(pp("x^2"), [pp("x + y")]) == pp("y^2")


def test_divisor_from_another_context_is_refused():
    # the packing is built for the dividend's variables, so a divisor in
    # more of them would lose one: z^3 would read as the constant 1 and
    # the remainder would come out as x + 1
    XY = context("x", "y")
    f = pp("x^3*y + 1", XY)
    g = pp("x^2*y - z^3")
    with pytest.raises(ContextMismatch):
        divide(f, [g])
    with pytest.raises(ContextMismatch):
        normal_form(f, [pp("x^2*y", XY), g])
    # an equal context that is another object is the same context
    assert normal_form(f, [pp("x^2*y - y", context("x", "y"))]) == pp("x*y + 1", XY)


def test_spoly_cancels_leads():
    f, g = pp("x^2 + y"), pp("x*y + z")
    s = spoly(f, g)
    lcm = mono_lcm(leading_monomial(f), leading_monomial(g))
    assert grevlex_key(leading_monomial(s)) < grevlex_key(lcm)


def sympy_reduced_gb(polys, order, names="x y z"):
    xs = sympy.symbols(names)
    gb = sympy.groebner([to_sympy(p) for p in polys], *xs,
                        order=order, field=True)
    return {sympy.expand(e) for e in gb.exprs}


# order is a variable order each input also runs under (`relabellings`);
# order_name is the order sympy is asked for
@pytest.mark.parametrize("gens,order,order_name", [
    (["x^2 + y", "x*y - 1"], (2, 1, 0), "grevlex"),
    (["y^2 + x", "x*y - 1"], (2, 0, 1), "grevlex"),
    (["x - y", "y^2 - 1"], (1, 0, 2), "grevlex"),
    (["x*y - z^2", "y*z - x^2", "x*z - y^2"], (1, 2, 0), "grevlex"),
    (["x + y + z", "x*y + y*z + x*z", "x*y*z - 1"], (2, 1, 0), "grevlex"),
])
def test_buchberger_against_sympy(gens, order, order_name):
    for labels in relabellings(order):
        polys = [relabel(pp(s), labels) for s in gens]
        assert {to_sympy(g) for g in buchberger(polys)} == sympy_reduced_gb(polys, order_name)


def test_buchberger_against_sympy_random():
    rng = random.Random(37)
    for _ in range(6):
        gens = [random_polynomial(rng, XYZ, max_degree=2, max_terms=3)
                for _ in range(2)]
        ours = buchberger(gens)
        assert {to_sympy(g) for g in ours} == sympy_reduced_gb(gens, "grevlex")


def test_reduced_basis_is_order_independent():
    gens = [pp(s) for s in ("x^2 + y", "x*y - 1", "y^2 - x")]
    reference = buchberger(gens).generators
    rng = random.Random(41)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled).generators == reference


def test_spolys_reduce_to_zero():
    gb = buchberger([pp("x*y - z^2"), pp("y*z - x^2")])
    gens = list(gb)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            assert normal_form(spoly(gens[i], gens[j]), gens).is_zero()


def test_membership_and_unit_ideal():
    gb = buchberger([pp("x + y")])
    assert gb.contains(pp("(x + y)^3"))
    assert not gb.contains(pp("x"))
    unit = buchberger([pp("x"), pp("1 - x")])
    assert unit.contains_one
    assert list(unit) == [XYZ.one()]


def test_budget_exhaustion():
    budget = StepBudget(3)
    f = pp("(x + y + z)^5")
    with pytest.raises(BudgetExhausted):
        divide(f, [pp("x - y")], budget)
    assert budget.remaining <= 0


def test_basis_reduce_matches_normal_form():
    gb = buchberger([pp("x^2 + y"), pp("x*y - 1")])
    f = pp("x^3*y + y^3 - x")
    assert gb.reduce(f) == normal_form(f, list(gb))


# -- step counts ------------------------------------------------------------
#
# Step counts are what `nlie saturate` reports as steps_used and decide
# where a --budget runs out, so a change to division or pair selection
# that moves them is visible here.

def _cyclic(n):
    ctx = VarContext(tuple(f"x{i}" for i in range(n)))
    xs = ctx.gens()
    polys = []
    for k in range(1, n):
        acc = ctx.zero()
        for i in range(n):
            term = ctx.one()
            for j in range(k):
                term = term * xs[(i + j) % n]
            acc = acc + term
        polys.append(acc)
    prod = ctx.one()
    for x in xs:
        prod = prod * x
    polys.append(prod - 1)
    return polys


def _katsura(n):
    ctx = VarContext(tuple(f"u{i}" for i in range(n + 1)))
    us = ctx.gens()

    def u(l):
        return us[abs(l)] if abs(l) <= n else ctx.zero()

    linear = us[0]
    for l in range(1, n + 1):
        linear = linear + 2 * us[l]
    polys = [linear - 1]
    for m in range(n):
        acc = ctx.zero()
        for l in range(-n, n + 1):
            acc = acc + u(l) * u(m - l)
        polys.append(acc - u(m))
    return polys


def _rescaled(polys, scales):
    """polys under x_i -> s_i * x_i."""
    out = []
    for p in polys:
        terms = {}
        for mono, c in p.terms.items():
            for e, s in zip(mono, scales):
                c *= s ** e
            terms[mono] = c
        out.append(Polynomial(p.ctx, terms))
    return out


# negative and fractional, so the rescaled bases have leading
# coefficients with content and numerators with common factors
CYCLIC5_SCALES = (Fraction(2), Fraction(-1, 3), Fraction(3, 2), Fraction(-2, 5), Fraction(5, 7))


# order is the variable order the polys are relabelled to
@pytest.mark.parametrize("polys,order,steps,size", [
    (_cyclic(5), tuple(range(5)), 304, 20),
    # relabelling moves the steps, not the size of the basis
    (_cyclic(5), (4, 2, 0, 1, 3), 500, 20),
    (_katsura(3), tuple(range(4)), 41, 7),
    (_katsura(5), tuple(range(6)), 477, 22),
    # rescaling changes every coefficient and no step
    (_rescaled(_cyclic(5), CYCLIC5_SCALES), tuple(range(5)), 304, 20),
])
def test_buchberger_step_counts(polys, order, steps, size):
    budget = StepBudget(DEFAULT_BUDGET)
    gb = buchberger([relabel(p, order) for p in polys], budget=budget)
    assert (budget.used, len(gb)) == (steps, size)


def test_buchberger_takes_grevlex_as_its_second_argument():
    # callers that pass the order positionally before the budget get the
    # same basis and steps; any other order is refused
    polys = _katsura(3)
    budget, named = StepBudget(), StepBudget()
    assert buchberger(polys, GREVLEX, budget).generators == \
        buchberger(polys, budget=named).generators
    assert budget.used == named.used == 41
    for other in ("lex", None, StepBudget()):
        with pytest.raises(ValueError, match="order"):
            buchberger(polys, other)


def test_rescaled_basis_is_the_rescaled_basis():
    # x_i -> s_i * x_i maps the reduced basis of cyclic-5 onto the
    # reduced basis of the rescaled ideal, up to the leading coefficients
    polys = _cyclic(5)
    scaled = buchberger(_rescaled(polys, CYCLIC5_SCALES))
    expected = [monic(g) for g in _rescaled(buchberger(polys).generators, CYCLIC5_SCALES)]
    assert list(scaled) == expected


# -- the signature loop -----------------------------------------------------

BASIS_PROPERTY = settings(max_examples=100, deadline=None)
_QUADRIC = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3).filter(lambda m: sum(m) <= 2),
                           st.integers(-3, 3).filter(bool), min_size=1, max_size=4)


@BASIS_PROPERTY
@given(st.lists(_QUADRIC.map(lambda t: Polynomial(XYZ, t)), min_size=2, max_size=3),
       st.randoms(use_true_random=False), st.permutations([0, 1, 2]).map(tuple))
def test_basis_depends_only_on_the_ideal(gens, rng, perm):
    # the signature loop takes the generators in the order given; a
    # combination of them, placed anywhere, reduces to zero at its index
    # or makes a later generator do so, and the reduced basis itself, as
    # input, comes back unchanged
    multipliers = [*XYZ.gens(), XYZ.one()]
    for labels in relabellings(perm):
        ideal = [relabel(g, labels) for g in gens]
        reference = buchberger(ideal).generators
        shuffled = ideal[:]
        rng.shuffle(shuffled)
        extended = shuffled[:]
        extended.insert(rng.randrange(len(ideal) + 1),
                        sum((g * rng.choice(multipliers) * rng.choice([-2, -1, 1, 3])
                             for g in ideal), XYZ.zero()))
        for other in (shuffled, extended, list(reference)):
            got = buchberger(other).generators
            assert got == reference
            assert list(map(str, got)) == list(map(str, reference))


# order is the variable order the polys are relabelled to
@pytest.mark.parametrize("polys,order", [
    (_cyclic(5), tuple(range(5))),
    (_katsura(3), tuple(range(4))),
    (_cyclic(5), (4, 2, 0, 1, 3)),
])
def test_basis_as_its_own_input_comes_back_unchanged(polys, order):
    gb = buchberger([relabel(p, order) for p in polys])
    again = buchberger(gb.generators)
    assert again.generators == gb.generators
    assert list(map(str, again)) == list(map(str, gb))


def test_budget_one_step_short_runs_out_in_the_signature_loop(monkeypatch):
    entered = []
    interreduce = groebner._interreduce

    def spy(basis, budget):
        entered.append(budget.used)
        return interreduce(basis, budget)

    monkeypatch.setattr(groebner, "_interreduce", spy)
    polys = _katsura(3)
    budget = StepBudget()
    gb = buchberger(polys, budget=budget)
    # the steps of the signature loop, before the basis is interreduced
    [loop] = entered
    assert 0 < loop <= budget.used
    entered.clear()
    with pytest.raises(BudgetExhausted) as raised:
        buchberger(polys, budget=StepBudget(loop - 1))
    assert entered == []
    names = [entry.name for entry in raised.traceback]
    assert names[-2:] == ["_divide", "spend"] and "buchberger" in names
    # the whole run fits in exactly its own count
    assert buchberger(polys, budget=StepBudget(budget.used)).generators == gb.generators


def test_an_s_polynomial_costs_one_step():
    # the one S-pair of x^2 - y and x*y - 1 leaves y^2 - x, which needs
    # no elimination, and the criteria drop both pairs that it makes
    gens = [pp("x^2 - y"), pp("x*y - 1")]
    budget = StepBudget()
    assert len(buchberger(gens, budget=budget)) == 3 and budget.used == 1
    with pytest.raises(BudgetExhausted):
        buchberger(gens, budget=StepBudget(0))


# Each found among random systems: here a remainder's lead is divided
# only by a divisor of equal shifted signature.  Dropping that remainder,
# as F5's singular criterion does, loses pairs under the add order, and
# the bases returned were not Groebner bases.  Each system also runs
# under the variable order `order` (`relabellings`).
@pytest.mark.parametrize("names,gens,order,order_name", [
    ("x y z", ["-1/2*x*y^2 + y^2*z + 2", "-2/3*x^2*z + x^2", "-x^3 - 2"], (2, 1, 0), "grevlex"),
    ("w x y z", ["5/2*x^2*z - 3*z^2", "2/3*w*x*z + 2*w*y", "2*w^2*y + w*x*y - 3*x*y^2 - 1/2",
                 "-4*w^3*y^2*z - 2*w^2*x*y^2*z + 6*w*x*y^3*z + w*y*z"], (3, 2, 1, 0), "grevlex"),
])
def test_singular_remainders_are_kept(names, gens, order, order_name):
    ctx = context(*names.split())
    for labels in relabellings(order):
        polys = [relabel(pp(s, ctx), labels) for s in gens]
        assert ({to_sympy(g) for g in buchberger(polys)}
                == sympy_reduced_gb(polys, order_name, names))


def _dense_quadrics(rng, nvars=4):
    ctx = VarContext(tuple(f"y{i}" for i in range(nvars)))
    monos = [m for m in itertools.product(range(3), repeat=nvars) if sum(m) <= 2]
    return [Polynomial(ctx, {m: rng.choice([c for c in range(-9, 10) if c]) for m in monos})
            for _ in range(nvars)]


@pytest.mark.parametrize("polys", [_dense_quadrics(random.Random(0)),
                                   _dense_quadrics(random.Random(1)),
                                   _katsura(5)])
def test_no_regular_reduction_returns_zero_on_regular_sequences(polys, monkeypatch):
    zero = []
    divide = groebner._divide

    def spy(f, divisors, budget, quotients, bound=None):
        done = divide(f, divisors, budget, quotients, bound)
        if bound is not None:
            zero.append(done[1].is_zero())
        return done

    monkeypatch.setattr(groebner, "_divide", spy)
    gb = buchberger(polys)
    assert len(gb) > len(polys) and zero and not any(zero)


# -- normal forms against sympy --------------------------------------------

NF_PROPERTY = settings(max_examples=60, deadline=None)

_XYZ_TERMS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                             st.integers(-5, 5).filter(bool),
                             min_size=1, max_size=3)
# Exponents to 40 give degrees past several packing widths.  sympy's
# reduction of such a dividend can take minutes, so a dividend with an
# exponent above 3 whose division takes more than ORACLE_STEPS steps is
# not compared with sympy.  Every draw is divided at
# DEFAULT_BUDGET and checked against the division identities.  Only such
# a dividend may run out of that budget: degrees near 120 leave room for
# more than 100,000 quotient terms.
ORACLE_STEPS = 500
_XYZ_HIGH_TERMS = st.dictionaries(st.tuples(*[st.integers(0, 2) | st.integers(0, 40)] * 3),
                                  st.integers(-5, 5).filter(bool),
                                  min_size=1, max_size=3)


def low(f):
    return max(map(max, f.terms)) <= 3


def sympy_can_check(f, budget):
    # a dividend with every exponent at most 3 is always compared
    return budget.used <= ORACLE_STEPS or low(f)


@NF_PROPERTY
@given(st.lists(_XYZ_TERMS, min_size=2, max_size=3),
       (_XYZ_TERMS | _XYZ_HIGH_TERMS).map(lambda t: Polynomial(XYZ, t)),
       st.permutations([0, 1, 2]).map(tuple))
def test_normal_form_matches_sympy(gen_terms, f, perm):
    # The remainder modulo a Groebner basis is unique, so ours and
    # sympy's must agree whatever division each one does.
    for labels in relabellings(perm):
        g = relabel(f, labels)
        basis = buchberger([relabel(Polynomial(XYZ, t), labels) for t in gen_terms])
        budget = StepBudget(DEFAULT_BUDGET)
        try:
            ours = normal_form(g, basis.generators, budget)
        except BudgetExhausted:
            assert not low(g)
            continue
        lead = basis.leading_monomials()
        assert not any(mono_divides(lm, m) for m in ours.terms for lm in lead)
        assert all(type(c) is Fraction and c for c in ours.terms.values())
        if not sympy_can_check(g, budget):
            continue
        _, expected = sympy.reduced(to_sympy(g), [to_sympy(b) for b in basis],
                                    *sympy.symbols("x y z"), order="grevlex", domain="QQ")
        assert sympy.expand(expected - to_sympy(ours)) == 0, labels


# -- division against sympy --------------------------------------------------

# Mixed denominators, and no positive integers: every leading
# coefficient, whatever the relabelling, is negative or fractional, so
# the integer kernel has to rescale its work terms.
_FRACTION = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
_DIVIDEND = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _FRACTION,
                            min_size=1, max_size=6)
_HIGH_DIVIDEND = st.dictionaries(st.tuples(*[st.integers(0, 3) | st.integers(0, 40)] * 3),
                                 _FRACTION, min_size=1, max_size=3)
_DIVISOR = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                           _FRACTION.filter(lambda c: c < 0 or c.denominator > 1),
                           min_size=1, max_size=4)


def assert_division_matches_sympy(f, divisors):
    # sympy.reduced runs the same division (leading term first, first
    # divisible divisor wins), so quotients and remainder must agree.
    budget = StepBudget(DEFAULT_BUDGET)
    qs, r = divide(f, divisors, budget)
    ctx = f.ctx
    assert sum((q * g for q, g in zip(qs, divisors)), ctx.zero()) + r == f
    lead = [leading_monomial(g) for g in divisors]
    assert not any(mono_divides(lm, m) for m in r.terms for lm in lead)
    for p in qs + [r]:
        assert all(type(c) is Fraction and c for c in p.terms.values())
    # one step per single-term elimination: one per quotient term
    assert budget.used == sum(len(q.terms) for q in qs)
    if not sympy_can_check(f, budget):
        return budget.used
    expected_qs, expected_r = sympy.reduced(
        to_sympy(f), [to_sympy(g) for g in divisors], *sympy.symbols(ctx.names),
        order="grevlex", domain="QQ")
    for q, expected in zip(qs + [r], list(expected_qs) + [expected_r]):
        assert sympy.expand(expected - to_sympy(q)) == 0
    return budget.used


@NF_PROPERTY
@given((_DIVIDEND | _HIGH_DIVIDEND).map(lambda t: Polynomial(XYZ, t)),
       st.lists(_DIVISOR.map(lambda t: Polynomial(XYZ, t)), min_size=1, max_size=3),
       st.permutations([0, 1, 2]).map(tuple))
def test_divide_matches_sympy(f, divisors, perm):
    for labels in relabellings(perm):
        g = relabel(f, labels)
        try:
            assert_division_matches_sympy(g, [relabel(d, labels) for d in divisors])
        except BudgetExhausted:
            assert not low(g)


def test_packed_divisor_cache_follows_order_and_width():
    # a divisor keeps the packed record of the last width that asked: a
    # dividend of larger degree packs it again, wider, and one of smaller
    # degree then divides at that width, so widths only grow
    g = pp("-2/3*x*z + y^2 - 1/2*z")
    low = pp("x^3*z + 3*x*y^2*z - y^3 + 5")
    high = pp("x^9*z^4 - 2*x*y^7 + y")
    records = []
    for f in (low, low, high, low):
        assert assert_division_matches_sympy(f, [g]) <= ORACLE_STEPS
        records.append(g._packed)
    narrow, wide = records[0][0].w, records[2][0].w
    assert narrow == max(low.total_degree(), 1).bit_length() < wide
    assert records[1] is records[0] and records[3] is records[2]
    # equality and hashing ignore the record
    assert g == pp("-2/3*x*z + y^2 - 1/2*z") and hash(g) == hash(pp(str(g)))


@NF_PROPERTY
@given(_DIVISOR.map(lambda t: Polynomial(XYZ, t)), _DIVISOR.map(lambda t: Polynomial(XYZ, t)),
       st.permutations([0, 1, 2]).map(tuple))
def test_spoly_matches_fraction_formula(f0, g0, perm):
    for labels in relabellings(perm):
        f, g = relabel(f0, labels), relabel(g0, labels)
        mf, mg = leading_monomial(f), leading_monomial(g)
        cf, cg = f.terms[mf], g.terms[mg]
        lcm = mono_lcm(mf, mg)
        uf = Polynomial(XYZ, {tuple(a - b for a, b in zip(lcm, mf)): 1 / cf})
        ug = Polynomial(XYZ, {tuple(a - b for a, b in zip(lcm, mg)): 1 / cg})
        s = spoly(f, g)
        assert s == uf * f - ug * g
        assert all(type(c) is Fraction and c for c in s.terms.values())
        # dividing s reads the packed numerators spoly left on it
        assert divide(s, [f, g]) == divide(Polynomial(XYZ, s.terms), [f, g])


# -- packed records ----------------------------------------------------------

# The slot descriptor reads `terms` without falling back to __getattr__,
# which would build them from the record.
TERMS_SLOT = Polynomial.__dict__["terms"]


def has_terms(p):
    try:
        TERMS_SLOT.__get__(p, Polynomial)
    except AttributeError:
        return False
    return True


def assert_record_exact(p):
    """p's cached record, if it has one, is exactly p: its lead is p's
    leading monomial, its terms unpack to p.terms, and its degree, the
    top field of its lead, is p's and within the packing's bound."""
    rec = p._packed
    if rec is None:
        return
    packing, d, lead, L, tail = rec
    assert d > 0 and L and all(c for _, c in tail)
    assert all(m < lead for m, _ in tail)
    items = [(lead, Fraction(L, d))] + [(m, Fraction(c, d)) for m, c in tail]
    assert len(items) == len(p.terms)
    assert dict(packing.unpack(items)) == p.terms
    assert packing.unpack([(lead, 1)])[0][0] == max(p.terms, key=grevlex_key)
    assert packing.degree(lead) == max(map(sum, p.terms)) == p.total_degree() <= packing.mask


def assert_monic_from_record(p):
    m = monic(p)
    assert m == p / p.terms[leading_monomial(p)]
    assert all(type(c) is Fraction for c in m.terms.values())
    assert_record_exact(m)
    if p._packed is not None:
        # built from p's record, and keeps a primitive one
        _, d, _, L, tail = m._packed
        assert L == d and gcd(L, *[c for _, c in tail]) == 1


# Each basis here is asked for in full at the default budget: of 3,000
# draws of this shape, each as drawn and relabelled, the dearest took 616
# steps and the slowest 13 ms on a 2-core VM.
@NF_PROPERTY
@given(_DIVIDEND.map(lambda t: Polynomial(XYZ, t)),
       st.lists(_DIVISOR.map(lambda t: Polynomial(XYZ, t)), min_size=1, max_size=3),
       st.permutations([0, 1, 2]).map(tuple),
       st.sampled_from([1, -1, 6, -6, Fraction(4, 9), Fraction(-10, 3)]))
# dividends of far larger degree than their divisors: the remainder
# stays inside the dividend's packing, whatever the exponents the
# shifted tails reach
@example(pp("x^13"), [pp("x - y^5")], (2, 0, 1), 1)
@example(pp("x^13*z^200"), [pp("x - y^5")], (2, 0, 1), -6)
@example(pp("y^13*z^200"), [pp("x - y^5")], (2, 0, 1), Fraction(4, 9))
def test_records_are_exact(f0, divisors0, perm, k):
    # k gives the divisors negative leads and leads with content
    for labels in relabellings(perm):
        f = relabel(f0, labels)
        divisors = [relabel(g, labels) * k for g in divisors0]
        qs, r = divide(f, divisors)
        none, bare = divide(f, divisors, quotients=False)
        assert none is None and bare == r
        assert sum((q * g for q, g in zip(qs, divisors)), XYZ.zero()) + r == f
        s = spoly(divisors[0], divisors[-1])
        assert divide(s, divisors, quotients=False)[1] == divide(s, divisors)[1]
        gb = buchberger(divisors)
        # the returned basis has its terms and keeps no record until it
        # is divided by
        assert all(has_terms(g) and g._packed is None for g in gb)
        gb.reduce(f)
        for p in [f, r, bare, s, *divisors, *gb]:
            assert_record_exact(p)
        for p in [r, s, *divisors]:
            if not p.is_zero():
                assert_monic_from_record(p)
        if not r.is_zero() and r._packed is not None:
            # a remainder's record is in lowest terms
            _, d, _, L, tail = r._packed
            assert gcd(d, L, *[c for _, c in tail]) == 1


# -- polynomials known by their record ------------------------------------------

def assert_same_as_its_terms(p):
    """p, returned known by its record, answers like the polynomial of
    its terms; what the record answers is read before the terms exist."""
    assert p._packed is not None and not has_terms(p)
    got = (p.total_degree(), p.is_zero(), bool(p), leading_monomial(p))
    assert not has_terms(p)
    q = Polynomial(p.ctx, dict(p.terms))
    # once built, the terms are a plain slot of a plain Polynomial
    assert has_terms(p) and type(p) is Polynomial
    assert p == q and hash(p) == hash(q) and str(p) == str(q)
    assert got == (q.total_degree(), q.is_zero(), bool(q), leading_monomial(q))


@NF_PROPERTY
@given(_DIVIDEND.map(lambda t: Polynomial(XYZ, t)),
       st.lists(_DIVISOR.map(lambda t: Polynomial(XYZ, t)), min_size=1, max_size=3),
       st.permutations([0, 1, 2]).map(tuple))
def test_record_backed_results_are_their_terms(f0, divisors0, perm):
    for labels in relabellings(perm):
        f = relabel(f0, labels)
        divisors = [relabel(g, labels) for g in divisors0]
        g = divisors[0]
        s = spoly(f, g)
        mf, mg = leading_monomial(f), leading_monomial(g)
        cf, cg = f.terms[mf], g.terms[mg]
        lcm = mono_lcm(mf, mg)
        uf = Polynomial(XYZ, {tuple(a - b for a, b in zip(lcm, mf)): 1 / cf})
        ug = Polynomial(XYZ, {tuple(a - b for a, b in zip(lcm, mg)): 1 / cg})
        qs, r = divide(f, divisors)
        bare = divide(f, divisors, quotients=False)[1]
        made = [p for p in (s, r, bare) if not p.is_zero()]
        monics = [monic(p) for p in made]
        for p in made + monics:
            # a remainder no lead divides a term of is f itself, with no record
            if p._packed is not None:
                assert_same_as_its_terms(p)
        assert s == uf * f - ug * g
        assert sum((q * d for q, d in zip(qs, divisors)), XYZ.zero()) + r == f
        assert bare == r
        for p, m in zip(made, monics):
            assert m == p / p.terms[leading_monomial(p)]
            assert m.terms[leading_monomial(m)] == 1


def test_returned_basis_has_terms_and_no_record():
    x, y, z = XYZ.gens()
    gens = [x * x + y * z - 1, x * y - z * z + Fraction(1, 2), y * y * z - x]
    for labels in relabellings((2, 0, 1)):
        gb = buchberger([relabel(g, labels) for g in gens])
        assert len(gb) > 1
        for g in gb:
            assert has_terms(g) and g._packed is None and type(g) is Polynomial
            assert all(type(c) is Fraction and c for c in TERMS_SLOT.__get__(g, Polynomial).values())
