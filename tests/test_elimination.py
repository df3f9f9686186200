"""The one exact rational elimination, `analysis.rational_nullspace`,
against sympy.

Nullspaces, the Gram nondegeneracy flag of `make_nlie` and the span
comparison of the paper suite all rest on it; sympy's ranks and
determinants are the independent reference.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nlie.analysis import rational_nullspace
from nlie.poly import Polynomial, VarContext
from nlie.structures import make_nlie
from nlie.suite import _span_matches

PROPERTY = settings(max_examples=80, deadline=None)

# Mostly zeros, so that sparse rows and rank deficiency are common.
_entries = st.sampled_from([Fraction(0)] * 4 + [Fraction(v) for v in (
    1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4))])


def _sympy_rank(rows, ncols):
    if not rows or not ncols:
        return 0
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r]
                         for r in rows]).rank()


@st.composite
def matrices(draw):
    """Rational matrices, often with rows that repeat or add earlier rows."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c = draw(_entries)
        rows.append([a + c * b for a, b in zip(rows[i], rows[j])])
    return rows, ncols


@PROPERTY
@given(matrices())
def test_rational_nullspace_matches_sympy_rank(case):
    rows, ncols = case
    sparse = [dict(enumerate(r)) for r in rows]
    before = [dict(r) for r in sparse]
    basis = rational_nullspace(sparse, ncols)
    assert sparse == before  # the input is left alone
    assert len(basis) == ncols - _sympy_rank(rows, ncols)
    for vec in basis:
        assert len(vec) == ncols
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    assert _sympy_rank(basis, ncols) == len(basis)


@PROPERTY
@given(matrices())
def test_rational_nullspace_equals_sympy_nullspace(case):
    # both read the basis off the reduced row echelon form, which is
    # unique, so the vectors agree entry by entry
    rows, ncols = case
    expected = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r]
                             for r in rows]).nullspace()
    assert rational_nullspace([dict(enumerate(r)) for r in rows], ncols) == [
        [Fraction(int(x.p), int(x.q)) for x in vec] for vec in expected]


@pytest.mark.parametrize("row", [{3: Fraction(1)}, {-1: Fraction(1)},
                                 {0: Fraction(1), 5: Fraction(0)}, {"x": Fraction(2)}])
def test_rational_nullspace_rejects_columns_out_of_range(row):
    # a zero entry in a bad column is refused too: it names a column
    # that the system does not have
    with pytest.raises(ValueError, match="not in range"):
        rational_nullspace([{0: Fraction(1)}, row], 3)


def test_rational_nullspace_reads_missing_and_zero_entries_as_zero():
    rows = [{1: Fraction(2)}, {0: Fraction(0), 2: Fraction(1)}]
    assert rational_nullspace(rows, 3) == [[Fraction(1), Fraction(0), Fraction(0)]]
    assert rational_nullspace([], 2) == [[Fraction(1), Fraction(0)],
                                         [Fraction(0), Fraction(1)]]


def _ctx(nvars):
    return VarContext(tuple(f"x{i}" for i in range(nvars)))


def _linear(ctx, coeffs):
    return Polynomial(ctx, {tuple(int(k == i) for k in range(ctx.nvars)): c
                            for i, c in enumerate(coeffs)})


@st.composite
def quadratic_forms(draw):
    """Sums of w_i * l_i^2 over at most nvars + 1 linear forms l_i.

    With fewer squares than variables the form is rank deficient, which
    a draw of independent coefficients would almost never produce; half
    the draws are such independent ones.
    """
    ctx = _ctx(draw(st.integers(2, 4)))
    n = ctx.nvars
    if draw(st.booleans()):
        monos = [tuple(int(k == i) + int(k == j) for k in range(n))
                 for i in range(n) for j in range(i, n)]
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos),
                               max_size=len(monos)))
        return Polynomial(ctx, dict(zip(monos, coeffs)))
    form = ctx.zero()
    for _ in range(draw(st.integers(1, n + 1))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        weight = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
        form = form + weight * _linear(ctx, coeffs) ** 2
    return form


@PROPERTY
@given(quadratic_forms().filter(bool))
def test_make_nlie_nondegenerate_matches_sympy_det(form):
    syms = sympy.symbols(form.ctx.names)
    expr = sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[s ** e for s, e in zip(syms, mono)])
                for mono, c in form.terms.items()), sympy.Integer(0))
    det = sympy.hessian(expr, syms).det()
    assert make_nlie(form).nondegenerate == (det != 0)


_XY = _ctx(2)
_small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-2, 2), max_size=3).map(lambda t: Polynomial(_XY, t))


@st.composite
def span_pairs(draw):
    """A family and a second one, often built from combinations of the first."""
    basis = draw(st.lists(_small_polys, max_size=3))
    if basis and draw(st.booleans()):
        target = []
        for _ in range(draw(st.integers(0, 3))):
            acc = _XY.zero()
            for p in basis:
                acc = acc + draw(st.integers(-2, 2)) * p
            target.append(acc)
    else:
        target = draw(st.lists(_small_polys, max_size=3))
    return basis, target


@PROPERTY
@given(span_pairs())
def test_span_matches_agrees_with_sympy_ranks(case):
    basis, target = case
    monos = sorted({m for p in basis + target for m in p.terms})

    def rank(ps):
        return _sympy_rank([[p.coefficient(m) for m in monos] for p in ps],
                           len(monos))

    expected = rank(basis) == rank(target) == rank(basis + target)
    assert _span_matches(basis, target) == expected
