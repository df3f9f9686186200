"""Built-in algebras: tables, parameters and constructor dispatch."""

from fractions import Fraction
from itertools import product

import pytest

from nlie.parser import parse_polynomial
from nlie.poly import context
from nlie.structures import (ALGEBRA_NAMES, StructureTable, build_algebra,
                             make_elliptic, make_malcev_abg,
                             make_malcev_canonical, make_malcev_splittable,
                             make_nlie, make_nlie_diagonal, make_quadric,
                             make_sl2)


def test_structure_table_signs_and_repeats():
    ctx = context("a", "b", "c")
    a, b, c = ctx.gens()
    table = StructureTable(ctx, 2, {(0, 1): c})
    assert table.entry((0, 1)) == c
    assert table.entry((1, 0)) == -c
    assert table.entry((0, 0)).is_zero()
    assert table.entry((0, 2)).is_zero()
    assert len(table.rows()) == 3


def test_structure_table_validation():
    ctx = context("a", "b")
    a, _ = ctx.gens()
    with pytest.raises(ValueError):
        StructureTable(ctx, 2, {(1, 0): a})  # keys must be increasing
    with pytest.raises(ValueError):
        StructureTable(ctx, 2, {(0, 1): a * a})  # values must have degree <= 1


def test_quadric_table_is_generator_jacobian():
    # table entries must equal the bracket of the omitted-variable formula
    for n in (2, 3, 4):
        spec = make_quadric(n)
        bj = spec.jacobian_bracket()
        for names, value in spec.table.rows():
            gens = [spec.ctx.variable(nm) for nm in names]
            assert bj(*gens) == value, (n, names)


def test_quadric_nondegenerate_flags():
    assert make_quadric(2).nondegenerate is True
    assert make_nlie_diagonal([1, -2, 3]).nondegenerate is True
    ctx = context("x", "y", "z")
    x, y, z = ctx.gens()
    degenerate = make_nlie((x + y + z) ** 2, name="rank1")
    assert degenerate.nondegenerate is False


def test_nlie_requires_quadratic_form():
    ctx = context("x", "y")
    x, y = ctx.gens()
    with pytest.raises(ValueError):
        make_nlie(x ** 3 + y ** 3)


def test_sl2_has_both_routes():
    spec = make_sl2()
    assert spec.casimir is not None and spec.table is not None
    assert spec.arity == 2
    e, f, h = spec.ctx.gens()
    assert spec.casimir == 2 * e * f + Fraction(1, 2) * h ** 2


def test_malcev_canonical_table():
    spec = make_malcev_canonical()
    assert spec.ctx.nvars == 7 and spec.arity == 2
    b = spec.bracket
    e = {i + 1: spec.ctx.gens()[i] for i in range(7)}
    # each defining triple (a, b, c) cycles: [a,b]=c, [b,c]=a, [c,a]=b
    assert b(e[1], e[2]) == e[4]
    assert b(e[2], e[4]) == e[1]
    assert b(e[4], e[1]) == e[2]
    assert b(e[4], e[2]) == -e[1]
    assert b(e[1], e[5]) == e[6]  # [c, a] = b in the triple (5, 6, 1)
    casimir = sum((g ** 2 for g in spec.ctx.gens()), spec.ctx.zero())
    assert spec.casimir == casimir


def test_abg_specializes_to_canonical():
    one = make_malcev_abg(1, 1, 1)
    canonical = make_malcev_canonical()
    for names, value in canonical.table.rows():
        idx = tuple(canonical.ctx.index(nm) for nm in names)
        assert one.table.entry(idx).terms == value.terms, names


def test_abg_grid_constructs():
    # half-integer weights must combine to integer parameter exponents;
    # the constructor asserts this, so building the grid is the check
    for alpha, beta, gamma in product((1, 2, 3), repeat=3):
        spec = make_malcev_abg(alpha, beta, gamma)
        for _, value in spec.table.rows():
            assert value.total_degree() <= 1


def test_abg_casimir_is_weighted_sum_of_squares():
    spec = make_malcev_abg(2, 3, 5)
    f = spec.ctx.gens()
    expected = (15 * f[0] ** 2 + 10 * f[1] ** 2 + 6 * f[2] ** 2
                + 5 * f[3] ** 2 + 2 * f[4] ** 2 + f[5] ** 2 + 3 * f[6] ** 2)
    assert spec.casimir == expected


def test_abg_rejects_zero_parameters():
    with pytest.raises(ValueError):
        make_malcev_abg(0, 1, 1)


def test_splittable_sl2_triples():
    spec = make_malcev_splittable()
    ctx = spec.ctx
    b = spec.bracket
    h = ctx.variable("h")
    for u, up in (("x", "x'"), ("y", "y'"), ("z", "z'")):
        a, ap = ctx.variable(u), ctx.variable(up)
        assert b(h, a) == 2 * a
        assert b(h, ap) == -2 * ap
        assert b(a, ap) == h


def test_splittable_casimir():
    spec = make_malcev_splittable()
    c = spec.casimir
    expected = parse_polynomial("-(x*x' + y*y' + z*z' + 1/4*h^2)", spec.ctx)
    assert c == expected


def test_build_algebra_dispatch():
    for name in ALGEBRA_NAMES:
        kwargs = {}
        if name == "malcev-abg":
            kwargs = dict(alpha=1, beta=2, gamma=3)
        elif name == "nlie":
            kwargs = dict(alphas=[1, 2, 3])
        spec = build_algebra(name, alpha=kwargs.get("alpha"),
                             beta=kwargs.get("beta"),
                             gamma=kwargs.get("gamma"),
                             arity=None, alphas=kwargs.get("alphas"))
        assert spec.bracket is not None
    with pytest.raises(KeyError) as exc:
        build_algebra("nope", alpha=None, beta=None, gamma=None,
                      arity=None, alphas=None)
    assert exc.value.args == (
        "unknown algebra 'nope'; known: sl2, elliptic, quadric, nlie, "
        "malcev-canonical, malcev-abg, malcev-splittable",)
    for alphas in (None, []):
        with pytest.raises(ValueError, match=r"^nlie needs --alphas a1,a2,\.\.\.$"):
            build_algebra("nlie", alphas=alphas)
    for missing in ("alpha", "beta", "gamma"):
        params = {"alpha": 1, "beta": 2, "gamma": 3, missing: None}
        with pytest.raises(ValueError, match=(
                r"^malcev-abg needs --alpha, --beta and --gamma$")):
            build_algebra("malcev-abg", **params)
    assert build_algebra("elliptic").params == {"alpha": 1}
    assert build_algebra("quadric").arity == 2
    assert ALGEBRA_NAMES == ("sl2", "elliptic", "quadric", "nlie",
                             "malcev-canonical", "malcev-abg",
                             "malcev-splittable")
