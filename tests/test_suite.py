"""Failure paths of the two data-driven suite runners.

The paper suite only ever shows their passing side; these checks feed
each runner one wrong row and pin the failure text.
"""

import dataclasses

import pytest

from nlie import structures, suite


@pytest.mark.parametrize("both", [False, True])
def test_table_item_reports_wrong_value(both):
    wrong = [("e", "f", "2h")] + suite._SL2_TABLE[1:]
    ok, details = suite._table_item(structures.make_sl2, wrong, both)
    assert not ok
    assert details == "[e, f] = h, expected 2*h"


@pytest.mark.parametrize("route", ["jacobian", "table"])
def test_casimir_item_reports_witness(route):
    def make():
        spec = structures.make_sl2()
        bad = dataclasses.replace(spec, casimir=spec.ctx.variable("e"))
        # the Jacobian bracket of a spec is built from its own casimir;
        # keep sl2's, so that only the element tested changes
        bad.jacobian_bracket = spec.jacobian_bracket
        return bad

    ok, details = suite._casimir_item([("e in sl2", make, (route,))], "unused")
    assert not ok
    assert details.startswith("e in sl2: witness [")



def test_elliptic_table_route_reports_witness():
    # the table comes from frozen rows, so a C that is not central fails
    def make():
        spec = suite._elliptic_with_table(1)
        return dataclasses.replace(spec, casimir=spec.ctx.variable("x") ** 3)

    ok, details = suite._casimir_item([("alpha=1", make, ("table",))], "unused")
    assert not ok
    assert details.startswith("alpha=1: witness [")


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_elliptic_frozen_rows_match_the_jacobian_bracket(alpha):
    spec = suite._elliptic_with_table(alpha)
    table, jacobian = spec.table_bracket(), spec.jacobian_bracket()
    gens = spec.ctx.gens()
    assert all(table(u, v) == jacobian(u, v) for u in gens for v in gens)
