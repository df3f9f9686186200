"""Built-in check batteries behind the casimir-suite and paper-suite commands.

Every item is a named, seeded, self-contained check returning pass/fail
plus a details line.  The frozen bracket tables below were derived by
hand, independently of the constructors in structures.py, so the two
routes cross-check each other.  The table and Casimir items are data:
each row of `items_bracket_tables` is run by `_table_item`, and each row
of `items_casimir` by `_casimir_item`.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

from . import analysis, brackets, structures
from .parser import parse_polynomial
from .poly import Polynomial, VarContext
from .quotient import QuotientContext


@dataclass
class ItemResult:
    item_id: str
    description: str
    passed: bool
    details: str
    seconds: float

    def to_dict(self) -> dict:
        return {
            "id": self.item_id,
            "description": self.description,
            "pass": self.passed,
            "details": self.details,
            "seconds": round(self.seconds, 3),
        }


@dataclass
class SuiteItem:
    item_id: str
    description: str
    run: Callable[[], Tuple[bool, str]]

    def execute(self) -> ItemResult:
        t0 = time.perf_counter()
        try:
            ok, details = self.run()
        except Exception as exc:  # a crashed item is a failed item
            ok, details = False, f"exception: {type(exc).__name__}: {exc}"
        return ItemResult(self.item_id, self.description, ok, details,
                          time.perf_counter() - t0)


def run_suite(items: Sequence[SuiteItem]) -> List[ItemResult]:
    return [item.execute() for item in items]


# -- frozen bracket tables (hand-derived) --------------------------------

_SL2_TABLE = [("e", "f", "h"), ("e", "h", "-2e"), ("f", "h", "2f")]

_ELLIPTIC1_TABLE = [
    ("x", "y", "z^2 - x y"),
    ("y", "z", "x^2 - y z"),
    ("z", "x", "y^2 - x z"),
]

_QUADRIC_TABLES = {
    2: [("x1", "x2", "2x3"), ("x1", "x3", "-2x2"), ("x2", "x3", "2x1")],
    3: [("x1", "x2", "x3", "2x4"), ("x1", "x2", "x4", "-2x3"),
        ("x1", "x3", "x4", "2x2"), ("x2", "x3", "x4", "-2x1")],
    4: [("x1", "x2", "x3", "x4", "2x5"), ("x1", "x2", "x3", "x5", "-2x4"),
        ("x1", "x2", "x4", "x5", "2x3"), ("x1", "x3", "x4", "x5", "-2x2"),
        ("x2", "x3", "x4", "x5", "2x1")],
}

_MALCEV_CANONICAL_TABLE = [
    ("e1", "e2", "e4"), ("e1", "e3", "e7"), ("e1", "e4", "-e2"),
    ("e1", "e5", "e6"), ("e1", "e6", "-e5"), ("e1", "e7", "-e3"),
    ("e2", "e3", "e5"), ("e2", "e4", "e1"), ("e2", "e5", "-e3"),
    ("e2", "e6", "e7"), ("e2", "e7", "-e6"),
    ("e3", "e4", "e6"), ("e3", "e5", "e2"), ("e3", "e6", "-e4"),
    ("e3", "e7", "e1"),
    ("e4", "e5", "e7"), ("e4", "e6", "e3"), ("e4", "e7", "-e5"),
    ("e5", "e6", "e1"), ("e5", "e7", "e4"),
    ("e6", "e7", "e2"),
]

# the (alpha,beta,gamma) family at (2,3,5)
_MALCEV_ABG235_TABLE = [
    ("f1", "f2", "f4"), ("f1", "f3", "f7"), ("f1", "f4", "-2f2"),
    ("f1", "f5", "f6"), ("f1", "f6", "-2f5"), ("f1", "f7", "-2f3"),
    ("f2", "f3", "f5"), ("f2", "f4", "3f1"), ("f2", "f5", "-3f3"),
    ("f2", "f6", "3f7"), ("f2", "f7", "-f6"),
    ("f3", "f4", "f6"), ("f3", "f5", "5f2"), ("f3", "f6", "-5f4"),
    ("f3", "f7", "5f1"),
    ("f4", "f5", "3f7"), ("f4", "f6", "6f3"), ("f4", "f7", "-2f5"),
    ("f5", "f6", "15f1"), ("f5", "f7", "5f4"),
    ("f6", "f7", "10f2"),
]

_MALCEV_SPLIT_TABLE = [
    ("h", "x", "2x"), ("h", "y", "2y"), ("h", "z", "2z"),
    ("h", "x'", "-2x'"), ("h", "y'", "-2y'"), ("h", "z'", "-2z'"),
    ("x", "y", "2z'"), ("x", "z", "-2y'"), ("x", "x'", "h"),
    ("x", "y'", "0"), ("x", "z'", "0"),
    ("y", "z", "2x'"), ("y", "x'", "0"), ("y", "y'", "h"), ("y", "z'", "0"),
    ("z", "x'", "0"), ("z", "y'", "0"), ("z", "z'", "h"),
    ("x'", "y'", "-2z"), ("x'", "z'", "2y"), ("y'", "z'", "-2x"),
]


def _table_item(make: Callable[[], structures.AlgebraSpec],
                entries: Sequence[Tuple[str, ...]],
                both: bool) -> Tuple[bool, str]:
    """Check each (arg, ..., value) row of a frozen table.

    The rows are checked on spec.bracket, or on the Jacobian and the
    table bracket in turn when both is set.
    """
    spec = make()
    forms = ((spec.jacobian_bracket(), spec.table_bracket()) if both
             else (spec.bracket,))
    for bracket in forms:
        for *arg_names, expected_src in entries:
            args = [parse_polynomial(nm, spec.ctx) for nm in arg_names]
            expected = parse_polynomial(expected_src, spec.ctx)
            got = bracket(*args)
            if got != expected:
                return False, (f"[{', '.join(arg_names)}] = {got}, "
                               f"expected {expected}")
    total = len(forms) * len(entries)
    return True, (f"{total} products match on both bracket forms" if both
                  else f"{total} products match")


def _abg_specializes() -> Tuple[bool, str]:
    one = structures.make_malcev_abg(1, 1, 1)
    canon = structures.make_malcev_canonical()
    for (i, j), value in sorted(canon.table.constants.items()):
        expect = value.terms  # same exponent layout on renamed variables
        got = one.table.entry((i, j)).terms
        if got != expect:
            return False, f"pair ({i},{j}) differs"
    return True, "family at (1,1,1) reproduces the canonical table"


def _splittable_sl2_triples() -> Tuple[bool, str]:
    spec = structures.make_malcev_splittable()
    ctx = spec.ctx
    b = spec.bracket
    for tr in (("x", "x'"), ("y", "y'"), ("z", "z'")):
        u = parse_polynomial(tr[0], ctx)
        v = parse_polynomial(tr[1], ctx)
        hh = parse_polynomial("h", ctx)
        if b(u, v) != hh or b(hh, u) != 2 * u or b(hh, v) != -2 * v:
            return False, f"triple (h,{tr[0]},{tr[1]}) is not an sl2 copy"
    return True, "each (h, u, u') triple multiplies like sl2"


def items_bracket_tables() -> List[SuiteItem]:
    battery = [
        ("table.sl2", "sl2 bracket table, Jacobian and table forms",
         structures.make_sl2, _SL2_TABLE, True),
        ("table.elliptic", "elliptic bracket table at alpha=1",
         partial(structures.make_elliptic, 1), _ELLIPTIC1_TABLE, False),
    ] + [
        (f"table.quadric{n}", f"{n}-ary quadric bracket table, both forms",
         partial(structures.make_quadric, n), entries, True)
        for n, entries in _QUADRIC_TABLES.items()
    ] + [
        ("table.malcev-canonical", "canonical 7-dim Malcev product table",
         structures.make_malcev_canonical, _MALCEV_CANONICAL_TABLE, False),
        ("table.malcev-abg", "scaled Malcev family table at (2,3,5)",
         partial(structures.make_malcev_abg, 2, 3, 5), _MALCEV_ABG235_TABLE, False),
        ("table.malcev-splittable",
         "split Malcev product table incl. vanishing products",
         structures.make_malcev_splittable, _MALCEV_SPLIT_TABLE, False),
    ]
    items = [SuiteItem(item_id, desc, partial(_table_item, make, entries, both))
             for item_id, desc, make, entries, both in battery]
    items.append(SuiteItem("table.abg-specializes",
                           "(alpha,beta,gamma)=(1,1,1) specializes to canonical",
                           _abg_specializes))
    items.append(SuiteItem("table.splittable-sl2-triples",
                           "split form contains three sl2 triples",
                           _splittable_sl2_triples))
    return items


# -- identity battery -----------------------------------------------------

def items_identities(seed: int = 0) -> List[SuiteItem]:
    items: List[SuiteItem] = []
    battery = [
        ("sl2", lambda: structures.make_sl2().bracket,
         ("skew", "leibniz", "filippov", "strong")),
        ("elliptic", lambda: structures.make_elliptic(1).bracket,
         ("skew", "leibniz", "filippov", "strong")),
        ("quadric3", lambda: structures.make_quadric(3).bracket,
         ("skew", "leibniz", "filippov", "strong")),
        ("splittable", lambda: structures.make_malcev_splittable().bracket,
         ("skew", "leibniz")),
    ]
    for name, make, idents in battery:
        for ident in idents:
            def run(make=make, ident=ident):
                rep = brackets.VERIFIERS[ident](make(), trials=100, seed=seed)
                if rep.passed:
                    return True, f"{rep.trials} checks, no defect"
                first = rep.failures[0] if rep.failures else {}
                return False, f"{rep.failure_count} defects, first: {first}"

            items.append(SuiteItem(f"identity.{name}.{ident}",
                                   f"{ident} identity on {name} (100 seeded trials)",
                                   run))

    def filippov_witness():
        rep = brackets.verify_filippov(
            structures.make_malcev_splittable().bracket, trials=5, seed=seed)
        if rep.passed:
            return False, "no witness found, but the algebra is not Lie"
        first = rep.failures[0]
        return True, f"witness: inputs {first['inputs']}, defect {first['defect']}"

    items.append(SuiteItem("identity.splittable.filippov-witness",
                           "split Malcev algebra violates the Jacobi identity",
                           filippov_witness))

    for name, make in (("splittable", structures.make_malcev_splittable),
                       ("canonical", structures.make_malcev_canonical),
                       ("abg", lambda: structures.make_malcev_abg(2, 3, 5))):
        def run(make=make):
            rep = brackets.verify_malcev(make().bracket, trials=25, seed=seed)
            if rep.passed:
                return True, f"{rep.trials} checks, no defect"
            return False, f"{rep.failure_count} defects"

        items.append(SuiteItem(f"identity.{name}.malcev",
                               f"Malcev identity on the {name} form", run))
    return items


# -- ternary Jacobians and the quotient identity ---------------------------

_SECTION_CONSTANTS = [
    (("x", "y", "h"), "12z'"),
    (("y", "x", "h"), "-12z'"),
    (("z", "x", "h"), "12y'"),
    (("x'", "y", "h"), "0"),
    (("y'", "y", "h"), "0"),
    (("z'", "y", "h"), "0"),
    (("y'", "x", "x'"), "-6y'"),
    (("z'", "x", "x'"), "-6z'"),
]


def items_quotient_constants() -> List[SuiteItem]:
    def constants():
        spec = structures.make_malcev_splittable()
        b = spec.bracket
        for args, expected_src in _SECTION_CONSTANTS:
            ps = [parse_polynomial(a, spec.ctx) for a in args]
            expected = parse_polynomial(expected_src, spec.ctx)
            got = brackets.ternary_jacobian(b, *ps)
            if got != expected:
                return False, f"J{args} = {got}, expected {expected}"
        return True, f"{len(_SECTION_CONSTANTS)} ternary Jacobians match"

    def reduction():
        spec = structures.make_malcev_splittable()
        ctx = spec.ctx
        lhs = parse_polynomial("y y' + z z'", ctx)
        for lam in (1, 2, -3):
            q = QuotientContext.create(spec.bracket, lam, casimir=spec.casimir)
            rhs = parse_polynomial(f"-({lam}) - x x' - 1/4 h^2", ctx)
            if not q.reduce(lhs - rhs).is_zero():
                return False, f"identity fails at lambda={lam}"
        return True, "yy'+zz' = -lambda - xx' - h^2/4 in the quotient, lambda in {1,2,-3}"

    return [
        SuiteItem("quotient.ternary-constants",
                  "ternary Jacobian constants of the split form", constants),
        SuiteItem("quotient.reduction-identity",
                  "quadratic relation among the split variables in the quotient",
                  reduction),
    ]


# -- Casimir centrality -----------------------------------------------------

def _casimir_item(cases: Sequence[Tuple[str, Callable[[], structures.AlgebraSpec],
                                         Sequence[str]]],
                  ok_details: str) -> Tuple[bool, str]:
    """Check that each case's Casimir is central on each of its routes.

    A route is "jacobian" (2x2 minors against spec.jacobian_bracket())
    or "table" (brackets with the generators of spec.table_bracket()).
    """
    for label, make, routes in cases:
        spec = make()
        for route in routes:
            bracket = (spec.jacobian_bracket() if route == "jacobian"
                       else spec.table_bracket())
            ok, wit = analysis.center_membership(bracket, spec.casimir)
            if not ok:
                return False, f"{label}: witness {wit[:1]}"
    return True, ok_details


def items_casimir() -> List[SuiteItem]:
    battery = [
        ("casimir.sl2", "sl2 Casimir h^2/2 + 2ef is central",
         [("sl2", structures.make_sl2, ("jacobian", "table"))],
         "central for both bracket forms"),
        ("casimir.elliptic", "elliptic Casimir is central for alpha in {0,1,2}",
         [(f"alpha={a}", partial(structures.make_elliptic, a), ("jacobian",))
          for a in (0, 1, 2)],
         "central for alpha in {0, 1, 2}"),
        ("casimir.quadrics", "quadratic-form Casimirs are central, arities 2-4",
         [(f"quadric({n})", partial(structures.make_quadric, n), ("jacobian", "table"))
          for n in (2, 3, 4)]
         + [("diagonal (1,-2,3)",
             partial(structures.make_nlie_diagonal, [1, -2, 3]), ("table",))],
         "central for arities 2-4 and a mixed-sign diagonal form"),
        ("casimir.malcev-canonical", "canonical Malcev Casimir is central",
         [("canonical", structures.make_malcev_canonical, ("table",))],
         "sum of squares is central"),
        ("casimir.malcev-abg-grid",
         "scaled Malcev Casimir central on a 27-point grid",
         [(f"({a},{b},{g})", partial(structures.make_malcev_abg, a, b, g), ("table",))
          for a, b, g in itertools.product((1, 2, 3), repeat=3)],
         "central on the full {1,2,3}^3 parameter grid"),
        ("casimir.malcev-splittable", "split Malcev Casimir is central",
         [("splittable", structures.make_malcev_splittable, ("table",))],
         "-(xx'+yy'+zz'+h^2/4) is central"),
    ]
    return [SuiteItem(item_id, desc, partial(_casimir_item, cases, ok_details))
            for item_id, desc, cases, ok_details in battery]


# -- roots and closedness ----------------------------------------------------

def items_roots(seed: int = 0) -> List[SuiteItem]:
    items: List[SuiteItem] = []

    def planted():
        rng = random.Random(seed)
        cases = 0
        while cases < 50:
            nv = rng.randint(2, 4)
            ctx = VarContext(tuple(f"x{i}" for i in range(1, nv + 1)))
            deg = rng.randint(1, 3)
            c = brackets.random_homogeneous(rng, ctx, deg, coeff_bound=5, max_terms=3)
            k = rng.randint(2, 4)
            alpha = Fraction(rng.choice([q for q in range(-9, 10) if q]))
            big = alpha * c ** k
            res = analysis.kth_root(big, k)
            if not res.found:
                return False, f"case {cases}: planted root not found ({c})^{k}"
            if res.alpha * res.root ** k != big:
                return False, f"case {cases}: reconstruction mismatch"
            wrong = next(j for j in range(2, 9) if (deg * k) % j != 0)
            if analysis.kth_root(big, wrong).found:
                return False, f"case {cases}: bogus root for k={wrong}"
            cases += 1
        return True, "50 planted roots recovered and reconstructed exactly"

    items.append(SuiteItem("roots.planted",
                           "seeded planted k-th roots are recovered exactly",
                           planted))

    def casimirs_closed():
        checks = [
            ("sl2", structures.make_sl2().casimir),
            ("elliptic(1)", structures.make_elliptic(1).casimir),
            ("elliptic(2)", structures.make_elliptic(2).casimir),
            ("quadric(2)", structures.make_quadric(2).casimir),
            ("quadric(3)", structures.make_quadric(3).casimir),
        ]
        for name, cas in checks:
            rep = analysis.is_closed_homogeneous(cas)
            if not rep.closed:
                return False, f"{name} Casimir is a {rep.witness_k}-th power"
        return True, "sl2, elliptic and nondegenerate quadric Casimirs are closed"

    items.append(SuiteItem("roots.casimirs-closed",
                           "built-in Casimirs are closed (not proper powers)",
                           casimirs_closed))

    def minimal_closed():
        rng = random.Random(seed + 1)
        for case in range(50):
            nv = rng.randint(2, 3)
            ctx = VarContext(tuple(f"x{i}" for i in range(1, nv + 1)))
            c = brackets.random_homogeneous(rng, ctx, rng.randint(1, 3),
                                            coeff_bound=4, max_terms=3)
            k = rng.randint(1, 4)
            alpha = Fraction(rng.choice([q for q in range(-9, 10) if q]))
            big = alpha * c ** k
            mr = analysis.minimal_root_homogeneous(big)
            if mr.alpha * mr.root ** mr.k != big:
                return False, f"case {case}: reconstruction mismatch"
            if mr.k < k:
                return False, f"case {case}: k={mr.k} below planted {k}"
            if not analysis.is_closed_homogeneous(mr.root).closed:
                return False, f"case {case}: returned root is not closed"
        return True, "50 minimal roots are closed and reconstruct their input"

    items.append(SuiteItem("roots.minimal-closed",
                           "minimal roots are closed and maximal in k",
                           minimal_closed))
    return items


# -- grading -------------------------------------------------------------------

def items_grading(seed: int = 0) -> List[SuiteItem]:
    items: List[SuiteItem] = []
    combos = [
        ("n2m2", "binary bracket, quadratic Casimir",
         lambda: structures.make_quadric(2)),
        ("n2m3", "binary bracket, cubic Casimir",
         lambda: structures.make_elliptic(1)),
        ("n3m2", "ternary bracket, quadratic Casimir",
         lambda: structures.make_quadric(3)),
    ]
    for tag, desc, make in combos:
        def run(make=make):
            spec = make()
            q = QuotientContext.create(spec.bracket, 1)
            m, n = q.m, q.arity
            residue_tuples = list(itertools.product(range(m), repeat=n))
            per = max(1, -(-50 // len(residue_tuples)))  # ceil
            total = 0
            for i, residues in enumerate(residue_tuples):
                rep = q.verify_grading(residues, trials=per, seed=seed + i)
                total += rep.trials
                if not rep.passed:
                    return False, f"residues {residues}: {rep.failures[:1]}"
            return True, f"{total} trials concentrated in the predicted class"

        items.append(SuiteItem(f"grading.{tag}",
                               f"bracket degree-class formula, {desc}", run))

    def lift():
        spec = structures.make_sl2()
        q = QuotientContext.create(spec.bracket, 2)
        rng = random.Random(seed)
        ctx = spec.ctx
        done = 0
        while done < 50:
            r = rng.randint(0, 1)
            parts = []
            for d in (r, r + 2, r + 4):
                if d > 0 and rng.random() < 0.8:
                    parts.append(brackets.random_homogeneous(rng, ctx, d,
                                                             coeff_bound=5,
                                                             max_terms=2))
            if not parts:
                continue
            f = sum(parts, ctx.zero())
            if f.is_zero() or q.reduce(f).is_zero():
                continue
            lifted = q.homogeneous_lift(f)
            if not lifted.is_homogeneous():
                return False, f"lift of {f} is not homogeneous"
            if not q.reduce(lifted - f).is_zero():
                return False, f"lift of {f} differs in the quotient"
            done += 1
        return True, "50 lifts homogeneous and equal to their input mod (C-lambda)"

    items.append(SuiteItem("grading.lift",
                           "class-pure elements lift to homogeneous representatives",
                           lift))
    return items


# -- saturation -----------------------------------------------------------------

def items_saturation(seed: int = 0) -> List[SuiteItem]:
    items: List[SuiteItem] = []

    def seeded_runs(make, lam_values=(1, -1), expect="whole-ring", rand_seed=0):
        spec = make()
        ctx = spec.ctx
        rng = random.Random(rand_seed)
        outcomes = []
        for lam in lam_values:
            q = QuotientContext.create(spec.bracket, lam,
                                       casimir=spec.casimir)
            seed_polys = [ctx.variable(i) for i in range(ctx.nvars)]
            extra = brackets.random_polynomial(rng, ctx, max_degree=2,
                                               coeff_bound=5)
            if not q.is_zero(extra):
                seed_polys.append(extra)
            for s in seed_polys:
                rep = analysis.saturate_poisson_ideal(q, [s])
                outcomes.append(rep.verdict)
                if rep.verdict != expect:
                    return False, (f"lambda={lam}, seed {s}: verdict "
                                   f"{rep.verdict}, expected {expect}")
        return True, f"{len(outcomes)} runs all reached {expect}"

    items.append(SuiteItem(
        "saturation.quadric2", "quadric surface: every seed saturates to 1",
        lambda: seeded_runs(lambda: structures.make_quadric(2), rand_seed=seed)))
    items.append(SuiteItem(
        "saturation.sl2", "sl2 quotient: every seed saturates to 1",
        lambda: seeded_runs(structures.make_sl2, rand_seed=seed + 1)))
    items.append(SuiteItem(
        "saturation.elliptic", "smooth cubic quotient: every seed saturates to 1",
        lambda: seeded_runs(lambda: structures.make_elliptic(1), rand_seed=seed + 2)))
    items.append(SuiteItem(
        "saturation.quadric3", "ternary quadric in 4 variables saturates to 1",
        lambda: seeded_runs(lambda: structures.make_quadric(3), rand_seed=seed + 3)))

    def split_runs():
        spec = structures.make_malcev_splittable()
        ctx = spec.ctx
        q = QuotientContext.create(spec.bracket, 1, casimir=spec.casimir)
        for name in ("h", "x"):
            rep = analysis.saturate_poisson_ideal(q, [ctx.variable(name)])
            if rep.verdict != "whole-ring":
                return False, f"seed {name}: verdict {rep.verdict}"
        return True, "seeds h and x both saturate to the whole ring"

    items.append(SuiteItem("saturation.splittable",
                           "split Malcev quotient saturates from h and from x",
                           split_runs))

    def negative():
        ctx = VarContext(("x", "y", "z"))
        x, y, z = ctx.gens()
        c = (x + y + z) ** 2
        b = brackets.JacobianBracket(c)
        q = QuotientContext.create(b, 1)
        rep = analysis.saturate_poisson_ideal(q, [x + y + z - 1])
        if rep.verdict != "proper-stable":
            return False, f"verdict {rep.verdict}, expected proper-stable"
        basis = [str(p) for p in rep.final_basis]
        return True, f"stable proper ideal with basis {basis}"

    items.append(SuiteItem("saturation.negative-control",
                           "squared hyperplane: bracket ideal stays proper",
                           negative))
    return items


# -- center probes ------------------------------------------------------------

def _is_constant_span(basis: Sequence[Polynomial]) -> bool:
    return all(p.is_constant() for p in basis)


def _span_matches(basis: Sequence[Polynomial],
                  target: Sequence[Polynomial]) -> bool:
    """Equality of rational spans via rank computations."""
    cols: Dict[Tuple[int, ...], int] = {}
    for p in list(basis) + list(target):
        for m in p.terms:
            cols.setdefault(m, len(cols))

    def rank(ps):
        rows = [{cols[m]: c for m, c in p.terms.items()} for p in ps]
        return len(cols) - len(analysis.rational_nullspace(rows, len(cols)))

    return rank(basis) == rank(target) == rank(list(basis) + list(target))


def items_center(seed: int = 0) -> List[SuiteItem]:
    items: List[SuiteItem] = []

    def quotient_probes():
        for name, make in (("sl2", structures.make_sl2),
                           ("quadric2", lambda: structures.make_quadric(2))):
            spec = make()
            q = QuotientContext.create(spec.bracket, 1)
            rep = analysis.center_probe(spec.bracket, 3, qctx=q)
            if not _is_constant_span(rep.basis) or rep.dimension != 1:
                return False, (f"{name}: center dim {rep.dimension}, "
                               f"basis {[str(p) for p in rep.basis]}")
        return True, "only constants are central to degree 3 in both quotients"

    items.append(SuiteItem("center.quotient-constants",
                           "quotient centers are constants up to degree 3",
                           quotient_probes))

    def ambient_probes():
        for name, make in (("sl2", structures.make_sl2),
                           ("quadric2", lambda: structures.make_quadric(2)),
                           ("elliptic", lambda: structures.make_elliptic(1))):
            spec = make()
            m = spec.casimir.total_degree()
            rep = analysis.center_probe(spec.bracket, m)
            target = [spec.ctx.one(), spec.casimir]
            if not _span_matches(rep.basis, target):
                return False, (f"{name}: basis {[str(p) for p in rep.basis]} "
                               f"does not span {{1, C}}")
        return True, "ambient centers to degree m are exactly span{1, C}"

    items.append(SuiteItem("center.ambient-span",
                           "ambient centers to degree m equal span{1, C}",
                           ambient_probes))
    return items


# -- assembly -----------------------------------------------------------------

def paper_suite_items(seed: int = 0) -> List[SuiteItem]:
    items: List[SuiteItem] = []
    items += items_bracket_tables()
    items += items_identities(seed)
    items += items_quotient_constants()
    items += items_casimir()
    items += items_roots(seed)
    items += items_grading(seed)
    items += items_saturation(seed)
    items += items_center(seed)
    return items
