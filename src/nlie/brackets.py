"""n-ary brackets on polynomial algebras and identity verification.

Both bracket constructions are sums of n x n minors of the arguments,
sum over keys I of det(df_a/dx_{I_b}) * c_I, and share one kernel,
`_int_bracket`, that evaluates that sum over a precomputed list of
nonzero coefficients.  The kernel runs on the packed integer layer of
nlie.poly: a call packs each argument once (`poly._pack`), the c_I are
cleared once per bracket over one common denominator E, every product
goes through `poly._int_mul`, and each term of the result becomes one
Fraction over E * prod(d_a) (`poly._polynomial`).  The bracket with its
last n-1 arguments fixed is a derivation in the first; the kernel forms
its coefficients (`_field_terms`) from one integer Laplace expansion of
the fixed rows (`_int_det`) and applies them to the first argument.

* JacobianBracket: the n-ary bracket on K[x_1..x_{n+1}] given by the
  Jacobian determinant {f_1,...,f_n} = det d(f_1,...,f_n,C)/dx with a
  fixed last row polynomial C.  Laplace expansion along the C row gives
  c_I = (-1)^(n+k) dC/dx_k for I = all indices but k (0-based k).

* TableBracket: the unique extension of a structure-constant table on
  generators to a multiderivation of the polynomial algebra; c_I is the
  product [e_{i_1},...,e_{i_n}] on each increasing index tuple I.

`poly_det` packs each row of a polynomial matrix once and runs the same
integer determinant; `jacobian` is the full determinant through it.  As
all of these share one determinant, the property tests in
tests/test_brackets.py check them against sympy.

Every identity verifier, and QuotientContext.verify_grading, runs
through one driver, `_run_checks`: a deterministic generator-tuple phase
(complete for multilinear alternating identities), then seeded random
trials drawn from one random.Random(seed).  A verifier supplies only the
checks, each a (defect, inputs, note) triple; Filippov and strong share
`_two_block_checks` for their u and v argument blocks.  The driver
returns an IdentityReport either way; a report with failures is a
finding, not an exception.  The verifiers evaluate each check on packed
integer values, share a field between the brackets of a check that fix
the same arguments, and build a Polynomial only for the defect.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import (Monomial, Polynomial, VarContext, _int_mul, _pack, _packing,
                   _PackedPoly, _PackedValue, _Packing, _polynomial, _raw)

MAX_STORED_FAILURES = 12


class ArityMismatch(ValueError):
    """Raised when a bracket receives the wrong number of arguments."""


# The kernel works on packed values (poly._pack).  An integer row maps a
# column to its nonzero entry, a missing column being zero.
_IntRow = Dict[int, _PackedPoly]
# for each variable j, the keys I containing j as (I - j, its bit mask,
# (-1)^p * c_I packed) with p the position of j in I
_ByVar = Tuple[Tuple[Tuple[Tuple[int, ...], int, _PackedPoly], ...], ...]


def _var_mask(row: _IntRow) -> int:
    # the variables a row of partials has entries for, as a bit mask
    mask = 0
    for j in row:
        mask |= 1 << j
    return mask


def _int_det(rows: Sequence[_IntRow], cols: Tuple[int, ...],
             memo: Dict[Tuple[int, ...], _PackedPoly]) -> _PackedPoly:
    """Determinant of the columns `cols` of the last len(cols) integer rows.

    Laplace expansion along rows, memoized in `memo` on the surviving
    column set; minors of the same rows may share one memo, so that the
    sub-minors they have in common are computed once.  The result has no
    zero coefficient.
    """
    last = rows[-1]
    if len(cols) == 1:
        return last.get(cols[0], [])
    got = memo.get(cols)
    if got is not None:
        return got
    row = rows[len(rows) - len(cols)]
    out: Dict[int, int] = {}
    for k, c in enumerate(cols):
        entry = row.get(c)
        if entry is None:
            continue
        rest = cols[:k] + cols[k + 1:]
        # a 1x1 sub-minor is an entry of the last row
        sub = last.get(rest[0]) if len(rest) == 1 else _int_det(rows, rest, memo)
        if sub:
            if k % 2:
                entry = [(m, -v) for m, v in entry]
            _int_mul(entry, sub, out)
    got = [(m, v) for m, v in out.items() if v]
    memo[cols] = got
    return got


def poly_det(rows: Sequence[Sequence[Polynomial]], ctx: VarContext,
             cols: Optional[Tuple[int, ...]] = None) -> Polynomial:
    """Determinant of a square matrix of polynomials, or of one minor.

    With `cols`, the determinant of the columns `cols` of the n-row
    matrix `rows`.  Each row is cleared once to integer numerators over
    the lcm of its denominators and packed; the integer determinant is
    the Laplace expansion the brackets use, and each of its terms is
    divided by the product of the row denominators once.  The 0x0
    determinant is one.
    """
    n = len(rows)
    if cols is None:
        for row in rows:
            if len(row) != n:
                raise ValueError("determinant of a non-square matrix")
        cols = tuple(range(n))
    elif len(cols) != n:
        raise ValueError("determinant of a non-square minor")
    if n == 0:
        return ctx.one()
    cols = tuple(cols)
    # a term of the determinant takes one entry from each row
    packing = _packing(ctx.nvars, sum(
        max([0] + [row[c].total_degree() for c in cols]) for row in rows))
    int_rows = []
    denom = 1
    for row in rows:
        entries = {c: row[c].terms for c in cols if row[c]}
        d = lcm(*[q.denominator for t in entries.values() for q in t.values()])
        denom *= d
        int_rows.append({c: _pack(packing, t, d)[1] for c, t in entries.items()})
    return _polynomial(ctx, packing, (denom, _int_det(int_rows, cols, {})))


def jacobian(fs: Sequence[Polynomial]) -> Polynomial:
    """Jacobian determinant of nvars polynomials in their context.

    The full determinant by `poly_det`; the property tests check it,
    and both brackets, against sympy.
    """
    if not fs:
        raise ValueError("jacobian of an empty family")
    ctx = fs[0].ctx
    for f in fs:
        if f.ctx != ctx:
            raise ValueError("jacobian arguments from different contexts")
    if len(fs) != ctx.nvars:
        raise ValueError(
            f"jacobian needs {ctx.nvars} polynomials, got {len(fs)}")
    rows = [[f.partial(j) for j in range(ctx.nvars)] for f in fs]
    return poly_det(rows, ctx)


class _Coeffs:
    """The cleared coefficients of a bracket.

    One common denominator E; for each nonzero c_I in `keyed` the key I
    and the terms of c_I; `degree`, the largest total degree of a c_I.
    `by_var` regroups them by variable, packed over E, once per packing
    width.
    """

    __slots__ = ("E", "keyed", "degree", "_by_var")

    def __init__(self, coeffs: Iterable[Tuple[Tuple[int, ...], Polynomial]]) -> None:
        coeffs = [(idxs, c) for idxs, c in coeffs if c]
        self.E = E = lcm(*[q.denominator for _, c in coeffs for q in c.terms.values()])
        self.keyed = tuple((idxs, c.terms) for idxs, c in coeffs)
        self.degree = max([c.total_degree() for _, c in coeffs], default=0)
        self._by_var: Dict[int, _ByVar] = {}

    def by_var(self, packing: _Packing) -> _ByVar:
        got = self._by_var.get(packing.w)
        if got is None:
            lists: List[list] = [[] for _ in range(packing.nvars)]
            for idxs, c in self.keyed:
                packed = _pack(packing, c, self.E)[1]
                negated = [(m, -v) for m, v in packed]
                for pos, j in enumerate(idxs):
                    rest = idxs[:pos] + idxs[pos + 1:]
                    lists[j].append((rest, sum(1 << i for i in rest),
                                     negated if pos % 2 else packed))
            got = self._by_var[packing.w] = tuple(tuple(t) for t in lists)
        return got


# The bracket with its last n-1 arguments fixed is a derivation in the
# first: {f, t_2..t_n} = sum_j df/dx_j * K_j.  Laplace expansion along
# the first row gives K_j = sum over keys I containing j, at position p,
# of (-1)^p * det(dt_a/dx_{I - j}) * c_I.

def _field_terms(coeffs: _Coeffs, rows: Sequence[_IntRow], packing: _Packing,
                 need: Optional[Iterable[int]] = None) -> Dict[int, _PackedPoly]:
    """The nonzero K_j from the partial rows of the tail, as numerators
    over E times the tail's denominators; only for the variables in
    `need` (all when None).

    A minor is skipped when some tail row has no entry in its columns,
    since it then has a zero row; the sub-minors of the tail rows are
    computed once.
    """
    masks = [_var_mask(row) for row in rows]
    by_var = coeffs.by_var(packing)
    memo: Dict[Tuple[int, ...], _PackedPoly] = {}
    K = {}
    for j in range(packing.nvars) if need is None else need:
        acc: Dict[int, int] = {}
        for rest, rest_mask, coeff in by_var[j]:
            for mask in masks:
                if not mask & rest_mask:
                    break
            else:
                minor = _int_det(rows, rest, memo) if rows else [(0, 1)]
                if minor:
                    _int_mul(minor, coeff, acc)
        entry = [(m, v) for m, v in acc.items() if v]
        if entry:
            K[j] = entry
    return K


def _apply_terms(K: Dict[int, _PackedPoly], row: _IntRow) -> Dict[int, int]:
    # sum_j df/dx_j * K_j from the partial row of f; zero sums stay
    acc: Dict[int, int] = {}
    for j, entry in row.items():
        kj = K.get(j)
        if kj:
            _int_mul(entry, kj, acc)
    return acc


def _int_bracket(args: Sequence[_PackedValue], coeffs: _Coeffs,
                 packing: _Packing) -> _PackedValue:
    """The bracket of packed values: the field of args[1:], formed only in
    the variables args[0] uses, applied to args[0]."""
    d, items = args[0]
    tail = args[1:]
    packing.check(packing.degree(items) + coeffs.degree
                  + sum(packing.degree(t) for _, t in tail))
    row = packing.partials(items)
    K = _field_terms(coeffs, [packing.partials(t) for _, t in tail], packing, row)
    acc = _apply_terms(K, row)
    return (coeffs.E * d * prod(dt for dt, _ in tail),
            [(m, v) for m, v in acc.items() if v])


def _evaluate(bracket, fs: Sequence[Polynomial]) -> Polynomial:
    """The bracket of fs by `_int_bracket`, on one packing with room for
    the sum of the degrees of the arguments and of the c_I, which bounds
    every product."""
    if len(fs) != bracket.arity:
        raise ArityMismatch(f"bracket takes {bracket.arity} arguments, got {len(fs)}")
    ctx, coeffs = bracket.ctx, bracket._coeffs
    for f in fs:
        if f.ctx is not ctx and f.ctx != ctx:
            raise ValueError("bracket argument from the wrong context")
    packing = _packing(ctx.nvars, coeffs.degree + sum(max(f.total_degree(), 0) for f in fs))
    return _polynomial(ctx, packing,
                       _int_bracket([_pack(packing, f.terms) for f in fs], coeffs, packing))


@dataclass(frozen=True)
class JacobianBracket:
    """n-ary Jacobian bracket {f_1..f_n} = J(f_1,...,f_n,C) on n+1 variables.

    Expanding the determinant along the C row gives a sum of n x n
    minors of the arguments with coefficients (-1)^(n+k) dC/dx_k (0-based
    k) on the key of all indices but k; those are computed once here.
    """

    casimir: Polynomial
    _coeffs: _Coeffs = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, nv = self.arity, self.ctx.nvars
        if nv < 2:
            raise ValueError(f"Jacobian bracket over {self.ctx}: a Jacobian "
                             f"bracket needs at least two variables")
        coeffs = []
        for k in range(nv):
            dc = self.casimir.partial(k)
            key = tuple(j for j in range(nv) if j != k)
            coeffs.append((key, dc if (n + k) % 2 == 0 else -dc))
        object.__setattr__(self, "_coeffs", _Coeffs(coeffs))

    @property
    def ctx(self) -> VarContext:
        return self.casimir.ctx

    @property
    def arity(self) -> int:
        return self.ctx.nvars - 1

    def __call__(self, *fs: Polynomial) -> Polynomial:
        return _evaluate(self, fs)


@dataclass(frozen=True)
class TableBracket:
    """Multiderivation extension of a structure-constant table.

    `table` provides .ctx, .arity and .constants, a map from strictly
    increasing index tuples to their nonzero products, cleared once
    here for the kernel.
    """

    table: object
    _coeffs: _Coeffs = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_coeffs",
                           _Coeffs(self.table.constants.items()))

    @property
    def ctx(self) -> VarContext:
        return self.table.ctx

    @property
    def arity(self) -> int:
        return self.table.arity

    def __call__(self, *fs: Polynomial) -> Polynomial:
        return _evaluate(self, fs)


def ternary_jacobian(bracket, a: Polynomial, b: Polynomial, c: Polynomial) -> Polynomial:
    """J(a,b,c) = [[a,b],c] - [[a,c],b] - [a,[b,c]] for a binary bracket."""
    if bracket.arity != 2:
        raise ArityMismatch("ternary Jacobian needs a binary bracket")
    return (bracket(bracket(a, b), c)
            - bracket(bracket(a, c), b)
            - bracket(a, bracket(b, c)))


# -- random inputs ------------------------------------------------------

def _random_sparse(rng: random.Random, ctx: VarContext, draw_degree: Callable[[], int],
                   coeff_bound: int, max_terms: int) -> Polynomial:
    """Nonzero sparse polynomial; each term's degree comes from draw_degree().

    Coefficients are drawn from [-coeff_bound, coeff_bound] excluding 0
    and a repeated monomial keeps its first coefficient, so the result
    is never zero and its terms are canonical as drawn.  Deterministic
    given the rng state.
    """
    terms: Dict[Monomial, Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * ctx.nvars
        for _ in range(draw_degree()):
            mono[rng.randrange(ctx.nvars)] += 1
        c = rng.randint(1, coeff_bound) * rng.choice((1, -1))
        terms.setdefault(tuple(mono), Fraction(c))
    return _raw(ctx, terms)


def random_polynomial(rng: random.Random, ctx: VarContext, max_degree: int = 3,
                      coeff_bound: int = 9, max_terms: int = 4) -> Polynomial:
    """Nonzero random polynomial, term degrees uniform in 0..max_degree."""
    return _random_sparse(rng, ctx, lambda: rng.randint(0, max_degree),
                          coeff_bound, max_terms)


def random_homogeneous(rng: random.Random, ctx: VarContext, degree: int,
                       coeff_bound: int = 9, max_terms: int = 4) -> Polynomial:
    """Nonzero random homogeneous polynomial of exact total degree."""
    return _random_sparse(rng, ctx, lambda: degree, coeff_bound, max_terms)


# -- identity checks ----------------------------------------------------

@dataclass
class IdentityReport:
    """Outcome of checking one identity on one bracket."""

    identity: str
    arity: int
    trials: int
    failure_count: int
    failures: List[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "arity": self.arity,
            "trials": self.trials,
            "failure_count": self.failure_count,
            "failures": self.failures,
            "pass": self.passed,
        }


# One check: the defect (zero when the identity holds), the inputs it was
# computed from, and a note for the failure record ("" for none).
_Check = Tuple[Polynomial, Sequence[Polynomial], str]


def _run_checks(identity: str, arity: int, generated: Iterable[_Check],
                draw: Callable[[random.Random], Iterable[_Check]],
                trials: int, seed: int) -> IdentityReport:
    """The one identity-check driver behind every verifier.

    Runs the deterministic `generated` checks, then `trials` seeded
    trials, each yielding the checks of draw(rng) for one shared
    random.Random(seed).  Every check counts as a trial of the report;
    the first MAX_STORED_FAILURES nonzero defects are kept.
    """
    report = IdentityReport(identity, arity, 0, 0)
    rng = random.Random(seed)
    drawn = itertools.chain.from_iterable(draw(rng) for _ in range(trials))
    for defect, inputs, note in itertools.chain(generated, drawn):
        report.trials += 1
        if defect.is_zero():
            continue
        report.failure_count += 1
        if len(report.failures) < MAX_STORED_FAILURES:
            entry = {"inputs": [str(p) for p in inputs], "defect": str(defect)}
            if note:
                entry["note"] = note
            report.failures.append(entry)
    return report


def _random_tuple(rng: random.Random, ctx: VarContext, k: int) -> Tuple[Polynomial, ...]:
    return tuple(random_polynomial(rng, ctx) for _ in range(k))


# The verifiers evaluate each check on packed values, with one packing
# for the check: brackets by `_int_bracket` or through shared fields,
# sums and products by `_int_sum`.  No Fraction is built between nested
# brackets or for a product of brackets, and no monomial is unpacked
# until the defect, which has no terms when the identity holds.

# A field (degree, denominator, K) is the derivation f -> {f, *tail} on
# packed values, for f of total degree at most `degree`.
_Field = Tuple[int, int, Dict[int, _PackedPoly]]


def _int_field(coeffs: _Coeffs, tail: Sequence[_PackedValue], packing: _Packing,
               degree: int) -> _Field:
    """The field of tail, for first arguments of degree at most `degree`."""
    packing.check(degree + coeffs.degree
                  + sum(packing.degree(items) for _, items in tail))
    rows = [packing.partials(items) for _, items in tail]
    return degree, coeffs.E * prod(d for d, _ in tail), _field_terms(coeffs, rows, packing)


def _apply_field(field: _Field, value: _PackedValue, packing: _Packing) -> _PackedValue:
    bound, denom, K = field
    d, items = value
    degree = packing.degree(items)
    if degree > bound:
        raise OverflowError(f"argument of degree {degree} for a field built for {bound}")
    acc = _apply_terms(K, packing.partials(items))
    return denom * d, [(m, v) for m, v in acc.items() if v]


def _check_packing(bracket, inputs: Sequence[Polynomial]) -> Tuple[_Packing, List[_PackedValue]]:
    """The packing of one check and its inputs on it.

    Every value the verifiers form has degree at most twice the inputs'
    plus three times the c_I's: brackets nest at most three deep
    (Malcev), each adding the degree of the c_I, over inputs that enter
    at most twice.  The packing checks the bound as it goes.
    """
    packing = _packing(bracket.ctx.nvars, 2 * sum(max(p.total_degree(), 0) for p in inputs)
                       + 3 * bracket._coeffs.degree)
    return packing, [_pack(packing, p.terms) for p in inputs]


def _int_sum(terms: Sequence[Tuple[int, Sequence[_PackedValue]]],
             packing: _Packing) -> _PackedValue:
    """sum of sign * f_1 [* f_2] over (sign, factors) terms of one or two
    factors each, over the lcm L of the terms' denominators.

    Each term is scaled to L once, on its first factor, and a product
    goes straight into the sum.
    """
    dens = [prod(d for d, _ in factors) for _, factors in terms]
    top = lcm(*dens)
    out: Dict[int, int] = {}
    get = out.get
    for (sign, factors), den in zip(terms, dens):
        scale = sign * (top // den)
        first = factors[0][1]
        if scale != 1:
            first = [(m, scale * v) for m, v in first]
        if len(factors) == 2:
            second = factors[1][1]
            packing.check(packing.degree(first) + packing.degree(second))
            _int_mul(first, second, out)
        else:
            for m, v in first:
                out[m] = get(m, 0) + v
    return top, [(m, v) for m, v in out.items() if v]


def verify_skew(bracket, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Alternation: repeated arguments kill the bracket, transpositions flip sign."""
    n, ctx = bracket.arity, bracket.ctx
    gens = ctx.gens()
    coeffs = bracket._coeffs

    def generated():
        # every duplication of an (n-1)-subset; none at arity 1
        for base in itertools.combinations(range(ctx.nvars), n - 1):
            for dup in base:
                args = [gens[i] for i in base] + [gens[dup]]
                packing, values = _check_packing(bracket, args)
                yield (_polynomial(ctx, packing, _int_bracket(values, coeffs, packing)),
                       args, "duplicate generator")

    def draw(rng):
        fs = _random_tuple(rng, ctx, n)
        if n < 2:
            yield ctx.zero(), fs, "arity 1, nothing to swap"
            return
        a, b = rng.sample(range(n), 2)
        packing, values = _check_packing(bracket, fs)
        swapped = list(values)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        total = _int_sum([(1, (_int_bracket(values, coeffs, packing),)),
                          (1, (_int_bracket(swapped, coeffs, packing),))], packing)
        yield _polynomial(ctx, packing, total), fs, f"swap {a},{b}"
        dup = list(fs)
        dup[b] = dup[a]
        values[b] = values[a]
        yield (_polynomial(ctx, packing, _int_bracket(values, coeffs, packing)),
               dup, "duplicate slot")

    return _run_checks("skew", n, generated(), draw, trials, seed)


def verify_leibniz(bracket, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Derivation in each slot: {..., g*h, ...} = g{...,h,...} + {...,g,...}h."""
    n, ctx = bracket.arity, bracket.ctx
    coeffs = bracket._coeffs

    def draw(rng):
        fs = list(_random_tuple(rng, ctx, n))
        g = random_polynomial(rng, ctx)
        h = random_polynomial(rng, ctx)
        slot = rng.randrange(n)
        packing, values = _check_packing(bracket, [g, h] + fs)
        ig, ih, args = values[0], values[1], values[2:]

        def at_slot(value: _PackedValue) -> _PackedValue:
            args[slot] = value
            return _int_bracket(args, coeffs, packing)

        total = _int_sum([(1, (at_slot(_int_sum([(1, (ig, ih))], packing)),)),
                          (-1, (ig, at_slot(ih))),
                          (-1, (at_slot(ig), ih))], packing)
        yield _polynomial(ctx, packing, total), [g, h] + fs, f"slot {slot}"

    return _run_checks("leibniz", n, (), draw, trials, seed)


def _two_block_checks(identity: str, bracket, defect, nu: int, nv: int,
                      trials: int, seed: int) -> IdentityReport:
    """Checks of an identity in a u block of nu and a v block of nv arguments.

    defect(bracket, packing, us, vs) takes and returns packed values.
    The generator phase takes every increasing index tuple for each
    block; each random trial draws the u block, then the v block.
    """
    ctx = bracket.ctx
    gens = ctx.gens()

    def check(us, vs, note):
        inputs = list(us) + list(vs)
        packing, values = _check_packing(bracket, inputs)
        value = defect(bracket, packing, values[:nu], values[nu:])
        return _polynomial(ctx, packing, value), inputs, note

    def generated():
        for ui in itertools.combinations(range(ctx.nvars), nu):
            for vi in itertools.combinations(range(ctx.nvars), nv):
                yield check([gens[i] for i in ui], [gens[i] for i in vi],
                            "generator tuple")

    def draw(rng):
        us = _random_tuple(rng, ctx, nu)
        vs = _random_tuple(rng, ctx, nv)
        yield check(us, vs, "")

    return _run_checks(identity, bracket.arity, generated(), draw, trials, seed)


def _first_degree(bracket, packing: _Packing, values: Sequence[_PackedValue]) -> int:
    # bounds the degree of an input, or of a bracket of distinct inputs,
    # which has at most the sum of their degrees and that of the c_I
    return sum(packing.degree(items) for _, items in values) + bracket._coeffs.degree


def _filippov_defect(bracket, packing, us, vs) -> _PackedValue:
    # D = {., *vs} is a derivation of the bracket exactly when
    # D{us} = sum_i {u_1..D u_i..u_n}, and {u_1..w..u_n} with w in slot i
    # is (-1)^i {w, us without u_i}: one field for vs and one for each
    # us without u_i serve every bracket of the check.
    coeffs = bracket._coeffs
    top = _first_degree(bracket, packing, list(us) + list(vs))
    D = _int_field(coeffs, vs, packing, top)
    minus = [_int_field(coeffs, us[:i] + us[i + 1:], packing, top) for i in range(len(us))]
    inner = _apply_field(minus[0], us[0], packing)
    terms = [(1, (_apply_field(D, inner, packing),))]
    for i, u in enumerate(us):
        w = _apply_field(D, u, packing)
        terms.append((-1 if i % 2 == 0 else 1, (_apply_field(minus[i], w, packing),)))
    return _int_sum(terms, packing)


def verify_filippov(bracket, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Fundamental identity: [[u_1..u_n],v_..] = sum_i [u_1..[u_i,v_..]..u_n].

    The generator phase over increasing index tuples is complete for the
    degree-one part (the identity is multilinear and alternating in the
    u block and in the v block); random trials probe the full algebra.
    """
    n = bracket.arity
    return _two_block_checks("filippov", bracket, _filippov_defect, n, n - 1,
                             trials, seed)


def _strong_defect(bracket, packing, us, vs) -> _PackedValue:
    # sum_{i=1}^{n+1} (-1)^i {u_1..u_{n-1}, v_i} * {v_1,..,v_i-hat,..,v_{n+1}}
    # {*us, v} = (-1)^(n-1) {v, *us}: one field for us; {rest} is the
    # field of rest[1:] applied to rest[0], shared where rest[1:] agree.
    coeffs = bracket._coeffs
    top = _first_degree(bracket, packing, list(us) + list(vs))
    by_us = _int_field(coeffs, us, packing, top)
    tails: Dict[Tuple[int, ...], _Field] = {}
    terms = []
    for i, v in enumerate(vs):
        rest = [j for j in range(len(vs)) if j != i]
        key = tuple(rest[1:])
        field = tails.get(key)
        if field is None:
            field = tails[key] = _int_field(coeffs, [vs[j] for j in key], packing, top)
        # (-1)^i with 1-based i is negative for even 0-based i
        sign = (-1 if i % 2 == 0 else 1) * (-1 if len(us) % 2 else 1)
        terms.append((sign, (_apply_field(by_us, v, packing),
                             _apply_field(field, vs[rest[0]], packing))))
    return _int_sum(terms, packing)


def verify_strong(bracket, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Alternating sum of products of brackets over n+1 distinguished arguments.

    With u = (u_1..u_{n-1}) and v = (v_1..v_{n+1}):
    sum_i (-1)^i {u, v_i} {v_1,..,v_i-hat,..,v_{n+1}} = 0.

    Each slot of the sum is a derivation, so the generator phase over
    increasing tuples is complete; random trials cross-check.
    """
    n = bracket.arity
    return _two_block_checks("strong", bracket, _strong_defect, n - 1, n + 1,
                             trials, seed)


def verify_malcev(bracket, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Malcev identity [J(a,b,c),a] = J(a,b,[a,c]) for a binary bracket.

    Checked on all generator triples and on random degree-one elements
    (the identity is quadratic in a, so triples alone do not span it).
    Brackets are memoized on their packed arguments for the one call:
    the generator triples bracket the same few values over and over.
    """
    if bracket.arity != 2:
        raise ArityMismatch("Malcev identity needs a binary bracket")
    ctx = bracket.ctx
    coeffs = bracket._coeffs
    memo: Dict[tuple, _PackedValue] = {}

    def check(abc, note):
        packing, (a, b, c) = _check_packing(bracket, abc)

        def br(x: _PackedValue, y: _PackedValue) -> _PackedValue:
            key = (packing.w, x[0], tuple(x[1]), y[0], tuple(y[1]))
            got = memo.get(key)
            if got is None:
                got = memo[key] = _int_bracket((x, y), coeffs, packing)
            return got

        def jacobiator(x, y, z):  # ternary_jacobian on packed values
            return _int_sum([(1, (br(br(x, y), z),)), (-1, (br(br(x, z), y),)),
                             (-1, (br(x, br(y, z)),))], packing)

        total = _int_sum([(1, (br(jacobiator(a, b, c), a),)),
                          (-1, (jacobiator(a, b, br(a, c)),))], packing)
        return _polynomial(ctx, packing, total), abc, note

    generated = (check(abc, "generator triple")
                 for abc in itertools.product(ctx.gens(), repeat=3))

    def draw(rng):
        abc = tuple(random_polynomial(rng, ctx, max_degree=1) for _ in range(3))
        yield check(abc, "")

    return _run_checks("malcev", 2, generated, draw, trials, seed)


VERIFIERS = {
    "skew": verify_skew,
    "leibniz": verify_leibniz,
    "filippov": verify_filippov,
    "strong": verify_strong,
    "malcev": verify_malcev,
}
