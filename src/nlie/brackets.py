"""n-ary brackets on polynomial algebras and identity verification.

Both bracket constructions are sums of n x n minors of the arguments,
sum over keys I of det(df_a/dx_{I_b}) * c_I, and share one kernel that
evaluates that sum over a precomputed list of nonzero coefficients.  The
kernel runs on integers: each argument is cleared once to integer
numerators over its denominator d_a, the c_I once per bracket over one
common denominator E, minors come from one integer Laplace expansion
(`_int_det`) and products from poly's `_int_mul`, and each term of the
result becomes one Fraction over E * prod(d_a).

* JacobianBracket: the n-ary bracket on K[x_1..x_{n+1}] given by the
  Jacobian determinant {f_1,...,f_n} = det d(f_1,...,f_n,C)/dx with a
  fixed last row polynomial C.  Laplace expansion along the C row gives
  c_I = (-1)^(n+k) dC/dx_k for I = all indices but k (0-based k).

* TableBracket: the unique extension of a structure-constant table on
  generators to a multiderivation of the polynomial algebra; c_I is the
  product [e_{i_1},...,e_{i_n}] on each increasing index tuple I.

`poly_det` clears each row of a polynomial matrix once and runs the same
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
finding, not an exception.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import Monomial, Polynomial, VarContext, _cleared, _from_ints, _int_mul

MAX_STORED_FAILURES = 12


class ArityMismatch(ValueError):
    """Raised when a bracket receives the wrong number of arguments."""


# An integer polynomial is a list of (monomial, int) pairs with distinct
# monomials; an integer row maps a column to its nonzero entry, and a
# missing column is zero.
_IntPoly = List[Tuple[Monomial, int]]
_IntRow = Dict[int, _IntPoly]
# The cleared coefficients of a bracket: one common denominator E and,
# for each nonzero c_I, the key I, its bit mask sum(1 << i for i in I)
# and the integer numerators of c_I over E.
_IntCoeffs = Tuple[int, Tuple[Tuple[Tuple[int, ...], int, _IntPoly], ...]]


def _int_det(rows: Sequence[_IntRow], cols: Tuple[int, ...],
             memo: Dict[Tuple[int, ...], _IntPoly]) -> _IntPoly:
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
    out: Dict[Monomial, int] = {}
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
    the lcm of its denominators; the integer determinant is the Laplace
    expansion the brackets use, and each of its terms is divided by the
    product of the row denominators once.  The 0x0 determinant is one.
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
    int_rows = []
    denom = 1
    for row in rows:
        entries = {c: row[c].terms for c in cols if row[c]}
        d = lcm(*[q.denominator for t in entries.values() for q in t.values()])
        denom *= d
        int_rows.append({c: _cleared(t, d)[1] for c, t in entries.items()})
    return _from_ints(ctx, _int_det(int_rows, cols, {}), denom)


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


def _int_partials(items: _IntPoly) -> _IntRow:
    """The nonzero partials of an integer polynomial, keyed by variable.

    Only the variables it uses get an entry.  Distinct monomials have
    distinct partials in one variable, so no sum can cancel.
    """
    grads: _IntRow = {}
    for mono, c in items:
        for j, e in enumerate(mono):
            if e:
                grads.setdefault(j, []).append((mono[:j] + (e - 1,) + mono[j + 1:], c * e))
    return grads


def _cleared_coeffs(coeffs: Iterable[Tuple[Tuple[int, ...], Polynomial]]) -> _IntCoeffs:
    """The nonzero c_I of a bracket over their one common denominator E."""
    coeffs = [(idxs, c.terms) for idxs, c in coeffs if c]
    E = lcm(*[q.denominator for _, t in coeffs for q in t.values()])
    return E, tuple((idxs, sum(1 << i for i in idxs), _cleared(t, E)[1])
                    for idxs, t in coeffs)


def _minor_expansion(fs: Sequence[Polynomial], coeffs: _IntCoeffs,
                     ctx: VarContext) -> Polynomial:
    """Sum of det(df_a/dx_{I_b}) * c_I over the cleared coefficients.

    Each argument is cleared once to integer numerators over its
    denominator d_a, and its partials are taken on those, only in the
    variables it uses.  A key I is skipped when some argument uses none
    of its variables, since that minor has a zero row.  The minors and
    their products with the c_I sum as ints; each term of the result is
    divided by E * prod(d_a) once.
    """
    E, keyed = coeffs
    denom = E
    rows = []
    masks = []  # the variables each argument uses, as a bit mask
    for f in fs:
        d, items = _cleared(f.terms)
        denom *= d
        row = _int_partials(items)
        rows.append(row)
        masks.append(sum(1 << j for j in row))
    memo: Dict[Tuple[int, ...], _IntPoly] = {}
    acc: Dict[Monomial, int] = {}
    for idxs, key_mask, coeff in keyed:
        for mask in masks:
            if not mask & key_mask:
                break
        else:
            minor = _int_det(rows, idxs, memo)
            if minor:
                _int_mul(minor, coeff, acc)
    return _from_ints(ctx, acc.items(), denom)


def _check_args(bracket, fs: Sequence[Polynomial]) -> None:
    if len(fs) != bracket.arity:
        raise ArityMismatch(f"bracket takes {bracket.arity} arguments, got {len(fs)}")
    ctx = bracket.ctx
    for f in fs:
        if f.ctx is not ctx and f.ctx != ctx:
            raise ValueError("bracket argument from the wrong context")


@dataclass(frozen=True)
class JacobianBracket:
    """n-ary Jacobian bracket {f_1..f_n} = J(f_1,...,f_n,C) on n+1 variables.

    Expanding the determinant along the C row gives a sum of n x n
    minors of the arguments with coefficients (-1)^(n+k) dC/dx_k (0-based
    k) on the key of all indices but k; those are computed once here.
    """

    casimir: Polynomial
    _coeffs: _IntCoeffs = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_coeffs", _cleared_coeffs(coeffs))

    @property
    def ctx(self) -> VarContext:
        return self.casimir.ctx

    @property
    def arity(self) -> int:
        return self.ctx.nvars - 1

    def __call__(self, *fs: Polynomial) -> Polynomial:
        _check_args(self, fs)
        return _minor_expansion(fs, self._coeffs, self.ctx)


@dataclass(frozen=True)
class TableBracket:
    """Multiderivation extension of a structure-constant table.

    `table` provides .ctx, .arity and .constants, a map from strictly
    increasing index tuples to their nonzero products, cleared once
    here for the kernel.
    """

    table: object
    _coeffs: _IntCoeffs = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_coeffs",
                           _cleared_coeffs(self.table.constants.items()))

    @property
    def ctx(self) -> VarContext:
        return self.table.ctx

    @property
    def arity(self) -> int:
        return self.table.arity

    def __call__(self, *fs: Polynomial) -> Polynomial:
        _check_args(self, fs)
        return _minor_expansion(fs, self._coeffs, self.ctx)


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
    is never zero.  Deterministic given the rng state.
    """
    terms: Dict[Monomial, Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * ctx.nvars
        for _ in range(draw_degree()):
            mono[rng.randrange(ctx.nvars)] += 1
        c = rng.randint(1, coeff_bound) * rng.choice((1, -1))
        terms.setdefault(tuple(mono), Fraction(c))
    return Polynomial(ctx, terms)


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


def verify_skew(bracket, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Alternation: repeated arguments kill the bracket, transpositions flip sign."""
    n, ctx = bracket.arity, bracket.ctx
    gens = ctx.gens()

    def generated():
        # every duplication of an (n-1)-subset; none at arity 1
        for base in itertools.combinations(range(ctx.nvars), n - 1):
            for dup in base:
                args = [gens[i] for i in base] + [gens[dup]]
                yield bracket(*args), args, "duplicate generator"

    def draw(rng):
        fs = _random_tuple(rng, ctx, n)
        if n < 2:
            yield ctx.zero(), fs, "arity 1, nothing to swap"
            return
        a, b = rng.sample(range(n), 2)
        swapped = list(fs)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        yield bracket(*fs) + bracket(*swapped), fs, f"swap {a},{b}"
        dup = list(fs)
        dup[b] = dup[a]
        yield bracket(*dup), dup, "duplicate slot"

    return _run_checks("skew", n, generated(), draw, trials, seed)


def verify_leibniz(bracket, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Derivation in each slot: {..., g*h, ...} = g{...,h,...} + {...,g,...}h."""
    n, ctx = bracket.arity, bracket.ctx

    def draw(rng):
        fs = list(_random_tuple(rng, ctx, n))
        g = random_polynomial(rng, ctx)
        h = random_polynomial(rng, ctx)
        slot = rng.randrange(n)
        with_prod = list(fs)
        with_prod[slot] = g * h
        with_g = list(fs)
        with_g[slot] = g
        with_h = list(fs)
        with_h[slot] = h
        defect = bracket(*with_prod) - g * bracket(*with_h) - bracket(*with_g) * h
        yield defect, [g, h] + fs, f"slot {slot}"

    return _run_checks("leibniz", n, (), draw, trials, seed)


def _two_block_checks(identity: str, bracket, defect, nu: int, nv: int,
                      trials: int, seed: int) -> IdentityReport:
    """Checks of an identity in a u block of nu and a v block of nv arguments.

    The generator phase takes every increasing index tuple for each
    block; each random trial draws the u block, then the v block.
    """
    ctx = bracket.ctx
    gens = ctx.gens()

    def generated():
        for ui in itertools.combinations(range(ctx.nvars), nu):
            for vi in itertools.combinations(range(ctx.nvars), nv):
                us = [gens[i] for i in ui]
                vs = [gens[i] for i in vi]
                yield defect(bracket, us, vs), us + vs, "generator tuple"

    def draw(rng):
        us = _random_tuple(rng, ctx, nu)
        vs = _random_tuple(rng, ctx, nv)
        yield defect(bracket, us, vs), us + vs, ""

    return _run_checks(identity, bracket.arity, generated(), draw, trials, seed)


def _filippov_defect(bracket, us, vs) -> Polynomial:
    lhs = bracket(bracket(*us), *vs)
    rhs = None
    for i in range(len(us)):
        inner = bracket(us[i], *vs)
        args = list(us)
        args[i] = inner
        term = bracket(*args)
        rhs = term if rhs is None else rhs + term
    return lhs - rhs


def verify_filippov(bracket, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Fundamental identity: [[u_1..u_n],v_..] = sum_i [u_1..[u_i,v_..]..u_n].

    The generator phase over increasing index tuples is complete for the
    degree-one part (the identity is multilinear and alternating in the
    u block and in the v block); random trials probe the full algebra.
    """
    n = bracket.arity
    return _two_block_checks("filippov", bracket, _filippov_defect, n, n - 1,
                             trials, seed)


def _strong_defect(bracket, us, vs) -> Polynomial:
    # sum_{i=1}^{n+1} (-1)^i {u_1..u_{n-1}, v_i} * {v_1,..,v_i-hat,..,v_{n+1}}
    acc = None
    for i, v in enumerate(vs):
        rest = vs[:i] + vs[i + 1:]
        term = bracket(*us, v) * bracket(*rest)
        if i % 2 == 0:  # (-1)^i with 1-based i is negative for even 0-based i
            term = -term
        acc = term if acc is None else acc + term
    return acc


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
    """
    if bracket.arity != 2:
        raise ArityMismatch("Malcev identity needs a binary bracket")
    ctx = bracket.ctx

    def defect(a, b, c):
        return (bracket(ternary_jacobian(bracket, a, b, c), a)
                - ternary_jacobian(bracket, a, b, bracket(a, c)))

    generated = ((defect(*abc), abc, "generator triple")
                 for abc in itertools.product(ctx.gens(), repeat=3))

    def draw(rng):
        abc = tuple(random_polynomial(rng, ctx, max_degree=1) for _ in range(3))
        yield defect(*abc), abc, ""

    return _run_checks("malcev", 2, generated, draw, trials, seed)


VERIFIERS = {
    "skew": verify_skew,
    "leibniz": verify_leibniz,
    "filippov": verify_filippov,
    "strong": verify_strong,
    "malcev": verify_malcev,
}
