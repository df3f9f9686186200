"""n-ary brackets on polynomial algebras and identity verification.

Both bracket constructions are sums of n x n minors of the arguments,
sum over keys I of det(df_a/dx_{I_b}) * c_I, and share one kernel that
evaluates that sum over a precomputed list of nonzero coefficients:

* JacobianBracket: the n-ary bracket on K[x_1..x_{n+1}] given by the
  Jacobian determinant {f_1,...,f_n} = det d(f_1,...,f_n,C)/dx with a
  fixed last row polynomial C.  Laplace expansion along the C row gives
  c_I = (-1)^(n+k) dC/dx_k for I = all indices but k (0-based k).

* TableBracket: the unique extension of a structure-constant table on
  generators to a multiderivation of the polynomial algebra; c_I is the
  product [e_{i_1},...,e_{i_n}] on each increasing index tuple I.

`jacobian` takes the full determinant without the kernel and is the
independent reference for it; the property tests in tests/test_brackets.py
compare both brackets against it and `jacobian` against sympy.

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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import Monomial, Polynomial, VarContext

MAX_STORED_FAILURES = 12


class ArityMismatch(ValueError):
    """Raised when a bracket receives the wrong number of arguments."""


def poly_det(rows: Sequence[Sequence[Polynomial]], ctx: VarContext,
             cols: Optional[Tuple[int, ...]] = None,
             memo: Optional[Dict[Tuple[int, ...], Polynomial]] = None) -> Polynomial:
    """Determinant of a square matrix of polynomials, or of one minor.

    With `cols`, the determinant of the columns `cols` of the n-row
    matrix `rows`.  1x1 and 2x2 matrices are computed directly; larger
    ones by Laplace expansion along rows with memoization on the
    surviving column set.  Minors of the same rows may share one `memo`,
    so that the sub-minors they have in common are computed once.
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
    if n == 1:
        return rows[0][cols[0]]
    if n == 2:
        i, j = cols
        a, b = rows[0][i], rows[0][j]
        c, d = rows[1][i], rows[1][j]
        det = a * d if a and d else ctx.zero()
        return det - b * c if b and c else det
    if memo is None:
        memo = {}

    def rec(cols: Tuple[int, ...]) -> Polynomial:
        r = n - len(cols)
        if not cols:
            return ctx.one()
        got = memo.get(cols)
        if got is not None:
            return got
        acc = ctx.zero()
        for k, c in enumerate(cols):
            entry = rows[r][c]
            if entry.is_zero():
                continue
            term = entry * rec(cols[:k] + cols[k + 1:])
            acc = acc + term if k % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return rec(cols)


def jacobian(fs: Sequence[Polynomial]) -> Polynomial:
    """Jacobian determinant of nvars polynomials in their context.

    The full determinant, independent of the minor expansion the bracket
    classes use; tests compare the two.
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


def _minor_expansion(fs: Sequence[Polynomial],
                     coeffs: Iterable[Tuple[Tuple[int, ...], Polynomial]],
                     ctx: VarContext) -> Polynomial:
    """Sum of det(df_a/dx_{I_b}) * c_I over the (I, c_I) pairs in coeffs.

    Partials are taken only in the variables each argument uses, and a
    key I is skipped when some argument uses none of its variables,
    since that minor has a zero row.
    """
    grads = [{j: f.partial(j) for j in f.variables_used()} for f in fs]
    zero = ctx.zero()
    rows = [[grad.get(j, zero) for j in range(ctx.nvars)] for grad in grads]
    memo: Dict[Tuple[int, ...], Polynomial] = {}
    acc = zero
    for idxs, coeff in coeffs:
        if any(grad.keys().isdisjoint(idxs) for grad in grads):
            continue
        minor = poly_det(rows, ctx, idxs, memo)
        if minor:
            acc = acc + minor * coeff
    return acc


def _check_args(bracket, fs: Sequence[Polynomial]) -> None:
    if len(fs) != bracket.arity:
        raise ArityMismatch(f"bracket takes {bracket.arity} arguments, got {len(fs)}")
    ctx = bracket.ctx
    for f in fs:
        if f.ctx != ctx:
            raise ValueError("bracket argument from the wrong context")


@dataclass(frozen=True)
class JacobianBracket:
    """n-ary Jacobian bracket {f_1..f_n} = J(f_1,...,f_n,C) on n+1 variables.

    Expanding the determinant along the C row gives a sum of n x n
    minors of the arguments with coefficients (-1)^(n+k) dC/dx_k (0-based
    k) on the key of all indices but k; those are computed once here.
    """

    casimir: Polynomial
    _coeffs: Tuple[Tuple[Tuple[int, ...], Polynomial], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, nv = self.arity, self.ctx.nvars
        coeffs = []
        for k in range(nv):
            dc = self.casimir.partial(k)
            if dc:
                key = tuple(j for j in range(nv) if j != k)
                coeffs.append((key, dc if (n + k) % 2 == 0 else -dc))
        object.__setattr__(self, "_coeffs", tuple(coeffs))

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
    increasing index tuples to their nonzero products.
    """

    table: object

    @property
    def ctx(self) -> VarContext:
        return self.table.ctx

    @property
    def arity(self) -> int:
        return self.table.arity

    def __call__(self, *fs: Polynomial) -> Polynomial:
        _check_args(self, fs)
        return _minor_expansion(fs, self.table.constants.items(), self.ctx)


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
