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
trials drawn from one random.Random(seed).  A verifier supplies the
checks, each a value that is falsy when the check passes and a function
that builds the failure record.  A report with failures is a finding,
not an exception.  What a PASS means:

* generator phases (skew, Filippov, strong, Malcev) and every Filippov,
  Malcev and grading trial: the defect is zero, exactly.  Filippov runs on the
  Lie derivative of the bracket's n-vector field (`_lie_derivative`).
* skew, Leibniz and strong trials: the defect vanishes at one random
  point p of [1, 2^32)^nvars per call, computed by the kernel on the
  gradients there (`_Point`).  A nonzero defect of degree d does so
  with probability at most d / (2^32 - 1) (Schwartz, J. ACM 1980).
  A failure's record holds its exact defect, from the public brackets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import lcm, prod
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import (Monomial, Polynomial, VarContext, _cleared, _int_mul, _pack,
                   _packing, _PackedPoly, _PackedValue, _Packing, _polynomial, _raw)

MAX_STORED_FAILURES = 12


class ArityMismatch(ValueError):
    """Raised when a bracket receives the wrong number of arguments."""


# The kernel works on packed values (poly._pack).  An integer row maps a
# column to its nonzero entry, a missing column being zero.
_IntRow = Dict[int, _PackedPoly]
# for each variable j, the keys I containing j as (I - j, its bit mask,
# (-1)^p, c_I packed) with p the position of j in I
_ByVar = Tuple[Tuple[Tuple[Tuple[int, ...], int, int, _PackedPoly], ...], ...]


def _var_mask(row: _IntRow) -> int:
    # the variables a row of partials has entries for, as a bit mask
    mask = 0
    for j in row:
        mask |= 1 << j
    return mask


def _by_var(nvars: int, keyed: Iterable[Tuple[Tuple[int, ...], _PackedPoly]]) -> _ByVar:
    """Regroup packed coefficients (I, c_I) by variable, each entry with
    its sign instead of a negated copy of c_I."""
    lists: List[list] = [[] for _ in range(nvars)]
    for idxs, c in keyed:
        for pos, j in enumerate(idxs):
            rest = idxs[:pos] + idxs[pos + 1:]
            lists[j].append((rest, sum(1 << i for i in rest), -1 if pos % 2 else 1, c))
    return tuple(map(tuple, lists))


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
    """The cleared coefficients of a bracket: one common denominator E;
    for each nonzero c_I in `keyed` the key I and the terms of c_I;
    `degree`, the largest total degree of a c_I.  Once per packing width
    they are packed over E and laid out by variable (`by_var`), by
    generator tuple (`fields`) and for `_lie_derivative` (`lie`)."""

    __slots__ = ("E", "keyed", "degree", "_by_var", "_lie", "_fields")

    def __init__(self, coeffs: Iterable[Tuple[Tuple[int, ...], Polynomial]]) -> None:
        coeffs = [(idxs, c) for idxs, c in coeffs if c]
        self.E = lcm(*[q.denominator for _, c in coeffs for q in c.terms.values()])
        self.keyed = tuple((idxs, c.terms) for idxs, c in coeffs)
        self.degree = max([c.total_degree() for _, c in coeffs], default=0)
        self._by_var: Dict[int, _ByVar] = {}
        self._lie: Dict[int, list] = {}
        self._fields: Dict[int, Dict[Tuple[int, ...], Dict[int, _PackedPoly]]] = {}

    def by_var(self, packing: _Packing) -> _ByVar:
        got = self._by_var.get(packing.w)
        if got is None:
            got = self._by_var[packing.w] = _by_var(packing.nvars, [
                (idxs, _pack(packing, c, self.E)[1]) for idxs, c in self.keyed])
        return got

    def at(self, point: Sequence[int]) -> _ByVar:
        """`by_var` at a point: each E * c_I(point) as one term at the
        constant monomial, which packs as 0 in every packing."""
        return _by_var(len(point), [(idxs, [(0, _value(_cleared(c, self.E)[1], point))])
                                    for idxs, c in self.keyed])

    def lie(self, packing: _Packing) -> list:
        """For each increasing key I that a Q_I of `_lie_derivative` can
        reach: I, the partials of c_I, and the moves (I_b, k, -P^J) for J =
        I with I_b replaced by k: P^J = (-1)^(n-1-b) K_k (x_k moves n-1-b
        places), K_k from the field of I - I_b (`fields`), so a call
        negates nothing."""
        got = self._lie.get(packing.w)
        if got is None:
            on = {idxs: _pack(packing, c, self.E)[1] for idxs, c in self.keyed}
            n, fields = len(next(iter(on), ())), self.fields(packing)
            got = self._lie[packing.w] = []
            for I in itertools.combinations(range(packing.nvars), n):
                moves = [(j, k, c if (n - 1 - b) % 2 else [(m, -v) for m, v in c])
                         for b, j in enumerate(I)
                         for k, c in fields.get(I[:b] + I[b + 1:], {}).items()]
                c = on.get(I)
                if c or moves:
                    got.append((I, packing.partials(c) if c else {}, moves))
        return got

    def fields(self, packing: _Packing) -> Dict[Tuple[int, ...], Dict[int, _PackedPoly]]:
        """For each increasing (n-1)-tuple I with a field, j -> K_j =
        +-c_(I+j) with {x_I, f} = sum_j df/dx_j * K_j over E: `by_var`'s
        entries at I times (-1)^(n-1), f being in the last slot."""
        got = self._fields.get(packing.w)
        if got is None:
            got = self._fields[packing.w] = {}
            for j, entries in enumerate(self.by_var(packing)):
                for rest, _, sign, c in entries:
                    if sign * (-1) ** len(rest) < 0:
                        c = [(m, -v) for m, v in c]
                    got.setdefault(rest, {})[j] = c
        return got


def _value(terms: Iterable[Tuple[Monomial, int]], point: Sequence[int]) -> int:
    # an integer term list evaluated at an integer point
    return sum(c * prod(map(pow, point, m)) for m, c in terms)


# The bracket with its last n-1 arguments fixed is a derivation in the
# first: {f, t_2..t_n} = sum_j df/dx_j * K_j.  Laplace expansion along
# the first row gives K_j = sum over keys I containing j, at position p,
# of (-1)^p * det(dt_a/dx_{I - j}) * c_I.  The kernel reads rows of
# partials; a row of one-term lists at the constant monomial is a
# gradient at a point, and the same code then gives a bracket's value
# there.

def _field_terms(by_var: _ByVar, rows: Sequence[_IntRow],
                 need: Optional[Iterable[int]] = None) -> Dict[int, _PackedPoly]:
    """The nonzero K_j from the partial rows of the tail, as numerators
    over E times the tail's denominators; only for the variables in
    `need` (all when None).

    A minor is skipped when some tail row has no entry in its columns,
    since it then has a zero row; the sub-minors of the tail rows are
    computed once.
    """
    masks = [_var_mask(row) for row in rows]
    memo: Dict[Tuple[int, ...], _PackedPoly] = {}
    K = {}
    for j in range(len(by_var)) if need is None else need:
        acc: Dict[int, int] = {}
        for rest, rest_mask, sign, coeff in by_var[j]:
            for mask in masks:
                if not mask & rest_mask:
                    break
            else:
                minor = _int_det(rows, rest, memo) if rows else [(0, 1)]
                if minor:
                    if sign < 0:
                        minor = [(m, -v) for m, v in minor]
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


def _row_bracket(by_var: _ByVar, rows: Sequence[_IntRow]) -> Dict[int, int]:
    """The bracket from its arguments' partial rows: the field of rows[1:],
    in the variables rows[0] uses, applied to rows[0]; zero sums stay."""
    return _apply_terms(_field_terms(by_var, rows[1:], rows[0]), rows[0])


def _int_bracket(args: Sequence[_PackedValue], coeffs: _Coeffs,
                 packing: _Packing) -> _PackedValue:
    """The bracket of packed values, over E times their denominators."""
    packing.check(coeffs.degree + sum(packing.degree(t) for _, t in args))
    acc = _row_bracket(coeffs.by_var(packing), [packing.partials(t) for _, t in args])
    return (coeffs.E * prod(d for d, _ in args),
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

def _random_terms(rng: random.Random, nvars: int, degree: Optional[int] = None,
                  max_degree: int = 3, coeff_bound: int = 9,
                  max_terms: int = 4) -> Dict[Monomial, int]:
    """Nonzero sparse integer terms, each of degree `degree`, or uniform
    in 0..max_degree when it is None, with coefficients in
    [-coeff_bound, coeff_bound] but 0; a repeated monomial keeps its
    first one.  Deterministic given the rng state."""
    terms: Dict[Monomial, int] = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, max_degree) if degree is None else degree):
            mono[rng.randrange(nvars)] += 1
        terms.setdefault(tuple(mono), rng.randint(1, coeff_bound) * rng.choice((1, -1)))
    return terms


def _polys(ctx: VarContext, drawn: Iterable[Dict[Monomial, int]]) -> List[Polynomial]:
    return [_raw(ctx, {m: Fraction(c) for m, c in terms.items()}) for terms in drawn]


def random_polynomial(rng: random.Random, ctx: VarContext, max_degree: int = 3,
                      coeff_bound: int = 9, max_terms: int = 4) -> Polynomial:
    """Nonzero random polynomial, term degrees uniform in 0..max_degree."""
    return _polys(ctx, [_random_terms(rng, ctx.nvars, None, max_degree,
                                      coeff_bound, max_terms)])[0]


def random_homogeneous(rng: random.Random, ctx: VarContext, degree: int,
                       coeff_bound: int = 9, max_terms: int = 4) -> Polynomial:
    """Nonzero random homogeneous polynomial of exact total degree."""
    return _polys(ctx, [_random_terms(rng, ctx.nvars, degree, 0,
                                      coeff_bound, max_terms)])[0]


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
        return {**asdict(self), "pass": self.passed}


# One check: a value, falsy exactly when the check passes; a function
# giving its failure record's (defect, inputs); a note ("" for none).
_Check = Tuple[object, Callable[[], Tuple[Polynomial, Sequence[Polynomial]]], str]


def _run_checks(identity: str, arity: int, generated: Iterable[_Check],
                draw: Callable[[random.Random], Iterable[_Check]],
                trials: int, seed: int) -> IdentityReport:
    """The one identity-check driver behind every verifier.

    Runs the deterministic `generated` checks, then `trials` seeded
    trials, each yielding the checks of draw(rng) for one shared
    random.Random(seed).  Every check counts as a trial of the report;
    the first MAX_STORED_FAILURES failures get their record.
    """
    report = IdentityReport(identity, arity, 0, 0)
    rng = random.Random(seed)
    drawn = itertools.chain.from_iterable(draw(rng) for _ in range(trials))
    for value, witness, note in itertools.chain(generated, drawn):
        report.trials += 1
        if not value:
            continue
        report.failure_count += 1
        if len(report.failures) < MAX_STORED_FAILURES:
            defect, inputs = witness()
            entry = {"inputs": [str(p) for p in inputs], "defect": str(defect)}
            if note:
                entry["note"] = note
            report.failures.append(entry)
    return report


def _generator_rows(bracket) -> Tuple[_ByVar, List[_IntRow]]:
    # the exact kernel table for brackets, and products of two brackets,
    # of generators, and the generators' partial rows in every packing
    coeffs, nvars = bracket._coeffs, bracket.ctx.nvars
    return (coeffs.by_var(_packing(nvars, 2 * coeffs.degree)),
            [{i: [(0, 1)]} for i in range(nvars)])


class _Point:
    """The point p of a verifier call's random trials, from a
    random.Random of its own seeded from the call's seed, and the
    kernel's table there.  Values at p are integers: the inputs have
    integer coefficients, and the terms of an identity share inputs and
    bracket count, so their denominator, a power of E, is left out."""

    __slots__ = ("p", "by_var")

    def __init__(self, bracket, seed: int) -> None:
        rng = random.Random(f"point {seed}")
        self.p = [rng.randrange(1, 1 << 32) for _ in range(bracket.ctx.nvars)]
        self.by_var = bracket._coeffs.at(self.p)

    def row(self, terms: Dict[Monomial, int]) -> _IntRow:
        """The gradient at p of integer terms, as a kernel row."""
        grad: Dict[int, int] = {}
        for mono, c in terms.items():
            t = c * prod(map(pow, self.p, mono))
            for j, e in enumerate(mono):
                if e:
                    grad[j] = grad.get(j, 0) + e * t // self.p[j]
        return {j: [(0, v)] for j, v in grad.items() if v}

    def bracket(self, rows: Sequence[_IntRow]) -> int:
        return _row_bracket(self.by_var, rows).get(0, 0)


def verify_skew(bracket, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Alternation: repeated arguments kill the bracket, transpositions flip sign.

    A generator check passes when a bracket of generators with one
    repeated is zero.  A random trial swaps two of n random arguments,
    then repeats one; each check passes when its defect vanishes at the
    call's point p (`_Point`), where the kernel itself computes it.  At
    arity 1 there is nothing to swap or repeat, so no trial is run.
    """
    n, ctx = bracket.arity, bracket.ctx
    gens = ctx.gens()
    exact, unit = _generator_rows(bracket)
    point = _Point(bracket, seed)

    def generated():
        # every duplication of an (n-1)-subset; none at arity 1
        for base in itertools.combinations(range(ctx.nvars), n - 1):
            for dup in base:
                args = [gens[i] for i in base + (dup,)]
                yield (any(_row_bracket(exact, [unit[i] for i in base + (dup,)]).values()),
                       lambda args=args: (bracket(*args), args), "duplicate generator")

    def draw(rng):
        fs = [_random_terms(rng, ctx.nvars) for _ in range(n)]
        a, b = rng.sample(range(n), 2)

        def witness(swap: bool):
            args = _polys(ctx, fs)
            other = list(args)
            other[a], other[b] = args[b] if swap else args[a], args[a]
            return (bracket(*args) + bracket(*other), args) if swap else (bracket(*other), other)

        rows = [point.row(f) for f in fs]
        swapped = list(rows)
        swapped[a], swapped[b] = rows[b], rows[a]
        yield (point.bracket(rows) + point.bracket(swapped), lambda: witness(True),
               f"swap {a},{b}")
        rows[b] = rows[a]
        yield point.bracket(rows), lambda: witness(False), "duplicate slot"

    return _run_checks("skew", n, generated(), draw, trials if n > 1 else 0, seed)


def verify_leibniz(bracket, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Derivation in each slot: {..., g*h, ...} = g{...,h,...} + {...,g,...}h.

    Random trials only, each passing when its defect vanishes at the
    call's point p (`_Point`); g*h is multiplied out.
    """
    n, ctx = bracket.arity, bracket.ctx
    point = _Point(bracket, seed)

    def draw(rng):
        fs = [_random_terms(rng, ctx.nvars) for _ in range(n)]
        g, h = _random_terms(rng, ctx.nvars), _random_terms(rng, ctx.nvars)
        slot = rng.randrange(n)

        def witness():
            G, H, *args = _polys(ctx, [g, h] + fs)

            def at(w: Polynomial) -> Polynomial:
                return bracket(*args[:slot], w, *args[slot + 1:])

            return at(G * H) - G * at(H) - at(G) * H, [G, H] + args

        gh: Dict[Monomial, int] = {}
        for mg, cg in g.items():
            for mh, ch in h.items():
                m = tuple(map(add, mg, mh))
                gh[m] = gh.get(m, 0) + cg * ch
        rows = [point.row(f) for f in fs]

        def at_slot(terms: Dict[Monomial, int]) -> int:
            rows[slot] = point.row(terms)
            return point.bracket(rows)

        value = (at_slot(gh) - _value(g.items(), point.p) * at_slot(h)
                 - at_slot(g) * _value(h.items(), point.p))
        yield value, witness, f"slot {slot}"

    return _run_checks("leibniz", n, (), draw, trials, seed)


def _lie_derivative(coeffs: _Coeffs, packing: _Packing,
                    vrows: Sequence[_IntRow]) -> Dict[Tuple[int, ...], _PackedPoly]:
    """The nonzero Q_I of L_X P, for the bracket's n-vector field
    P = sum_I c_I d_I and X = {., v_1..v_{n-1}}, from the vs' partial
    rows; numerators over E^2 times their denominators.  With
    P^J = sgn(J) c_sorted(J), zero on a repeated index,
    Q_I = sum_k X^k d_k c_I - sum_b sum_k P^(I with I_b -> k) d_k X^(I_b).
    The packing must hold twice the degree of the c_I plus the vs'.
    """
    X = _field_terms(coeffs.by_var(packing), vrows)
    dX = {j: packing.partials(x) for j, x in X.items()}
    Q = {}
    for I, dc, moves in coeffs.lie(packing):
        acc: Dict[int, int] = {}
        for k, ck in dc.items():
            if k in X:
                _int_mul(X[k], ck, acc)
        for j, k, c in moves:
            d = dX[j].get(k) if j in dX else None
            if d:
                _int_mul(c, d, acc)
        q = [(m, v) for m, v in acc.items() if v]
        if q:
            Q[I] = q
    return Q


def verify_filippov(bracket, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Fundamental identity: [[u_1..u_n],v_..] = sum_i [u_1..[u_i,v_..]..u_n].

    Exact in both phases: with X = {., v_1..v_{n-1}} the defect is
    (L_X P)(du_1..du_n), the bracket of the us with coefficients Q_I
    (`_lie_derivative`), zero for every u block when every Q_I is.  The
    generator phase over increasing tuples of each block, with Q formed
    once per v tuple, is complete for the degree-one part (the identity
    is multilinear and alternating in each block); a random trial draws
    the u block, then the v block.
    """
    n, ctx = bracket.arity, bracket.ctx
    nvars, coeffs = ctx.nvars, bracket._coeffs
    gens, E2 = ctx.gens(), coeffs.E ** 2

    def generated():
        packing = _packing(nvars, 2 * coeffs.degree)
        unit = _generator_rows(bracket)[1]
        vtuples = list(itertools.combinations(range(nvars), n - 1))
        by_v = [_lie_derivative(coeffs, packing, [unit[i] for i in vi]) for vi in vtuples]
        for ui in itertools.combinations(range(nvars), n):
            for vi, Q in zip(vtuples, by_v):
                q = Q.get(ui)
                yield (q, lambda q=q, idxs=ui + vi: (_polynomial(ctx, packing, (E2, q)),
                                                     [gens[i] for i in idxs]),
                       "generator tuple")

    def draw(rng):
        us = [_random_terms(rng, nvars) for _ in range(n)]
        vs = [_random_terms(rng, nvars) for _ in range(n - 1)]
        packing = _packing(nvars, sum(max(map(sum, t)) for t in us + vs)
                           + 2 * coeffs.degree)
        Q = _lie_derivative(coeffs, packing,
                            [packing.partials(packing.pack(v.items())) for v in vs])
        value = Q and _row_bracket(_by_var(nvars, Q.items()),
                                   [packing.partials(packing.pack(u.items())) for u in us])
        yield (value and any(value.values()),
               lambda: (_polynomial(ctx, packing, (E2, list(value.items()))),
                        _polys(ctx, us + vs)), "")

    return _run_checks("filippov", n, generated(), draw, trials, seed)


def _strong_sum(by_var: _ByVar, urows: Sequence[_IntRow],
                vrows: Sequence[_IntRow]) -> Dict[int, int]:
    """sum_i (-1)^i {us, v_i} {v_1..v_i-hat..v_{n+1}} from the partial rows
    of us and vs, over E^2 times their denominators; zero sums stay.
    {us, v} = (-1)^(n-1) {v, us}: one field for us; {rest} is the field
    of rest[1:] applied to rest[0], shared where rest[1:] agree."""
    by_us = _field_terms(by_var, urows)
    tails: Dict[Tuple[int, ...], Dict[int, _PackedPoly]] = {}
    out: Dict[int, int] = {}
    for i, vrow in enumerate(vrows):
        rest = [j for j in range(len(vrows)) if j != i]
        key = tuple(rest[1:])
        if key not in tails:
            tails[key] = _field_terms(by_var, [vrows[j] for j in key])
        first = _apply_terms(by_us, vrow).items()
        # (-1)^i with 1-based i is negative for even 0-based i
        if (i % 2 == 0) != (len(urows) % 2 == 1):
            first = [(m, -v) for m, v in first]
        _int_mul(first, _apply_terms(tails[key], vrows[rest[0]]).items(), out)
    return out


def verify_strong(bracket, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Alternating sum of products of brackets over n+1 distinguished arguments.

    With u = (u_1..u_{n-1}) and v = (v_1..v_{n+1}):
    sum_i (-1)^i {u, v_i} {v_1,..,v_i-hat,..,v_{n+1}} = 0.

    Each slot is a derivation, so the exact generator phase over
    increasing tuples is complete.  A random trial draws the u block,
    then the v block, and passes when the sum vanishes at the call's
    point p (`_Point`).
    """
    n, ctx = bracket.arity, bracket.ctx
    gens = ctx.gens()
    exact, unit = _generator_rows(bracket)
    point = _Point(bracket, seed)

    def textbook(us: List[Polynomial], vs: List[Polynomial]):
        total = ctx.zero()
        for i, v in enumerate(vs):
            term = bracket(*us, v) * bracket(*vs[:i], *vs[i + 1:])
            total = total + term if i % 2 else total - term
        return total, us + vs

    def generated():
        for ui in itertools.combinations(range(ctx.nvars), n - 1):
            for vi in itertools.combinations(range(ctx.nvars), n + 1):
                value = _strong_sum(exact, [unit[i] for i in ui], [unit[i] for i in vi])
                yield (any(value.values()),
                       lambda ui=ui, vi=vi: textbook([gens[i] for i in ui],
                                                     [gens[i] for i in vi]),
                       "generator tuple")

    def draw(rng):
        us = [_random_terms(rng, ctx.nvars) for _ in range(n - 1)]
        vs = [_random_terms(rng, ctx.nvars) for _ in range(n + 1)]
        value = _strong_sum(point.by_var, [point.row(u) for u in us],
                            [point.row(v) for v in vs]).get(0, 0)
        yield value, lambda: textbook(_polys(ctx, us), _polys(ctx, vs)), ""

    return _run_checks("strong", n, generated(), draw, trials, seed)


def _int_sum(terms: Iterable[Tuple[int, _PackedValue]]) -> _PackedValue:
    # sum of sign * value over values with one denominator: the terms of
    # an identity have the same inputs and the same number of brackets
    out: Dict[int, int] = {}
    for sign, (d, items) in terms:
        for m, v in items:
            out[m] = out.get(m, 0) + sign * v
    return d, [(m, v) for m, v in out.items() if v]


def verify_malcev(bracket, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Malcev identity [J(a,b,c),a] = J(a,b,[a,c]) for a binary bracket.

    Checked exactly, on packed values, on all generator triples and on
    random degree-one elements (the identity is quadratic in a, so
    triples alone do not span it).  Brackets are memoized on their
    packed arguments while a stays the same: the generator triples
    bracket the same few values over and over.
    """
    if bracket.arity != 2:
        raise ArityMismatch("Malcev identity needs a binary bracket")
    ctx = bracket.ctx
    coeffs = bracket._coeffs
    memo: Dict[tuple, _PackedValue] = {}
    held = None  # the a of the memo's brackets

    def check(abc, note):
        nonlocal held
        if abc[0] is not held:
            memo.clear()
            held = abc[0]
        # brackets nest three deep, each adding the degree of the c_I,
        # over inputs that enter at most twice
        packing = _packing(ctx.nvars, 2 * sum(max(p.total_degree(), 0) for p in abc)
                           + 3 * coeffs.degree)
        a, b, c = [_pack(packing, p.terms) for p in abc]

        def br(x: _PackedValue, y: _PackedValue) -> _PackedValue:
            key = (packing.w, x[0], tuple(x[1]), y[0], tuple(y[1]))
            got = memo.get(key)
            if got is None:
                got = memo[key] = _int_bracket((x, y), coeffs, packing)
            return got

        def jacobiator(x, y, z):  # ternary_jacobian on packed values
            return _int_sum([(1, br(br(x, y), z)), (-1, br(br(x, z), y)),
                             (-1, br(x, br(y, z)))])

        total = _int_sum([(1, br(jacobiator(a, b, c), a)),
                          (-1, jacobiator(a, b, br(a, c)))])
        return total[1], lambda: (_polynomial(ctx, packing, total), abc), note

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
