"""Root extraction, center criteria and ideal saturation probes.

The operations here turn structural questions about the algebras into
finite checks:

* kth_root / is_closed_homogeneous / minimal_root_homogeneous decide
  whether a homogeneous polynomial is a proper power, by a triangular
  recursion on coefficients against a distinguished variable followed by
  one exact verification.

* center_membership_* and center_probe decide centrality pointwise
  (2x2 Jacobian minors against C, or brackets against generator tuples)
  and solve for the whole center in bounded degree as one exact linear
  system, {x_I, f} = 0 for every increasing (n-1)-tuple I of generators,
  with one sparse row per (I, output monomial) of the bracket images.

* saturate_poisson_ideal grows an ideal from seeds by alternating
  Groebner normalization with bracketing against generator tuples until
  it stabilizes or swallows 1, with explicit budgets.

All three bracket through one map, _generator_brackets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .brackets import poly_det
from .groebner import GREVLEX, BudgetExhausted, StepBudget, buchberger, mono_divides
from .poly import Polynomial, VarContext
from .quotient import QuotientContext


class NotHomogeneous(ValueError):
    """Operation requires a homogeneous polynomial."""


# -- linear algebra helpers ----------------------------------------------

def rational_nullspace(rows: Sequence[Mapping[int, Fraction]],
                       ncols: int) -> List[List[Fraction]]:
    """Basis of the right nullspace of a rational matrix.

    Each row maps a column in range(ncols) to its entry; a missing or
    zero entry counts as 0.  Each basis vector is dense, with 1 in its
    own free column and 0 in the other free columns; vectors come out in
    increasing free-column order, so the result is deterministic.

    This is the package's one exact rational elimination: ranks and Gram
    nondegeneracy elsewhere are read off its length.  Gauss-Jordan runs
    on sparse rows, so a row update costs the nonzero entries of the
    pivot row only.  Neither the order of the rows nor which row serves
    as pivot matters: the reduced row echelon form is unique.  The input
    rows are left alone.

    Raises:
        ValueError: an entry's column is not in range(ncols).
    """
    cols = range(ncols)
    pending = []
    for row in rows:
        for c in row:
            if c not in cols:
                raise ValueError(f"column {c!r} not in range({ncols})")
        pending.append({c: v for c, v in row.items() if v})
    reduced: Dict[int, Dict[int, Fraction]] = {}  # pivot column -> its row
    for col in range(ncols):
        piv = next((i for i, row in enumerate(pending) if col in row), None)
        if piv is None:
            continue
        prow = pending.pop(piv)
        scale = prow[col]
        prow = {c: v / scale for c, v in prow.items()}
        for row in itertools.chain(pending, reduced.values()):
            f = row.get(col)
            if f is not None:
                for c, b in prow.items():
                    v = row.get(c, 0) - f * b
                    if v:
                        row[c] = v
                    else:
                        del row[c]
        reduced[col] = prow
        if not pending:
            break
    basis = []
    for fc in range(ncols):
        if fc in reduced:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pcol, prow in reduced.items():
            vec[pcol] = -prow.get(fc, Fraction(0))
        basis.append(vec)
    return basis


# -- k-th roots and closedness -------------------------------------------

@dataclass(frozen=True)
class RootResult:
    """Outcome of a k-th root attempt: root and alpha with C = alpha * root^k."""

    k: int
    root: Optional[Polynomial]
    alpha: Optional[Fraction]
    reason: str = ""

    @property
    def found(self) -> bool:
        return self.root is not None


def _univariate_parts(f: Polynomial, j: int) -> Dict[int, Polynomial]:
    """Split f by the power of variable j; values have that power removed."""
    parts: Dict[int, dict] = {}
    for mono, c in f.terms.items():
        s = mono[j]
        stripped = mono[:j] + (0,) + mono[j + 1:]
        parts.setdefault(s, {})[stripped] = c
    return {s: Polynomial(f.ctx, t) for s, t in parts.items()}


def _root_with_leading(c_poly: Polynomial, k: int, j: int) -> RootResult:
    """Root recursion with x_j as the distinguished variable.

    Requires the pure power x_j^deg to appear.  Solves the triangular
    system for the coefficients of a monic-in-x_j candidate, then
    verifies the k-th power exactly; the candidate is forced, so a
    verification failure proves there is no root at all.
    """
    ctx = c_poly.ctx
    big_d = c_poly.total_degree()
    m = big_d // k
    pure = tuple(big_d if t == j else 0 for t in range(ctx.nvars))
    alpha = c_poly.coefficient(pure)
    if alpha == 0:
        raise ValueError("distinguished variable lacks its pure power")
    normalized = c_poly / alpha
    parts = _univariate_parts(normalized, j)
    xj = ctx.variable(j)
    b: Dict[int, Polynomial] = {m: ctx.one()}
    for r in range(m - 1, -1, -1):
        s = m * (k - 1) + r
        upper = ctx.zero()
        for i in range(r + 1, m + 1):
            upper = upper + b[i] * xj ** i
        power = upper ** k
        correction = _univariate_parts(power, j).get(s, ctx.zero())
        target = parts.get(s, ctx.zero())
        b[r] = (target - correction) / k
    candidate = ctx.zero()
    for i, coeff_poly in b.items():
        candidate = candidate + coeff_poly * xj ** i
    if alpha * candidate ** k == c_poly:
        return RootResult(k, candidate, alpha)
    return RootResult(k, None, None,
                      f"forced candidate fails verification for k={k}")


def kth_root(c_poly: Polynomial, k: int) -> RootResult:
    """Decide whether homogeneous C = alpha * c^k and recover monic c.

    The root, when it exists, is unique up to a scalar; the returned one
    is monic in the distinguished variable and alpha absorbs the rest.
    Every nonzero homogeneous C is decided: when no variable has a pure
    top power, a shear x_i -> x_i + t_i*x_1 exposes one (see below).

    Raises:
        NotHomogeneous: C not homogeneous or zero.
        ValueError: k < 1.
    """
    if c_poly.is_zero() or not c_poly.is_homogeneous():
        raise NotHomogeneous("kth_root needs a nonzero homogeneous polynomial")
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    big_d = c_poly.total_degree()
    if big_d % k != 0:
        return RootResult(k, None, None, f"degree {big_d} not divisible by k={k}")
    ctx = c_poly.ctx
    for j in range(ctx.nvars):
        pure = tuple(big_d if t == j else 0 for t in range(ctx.nvars))
        if c_poly.coefficient(pure) != 0:
            return _root_with_leading(c_poly, k, j)
    # No pure power anywhere: shear x_i -> x_i + t_i*x_1 (i > 1), after
    # which the coefficient of x_1^D is C(1, t_2, ..., t_n).  That is C
    # dehomogenised at x_1 = 1, a nonzero polynomial of degree <= D in
    # each t_i, so it is nonzero somewhere on the grid {0..D}^(n-1)
    # (Alon, Combinatorial Nullstellensatz, 1999).  The scan starts at
    # the all-ones point.
    values = [1, 0] + list(range(2, big_d + 1))
    shear = next(ts for ts in itertools.product(values, repeat=ctx.nvars - 1)
                 if c_poly.evaluate((1,) + ts) != 0)
    names = ctx.names
    x1 = ctx.variable(0)
    fwd = {names[i]: ctx.variable(i) + t * x1 for i, t in enumerate(shear, 1)}
    back = {names[i]: ctx.variable(i) - t * x1 for i, t in enumerate(shear, 1)}
    res = _root_with_leading(c_poly.substitute(fwd), k, 0)
    if not res.found:
        return RootResult(k, None, None, res.reason)
    root = res.root.substitute(back)
    assert res.alpha is not None
    if res.alpha * root ** k == c_poly:
        return RootResult(k, root, res.alpha)
    return RootResult(k, None, None, "unsheared candidate fails verification")


def _divisors_desc(n: int) -> List[int]:
    return [k for k in range(n, 1, -1) if n % k == 0]


@dataclass(frozen=True)
class MinimalRoot:
    root: Polynomial
    k: int
    alpha: Fraction
    was_closed: bool


def minimal_root_homogeneous(c_poly: Polynomial) -> MinimalRoot:
    """Smallest-degree c with C = alpha * c^k, k maximal; c is closed.

    A closed C comes back monic (grevlex leading coefficient normalized
    to one) with k = 1.
    """
    if c_poly.is_zero() or not c_poly.is_homogeneous():
        raise NotHomogeneous("minimal root needs a nonzero homogeneous polynomial")
    for k in _divisors_desc(c_poly.total_degree()):
        res = kth_root(c_poly, k)
        if res.found:
            assert res.root is not None and res.alpha is not None
            return MinimalRoot(res.root, k, res.alpha, was_closed=False)
    lc = GREVLEX.leading_coefficient(c_poly)
    return MinimalRoot(c_poly / lc, 1, lc, was_closed=True)


@dataclass(frozen=True)
class ClosednessReport:
    closed: bool
    witness_k: Optional[int] = None
    witness_root: Optional[Polynomial] = None


def is_closed_homogeneous(c_poly: Polynomial) -> ClosednessReport:
    """Closed = not a proper power.  Witness is the smallest-degree root.

    Read off minimal_root_homogeneous: the witness is its root and k,
    and degree-one polynomials are closed outright.
    """
    if c_poly.is_zero() or not c_poly.is_homogeneous():
        raise NotHomogeneous("closedness needs a nonzero homogeneous polynomial")
    mr = minimal_root_homogeneous(c_poly)
    if mr.was_closed:
        return ClosednessReport(True)
    return ClosednessReport(False, mr.k, mr.root)


# -- center criteria ------------------------------------------------------

def center_membership_jacobian(bracket, f: Polynomial,
                               qctx: Optional[QuotientContext] = None
                               ) -> Tuple[bool, List[Tuple[int, int, Polynomial]]]:
    """Centrality of f for a Jacobian bracket via 2x2 minors.

    f is central iff every minor df/dx_i * dC/dx_j - df/dx_j * dC/dx_i
    of the rows (df, dC) vanishes (reduced in the quotient when qctx is
    given).  Returns the verdict and the offending (i, j, minor) triples.
    """
    c_poly = bracket.casimir
    ctx = c_poly.ctx
    if f.ctx != ctx:
        raise ValueError("f from the wrong context")
    df = f.gradient()
    dc = c_poly.gradient()
    witnesses = []
    for i in range(ctx.nvars):
        for j in range(i + 1, ctx.nvars):
            minor = poly_det((df, dc), ctx, (i, j))
            if qctx is not None:
                minor = qctx.reduce(minor)
            if not minor.is_zero():
                witnesses.append((i, j, minor))
    return (not witnesses), witnesses


def _generator_brackets(bracket, f: Polynomial
                        ) -> Iterator[Tuple[Tuple[int, ...], Polynomial]]:
    """Yield (I, {x_I, f}) for every increasing (n-1)-tuple I of generators.

    I is a tuple of variable indices.  By the derivation property f is
    central iff every one of these brackets vanishes, so membership, the
    probe and saturation all bracket against exactly these tuples.
    """
    ctx = bracket.ctx
    gens = ctx.gens()
    for idxs in itertools.combinations(range(ctx.nvars), bracket.arity - 1):
        yield idxs, bracket(*(gens[i] for i in idxs), f)


def center_membership_table(bracket, f: Polynomial,
                            qctx: Optional[QuotientContext] = None
                            ) -> Tuple[bool, List[Tuple[Tuple[str, ...], Polynomial]]]:
    """Centrality of f for a table bracket via generator tuples.

    By the derivation property it is enough that the bracket of f with
    every increasing (n-1)-tuple of generators vanishes.
    """
    ctx = bracket.ctx
    if f.ctx != ctx:
        raise ValueError("f from the wrong context")
    witnesses = []
    for idxs, val in _generator_brackets(bracket, f):
        if qctx is not None:
            val = qctx.reduce(val)
        if not val.is_zero():
            witnesses.append((tuple(ctx.names[i] for i in idxs), val))
    return (not witnesses), witnesses


def center_membership(bracket, f: Polynomial,
                      qctx: Optional[QuotientContext] = None):
    """Dispatch on the bracket kind."""
    if hasattr(bracket, "casimir"):
        return center_membership_jacobian(bracket, f, qctx)
    return center_membership_table(bracket, f, qctx)


def _monomials_up_to(ctx: VarContext, max_degree: int) -> List[Tuple[int, ...]]:
    """All monomials of degree <= max_degree, in increasing grevlex order.

    Each is a multiset of max_degree symbols drawn from the variables and
    one slack symbol (index nvars) that stands for the unused degree.
    """
    n = ctx.nvars
    monos = [tuple(combo.count(i) for i in range(n))
             for combo in itertools.combinations_with_replacement(range(n + 1), max_degree)]
    monos.sort(key=GREVLEX.key)
    return monos


@dataclass(frozen=True)
class CenterProbeReport:
    mode: str  # "ambient" | "quotient"
    max_degree: int
    dimension: int
    basis: Tuple[Polynomial, ...]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "max_degree": self.max_degree,
            "dimension": self.dimension,
            "basis": [str(p) for p in self.basis],
        }


# Largest number of unknowns, C(nvars + d, nvars) monomials of degree
# <= d, that center_probe solves for.  Time grows about 4x and memory
# about 2.5x per degree: on a 2-core Xeon VM canonical Malcev takes
# 0.04 s at degree 3 (120 unknowns, the largest in the suite), 0.17 s at
# 4 (330) and 0.71 s at 5 (792, 4.7 MB traced peak), and the 5-ary
# quadric 0.55 s at degree 5 (462).
MAX_CENTER_COLUMNS = 500


def center_probe(bracket, max_degree: int,
                 qctx: Optional[QuotientContext] = None) -> CenterProbeReport:
    """Solve for all central elements of degree <= max_degree exactly.

    A general element is parametrized over the monomials of bounded
    degree, in quotient mode over normal-form monomials only (otherwise
    C - lambda itself would pollute the answer).  Centrality against
    every increasing (n-1)-tuple I of generators is a rational linear
    system with one sparse row per (I, output monomial): the terms of
    each (reduced) image {x_I, m} land in column m.  Its nullspace is
    returned as polynomials.

    Raises:
        BudgetExhausted: more than MAX_CENTER_COLUMNS unknowns, before
            any of them is built.
    """
    ctx = bracket.ctx
    n = ctx.nvars
    if max_degree > 0 and comb(n + max_degree, n) > MAX_CENTER_COLUMNS:
        raise BudgetExhausted(
            f"center probe of degree {max_degree} in {n} variables has "
            f"{comb(n + max_degree, n)} unknowns (limit {MAX_CENTER_COLUMNS})")
    monos = _monomials_up_to(ctx, max_degree)
    if qctx is not None:
        lead = qctx.modulus.leading_monomials()
        monos = [m for m in monos if not any(mono_divides(l, m) for l in lead)]
    rows: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Dict[int, Fraction]] = {}
    for col, mono in enumerate(monos):
        for idxs, val in _generator_brackets(bracket, Polynomial(ctx, {mono: 1})):
            if qctx is not None:
                val = qctx.reduce(val)
            for out, c in val.terms.items():
                rows.setdefault((idxs, out), {})[col] = c
    null = rational_nullspace(list(rows.values()), len(monos))
    basis = tuple(Polynomial(ctx, dict(zip(monos, vec))) for vec in null)
    mode = "quotient" if qctx is not None else "ambient"
    return CenterProbeReport(mode, max_degree, len(basis), basis)


# -- saturation ------------------------------------------------------------

@dataclass
class SaturationReport:
    """Trace of one saturation run."""

    seeds: Tuple[Polynomial, ...]
    lam: Fraction
    verdict: str  # "whole-ring" | "proper-stable" | "budget-exhausted"
    rounds: List[dict] = field(default_factory=list)
    final_basis: Tuple[Polynomial, ...] = ()
    steps_used: int = 0

    @property
    def contains_one(self) -> bool:
        return self.verdict == "whole-ring"

    def to_dict(self) -> dict:
        return {
            "seeds": [str(s) for s in self.seeds],
            "lambda": str(self.lam),
            "verdict": self.verdict,
            "rounds": self.rounds,
            "final_basis": [str(p) for p in self.final_basis],
            "steps_used": self.steps_used,
        }


def saturate_poisson_ideal(qctx: QuotientContext, seeds: Sequence[Polynomial],
                           max_rounds: int = 25,
                           step_limit: int = 100_000) -> SaturationReport:
    """Close the ideal generated by seeds + (C - lambda) under the bracket.

    Each round reduces every bracket of a basis element against every
    increasing (n-1)-tuple of generators; nonzero normal forms join the
    ideal and the Groebner basis is recomputed.  Stops with verdict
    "whole-ring" once 1 appears, "proper-stable" once a full round adds
    nothing (a round is deterministic in the basis, so a repeat of an
    empty round would be empty too), or "budget-exhausted" when the round
    or step budget runs out.

    Raises:
        QuotientError via ValueError: if every seed is 0 in the quotient.
    """
    bracket = qctx.bracket
    ctx = bracket.ctx
    if not seeds:
        raise ValueError("need at least one seed")
    for s in seeds:
        if s.ctx != ctx:
            raise ValueError("seed from the wrong context")
    if all(qctx.is_zero(s) for s in seeds):
        raise ValueError("all seeds are zero in the quotient")

    budget = StepBudget(step_limit)
    order = qctx.modulus.order
    report = SaturationReport(tuple(seeds), qctx.lam, "budget-exhausted")
    current: List[Polynomial] = list(seeds) + [qctx.casimir - qctx.lam]
    try:
        basis = buchberger(current, order, budget)
        while len(report.rounds) < max_rounds:
            if basis.contains_one:
                report.verdict = "whole-ring"
                break
            fresh: List[Polynomial] = []
            seen = set()
            for g in basis.generators:
                for _, val in _generator_brackets(bracket, g):
                    red = basis.reduce(val, budget)
                    if red.is_zero():
                        continue
                    red = order.monic(red)
                    if red not in seen:
                        seen.add(red)
                        fresh.append(red)
            report.rounds.append({"basis_size": len(basis),
                                  "new_elements": len(fresh)})
            if not fresh:
                report.verdict = "proper-stable"
                break
            basis = buchberger(list(basis.generators) + fresh, order, budget)
        report.final_basis = basis.generators
    except BudgetExhausted:
        report.verdict = "budget-exhausted"
    report.steps_used = budget.used
    return report
