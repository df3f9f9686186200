"""Root extraction, center criteria and ideal saturation probes.

The operations here turn structural questions about the algebras into
finite checks:

* kth_root / is_closed_homogeneous / minimal_root_homogeneous decide
  whether a homogeneous polynomial is a proper power.  kth_root expands
  the forced root candidate in powers of 1/x_j for a distinguished
  variable x_j by J.C.P. Miller's power-series recurrence on integer
  numerators, rejects it at the all-ones point when it can, and
  otherwise verifies it by one exact k-th power on integers; the
  minimal root peels prime roots.

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
from math import comb, gcd, lcm
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .brackets import poly_det
from .groebner import GREVLEX, BudgetExhausted, StepBudget, buchberger, mono_divides
from .poly import (Monomial, Polynomial, VarContext, _cleared, _int_mul, _int_pow,
                   _raw)
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
    pivot row only, and an index from each column to the rows holding
    it means only those rows are visited to find the pivot and clear
    its column.  Neither the order of the rows nor which row serves as
    pivot matters: the reduced row echelon form is unique.  The input
    rows are left alone.

    Raises:
        ValueError: an entry's column is not in range(ncols).
    """
    cols = range(ncols)
    work: Dict[int, Dict[int, Fraction]] = {}  # row id -> its current entries
    holders: Dict[int, Set[int]] = {}  # column -> ids of the rows holding it
    for r, row in enumerate(rows):
        for c in row:
            if c not in cols:
                raise ValueError(f"column {c!r} not in range({ncols})")
        work[r] = {c: v for c, v in row.items() if v}
        for c in work[r]:
            holders.setdefault(c, set()).add(r)
    pending = set(work)
    reduced: Dict[int, Dict[int, Fraction]] = {}  # pivot column -> its row
    for col in range(ncols):
        ids = holders.get(col, ())
        piv = min((r for r in ids if r in pending), default=None)
        if piv is None:
            continue
        pending.remove(piv)
        scale = work[piv][col]
        prow = work[piv] = {c: v / scale for c, v in work[piv].items()}
        for r in [r for r in ids if r != piv]:
            row = work[r]
            f = row[col]
            for c, b in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = -f * b
                    holders[c].add(r)
                    continue
                v = old - f * b
                if v:
                    row[c] = v
                else:
                    del row[c]
                    holders[c].remove(r)
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


def _root_with_leading(c_poly: Polynomial, k: int,
                       j: int) -> Tuple[Polynomial, Fraction]:
    """The forced k-th root candidate of C, monic in x_j, and its alpha.

    Requires the pure power x_j^D to appear, with coefficient alpha.
    Write C / alpha = sum_t a_t x_j^(D-t), so a_0 = 1 and each a_t is a
    form of degree t in the other variables.  In u = 1/x_j this is
    x_j^D * A(u) with A(0) = 1, and a root monic in x_j is
    x_j^m * B(u) with B the power series A^(1/k) truncated after u^m,
    m = D/k.  J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7)
    gives its coefficients without forming any power: b_0 = 1 and

        b_n = 1/(n*k) * sum_{i=1..n} (i*(k+1) - n*k) * a_i * b_(n-i),

    summed over the nonzero a_i and b_(n-i) only.  It runs on integers:
    with C cleared to numerators N over d, a_t is N's x_j^(D-t) part over
    the numerator p of x_j^D, and each b_n is one integer term list over
    one positive denominator, reduced by their gcd.  The weighted
    products are summed by poly._int_mul over the lcm of the
    denominators of the b_(n-i) used, and p*n*k joins the denominator.
    The candidate sum_t b_t x_j^(m-t) is forced, so C is alpha times a
    k-th power iff alpha * candidate^k == C; kth_root decides that.
    """
    ctx = c_poly.ctx
    big_d = c_poly.total_degree()
    m = big_d // k
    d, nums = _cleared(c_poly.terms)
    lead = 0
    a: Dict[int, List[Tuple[Monomial, int]]] = {}  # t -> numerators of a_t
    for mono, v in nums:
        t = big_d - mono[j]
        if t == 0:
            lead = v
        elif t <= m:
            a.setdefault(t, []).append((mono[:j] + (0,) + mono[j + 1:], v))
    if not lead:
        raise ValueError("distinguished variable lacks its pure power")
    # n -> (denominator, numerators) of b_n; the nonzero b_n only
    b = {0: (1, [((0,) * ctx.nvars, 1)])}
    for n in range(1, m + 1):
        parts = [(i * (k + 1) - n * k, a_i, b[n - i]) for i, a_i in a.items()
                 if i <= n and n - i in b]
        den = lcm(*[e for _, _, (e, _) in parts])
        acc: Dict[Monomial, int] = {}
        for w, a_i, (e, b_rest) in parts:
            w *= den // e
            if w:
                _int_mul(a_i, [(mono, w * v) for mono, v in b_rest], acc)
        vals = [v for v in acc.values() if v]
        if vals:
            den *= lead * n * k
            g = gcd(den, *vals) if den > 0 else -gcd(den, *vals)
            b[n] = den // g, [(mono, v // g) for mono, v in acc.items() if v]
    terms = {}
    for t, (e, b_t) in b.items():
        for mono, v in b_t:
            terms[mono[:j] + (m - t,) + mono[j + 1:]] = Fraction(v, e)
    return _raw(ctx, terms), Fraction(lead, d)


def _is_scaled_power(c_poly: Polynomial, root: Polynomial, k: int,
                     alpha: Fraction) -> bool:
    """alpha * root^k == C, decided on cleared integers.

    With root = R/e and C = N/d, the identity is
    alpha.numerator * d * R^k == alpha.denominator * e^k * N, term by
    term; R^k comes from poly._int_pow and no Fraction is built.
    """
    e, r = _cleared(root.terms)
    d, nums = _cleared(c_poly.terms)
    power = _int_pow(r, k)
    if len(power) != len(nums):
        return False
    lhs, rhs = alpha.numerator * d, alpha.denominator * e ** k
    return all(lhs * power.get(mono, 0) == rhs * v for mono, v in nums)


def kth_root(c_poly: Polynomial, k: int) -> RootResult:
    """Decide whether homogeneous C = alpha * c^k and recover monic c.

    The root, when it exists, is unique up to a scalar; the returned one
    is monic in the distinguished variable and alpha absorbs the rest.
    Every nonzero homogeneous C is decided: when no variable has a pure
    top power, a shear x_i -> x_i + t_i*x_1 exposes one (see below).
    The forced candidate c is checked against C itself, first at the
    all-ones point, where alpha * c(1,...,1)^k != C(1,...,1) rejects it
    without forming any power, and then, if it agrees there, by the one
    exact check alpha * c^k == C on cleared integers.

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
    j = next((j for j in range(ctx.nvars)
              if c_poly.coefficient(tuple(big_d if t == j else 0
                                          for t in range(ctx.nvars)))), None)
    if j is not None:
        root, alpha = _root_with_leading(c_poly, k, j)
    else:
        # No pure power anywhere: shear x_i -> x_i + t_i*x_1 (i > 1), after
        # which the coefficient of x_1^D is C(1, t_2, ..., t_n).  That is C
        # dehomogenised at x_1 = 1, a nonzero polynomial of degree <= D in
        # each t_i, so it is nonzero somewhere on the grid {0..D}^(n-1)
        # (Alon, Combinatorial Nullstellensatz, 1999).  The scan starts at
        # the all-ones point.  Unshearing is a ring automorphism, so the
        # sheared candidate is a root of the sheared C iff the unsheared
        # one is a root of C.
        values = [1, 0] + list(range(2, big_d + 1))
        shear = next(ts for ts in itertools.product(values, repeat=ctx.nvars - 1)
                     if c_poly.evaluate((1,) + ts) != 0)
        names = ctx.names
        x1 = ctx.variable(0)
        fwd = {names[i]: ctx.variable(i) + t * x1 for i, t in enumerate(shear, 1)}
        back = {names[i]: ctx.variable(i) - t * x1 for i, t in enumerate(shear, 1)}
        root, alpha = _root_with_leading(c_poly.substitute(fwd), k, 0)
        root = root.substitute(back)
    ones = (1,) * ctx.nvars
    if (alpha * root.evaluate(ones) ** k == c_poly.evaluate(ones)
            and _is_scaled_power(c_poly, root, k, alpha)):
        return RootResult(k, root, alpha)
    return RootResult(k, None, None,
                      f"forced candidate fails verification for k={k}")


def _prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n, ascending; none for n < 2."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@dataclass(frozen=True)
class MinimalRoot:
    root: Polynomial
    k: int
    alpha: Fraction
    was_closed: bool


def minimal_root_homogeneous(c_poly: Polynomial) -> MinimalRoot:
    """Smallest-degree c with C = alpha * c^k, k maximal; c is closed.

    Peels prime roots: for each prime p dividing deg C, in increasing
    order, the current root is replaced by its p-th root for as long as
    one exists.  Over Q, C is a p-th power up to a scalar iff p divides
    the gcd g of its factor multiplicities, so the peeled primes
    multiply to k = g.  Each peeled root keeps kth_root's normalisation
    (monic in the same distinguished variable, or 1 at the same shear
    point), so c is the root kth_root(C, g) would return.  A failed peel
    costs one integer recurrence, and no power when its candidate
    already misses C at the all-ones point; only an accepted peel, or a
    candidate that agrees there, forms its p-th power.  A closed C
    comes back monic (grevlex leading coefficient normalized to one)
    with k = 1.
    """
    if c_poly.is_zero() or not c_poly.is_homogeneous():
        raise NotHomogeneous("minimal root needs a nonzero homogeneous polynomial")
    root, alpha, k = c_poly, Fraction(1), 1
    for p in _prime_factors(c_poly.total_degree()):
        while root.total_degree() % p == 0:
            res = kth_root(root, p)
            if not res.found:
                break
            assert res.root is not None and res.alpha is not None
            root, alpha, k = res.root, alpha * res.alpha ** k, k * p
    if k > 1:
        return MinimalRoot(root, k, alpha, was_closed=False)
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
