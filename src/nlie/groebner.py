"""Monomial orders, multivariate division and reduced Groebner bases.

Everything here is deterministic: given the same generators and order,
the same reduced basis comes back in the same sequence.  Long
computations are metered by an explicit reduction-step budget and fail
loudly with BudgetExhausted, never silently.

An order's sort key is fixed when the order is built; GREVLEX.key is
poly.grevlex_key, the key `str()` prints terms by.  A polynomial keeps
the leading monomial of the last order that asked for it, so a divisor
used on every division has its leading monomial found once.

Division runs on integers, like the product kernel in poly: each divisor
is cleared once per call to integer numerators over its denominator, the
work terms are integer numerators over one common denominator, and a
Fraction is built once per quotient and remainder term.  Each work
monomial's key is computed once, when the monomial enters the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import add, le, sub
from typing import Callable, List, Optional, Sequence, Tuple

from .poly import Monomial, Polynomial, _cleared, _raw, grevlex_key

DEFAULT_BUDGET = 100_000


class BudgetExhausted(RuntimeError):
    """Raised when a computation runs out of reduction steps."""


class StepBudget:
    """Mutable counter of remaining reduction steps, shared across calls."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def spend(self, k: int = 1) -> None:
        self.used += k
        if self.used > self.limit:
            raise BudgetExhausted(
                f"reduction budget exhausted ({self.used} > {self.limit} steps)")

    @property
    def remaining(self) -> int:
        return self.limit - self.used


# -- exponent tuple helpers --------------------------------------------

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b, assuming divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when monomial a divides monomial b."""
    return all(map(le, a, b))


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: 'grevlex' (default) or 'lex'.

    `perm` optionally permutes variable significance: perm[0] is the most
    significant variable index.  None means context order; otherwise it
    must be a permutation of range(nvars) for the polynomials ordered.
    `key(mono)`, larger for larger monomials, is chosen at construction.
    """

    kind: str = "grevlex"
    perm: Optional[Tuple[int, ...]] = None
    key: Callable[[Monomial], tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        perm = self.perm
        if perm is not None and sorted(perm) != list(range(len(perm))):
            raise ValueError(f"perm {perm} is not a permutation of 0..{len(perm) - 1}")
        # lex compares the exponent tuples themselves
        key = grevlex_key if self.kind == "grevlex" else tuple
        if perm is not None:
            unpermuted = key
            key = lambda m: unpermuted(tuple(m[i] for i in perm))
        object.__setattr__(self, "key", key)

    def leading_monomial(self, p: Polynomial) -> Monomial:
        if p.is_zero():
            raise ValueError("zero polynomial has no leading monomial")
        if self.perm is not None and len(self.perm) != p.ctx.nvars:
            raise ValueError(f"perm {self.perm} does not fit the "
                             f"{p.ctx.nvars} variables of {p.ctx}")
        # p._lead caches the answer for the last order that asked
        cached = p._lead
        if cached is not None and cached[0] is self:
            return cached[1]
        m = max(p.terms, key=self.key)
        object.__setattr__(p, "_lead", (self, m))
        return m

    def leading_term(self, p: Polynomial) -> Tuple[Monomial, Fraction]:
        m = self.leading_monomial(p)
        return m, p.terms[m]

    def leading_coefficient(self, p: Polynomial) -> Fraction:
        return self.leading_term(p)[1]

    def monic(self, p: Polynomial) -> Polynomial:
        if p.is_zero():
            return p
        return p / self.leading_coefficient(p)


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


# -- division -----------------------------------------------------------

def divide(f: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder = GREVLEX,
           budget: Optional[StepBudget] = None) -> Tuple[List[Polynomial], Polynomial]:
    """Multivariate division of f by an ordered list of divisors.

    Returns (quotients, remainder) with f == sum(q_i * g_i) + r and no
    remainder monomial divisible by any divisor's leading monomial.

    The reduction runs on integers: each divisor is cleared once to
    integer numerators (lead L, tail) over its denominator d, and the
    work terms are integer numerators over one common denominator D.
    Eliminating a term a/D scales the work and D by L/gcd(a, L), when
    that is not 1, and subtracts (a/gcd(a, L)) * shift * tail.  Each
    monomial's order key is computed once, when it enters the work, and
    dropped when it leaves.  Fractions are built once per quotient and
    remainder term.

    Args:
        f: dividend.
        divisors: nonzero divisors, tried in order at each step.
        order: monomial order for leading terms.
        budget: optional shared step budget; each single-term elimination
            costs one step.

    Raises:
        ValueError: if any divisor is zero.
        BudgetExhausted: if the step budget runs out.
    """
    for g in divisors:
        if g.is_zero():
            raise ValueError("zero divisor in division")
    ctx = f.ctx
    lms = [order.leading_monomial(g) for g in divisors]
    if not any(mono_divides(lm, m) for m in f.terms for lm in lms):
        return [_raw(ctx, {}) for _ in divisors], f
    # (L, d, tail) per divisor, cleared when it is first used
    cleared: List[Optional[tuple]] = [None] * len(divisors)
    quotients: List[dict] = [{} for _ in divisors]
    remainder: dict = {}
    D, items = _cleared(f.terms)
    work = dict(items)
    key = order.key
    keys = {m: key(m) for m in work}
    while work:
        mono = max(work, key=keys.__getitem__)
        del keys[mono]
        a = work.pop(mono)
        for i, lm in enumerate(lms):
            if mono_divides(lm, mono):
                if budget is not None:
                    budget.spend()
                if cleared[i] is None:
                    terms = divisors[i].terms
                    d, ints = _cleared(terms)
                    cleared[i] = (int(terms[lm] * d), d,
                                  [(m, c) for m, c in ints if m != lm])
                L, d, tail = cleared[i]
                shift = mono_div(mono, lm)
                quotients[i][shift] = Fraction(a * d, D * L)
                g = gcd(a, L)
                scale = L // g
                if scale != 1:
                    D *= scale
                    for m in work:
                        work[m] *= scale
                a //= g
                for m, c in tail:
                    tm = tuple(map(add, shift, m))
                    v = work.get(tm)
                    if v is None:
                        work[tm] = -a * c
                        keys[tm] = key(tm)
                    else:
                        v -= a * c
                        if v:
                            work[tm] = v
                        else:
                            del work[tm], keys[tm]
                break
        else:
            remainder[mono] = Fraction(a, D) if D != 1 else Fraction(a)
    return [_raw(ctx, q) for q in quotients], _raw(ctx, remainder)


def normal_form(f: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder = GREVLEX,
                budget: Optional[StepBudget] = None) -> Polynomial:
    """Remainder of f on division by divisors."""
    return divide(f, divisors, order, budget)[1]


def spoly(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """S-polynomial of f and g."""
    mf, cf = order.leading_term(f)
    mg, cg = order.leading_term(g)
    l = mono_lcm(mf, mg)
    uf = _raw(f.ctx, {mono_div(l, mf): 1 / cf})
    ug = _raw(g.ctx, {mono_div(l, mg): 1 / cg})
    return uf * f - ug * g


# -- Buchberger ---------------------------------------------------------

def _update_pairs(basis: List[Polynomial], lms: List[Monomial],
                  pairs: List[Tuple[int, int]], f: Polynomial,
                  order: MonomialOrder) -> None:
    """Gebauer-Moller pair update: append f to basis, prune and extend pairs.

    Mutates basis, its leading monomials lms and pairs in place.
    """
    lmf = order.leading_monomial(f)

    kept = []
    for (i, j) in pairs:
        lcm_ij = mono_lcm(lms[i], lms[j])
        if (not mono_divides(lmf, lcm_ij)
                or mono_lcm(lms[i], lmf) == lcm_ij
                or mono_lcm(lms[j], lmf) == lcm_ij):
            kept.append((i, j))
    pairs[:] = kept

    new_idx = len(basis)
    cand = [(mono_lcm(lm, lmf), i) for i, lm in enumerate(lms)]
    cand.sort(key=lambda t: order.key(t[0]))
    minimal: List[Tuple[Monomial, List[int]]] = []
    for lcm_m, i in cand:
        covered = False
        for prev, members in minimal:
            if prev == lcm_m:
                members.append(i)
                covered = True
                break
            if mono_divides(prev, lcm_m):
                covered = True
                break
        if not covered:
            minimal.append((lcm_m, [i]))
    for lcm_m, members in minimal:
        # Buchberger's first criterion: skip classes containing a coprime pair.
        if any(lcm_m == mono_mul(lms[i], lmf) for i in members):
            continue
        pairs.append((min(members), new_idx))

    basis.append(f)
    lms.append(lmf)


def _minimalize(basis: List[Polynomial], lms: List[Monomial],
                order: MonomialOrder) -> List[Polynomial]:
    out: List[Tuple[Monomial, Polynomial]] = []
    for lm, g in sorted(zip(lms, basis), key=lambda t: order.key(t[0])):
        if not any(mono_divides(h, lm) for h, _ in out):
            out.append((lm, g))
    return [g for _, g in out]


def _interreduce(basis: List[Polynomial], order: MonomialOrder,
                 budget: Optional[StepBudget]) -> List[Polynomial]:
    out: List[Polynomial] = []
    for i, g in enumerate(basis):
        others = basis[:i] + basis[i + 1:]
        _, r = divide(g, others, order, budget)
        if not r.is_zero():
            out.append(order.monic(r))
    return out


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with its order.

    Generators are monic, mutually reduced and sorted by increasing
    leading monomial; this form is unique for the ideal and order.
    """

    generators: Tuple[Polynomial, ...]
    order: MonomialOrder

    @property
    def contains_one(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.generators)

    def reduce(self, f: Polynomial, budget: Optional[StepBudget] = None) -> Polynomial:
        """Unique normal form of f modulo the ideal."""
        return normal_form(f, self.generators, self.order, budget)

    def contains(self, f: Polynomial, budget: Optional[StepBudget] = None) -> bool:
        return self.reduce(f, budget).is_zero()

    def leading_monomials(self) -> Tuple[Monomial, ...]:
        return tuple(self.order.leading_monomial(g) for g in self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX,
               budget: Optional[StepBudget] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Pair management follows Gebauer-Moller; pair selection is the normal
    strategy (smallest lcm in the order).  The step budget, defaulting to
    DEFAULT_BUDGET, bounds single-term reductions across the whole run.

    Raises:
        BudgetExhausted: when the budget runs out; no partial basis is
            returned.
    """
    if budget is None:
        budget = StepBudget(DEFAULT_BUDGET)
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        raise ValueError("no nonzero generators")
    ctx = nonzero[0].ctx
    for g in nonzero:
        if g.ctx != ctx:
            raise ValueError("generators from different contexts")

    basis: List[Polynomial] = []
    lms: List[Monomial] = []
    pairs: List[Tuple[int, int]] = []
    for g in nonzero:
        _, r = divide(g, basis, order, budget) if basis else ([], g)
        if not r.is_zero():
            _update_pairs(basis, lms, pairs, order.monic(r), order)

    key = order.key
    while pairs:
        # the first smallest lcm in insertion order; pairs are distinct
        ij = min(pairs, key=lambda p: key(mono_lcm(lms[p[0]], lms[p[1]])))
        pairs.remove(ij)
        i, j = ij
        s = spoly(basis[i], basis[j], order)
        _, r = divide(s, basis, order, budget)
        if not r.is_zero():
            _update_pairs(basis, lms, pairs, order.monic(r), order)

    reduced = _interreduce(_minimalize(basis, lms, order), order, budget)
    reduced.sort(key=lambda p: order.key(order.leading_monomial(p)))
    return GroebnerBasis(tuple(reduced), order)
