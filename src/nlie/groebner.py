"""The grevlex monomial order, multivariate division and reduced
Groebner bases.

Everything here is deterministic: given the same generators, the same
reduced basis comes back in the same sequence.  Long computations are
metered by an explicit reduction-step budget and fail loudly with
BudgetExhausted, never silently.

The one monomial order is grevlex, and no object stands for it: leading
monomials are the largest under poly.grevlex_key, the key `str()` prints
terms by, and `_order_packing` packs monomials into ints whose int order
is grevlex (the degree-graded layout of Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  In a packed monomial a product is one addition and a
divisibility test one subtraction.

Division and S-polynomials run on that packing, like the product kernel
in poly runs on its own: a polynomial is cleared once to integer
numerators over its denominator and packed once per width, and the
record is cached on it (`_record`), so a basis element used in every
division is packed once.  The work terms are integer numerators over one
common denominator, keyed by their packed monomials.

An S-polynomial, a remainder (its content removed by one integer gcd)
and a monic element made from a remainder's record are returned known
by their record alone (`poly._recorded`): the next division reads the
record, and a Fraction is built only when something reads `.terms`.
Inside Buchberger's algorithm nothing does, so it builds no Fraction
until it returns the basis, whose terms it builds before it drops the
records.  Quotient terms are built only when asked for; Buchberger's
algorithm and every normal form ask for none.  A polynomial also keeps
its leading monomial once found.

Buchberger's algorithm is signature-based (F5, in the rewrite-basis
form; see `buchberger`): its reductions are `_divide` with a signature
bound, so on a homogeneous regular sequence no S-pair reduces to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from heapq import heappop, heappush
from itertools import chain
from operator import add, le, mul, sub
from typing import List, Optional, Sequence, Tuple

from .poly import Monomial, Polynomial, _MonomialPacking, _pack, _raw, _recorded, grevlex_key

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

def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when monomial a divides monomial b."""
    return all(map(le, a, b))


class _OrderPacking(_MonomialPacking):
    """Monomials in nvars variables packed into ints whose int order is
    grevlex, for exponents and total degrees below 2^w.

    Every field is w+1 bits wide.  The low nvars fields hold the
    exponents, x_0 highest, each under a guard bit that is 0 while the
    exponent is below 2^w.  Above them sit deg - e_j for every variable
    but x_0, the last variable highest, and the total degree on top,
    from bit `top` on, so that among equal degrees the smaller last
    exponent gives the larger int.  Every field is linear in the
    exponents, so x_j packs as units[j] and a product of monomials is
    one int addition while no field overflows; lead divides mono iff
    (mono - lead) & guards == 0, since the lowest exponent field that
    borrows sets its guard.
    """

    __slots__ = ("w", "guards", "top")

    def __init__(self, nvars: int, w: int) -> None:
        width = w + 1
        self.shifts = tuple(width * (nvars - 1 - j) for j in range(nvars))
        self.top = width * (2 * nvars - 1)
        # x_j counts in its exponent field, in the degree on top and in
        # deg - e_i for every i >= 1 but itself
        self.units = tuple((1 << s) + (1 << self.top)
                           + sum(1 << width * (nvars - 1 + i) for i in range(1, nvars) if i != j)
                           for j, s in enumerate(self.shifts))
        self.w = w
        self.mask = (1 << w) - 1
        self.guards = sum(1 << s for s in self.shifts) << w

    def monomial(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self.units))

    def degree(self, lead: int) -> int:
        """The total degree of a packed polynomial with leading monomial
        lead: its top field."""
        return lead >> self.top


def leading_monomial(p: Polynomial) -> Monomial:
    """The grevlex-largest monomial of nonzero p, cached on p (`_lead`)."""
    if p.is_zero():
        raise ValueError("zero polynomial has no leading monomial")
    m = p._lead
    if m is None:
        m = max(p.terms, key=grevlex_key)
        object.__setattr__(p, "_lead", m)
    return m


def monic(p: Polynomial) -> Polynomial:
    """p divided by its leading coefficient.

    When p carries a packed record, the result is known by a primitive
    record made from it, one gcd removing the content of the numerators,
    and builds no Fraction until its terms are read.  Otherwise it is
    p / lc(p).
    """
    if p.is_zero():
        return p
    rec = p._packed
    if rec is None:
        return p / p.terms[leading_monomial(p)]
    packing, _, lead, L, tail = rec
    h = gcd(L, *[c for _, c in tail])
    if L < 0:
        h = -h
    L //= h
    tail = [(m, c // h) for m, c in tail]
    return _recorded(p.ctx, (packing, L, lead, L, tail))


# buchberger's second positional argument, kept for callers that pass it;
# grevlex is the only order
GREVLEX = "grevlex"


@lru_cache(maxsize=1024)
def _order_packing(nvars: int, w: int) -> _OrderPacking:
    """The packing of nvars variables for exponents and degrees below 2^w.

    An _OrderPacking is never changed after construction, so calls share
    one.
    """
    return _OrderPacking(nvars, w)


# -- packed records -----------------------------------------------------
#
# A record (packing, d, lead, L, tail) is a nonzero polynomial
# (L * x^lead + sum(c * x^m for m, c in tail)) / d on the monomials of
# one packing, lead its leading monomial, d > 0, and its degree at most
# the packing's mask.  A polynomial keeps the record of the last packing
# that asked (`_packed`).  A polynomial made from a record may have no
# terms yet, so code that replaces or drops a record reads `.terms`
# first, which builds them.

def _make_record(packing: _OrderPacking, d: int, items: List[Tuple[int, int]]) -> tuple:
    # items is consumed: the lead is taken out of it and the rest kept
    lead, L = max(items)
    items.remove((lead, L))
    return packing, d, lead, L, items


def _record(p: Polynomial, packing: _OrderPacking) -> tuple:
    """The record of nonzero p at packing, cleared and packed only when p
    has no record at that packing yet; reading p.terms builds them from
    the record it replaces."""
    rec = p._packed
    if rec is None or rec[0] is not packing:
        rec = _make_record(packing, *_pack(packing, p.terms))
        object.__setattr__(p, "_packed", rec)
    return rec


def _packing_for(polys: Sequence[Polynomial], degree: int) -> _OrderPacking:
    """The packing for a call on polys whose exponents and degrees stay
    at most degree: the narrowest that holds degree, or the widest that
    one of polys already has a record at, so that widths only grow and a
    basis used in every call is packed once per width."""
    w = max(degree, 1).bit_length()
    for p in polys:
        rec = p._packed
        if rec is not None and rec[0].w > w:
            w = rec[0].w
    return _order_packing(polys[0].ctx.nvars, w)


def _fractions(ctx, packing: _OrderPacking, items) -> Polynomial:
    # the polynomial of (packed monomial, (numerator, denominator)) items
    if not items:
        return _raw(ctx, {})
    return _raw(ctx, {m: Fraction(*v) for m, v in packing.unpack(items)})


def _remainder(ctx, packing: _OrderPacking, terms: List[Tuple[int, int, int]],
               D: int) -> Polynomial:
    """The polynomial of remainder terms (monomial, numerator, the
    denominator it was set aside over), in decreasing order, each
    denominator dividing D.

    The numerators are brought to D and their common factor with D
    removed by one gcd, which also makes the denominator positive.  The
    result is known by that record (`poly._recorded`).
    """
    if not terms:
        return _raw(ctx, {})
    items = []
    at = None
    for m, a, d in terms:
        if d is not at:
            at, scale = d, D // d
        items.append((m, a * scale))
    g = gcd(D, *[a for _, a in items])
    if D < 0:
        # the work's D takes the sign of the leading coefficients it was
        # scaled by; a record's denominator is positive
        g = -g
    if g != 1:
        D //= g
        items = [(m, a // g) for m, a in items]
    lead, L = items[0]
    return _recorded(ctx, (packing, D, lead, L, items[1:]))


# -- division -----------------------------------------------------------

def divide(f: Polynomial, divisors: Sequence[Polynomial],
           budget: Optional[StepBudget] = None, *,
           quotients: bool = True) -> Tuple[Optional[List[Polynomial]], Polynomial]:
    """Multivariate division of f by an ordered list of divisors.

    Returns (quotients, remainder) with f == sum(q_i * g_i) + r and no
    remainder monomial divisible by any divisor's leading monomial.
    With quotients=False it returns (None, r) and builds no quotient.

    The reduction runs on the grevlex packing: each divisor's record
    (lead L, tail, over its denominator d) is cached on it, and the work
    is integer numerators over one common denominator D in a dict keyed
    by packed monomials, so the next term is max(work), a divisibility
    test is one subtraction and a shifted tail monomial one addition.
    Eliminating a term a/D scales the work and D by L/gcd(a, L), when
    that is not 1, and subtracts (a/gcd(a, L)) * shift * tail.  A term
    no lead divides is set aside over the D of its time.  At the end the
    remainder is brought to the final D, its content removed by one gcd,
    and unpacked with one Fraction per term; it keeps that record (see
    `_remainder`).  Quotient terms, when asked for, are one Fraction each.

    The packing holds every degree of f and of the divisors, and no work
    term leaves it: grevlex is degree-compatible, so deg lead(g) = deg g
    and each exponent of a shifted tail term is at most the degree of
    the term it replaces.

    Args:
        f: dividend.
        divisors: nonzero divisors, tried in order at each step.
        budget: optional shared step budget; each single-term elimination
            costs one step.
        quotients: build and return the quotients (keyword only).

    Raises:
        ValueError: if any divisor is zero.
        ContextMismatch: if a divisor is from another context.
        BudgetExhausted: if the step budget runs out.
    """
    ctx = f.ctx
    for g in divisors:
        if g.ctx is not ctx:
            f._check_ctx(g)
        if g.is_zero():
            raise ValueError("zero divisor in division")
    # a dividend with a record (an S-polynomial, a remainder) is divided
    # without first testing its terms one by one
    if f._packed is None:
        lms = [leading_monomial(g) for g in divisors]
        if not any(mono_divides(lm, m) for m in f.terms for lm in lms):
            return ([_raw(ctx, {}) for _ in divisors] if quotients else None), f
    return _divide(f, divisors, budget, quotients)


Bound = Tuple[int, Monomial, List[Monomial]]


def _divide(f: Polynomial, divisors: Sequence[Polynomial], budget: Optional[StepBudget],
            quotients: bool, bound: Optional[Bound] = None
            ) -> Tuple[Optional[List[Polynomial]], Polynomial]:
    """divide() past its checks.

    A bound (free, sig, sigs) makes it a regular reduction of f, whose
    signature monomial is sig: divisors[free:] have signature monomials
    sigs of sig's index, and one is used at a term only when its shifted
    signature shift * s is below sig, that is, shift < sig - s packed
    (the packing also holds their degrees, and a sum of two packed
    monomials carries into no field); divisors[:free] have lower indices
    and always are.
    """
    polys = [f, *divisors]
    degree = max(p.total_degree() for p in polys)
    if bound is not None:
        degree = max(degree, sum(bound[1]), *map(sum, bound[2]))
    packing = _packing_for(polys, degree)
    recs = [_record(g, packing) for g in divisors]
    leads = [rec[2] for rec in recs]
    free, limits = len(recs), ()
    if bound is not None:
        free, sig, sigs = bound
        top = packing.monomial(sig)
        limits = [top - packing.monomial(s) for s in sigs]
    rec = f._packed
    if rec is not None and rec[0] is packing:
        _, D, lead, L, tail = rec
        work = dict(tail)
        work[lead] = L
    else:
        D, items = _pack(packing, f.terms)
        work = dict(items)
    guards = packing.guards
    qs: Optional[List[list]] = [[] for _ in divisors] if quotients else None
    remainder: List[Tuple[int, int, int]] = []
    while work:
        mono = max(work)
        a = work.pop(mono)
        for i, lead in enumerate(leads):
            shift = mono - lead
            if shift & guards or i >= free and shift >= limits[i - free]:
                continue
            _, d, _, L, tail = recs[i]
            if budget is not None:
                budget.spend()
            if qs is not None:
                qs[i].append((shift, (a * d, D * L)))
            g = gcd(a, L)
            scale = L // g
            if scale != 1:
                D *= scale
                work = {m: c * scale for m, c in work.items()}
            a //= g
            get = work.get
            for m, c in tail:
                m += shift
                v = get(m, 0) - a * c
                if v:
                    work[m] = v
                else:
                    del work[m]
            break
        else:
            remainder.append((mono, a, D))
    ctx = f.ctx
    r = _remainder(ctx, packing, remainder, D)
    return (None if qs is None else [_fractions(ctx, packing, q) for q in qs]), r


def normal_form(f: Polynomial, divisors: Sequence[Polynomial],
                budget: Optional[StepBudget] = None) -> Polynomial:
    """Remainder of f on division by divisors."""
    return divide(f, divisors, budget, quotients=False)[1]


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of f and g: u*f/lc(f) - v*g/lc(g), where u*lm(f) and
    v*lm(g) are the lcm of the leading monomials.

    The leading terms cancel, so only the tails are combined.  On the
    packed records f = (L_f * x^lm(f) + tail_f) / d_f and g alike, with
    h = gcd(L_f, L_g), the numerators are (L_g/h) * u * tail_f -
    (L_f/h) * v * tail_g over L_f * L_g / h: one integer multiplier per
    tail and one addition per shifted monomial.  A nonzero result is
    known by them as its record (`poly._recorded`), so dividing it next
    packs nothing again and builds no Fraction.
    """
    f._check_ctx(g)
    mf, mg = leading_monomial(f), leading_monomial(g)
    l = mono_lcm(mf, mg)
    # a shifted tail has at most the degree of its shifted lead, the lcm
    packing = _packing_for((f, g), sum(l))
    _, _, lf, Lf, tail_f = _record(f, packing)
    _, _, lg, Lg, tail_g = _record(g, packing)
    h = gcd(Lf, Lg)
    af, ag = Lg // h, Lf // h
    den = Lf * af
    if den < 0:
        af, ag, den = -af, -ag, -den
    # the packing is linear, so the shifts u and v are packed differences
    l = packing.monomial(l)
    u, v = l - lf, l - lg
    work = {m + u: af * c for m, c in tail_f}
    get = work.get
    for m, c in tail_g:
        m += v
        work[m] = get(m, 0) - ag * c
    items = [t for t in work.items() if t[1]]
    if not items:
        return _raw(f.ctx, {})
    return _recorded(f.ctx, _make_record(packing, den, items))


# -- Buchberger ---------------------------------------------------------

def _minimalize(basis: List[Polynomial], lms: List[Monomial]) -> List[Polynomial]:
    out: List[Tuple[Monomial, Polynomial]] = []
    for lm, g in sorted(zip(lms, basis), key=lambda t: grevlex_key(t[0])):
        if not any(mono_divides(h, lm) for h, _ in out):
            out.append((lm, g))
    return [g for _, g in out]


def _interreduce(basis: List[Polynomial], budget: Optional[StepBudget]) -> List[Polynomial]:
    out: List[Polynomial] = []
    for i, g in enumerate(basis):
        r = normal_form(g, basis[:i] + basis[i + 1:], budget)
        if not r.is_zero():
            out.append(monic(r))
    return out


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced grevlex Groebner basis.

    Generators are monic, mutually reduced and sorted by increasing
    leading monomial; this form is unique for the ideal.
    """

    generators: Tuple[Polynomial, ...]

    @property
    def contains_one(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.generators)

    def reduce(self, f: Polynomial, budget: Optional[StepBudget] = None) -> Polynomial:
        """Unique normal form of f modulo the ideal."""
        return normal_form(f, self.generators, budget)

    def contains(self, f: Polynomial, budget: Optional[StepBudget] = None) -> bool:
        return self.reduce(f, budget).is_zero()

    def leading_monomials(self) -> Tuple[Monomial, ...]:
        return tuple(map(leading_monomial, self.generators))

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def buchberger(gens: Sequence[Polynomial], order: str = GREVLEX,
               budget: Optional[StepBudget] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    A signature-based algorithm: F5 (Faugere, ISSAC 2002) in the rewrite
    basis (RB) form of Eder and Faugere's survey (J. Symbolic Comput.
    2017), with the add order: the nonzero gens f_1, f_2, ... are taken
    as given.  An element g of index i is h_1 f_1 + ... + h_i f_i with
    h_i != 0, and its signature is the leading monomial of h_i;
    signatures compare by index, then by grevlex.  Index i starts
    with f_i reduced by the elements of lower index, of signature 1, and
    its S-pairs are reduced in increasing signature before index i+1
    starts; a constant element ends the run.

    An S-pair's signature is the larger of its halves' shifted
    signatures, and the half that has it is the pair's generator; a pair
    whose halves are equal is not formed.  Of the pairs of one signature
    at most one is reduced, the one of the newest generator, and none
    when the signature is divisible by a syzygy's of index i (the Koszul
    syzygies lm(g) of every earlier element g, and every signature that
    reduced to zero) or by the signature of an element added after the
    generator.  The pair is reduced regularly (see _divide), and a
    nonzero remainder is added under the pair's signature.  That keeps a
    remainder whose lead only a divisor of equal shifted signature
    divides: with the add order, dropping it can lose a pair the
    element would have rewritten.  On a homogeneous regular sequence no
    pair reduces to zero (Faugere's theorem), nor on the benchmark's
    dense quadrics, cyclic-5 and katsura-5.  The elements of every index
    are then minimalized and interreduced into the unique reduced basis.

    The step budget, defaulting to DEFAULT_BUDGET, bounds single-term
    eliminations across the whole run: each reduction step, and each
    S-polynomial, which eliminates its pair's lcm term.

    The order must be GREVLEX, the only one; the parameter is kept for
    callers that pass it positionally before the budget.

    Raises:
        ValueError: for an order other than GREVLEX, no nonzero
            generator, or generators from different contexts.
        BudgetExhausted: when the budget runs out; no partial basis is
            returned.
    """
    if order != GREVLEX:
        raise ValueError(f"unknown monomial order {order!r}; grevlex is the only one")
    if budget is None:
        budget = StepBudget(DEFAULT_BUDGET)
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        raise ValueError("no nonzero generators")
    ctx = nonzero[0].ctx
    for g in nonzero:
        if g.ctx != ctx:
            raise ValueError("generators from different contexts")

    key = grevlex_key
    basis: List[Polynomial] = []
    lms: List[Monomial] = []
    for f in nonzero:
        if lms and not any(lms[-1]):
            break  # a constant element: the ideal is the whole ring
        # basis[start:] are the elements of this index and sigs their
        # signatures; the leads of the earlier ones are the Koszul syzygies
        start = len(basis)
        koszul = lms[:]
        sigs: List[Monomial] = []
        zeros: List[Monomial] = []
        # a pair is (key of its signature, -generator, other half, signature)
        pairs: List[Tuple[tuple, int, int, Monomial]] = []

        def insert(g: Polynomial, sig: Monomial) -> None:
            k = len(basis)
            lm = leading_monomial(g)
            for j, lmj in enumerate(lms):
                l = mono_lcm(lmj, lm)
                t = tuple(map(add, map(sub, l, lm), sig))
                gen = k
                if j >= start:
                    tj = tuple(map(add, map(sub, l, lmj), sigs[j - start]))
                    if tj == t:
                        continue
                    if key(tj) > key(t):
                        t, gen = tj, j
                if not any(all(map(le, z, t)) for z in koszul):
                    heappush(pairs, (key(t), -gen, j + k - gen, t))
            basis.append(g)
            lms.append(lm)
            sigs.append(sig)

        r = normal_form(f, basis, budget) if basis else f
        if not r.is_zero():
            insert(monic(r), (0,) * ctx.nvars)
        while pairs and any(lms[-1]):
            top, gen, j, sig = heappop(pairs)
            while pairs and pairs[0][0] == top:
                heappop(pairs)
            gen = -gen
            # the syzygy criterion, then the rewrite criterion
            if any(all(map(le, z, sig)) for z in chain(zeros, sigs[gen - start + 1:])):
                continue
            budget.spend()  # the S-polynomial eliminates the pair's lcm term
            s = spoly(basis[gen], basis[j])
            if not s.is_zero():
                s = _divide(s, basis, budget, False, (start, sig, sigs))[1]
            if s.is_zero():
                zeros.append(sig)
            else:
                insert(monic(s), sig)

    reduced = _interreduce(_minimalize(basis, lms), budget)
    reduced.sort(key=lambda p: key(leading_monomial(p)))
    # the returned basis keeps no record: a record is as large as the
    # terms, and a caller that divides by the basis packs it again once;
    # the terms are built from it before it goes
    for g in reduced:
        g.terms
        object.__setattr__(g, "_packed", None)
    return GroebnerBasis(tuple(reduced))
