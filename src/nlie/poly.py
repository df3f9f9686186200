"""Sparse multivariate polynomials over exact rationals.

A polynomial is a mapping from exponent tuples to nonzero Fraction
coefficients, attached to a fixed ordered variable context.  The empty
mapping is the zero polynomial.  All arithmetic is exact; there is no
floating point anywhere in this package.

Canonical form: no zero coefficients are ever stored, exponents are
non-negative ints, and every monomial tuple has exactly one entry per
context variable.  Two polynomials are equal iff their contexts and term
maps are equal.

This module also holds the package's one packed integer layer.  A
product, a power, the root check in nlie.analysis and the brackets and
determinants in nlie.brackets all cross it the same way: `_pack` clears
each operand once to integer numerators over the lcm d of its
denominators, on monomials packed into ints by a `_Packing` wide enough
for every degree the work can reach; `_int_mul`, the one pair loop, sums
plain ints with one int addition per monomial product (`_int_pow`
squares on it); and `_polynomial` unpacks the nonzero sums, building one
Fraction per term over the product of the d's.  No Fraction is built
and no exponent tuple is formed inside the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul, neg
from typing import (Collection, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

Monomial = Tuple[int, ...]
Scalar = Union[int, Fraction]
# Integer numerators on packed monomials (`_Packing`), and a packed value
# (d, items): the polynomial sum(v/d * x^m) over its items, d positive.
_PackedPoly = List[Tuple[int, int]]
_PackedValue = Tuple[int, _PackedPoly]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ContextMismatch(ValueError):
    """Raised when polynomials from different variable contexts are mixed."""


@dataclass(frozen=True)
class VarContext:
    """An ordered tuple of distinct variable names.

    The order is semantic: it fixes the meaning of exponent tuples, the
    grevlex monomial order and the sign of Jacobian determinants.
    """

    names: Tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise ValueError("variable context needs at least one name")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        for nm in names:
            if not nm or any(ch.isspace() for ch in nm):
                raise ValueError(f"bad variable name: {nm!r}")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"variable {name!r} not in context {self.names}") from None

    def variable(self, which: Union[int, str]) -> "Polynomial":
        """The variable `which` (index or name) as a polynomial."""
        i = which if isinstance(which, int) else self.index(which)
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return _raw(self, {mono: _ONE})

    def gens(self) -> Tuple["Polynomial", ...]:
        """All context variables as polynomials, x_0 first."""
        return tuple(self.variable(i) for i in range(self.nvars))

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value: Scalar) -> "Polynomial":
        q = Fraction(value)
        if q == 0:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: q})

    def __str__(self) -> str:
        return "(" + ", ".join(self.names) + ")"


def context(*names: str) -> VarContext:
    """Build a VarContext from variable names given as separate arguments."""
    return VarContext(tuple(names))


def grevlex_key(mono: Monomial) -> tuple:
    """Grevlex key, the package's one monomial order: total degree first,
    then the rightmost differing exponent, smaller winning.  Larger key,
    larger monomial."""
    return (sum(mono), tuple(map(neg, reversed(mono))))


class Polynomial:
    """Immutable sparse polynomial over Q attached to a VarContext.

    `terms` maps exponent tuples to nonzero Fractions.  Instances are
    hashable and safe to use as dict keys or set members.

    `_hash` caches the hash, `_degree` the total degree, `_lead` the
    grevlex leading monomial once nlie.groebner asks for it, and
    `_packed` the packed division record of nlie.groebner for the last
    packing that asked; equality and hashing ignore them all.

    A nonzero polynomial that nlie.groebner makes (an S-polynomial, a
    remainder, a monic basis element) starts as a `_Recorded`, known by
    its record alone: its `terms` are built when first read.  Polynomial
    itself defines no `__getattr__`, which would put every attribute read
    of every polynomial on a slower path, so `terms` stays a plain slot
    read.  Code that replaces or drops a record builds the terms first.
    """

    __slots__ = ("ctx", "terms", "_hash", "_degree", "_lead", "_packed")

    def __init__(self, ctx: VarContext, terms: Mapping[Monomial, Scalar]):
        clean: Dict[Monomial, Fraction] = {}
        n = ctx.nvars
        for mono, coeff in terms.items():
            if len(mono) != n:
                raise ValueError(f"monomial {mono} has wrong length for context {ctx}")
            if any(e < 0 or not isinstance(e, int) for e in mono):
                raise ValueError(f"bad exponents in monomial {mono}")
            q = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if q != 0:
                clean[mono] = q
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_degree", None)
        object.__setattr__(self, "_lead", None)
        object.__setattr__(self, "_packed", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the terms, never from a record
        return Polynomial, (self.ctx, self.terms)

    # -- predicates and basic data -------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial.  Found once, then cached."""
        d = self._degree
        if d is None:
            d = max(map(sum, self.terms), default=-1)
            object.__setattr__(self, "_degree", d)
        return d

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), _ZERO)

    def num_terms(self) -> int:
        return len(self.terms)

    # -- arithmetic -----------------------------------------------------

    def _check_ctx(self, other: "Polynomial") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch(f"contexts differ: {self.ctx} vs {other.ctx}")

    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ctx.constant(other)
        self._check_ctx(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, _ZERO) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return _raw(self.ctx, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ctx.constant(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return self.ctx.constant(other).__sub__(self)

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        """Product with a polynomial or a scalar.

        Two polynomials are packed once, with room for the sum of their
        degrees, and multiplied by `_int_mul`.
        """
        if not isinstance(other, Polynomial):
            q = Fraction(other)
            if q == 0:
                return self.ctx.zero()
            return _raw(self.ctx, {m: c * q for m, c in self.terms.items()})
        self._check_ctx(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        packing = _packing(self.ctx.nvars, max(self.total_degree(), 0)
                           + max(other.total_degree(), 0))
        da, ia = _pack(packing, a)
        db, ib = _pack(packing, b)
        return _polynomial(self.ctx, packing, (da * db, _int_mul(ia, ib, {}).items()))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        """k-th power: the base is packed once, with room for k times its
        degree, and raised by `_int_pow`."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        if k == 0:
            return self.ctx.one()
        packing = _packing(self.ctx.nvars, k * max(self.total_degree(), 0))
        d, items = _pack(packing, self.terms)
        return _polynomial(self.ctx, packing, (d ** k, _int_pow(items, k).items()))

    def __truediv__(self, scalar: Scalar) -> "Polynomial":
        q = Fraction(scalar)
        if q == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (1 / q)

    # -- calculus and structure ------------------------------------------

    def partial(self, which: Union[int, str]) -> "Polynomial":
        """Partial derivative with respect to one context variable."""
        i = which if isinstance(which, int) else self.ctx.index(which)
        out: Dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e:
                m2 = mono[:i] + (e - 1,) + mono[i + 1:]
                s = out.get(m2, _ZERO) + c * e
                if s:
                    out[m2] = s
                else:
                    out.pop(m2, None)
        return _raw(self.ctx, out)

    def gradient(self) -> Tuple["Polynomial", ...]:
        return tuple(self.partial(i) for i in range(self.ctx.nvars))

    def substitute(self, images: Mapping[str, Union["Polynomial", Scalar]]) -> "Polynomial":
        """Substitute polynomials (or scalars) for variables.

        All polynomial images must share a single target context; that
        context also hosts scalar images and any unmapped variables (which
        must exist there by name).  Returns the substituted polynomial in
        the target context.

        Args:
            images: map from variable name to replacement.

        Raises:
            ContextMismatch: if polynomial images disagree on context.
            KeyError: if an unmapped variable is missing from the target.
        """
        target: VarContext | None = None
        for v in images.values():
            if isinstance(v, Polynomial):
                if target is None:
                    target = v.ctx
                elif target != v.ctx:
                    raise ContextMismatch("substitution images span two contexts")
        if target is None:
            target = self.ctx
        repl: Dict[int, Polynomial] = {}
        for i, name in enumerate(self.ctx.names):
            if name in images:
                v = images[name]
                repl[i] = v if isinstance(v, Polynomial) else target.constant(v)
            else:
                repl[i] = target.variable(name)
        result = target.zero()
        pow_cache: Dict[Tuple[int, int], Polynomial] = {}
        for mono, c in self.terms.items():
            part = target.constant(c)
            for i, e in enumerate(mono):
                if e:
                    key = (i, e)
                    if key not in pow_cache:
                        pow_cache[key] = repl[i] ** e
                    part = part * pow_cache[key]
            result = result + part
        return result

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Evaluate at a rational point, one coordinate per context variable.

        With the coefficients cleared to integers over d, the point written
        as integers over q and D = max(deg, 0), d * q^D * f(point) is a sum
        of integers; only the result is a Fraction.  Coordinates whose
        integer is 1 are skipped, so at the all-ones point this is the sum
        of the numerators.
        """
        if len(point) != self.ctx.nvars:
            raise ValueError("point has wrong length")
        vals = [Fraction(v) for v in point]
        q = lcm(*[v.denominator for v in vals])
        nums = [v.numerator * (q // v.denominator) for v in vals]
        live = [(i, v) for i, v in enumerate(nums) if v != 1]
        top = max(self.total_degree(), 0)
        d, items = _cleared(self.terms)
        total = 0
        for mono, c in items:
            for i, v in live:
                e = mono[i]
                if e:
                    c *= v ** e
            if q != 1:
                c *= q ** (top - sum(mono))
            total += c
        return Fraction(total, d * q ** top)

    def homogeneous_components(self) -> Dict[int, "Polynomial"]:
        """Split into homogeneous parts, keyed by total degree."""
        buckets: Dict[int, Dict[Monomial, Fraction]] = {}
        for mono, c in self.terms.items():
            buckets.setdefault(sum(mono), {})[mono] = c
        return {d: _raw(self.ctx, t) for d, t in sorted(buckets.items())}

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    # -- term access ------------------------------------------------------

    def sorted_terms(self) -> Iterator[Tuple[Monomial, Fraction]]:
        """Terms, the grevlex-largest first."""
        for mono in sorted(self.terms, key=grevlex_key, reverse=True):
            yield mono, self.terms[mono]

    # -- equality, hashing, repr ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self == self.ctx.constant(other)
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self) -> int:
        # a constant hashes as its value, which it equals
        h = self._hash
        if h is None:
            if self.is_constant():
                h = hash(self.terms.get((0,) * self.ctx.nvars, _ZERO))
            else:
                h = hash((self.ctx, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.ctx}, {format_polynomial(self)})"


def _cleared(terms: Mapping[Monomial, Fraction],
             d: Optional[int] = None) -> Tuple[int, List[Tuple[Monomial, int]]]:
    # (d, [(mono, c*d)]) with d the lcm of the denominators, or the given
    # common multiple of them, so every c*d is an int.
    if d is None:
        d = lcm(*[c.denominator for c in terms.values()])
    if d == 1:
        return 1, [(m, c.numerator) for m, c in terms.items()]
    return d, [(m, c.numerator * (d // c.denominator)) for m, c in terms.items()]


class _MonomialPacking:
    """Monomials packed into ints as sum(e_j * units[j]); exponent e_j
    reads back as (m >> shifts[j]) & mask.  A subclass lays out the
    fields; packing and unpacking are the same for every layout."""

    __slots__ = ("units", "shifts", "mask")

    def pack(self, items: Iterable[Tuple[Monomial, int]]) -> _PackedPoly:
        units = self.units
        return [(sum(map(mul, m, units)), c) for m, c in items]

    def unpack(self, items: Iterable[Tuple[int, Scalar]]) -> List[Tuple[Monomial, Scalar]]:
        # the nonzero terms, monomials back as tuples
        mask, shifts = self.mask, self.shifts
        return [(tuple([(m >> s) & mask for s in shifts]), v) for m, v in items if v]


class _Packing(_MonomialPacking):
    """Monomials in nvars variables packed into ints, for degrees < 2^w.

    Exponent e_j sits in bits [w*j, w*(j+1)) and the total degree above
    them, from bit w*nvars on, so x_j packs as `units[j]`, 2^(w*j) +
    2^(w*nvars).  While every total degree is below 2^w no exponent
    carries into the next field, so the product of two monomials is one
    int addition, a partial in x_j subtracts units[j], and the largest
    int of a term list holds its degree.  `check` raises before a
    product could leave that range.
    """

    __slots__ = ("w", "nvars", "shift", "limit")

    def __init__(self, nvars: int, w: int) -> None:
        self.w = w
        self.nvars = nvars
        self.shift = w * nvars
        self.units = tuple((1 << (w * j)) + (1 << self.shift) for j in range(nvars))
        self.shifts = tuple(range(0, self.shift, w))
        self.limit = 1 << w
        self.mask = self.limit - 1

    def check(self, degree: int) -> None:
        if degree >= self.limit:
            raise OverflowError(f"degree {degree} exceeds the packing bound {self.limit}")

    def degree(self, items: _PackedPoly) -> int:
        # the monomials of items are distinct, so max never compares values
        return max(items, default=(0, 0))[0] >> self.shift

    def partials(self, items: _PackedPoly) -> Dict[int, _PackedPoly]:
        """The nonzero partials of a packed polynomial, keyed by variable.

        Only the variables it uses get an entry.  Distinct monomials have
        distinct partials in one variable, so no sum can cancel.
        """
        grads: Dict[int, _PackedPoly] = {}
        w, mask = self.w, self.mask
        for m, c in items:
            shift = 0
            for j, unit in enumerate(self.units):
                e = (m >> shift) & mask
                if e:
                    grads.setdefault(j, []).append((m - unit, c * e))
                shift += w
        return grads


@lru_cache(maxsize=1024)
def _packing(nvars: int, degree: int) -> _Packing:
    """The packing of nvars variables that holds every total degree <= degree.

    A _Packing is never changed after construction, so calls share one.
    """
    return _Packing(nvars, max(degree, 1).bit_length())


def _pack(packing: _Packing, terms: Mapping[Monomial, Fraction],
          d: Optional[int] = None) -> _PackedValue:
    """terms as integer numerators over d on packed monomials; d is the
    lcm of their denominators unless a common multiple is given."""
    d, items = _cleared(terms, d)
    return d, packing.pack(items)


def _terms(packing: _MonomialPacking, value: _PackedValue) -> Dict[Monomial, Fraction]:
    # the terms of sum(v/d * x^m) over a packed value (d, items) whose
    # monomials are distinct, one Fraction per nonzero v
    d, items = value
    if d == 1:
        return {m: Fraction(v) for m, v in packing.unpack(items)}
    return {m: Fraction(v, d) for m, v in packing.unpack(items)}


def _polynomial(ctx: VarContext, packing: _Packing, value: _PackedValue) -> Polynomial:
    """The polynomial sum(v/d * x^m) of a packed value (d, items); the
    monomials of items are distinct and the zero v are dropped."""
    return _raw(ctx, _terms(packing, value))


def _int_mul(a: Iterable[Tuple[int, int]], b: Collection[Tuple[int, int]],
             out: Dict[int, int]) -> Dict[int, int]:
    """Add the product of two packed integer term lists into out and return it.

    The one integer pair loop, behind every product, power, root check,
    bracket and determinant; b is walked once per term of a, and a
    product of monomials is one int addition.  Sums that cancel stay in
    out as 0; the caller drops them.
    """
    get = out.get
    for ma, ca in a:
        for mb, cb in b:
            mono = ma + mb
            out[mono] = get(mono, 0) + ca * cb
    return out


def _int_square(items: _PackedPoly) -> _PackedPoly:
    # The square step of _int_pow, zero sums dropped: each unordered pair
    # of terms is multiplied once, by `_int_mul`, with its weight 2.
    out: Dict[int, int] = {}
    for i, (mono, c) in enumerate(items):
        sq = mono + mono
        out[sq] = out.get(sq, 0) + c * c
        _int_mul(((mono, 2 * c),), items[i + 1:], out)
    return [t for t in out.items() if t[1]]


def _int_pow(items: _PackedPoly, k: int) -> Dict[int, int]:
    """The k-th power (k >= 1) of a packed integer term list, zero sums
    dropped; its packing must hold k times the degree of items.

    The one power routine, behind Polynomial.__pow__ and the root check:
    repeated squaring, each square over unordered term pairs and each
    other product by `_int_mul`.
    """
    result: Optional[_PackedPoly] = None
    while True:
        if k & 1:
            result = items if result is None else [
                t for t in _int_mul(result, items, {}).items() if t[1]]
        k >>= 1
        if not k:
            return dict(result)
        items = _int_square(items)


def _raw(ctx: VarContext, terms: Dict[Monomial, Fraction]) -> Polynomial:
    # Internal constructor for terms already in canonical form.
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "ctx", ctx)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "_hash", None)
    object.__setattr__(p, "_degree", None)
    object.__setattr__(p, "_lead", None)
    object.__setattr__(p, "_packed", None)
    return p


class _Recorded(Polynomial):
    """A nonzero polynomial known by its packed record alone, its `terms`
    slot unset.  `__getattr__`, which Python calls only for an unset
    slot, builds the terms once, lead first, and turns the polynomial
    into a plain Polynomial, whose attribute reads stay fast; until
    then `is_zero`, `total_degree` and the leading monomial answer from
    the record.  Both classes have the same slots, so the switch is
    allowed."""

    __slots__ = ()

    def __getattr__(self, name):
        if name != "terms":
            raise AttributeError(f"'Polynomial' object has no attribute {name!r}")
        packing, d, lead, L, tail = self._packed
        terms = _terms(packing, (d, [(lead, L), *tail]))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "__class__", Polynomial)
        return terms

    def is_zero(self) -> bool:
        return False  # a record never belongs to the zero polynomial

    def __bool__(self) -> bool:
        return True


def _recorded(ctx: VarContext, rec: tuple) -> Polynomial:
    """Internal constructor for the nonzero polynomial of a packed record
    (packing, d, lead, L, tail) of nlie.groebner, with `terms` left unset
    (`_Recorded`): its exact degree and its leading monomial are read
    off the packed lead."""
    packing, _, lead, _, _ = rec
    p = _Recorded.__new__(_Recorded)
    object.__setattr__(p, "ctx", ctx)
    object.__setattr__(p, "_hash", None)
    object.__setattr__(p, "_degree", packing.degree(lead))
    object.__setattr__(p, "_lead", packing.unpack(((lead, 1),))[0][0])
    object.__setattr__(p, "_packed", rec)
    return p


def _format_mono(names: Sequence[str], mono: Monomial) -> str:
    parts = []
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _format_coeff(q: Fraction) -> str:
    return str(q)  # Fraction prints as "p/q" or "p"


def format_polynomial(p: Polynomial) -> str:
    """Deterministic text form, largest grevlex term first.

    Always inserts `*` between factors so the output re-parses exactly,
    e.g. "2*e*f + 1/2*h^2".
    """
    if p.is_zero():
        return "0"
    names = p.ctx.names
    chunks = []
    for i, (mono, coeff) in enumerate(p.sorted_terms()):
        mono_s = _format_mono(names, mono)
        neg = coeff < 0
        mag = -coeff if neg else coeff
        if not mono_s:
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono_s
        else:
            body = f"{_format_coeff(mag)}*{mono_s}"
        if i == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)
