"""Text form of polynomials: tokenizer and recursive-descent parser.

Grammar, loosest binding first:

    expr    := term (('+' | '-') term)*
    term    := '-' term | product
    product := factor (('*' factor) | factor)*      -- juxtaposition multiplies
    factor  := atom ('^' INT)?
    atom    := INT ('/' INT)? | IDENT | '(' expr ')'

so '^' binds tighter than multiplication, which binds tighter than unary
minus, which binds tighter than binary '+'/'-'.  '/' only forms rational
literals from two integer tokens.  Exponents are non-negative integers;
a power that may have more than MAX_POWER_TERMS terms, or a power or
product that may have more than MAX_POWER_BITS coefficient bits in all,
raises BudgetExhausted before it is computed.

An identifier is a letter, optional digits, and at most one trailing
prime: x, e2, x'.  A maximal alphanumeric run lexes greedily into such
identifiers, so "2ef" is 2*e*f and "x12" is one variable.  When the
variable context is known, longest-match against its names is tried
first, which admits multi-letter names.

Errors carry the byte offset into the source and the set of token kinds
that would have been acceptable there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .groebner import BudgetExhausted
from .poly import Polynomial, VarContext

# Largest term-count bound (see _power_terms_bound) that a '^' may reach;
# a larger power fails before any arithmetic.
MAX_POWER_TERMS = 2_000
# Largest bound on terms times bits per coefficient (see
# _coefficient_bits) that a '^' or a '*' may reach.  The product cost
# grows with coefficient size as well as term count; the largest powers
# under both bounds, such as (x+y+z)^61, (x+y)^815 and
# (9999999*x+7777777/3*y)^266, each take 0.3-0.4 s on a 2-core Xeon VM.
MAX_POWER_BITS = 2_000_000


class ParseError(ValueError):
    """Syntax error with byte offset and expected-token kinds."""

    def __init__(self, message: str, offset: int, expected: Sequence[str] = ()):
        self.offset = offset
        self.expected: FrozenSet[str] = frozenset(expected)
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


@dataclass(frozen=True)
class Token:
    kind: str  # 'int', 'ident', '+', '-', '*', '^', '/', '(', ')', 'end'
    text: str
    pos: int


_OPS = set("+-*^/()")

_ATOM_START = ("integer", "variable", "(")


def tokenize(src: str, names: Optional[Sequence[str]] = None) -> List[Token]:
    """Split source into tokens.

    Args:
        src: expression text (ASCII).
        names: optional known variable names for longest-match lexing.

    Raises:
        ParseError: on a character that starts no token.
    """
    by_len = sorted(names, key=len, reverse=True) if names else []
    toks: List[Token] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _OPS:
            toks.append(Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            matched = None
            for nm in by_len:
                if src.startswith(nm, i):
                    matched = nm
                    break
            if matched is None:
                j = i + 1
                while j < n and src[j].isdigit():
                    j += 1
                if j < n and src[j] == "'":
                    j += 1
                matched = src[i:j]
            toks.append(Token("ident", matched, i))
            i += len(matched)
            continue
        raise ParseError(f"unexpected character {ch!r}", i,
                         ("integer", "variable", "operator", "(", ")"))
    toks.append(Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, toks: List[Token], ctx: VarContext):
        self.toks = toks
        self.pos = 0
        self.ctx = ctx

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: Sequence[str]) -> ParseError:
        t = self.peek()
        what = "end of input" if t.kind == "end" else f"{t.text!r}"
        return ParseError(f"unexpected {what}", t.pos, expected)

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek().kind != "end":
            raise self.fail(("+", "-", "*", "^", "end"))
        return p

    def expr(self) -> Polynomial:
        acc = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> Polynomial:
        if self.peek().kind == "-":
            self.advance()
            return -self.term()
        return self.product()

    def product(self) -> Polynomial:
        acc = self.factor()
        while True:
            t = self.peek()
            if t.kind == "*":
                self.advance()
            elif t.kind not in ("ident", "("):
                return acc
            rhs = self.factor()
            # at most t_a * t_b terms, and at most C(n + d, n) of degree
            # d = d_a + d_b or less (a zero factor has degree -1)
            n, d = acc.ctx.nvars, acc.total_degree() + rhs.total_degree()
            terms = min(acc.num_terms() * rhs.num_terms(), comb(n + max(d, 0), n))
            _check_bits(f"product at offset {t.pos}",
                        terms * (_coefficient_bits(acc) + _coefficient_bits(rhs)))
            acc = acc * rhs

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            t = self.peek()
            if t.kind != "int":
                raise self.fail(("integer",))
            self.advance()
            e = int(t.text)
            bound = _power_terms_bound(base, e)
            if bound > MAX_POWER_TERMS:
                raise BudgetExhausted(
                    f"power at offset {t.pos} may have up to {bound} terms "
                    f"(limit {MAX_POWER_TERMS})")
            _check_bits(f"power at offset {t.pos}", bound * e * _coefficient_bits(base))
            return base ** e
        return base

    def atom(self) -> Polynomial:
        t = self.peek()
        if t.kind == "int":
            self.advance()
            num = int(t.text)
            if self.peek().kind == "/":
                self.advance()
                d = self.peek()
                if d.kind != "int":
                    raise self.fail(("integer",))
                self.advance()
                den = int(d.text)
                if den == 0:
                    raise ParseError("zero denominator", d.pos, ("nonzero integer",))
                return self.ctx.constant(Fraction(num, den))
            return self.ctx.constant(num)
        if t.kind == "ident":
            self.advance()
            if t.text not in self.ctx.names:
                raise ParseError(f"unknown variable {t.text!r}", t.pos,
                                 ("one of " + ", ".join(self.ctx.names),))
            return self.ctx.variable(t.text)
        if t.kind == "(":
            self.advance()
            inner = self.expr()
            if self.peek().kind != ")":
                raise self.fail((")",))
            self.advance()
            return inner
        raise self.fail(_ATOM_START)


def _power_terms_bound(base: Polynomial, e: int) -> int:
    """Upper bound on the number of terms of base**e.

    Each term of base**e is a product of e of base's t terms, so there are
    at most C(t-1+e, e) of them; each has degree at most d*e in n
    variables, so there are at most C(n+d*e, n).
    """
    t = base.num_terms()
    if t <= 1 or e == 0:
        return 1
    n, d = base.ctx.nvars, base.total_degree()
    return min(comb(t - 1 + e, e), comb(n + d * e, n))


def _coefficient_bits(p: Polynomial) -> int:
    """Bits of p's coefficient scale, additive over products.

    Write p as (1/D) * sum of its t terms with integer numerators of size
    at most N, D the lcm of its denominators, and let
    bits(p) = bits(t*N) + bits(D).  Every coefficient of p**e is a / D^e
    with |a| <= (t*N)^e, and every coefficient of p*q is a / (D_p*D_q)
    with |a| <= t_p*N_p * t_q*N_q, so numerator and denominator take at
    most e * bits(p), or bits(p) + bits(q), bits together.
    """
    cs = p.terms.values()
    if not cs:
        return 0
    d = lcm(*(c.denominator for c in cs))
    n = max(abs(c.numerator) * (d // c.denominator) for c in cs)
    return (len(cs) * n).bit_length() + d.bit_length()


def _check_bits(what: str, size: int) -> None:
    """Refuse a power or product bounded by more than MAX_POWER_BITS bits."""
    if size > MAX_POWER_BITS:
        raise BudgetExhausted(f"{what} may have up to {size} coefficient "
                              f"bits (limit {MAX_POWER_BITS})")


def parse_polynomial(src: str, ctx: VarContext) -> Polynomial:
    """Parse an expression into a polynomial over the given context.

    Raises:
        ParseError: on any lexical or syntactic problem, with byte offset.
    """
    toks = tokenize(src, ctx.names)
    return _Parser(toks, ctx).parse()


def infer_context(src: str) -> VarContext:
    """Variable context from an expression: its identifiers, sorted by name."""
    names = sorted({t.text for t in tokenize(src) if t.kind == "ident"})
    if not names:
        raise ParseError("expression mentions no variables", 0, ("variable",))
    return VarContext(tuple(names))
