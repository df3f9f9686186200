"""Structure-constant tables and the built-in algebra catalogue.

A StructureTable stores n-ary products of generators on strictly
increasing index tuples; lookups with permuted or repeated indices are
resolved by alternation.  AlgebraSpec bundles a table and/or a Casimir
polynomial and hands out the corresponding bracket objects.

Built-ins:

  sl2                 [e,f]=h, [h,e]=2e, [h,f]=-2f; Casimir h^2/2 + 2ef
  elliptic(alpha)     Jacobian bracket of (x^3+y^3+z^3)/3 - alpha*x*y*z
  quadric(n)          n-ary bracket of x_1^2+...+x_{n+1}^2
  nlie(a_1..a_{n+1})  n-ary bracket of the diagonal form sum a_i x_i^2
  malcev-canonical    the 7-dimensional simple Malcev algebra, integer form
  malcev-abg(a,b,g)   its three-parameter scaled family
  malcev-splittable   the split form on (h,x,y,z,x',y',z')
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .analysis import rational_nullspace
from .brackets import JacobianBracket, TableBracket
from .poly import Polynomial, Scalar, VarContext


def _perm_sign(idxs: Sequence[int]) -> int:
    sign = 1
    lst = list(idxs)
    for i in range(len(lst)):
        for j in range(i + 1, len(lst)):
            if lst[i] > lst[j]:
                sign = -sign
    return sign


class StructureTable:
    """n-ary products of generators, stored on increasing index tuples.

    Values are polynomials of degree at most one (constants live in the
    degree-zero part).  Missing tuples mean a zero product.
    """

    def __init__(self, ctx: VarContext, arity: int,
                 constants: Mapping[Tuple[int, ...], Polynomial]):
        if not 1 <= arity <= ctx.nvars:
            raise ValueError(f"arity {arity} out of range for {ctx}")
        clean: Dict[Tuple[int, ...], Polynomial] = {}
        for idxs, value in constants.items():
            idxs = tuple(idxs)
            if len(idxs) != arity:
                raise ValueError(f"key {idxs} has wrong length")
            if any(not 0 <= i < ctx.nvars for i in idxs):
                raise ValueError(f"key {idxs} out of range")
            if any(a >= b for a, b in zip(idxs, idxs[1:])):
                raise ValueError(f"key {idxs} not strictly increasing")
            if value.ctx != ctx:
                raise ValueError("table value from the wrong context")
            if value.total_degree() > 1:
                raise ValueError(f"table value {value} has degree > 1")
            if not value.is_zero():
                clean[idxs] = value
        self.ctx = ctx
        self.arity = arity
        self.constants = clean

    def entry(self, idxs: Sequence[int]) -> Polynomial:
        """Product of the generators at `idxs`, in the given slot order."""
        idxs = tuple(idxs)
        if len(idxs) != self.arity:
            raise ValueError(f"expected {self.arity} indices, got {len(idxs)}")
        if len(set(idxs)) != len(idxs):
            return self.ctx.zero()
        key = tuple(sorted(idxs))
        value = self.constants.get(key)
        if value is None:
            return self.ctx.zero()
        return value if _perm_sign(idxs) == 1 else -value

    def rows(self) -> List[Tuple[Tuple[str, ...], Polynomial]]:
        """All increasing tuples with their products, zeros included."""
        out = []
        for idxs in itertools.combinations(range(self.ctx.nvars), self.arity):
            names = tuple(self.ctx.names[i] for i in idxs)
            out.append((names, self.entry(idxs)))
        return out


@dataclass
class AlgebraSpec:
    """A named algebra: context, optional table, optional Casimir, parameters."""

    name: str
    arity: int
    ctx: VarContext
    casimir: Optional[Polynomial] = None
    table: Optional[StructureTable] = None
    params: Dict[str, Fraction] = field(default_factory=dict)
    description: str = ""
    nondegenerate: Optional[bool] = None

    def table_bracket(self) -> Optional[TableBracket]:
        return TableBracket(self.table) if self.table is not None else None

    def jacobian_bracket(self) -> Optional[JacobianBracket]:
        if self.casimir is None or self.ctx.nvars != self.arity + 1:
            return None
        return JacobianBracket(self.casimir)

    @property
    def bracket(self):
        """Preferred bracket: Jacobian when defined, else the table's."""
        jb = self.jacobian_bracket()
        if jb is not None:
            return jb
        tb = self.table_bracket()
        if tb is None:
            raise ValueError(f"algebra {self.name} carries no bracket")
        return tb


# -- constructors -------------------------------------------------------

def make_sl2() -> AlgebraSpec:
    """sl2 with Casimir h^2/2 + 2ef; table and Jacobian brackets agree."""
    ctx = VarContext(("e", "f", "h"))
    e, f, h = ctx.gens()
    table = StructureTable(ctx, 2, {(0, 1): h, (0, 2): -2 * e, (1, 2): 2 * f})
    casimir = Fraction(1, 2) * h * h + 2 * e * f
    return AlgebraSpec("sl2", 2, ctx, casimir=casimir, table=table,
                       description="sl2: [e,f]=h, [h,e]=2e, [h,f]=-2f")


def make_elliptic(alpha: Scalar = 1) -> AlgebraSpec:
    """Binary Jacobian bracket of C = (x^3+y^3+z^3)/3 - alpha*x*y*z."""
    a = Fraction(alpha)
    ctx = VarContext(("x", "y", "z"))
    x, y, z = ctx.gens()
    casimir = Fraction(1, 3) * (x ** 3 + y ** 3 + z ** 3) - a * x * y * z
    return AlgebraSpec("elliptic", 2, ctx, casimir=casimir,
                       params={"alpha": a},
                       description="cubic surface bracket {x,y} = z^2 - alpha*x*y etc.")


def _gram_rows(f: Polynomial) -> List[Dict[int, Fraction]]:
    """Symmetric Gram matrix of a quadratic form, one sparse row per variable."""
    rows: List[Dict[int, Fraction]] = [{} for _ in range(f.ctx.nvars)]
    for mono, c in f.terms.items():
        i, j = [k for k, e in enumerate(mono) for _ in range(e)]
        rows[i][j] = rows[j][i] = c if i == j else c / 2
    return rows


def make_nlie(form: Polynomial, name: str = "nlie") -> AlgebraSpec:
    """n-ary algebra of a quadratic form f on n+1 generators.

    The product omitting generator i is (-1)^(n-i) * df/dx_i (0-based i),
    which matches the Jacobian bracket of f on the same variables; the
    spec carries both routes so they can be checked against each other.
    """
    if form.total_degree() != 2 or not form.is_homogeneous():
        raise ValueError("quadratic form required")
    ctx = form.ctx
    n = ctx.nvars - 1
    if n < 1:
        raise ValueError("need at least two variables")
    constants: Dict[Tuple[int, ...], Polynomial] = {}
    for i in range(ctx.nvars):
        key = tuple(j for j in range(ctx.nvars) if j != i)
        value = form.partial(i)
        if (n - i) % 2 == 1:
            value = -value
        constants[key] = value
    table = StructureTable(ctx, n, constants)
    gram_kernel = rational_nullspace(_gram_rows(form), ctx.nvars)
    return AlgebraSpec(name, n, ctx, casimir=form, table=table,
                       nondegenerate=not gram_kernel,
                       description=f"{n}-ary bracket of the quadratic form {form}")


def make_quadric(n: int = 2) -> AlgebraSpec:
    """n-ary bracket of the standard sum of squares in n+1 variables."""
    if n < 1:
        raise ValueError("arity must be positive")
    ctx = VarContext(tuple(f"x{i}" for i in range(1, n + 2)))
    form = Polynomial(ctx, {
        tuple(2 if j == i else 0 for j in range(n + 1)): 1 for i in range(n + 1)})
    spec = make_nlie(form, name=f"quadric({n})")
    spec.params = {"n": Fraction(n)}
    spec.description = f"{n}-ary bracket of x1^2 + ... + x{n + 1}^2"
    return spec


def make_nlie_diagonal(alphas: Sequence[Scalar]) -> AlgebraSpec:
    """Diagonal quadratic form sum alpha_i x_i^2 on len(alphas) variables."""
    if len(alphas) < 2:
        raise ValueError("need at least two coefficients")
    ctx = VarContext(tuple(f"x{i}" for i in range(1, len(alphas) + 1)))
    form = Polynomial(ctx, {
        tuple(2 if j == i else 0 for j in range(len(alphas))): Fraction(a)
        for i, a in enumerate(alphas)})
    spec = make_nlie(form, name="nlie")
    spec.params = {f"alpha{i + 1}": Fraction(a) for i, a in enumerate(alphas)}
    return spec


# The 7-dimensional Malcev table is generated by one rule: with indices
# 1..7 cyclic mod 7, each triple (i, i+1, i+3) multiplies cyclically:
# [a,b]=c, [b,c]=a, [c,a]=b.
def _malcev_triples() -> List[Tuple[int, int, int]]:
    return [(i, i % 7 + 1, (i + 2) % 7 + 1) for i in range(1, 8)]


def _pair_table_from_triples() -> Dict[Tuple[int, int], Tuple[int, int]]:
    """Map increasing 0-based pairs to (target index, sign)."""
    out: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def put(a: int, b: int, c: int) -> None:
        # [a,b] = c, all 1-based
        i, j = a - 1, b - 1
        if i < j:
            out[(i, j)] = (c - 1, 1)
        else:
            out[(j, i)] = (c - 1, -1)

    for a, b, c in _malcev_triples():
        put(a, b, c)
        put(b, c, a)
        put(c, a, b)
    return out


def make_malcev_canonical() -> AlgebraSpec:
    """The simple seven-dimensional Malcev algebra in its integer basis."""
    ctx = VarContext(tuple(f"e{i}" for i in range(1, 8)))
    gens = ctx.gens()
    constants = {pair: sign * gens[target]
                 for pair, (target, sign) in _pair_table_from_triples().items()}
    table = StructureTable(ctx, 2, constants)
    casimir = sum((g * g for g in gens), ctx.zero())
    return AlgebraSpec("malcev-canonical", 2, ctx, casimir=casimir, table=table,
                       description="7-dim simple Malcev algebra, [e_i,e_{i+1}]=e_{i+3} cyclically")


# Square roots of the scaling parameters enter the basis change; a basis
# vector's weight is the half-integer exponent vector of its scale over
# (alpha, beta, gamma).  Products land back on integer powers.
_ABG_WEIGHTS: Tuple[Tuple[Fraction, Fraction, Fraction], ...] = tuple(
    (Fraction(a, 2), Fraction(b, 2), Fraction(c, 2))
    for a, b, c in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
                    (0, 1, 1), (1, 1, 1), (1, 0, 1)]
)


def make_malcev_abg(alpha: Scalar, beta: Scalar, gamma: Scalar) -> AlgebraSpec:
    """The (alpha, beta, gamma) family of the simple Malcev algebra.

    Basis f_i = s_i e_i with s_i a product of square roots of the
    parameters; every structure constant is an integer monomial in the
    parameters (asserted during construction).

    Raises:
        ValueError: if any parameter is zero (the family degenerates).
    """
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    if a == 0 or b == 0 or g == 0:
        raise ValueError("parameters must be nonzero")
    ctx = VarContext(tuple(f"f{i}" for i in range(1, 8)))
    gens = ctx.gens()
    params = (a, b, g)
    constants: Dict[Tuple[int, int], Polynomial] = {}
    for (i, j), (target, sign) in _pair_table_from_triples().items():
        expo = tuple(_ABG_WEIGHTS[i][t] + _ABG_WEIGHTS[j][t] - _ABG_WEIGHTS[target][t]
                     for t in range(3))
        if any(e.denominator != 1 for e in expo):
            raise AssertionError(f"non-integer parameter power at pair {(i, j)}")
        coeff = Fraction(sign)
        for p, e in zip(params, expo):
            coeff *= p ** int(e)
        constants[(i, j)] = coeff * gens[target]
    table = StructureTable(ctx, 2, constants)
    f1, f2, f3, f4, f5, f6, f7 = gens
    casimir = (b * g * f1 * f1 + a * g * f2 * f2 + a * b * f3 * f3
               + g * f4 * f4 + a * f5 * f5 + f6 * f6 + b * f7 * f7)
    return AlgebraSpec("malcev-abg", 2, ctx, casimir=casimir, table=table,
                       params={"alpha": a, "beta": b, "gamma": g},
                       description="scaled 7-dim Malcev family; at (1,1,1) it is the canonical form")


def make_malcev_splittable() -> AlgebraSpec:
    """The split form of the simple Malcev algebra on (h,x,y,z,x',y',z').

    Each of {h,x,x'}, {h,y,y'}, {h,z,z'} spans a copy of sl2.
    """
    ctx = VarContext(("h", "x", "y", "z", "x'", "y'", "z'"))
    h, x, y, z, xp, yp, zp = ctx.gens()
    constants = {
        (0, 1): 2 * x, (0, 2): 2 * y, (0, 3): 2 * z,
        (0, 4): -2 * xp, (0, 5): -2 * yp, (0, 6): -2 * zp,
        (1, 2): 2 * zp, (1, 3): -2 * yp, (2, 3): 2 * xp,
        (1, 4): h, (2, 5): h, (3, 6): h,
        (4, 5): -2 * z, (4, 6): 2 * y, (5, 6): -2 * x,
    }
    table = StructureTable(ctx, 2, constants)
    quarter = Fraction(1, 4)
    casimir = -(x * xp + y * yp + z * zp + quarter * h * h)
    return AlgebraSpec("malcev-splittable", 2, ctx, casimir=casimir, table=table,
                       description="split 7-dim Malcev algebra; Casimir -(xx'+yy'+zz'+h^2/4)")


# -- registry -----------------------------------------------------------

def _build_nlie(p: Mapping[str, object]) -> AlgebraSpec:
    if not p["alphas"]:
        raise ValueError("nlie needs --alphas a1,a2,...")
    return make_nlie_diagonal(p["alphas"])


def _build_malcev_abg(p: Mapping[str, object]) -> AlgebraSpec:
    if p["alpha"] is None or p["beta"] is None or p["gamma"] is None:
        raise ValueError("malcev-abg needs --alpha, --beta and --gamma")
    return make_malcev_abg(p["alpha"], p["beta"], p["gamma"])


# The built-in algebras: name -> (parameter hint, catalogue text, builder).
# A builder takes the build_algebra keyword parameters as one mapping.
ALGEBRAS: Dict[str, Tuple[str, str, Callable[[Mapping[str, object]], AlgebraSpec]]] = {
    "sl2": ("", "sl2 with Casimir h^2/2 + 2ef",
            lambda p: make_sl2()),
    "elliptic": ("--alpha Q", "Jacobian bracket of (x^3+y^3+z^3)/3 - alpha*xyz",
                 lambda p: make_elliptic(1 if p["alpha"] is None else p["alpha"])),
    "quadric": ("--arity N", "N-ary bracket of x1^2 + ... + x_{N+1}^2",
                lambda p: make_quadric(2 if p["arity"] is None else p["arity"])),
    "nlie": ("--alphas A1,...", "n-ary bracket of a diagonal quadratic form",
             _build_nlie),
    "malcev-canonical": ("", "simple 7-dim Malcev algebra, integer basis",
                         lambda p: make_malcev_canonical()),
    "malcev-abg": ("--alpha --beta --gamma", "scaled Malcev family",
                   _build_malcev_abg),
    "malcev-splittable": ("", "split Malcev form on (h,x,y,z,x',y',z')",
                          lambda p: make_malcev_splittable()),
}

ALGEBRA_NAMES = tuple(ALGEBRAS)


def build_algebra(name: str, *, alpha: Optional[Scalar] = None,
                  beta: Optional[Scalar] = None, gamma: Optional[Scalar] = None,
                  arity: Optional[int] = None,
                  alphas: Optional[Sequence[Scalar]] = None) -> AlgebraSpec:
    """Construct a built-in algebra by name.

    Raises:
        KeyError: unknown name.
        ValueError: missing or invalid parameters.
    """
    if name not in ALGEBRAS:
        raise KeyError(f"unknown algebra {name!r}; known: {', '.join(ALGEBRA_NAMES)}")
    _, _, build = ALGEBRAS[name]
    return build({"alpha": alpha, "beta": beta, "gamma": gamma,
                  "arity": arity, "alphas": alphas})
