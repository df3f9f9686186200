"""Quotients by a shifted Casimir and their mod-m degree grading.

S = P / (C - lambda) with lambda a nonzero rational.  Elements are
represented by their unique grevlex normal form modulo the principal
ideal (C - lambda); the induced bracket reduces the ambient bracket.  When C
is homogeneous of degree m, monomial degree mod m grades the quotient:
reduction by C - lambda trades degree d for degree d - m, so the class
of a polynomial is well defined, and a bracket of classes r_1..r_n lands
in class (r_1 - 1) + ... + (r_n - 1) + (m - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .brackets import IdentityReport, _run_checks, random_homogeneous
from .groebner import GroebnerBasis, StepBudget, buchberger
from .poly import Polynomial, Scalar


class QuotientError(ValueError):
    """Bad input to a quotient operation."""


class NotMHomogeneous(QuotientError):
    """Input not concentrated in a single mod-m degree class."""


@dataclass(frozen=True)
class GradedClass:
    residue: int
    part: Polynomial


@dataclass(frozen=True)
class QuotientContext:
    """A bracket algebra modulo (C - lambda), lambda nonzero."""

    bracket: object
    casimir: Polynomial
    lam: Fraction
    modulus: GroebnerBasis

    @classmethod
    def create(cls, bracket, lam: Scalar,
               casimir: Optional[Polynomial] = None) -> "QuotientContext":
        """Build a quotient context.

        Args:
            bracket: JacobianBracket or TableBracket.
            lam: the nonzero shift.
            casimir: defaults to the bracket's Casimir when it has one.
        """
        lamq = Fraction(lam)
        if lamq == 0:
            raise QuotientError("lambda must be nonzero")
        if casimir is None:
            casimir = getattr(bracket, "casimir", None)
            if casimir is None:
                raise QuotientError("table bracket needs an explicit casimir")
        if casimir.ctx != bracket.ctx:
            raise QuotientError("casimir context does not match the bracket")
        modulus = buchberger([casimir - lamq])
        return cls(bracket, casimir, lamq, modulus)

    @property
    def m(self) -> int:
        """Degree of the Casimir (the grading modulus when C is homogeneous)."""
        return self.casimir.total_degree()

    @property
    def arity(self) -> int:
        return self.bracket.arity

    def reduce(self, f: Polynomial, budget: Optional[StepBudget] = None) -> Polynomial:
        """Unique normal form of f modulo (C - lambda)."""
        return self.modulus.reduce(f, budget)

    def bracket_reduce(self, *fs: Polynomial) -> Polynomial:
        """Induced bracket: ambient bracket of representatives, reduced.

        Well defined because C is central: changing a representative by a
        multiple of C - lambda changes the bracket by an ideal element.
        """
        return self.reduce(self.bracket(*fs))

    def is_zero(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero()

    # -- grading --------------------------------------------------------

    def _require_graded(self) -> int:
        if not self.casimir.is_homogeneous() or self.m < 1:
            raise QuotientError("grading needs a homogeneous Casimir of positive degree")
        return self.m

    def grade_decompose(self, f: Polynomial) -> List[GradedClass]:
        """Split f into its mod-m degree classes (nonzero classes only)."""
        m = self._require_graded()
        parts: dict = {}
        for d, comp in f.homogeneous_components().items():
            r = d % m
            parts[r] = parts.get(r, f.ctx.zero()) + comp
        return [GradedClass(r, p) for r, p in sorted(parts.items()) if not p.is_zero()]

    def bracket_residue(self, residues: Sequence[int]) -> int:
        """Class of a bracket of elements in the given mod-m classes."""
        m = self._require_graded()
        if len(residues) != self.arity:
            raise QuotientError(f"expected {self.arity} residues")
        return (sum(r - 1 for r in residues) + (m - 1)) % m

    def verify_grading(self, residues: Sequence[int], trials: int = 50,
                       seed: int = 0) -> IdentityReport:
        """Check the residue formula on random homogeneous representatives.

        Each trial draws inputs of degree r_i or r_i + m and asserts the
        reduced bracket lies entirely in the predicted class.
        """
        m = self._require_graded()
        predicted = self.bracket_residue(residues)
        ctx = self.casimir.ctx

        def draw(rng):
            fs = []
            for r in residues:
                d = (r % m) + m * rng.randint(0, 1)
                fs.append(random_homogeneous(rng, ctx, d or m))
            offending = ctx.zero()
            for cls in self.grade_decompose(self.bracket_reduce(*fs)):
                if cls.residue != predicted:
                    offending = offending + cls.part
            yield offending, lambda: (offending, fs), f"predicted residue {predicted}"

        return _run_checks("grading", self.arity, (), draw, trials, seed)

    def homogeneous_lift(self, f: Polynomial) -> Polynomial:
        """Homogeneous representative of a mod-m homogeneous element.

        For f with components in one class r only, multiplies the lower
        components by powers of C/lambda to raise everything to the top
        degree.  The result is homogeneous and equals f in the quotient.

        Raises:
            NotMHomogeneous: components spread over several classes.
            QuotientError: f reduces to zero in the quotient.
        """
        m = self._require_graded()
        if f.is_zero() or self.reduce(f).is_zero():
            raise QuotientError("cannot lift zero")
        comps = f.homogeneous_components()
        residues = {d % m for d in comps}
        if len(residues) > 1:
            raise NotMHomogeneous(f"degrees {sorted(comps)} mix classes mod {m}")
        top = max(comps)
        scaled_c = self.casimir / self.lam
        out = f.ctx.zero()
        for d, comp in comps.items():
            out = out + comp * scaled_c ** ((top - d) // m)
        return out
