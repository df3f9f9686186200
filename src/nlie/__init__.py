"""Exact engine for n-ary Lie-Poisson brackets on polynomial algebras.

Brackets come from a Jacobian determinant against a Casimir polynomial
or from a structure-constant table; quotients by a shifted Casimir get
normal forms, a mod-m grading and saturation/center probes, all over
exact rationals.
"""

from .poly import ContextMismatch, Polynomial, VarContext, context
from .groebner import BudgetExhausted, GroebnerBasis, StepBudget, buchberger, normal_form, spoly
from .parser import ParseError, infer_context, parse_polynomial
from .brackets import (ArityMismatch, IdentityReport, JacobianBracket,
                       TableBracket, jacobian, poly_det, random_homogeneous,
                       random_polynomial, ternary_jacobian, verify_filippov,
                       verify_leibniz, verify_malcev, verify_skew, verify_strong)
from .structures import (ALGEBRA_NAMES, AlgebraSpec, StructureTable,
                         build_algebra, make_elliptic, make_malcev_abg,
                         make_malcev_canonical, make_malcev_splittable,
                         make_nlie, make_nlie_diagonal, make_quadric, make_sl2)
from .quotient import GradedClass, NotMHomogeneous, QuotientContext, QuotientError
from .analysis import (CenterProbeReport, ClosednessReport, MinimalRoot,
                       NotHomogeneous, RootResult, SaturationReport,
                       center_membership, center_membership_jacobian,
                       center_membership_table, center_probe,
                       is_closed_homogeneous, kth_root,
                       minimal_root_homogeneous, saturate_poisson_ideal)

__version__ = "0.1.0"
