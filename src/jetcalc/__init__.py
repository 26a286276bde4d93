"""Exact variational calculus on jet bundles of trivial vector bundles.

The package computes, with exact rational arithmetic throughout:

* total derivatives, horizontal differentials and Euler-Lagrange operators
  of polynomial densities (`jetcalc.varcalc`),
* fiberwise Poisson structures, their pointwise Jacobi check, and the induced
  bracket density on functionals (`jetcalc.poisson`),
* the strong homotopy Lie structure maps l1, l2, l3 on graded horizontal
  forms over a one-dimensional base (`jetcalc.shlie`),
* bundle automorphisms, prolongation, pullback, covariance and invariance
  checks, and finite group averaging (`jetcalc.symmetry`),
* a generated first-order field theory over a two-dimensional base with its
  closed-form field equations and orthogonal symmetries (`jetcalc.sigma`).

The `jetcalc` command line tool drives all of it from small model files; see
`jetcalc.cli` and `jetcalc.modelfile`.
"""

from .dsl import ParseError, parse_expr, render_expr
from .kernel import (BundleSpec, ChartMismatch, CheckReport, Generator, JetcalcError, Monomial,
                     MultiIndex, Poly, UnknownName)
from .modelfile import MissingDeclaration, ModelFile, load_model, parse_model
from .poisson import (EntryNotOrderZero, FunctionalClass, NonSkew, OmegaSpec,
                      bracket, check_poisson_tensor, cyclic_sum, jacobiator,
                      l2_density)
from .shlie import GradedElement, check_shlie_relations, l1, l2, l3
from .sigma import (NotOrthogonal, SigmaModelSpec, build_sigma,
                    check_lagrangian_invariance, contracted_curvature,
                    covariant_derivative, ikeda_lagrangian, orthogonal_action,
                    sigma_bundle, sigma_euler_check)
from .symmetry import (Automorphism, FiniteGroupAction, InvalidGroup,
                       PreconditionFailed, check_canonical_density,
                       check_covariance, check_el_transform, check_invariance,
                       check_invariant_closure, check_pullback_dh_commute,
                       group_average, pullback, pullback_form)
from .varcalc import (DegreeError, HorizontalForm, NotExact, Unsupported, d_h,
                      euler, homotopy_s, invert_total_derivative, is_divergence,
                      iterated_total_derivative, total_derivative)

__all__ = [
    "Automorphism", "BundleSpec", "ChartMismatch", "CheckReport", "DegreeError",
    "EntryNotOrderZero", "FiniteGroupAction", "FunctionalClass", "Generator",
    "GradedElement", "HorizontalForm", "InvalidGroup", "JetcalcError", "MissingDeclaration",
    "Monomial", "MultiIndex", "ModelFile", "NonSkew", "NotExact",
    "NotOrthogonal", "OmegaSpec", "ParseError", "Poly", "PreconditionFailed",
    "SigmaModelSpec", "UnknownName", "Unsupported", "bracket", "build_sigma",
    "check_canonical_density", "check_covariance", "check_el_transform",
    "check_invariance", "check_invariant_closure", "check_lagrangian_invariance",
    "check_poisson_tensor", "check_pullback_dh_commute", "check_shlie_relations",
    "contracted_curvature", "covariant_derivative", "cyclic_sum", "d_h",
    "euler", "group_average", "homotopy_s", "ikeda_lagrangian",
    "invert_total_derivative", "is_divergence", "iterated_total_derivative",
    "jacobiator", "l1", "l2", "l2_density", "l3", "load_model",
    "orthogonal_action", "parse_expr", "parse_model", "pullback",
    "pullback_form", "render_expr", "sigma_bundle", "sigma_euler_check",
    "total_derivative",
]

__version__ = "0.1.0"
