"""Exact arithmetic in the graded ring of degree-2 Siegel modular forms.

The package builds the five ring generators X4, X6, X10, X12, X35 as
trace-truncated Fourier expansions over exact rationals, provides the
(trace, m, r) index order and the p-minimum matrix calculus, finite
vanishing criteria for even and odd weight with machine-checkable
certificates, the theta operator a(T) -> det(T) a(T), and an end-to-end
verification that every coefficient of X35 at an index whose determinant
is prime to 23 vanishes mod 23.
"""

from .congruence import (
    CERTIFIED,
    INSUFFICIENT,
    REFUTED,
    Certificate,
    CheckRecord,
    MinMatrixResult,
    inclusion_check,
    min_matrix,
    minmat_additivity_test,
    sturm_bound_even,
    sturm_bound_odd,
    sturm_even,
    sturm_odd,
    theta_landing_assumption,
    verify_x35_mod23,
    verify_theta_mod5,
)
from .expr import ExprError, eval_expr, parse, to_source
from .igusa import (
    ConstructionError,
    FORMULA_VERSION,
    GeneratorSet,
    build_generator_set,
    build_x10_x12,
    build_x35,
    eisenstein_family,
    ensure_generator_set,
    genus1_eisenstein,
    integrality_check,
    load_generator_set,
    save_generator_set,
    siegel_eisenstein,
)
from .qexp import (
    Expansion,
    ReductionError,
    TIndex,
    iter_l2_indices,
    order_cmp,
    order_key,
    symmetry_check,
)

__version__ = "0.1.0"

__all__ = [
    "CERTIFIED",
    "INSUFFICIENT",
    "REFUTED",
    "Certificate",
    "CheckRecord",
    "ConstructionError",
    "Expansion",
    "ExprError",
    "FORMULA_VERSION",
    "GeneratorSet",
    "MinMatrixResult",
    "ReductionError",
    "TIndex",
    "build_generator_set",
    "build_x10_x12",
    "build_x35",
    "eisenstein_family",
    "ensure_generator_set",
    "eval_expr",
    "genus1_eisenstein",
    "inclusion_check",
    "integrality_check",
    "iter_l2_indices",
    "load_generator_set",
    "min_matrix",
    "minmat_additivity_test",
    "order_cmp",
    "order_key",
    "parse",
    "save_generator_set",
    "siegel_eisenstein",
    "sturm_bound_even",
    "sturm_bound_odd",
    "sturm_even",
    "sturm_odd",
    "symmetry_check",
    "theta_landing_assumption",
    "to_source",
    "verify_x35_mod23",
    "verify_theta_mod5",
]
