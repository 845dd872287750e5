"""Exact symbolic engine for kappa-deformations of inhomogeneous orthogonal
Hopf algebras: U(iso(g))[[h]] with h = 1/kappa, for arbitrary dimension,
signature and deforming vector tau, with machine verification of the Hopf,
Yang-Baxter, twist and module-algebra identities order by order in h."""

from .algebra import (
    AlgebraElement,
    Metric,
    PoincareAlgebra,
    VectorTau,
    divide_h,
    series_exp,
    series_invert,
    series_log_one_plus,
)
from .bases import (
    BasisChange,
    LightconeBasis,
    MRGenerators,
    adapted_context,
    lightcone_decompose,
    mr_generators,
    orthogonal_decompose,
    verify_mr,
)
from .hopf import DeformationContext, pi_identities_report, verify_hopf
from .minkowski import MinkowskiElement, act, act_on_product, coordinate, verify_covariance
from .reports import CheckResult, VerificationReport
from .scalars import GaussRational, binom_half
from .tensors import (
    OrbitClassification,
    TensorElement,
    WedgeElement,
    classify_orbit,
    omega,
    r_matrix,
    schouten_square,
    tensor_exp,
    tensor_invert,
)
from .twist import TwistData, build_twist, lc_structure_check, verify_twist

__all__ = [
    "AlgebraElement",
    "BasisChange",
    "CheckResult",
    "DeformationContext",
    "GaussRational",
    "LightconeBasis",
    "MRGenerators",
    "Metric",
    "MinkowskiElement",
    "OrbitClassification",
    "PoincareAlgebra",
    "TensorElement",
    "TwistData",
    "VectorTau",
    "VerificationReport",
    "WedgeElement",
    "act",
    "act_on_product",
    "adapted_context",
    "binom_half",
    "build_twist",
    "classify_orbit",
    "coordinate",
    "divide_h",
    "lc_structure_check",
    "lightcone_decompose",
    "mr_generators",
    "omega",
    "orthogonal_decompose",
    "pi_identities_report",
    "r_matrix",
    "schouten_square",
    "series_exp",
    "series_invert",
    "series_log_one_plus",
    "tensor_exp",
    "tensor_invert",
    "verify_covariance",
    "verify_hopf",
    "verify_mr",
    "verify_twist",
]
