"""Exact symbolic engine for kappa-deformations of inhomogeneous orthogonal
Hopf algebras: U(iso(g))[[h]] with h = 1/kappa, for arbitrary dimension,
signature and deforming vector tau, with machine verification of the Hopf,
Yang-Baxter, twist and module-algebra identities order by order in h."""

from .algebra import (
    AlgebraElement,
    Metric,
    PoincareAlgebra,
    VectorTau,
    kappa_log,
    series_exp,
    series_invert,
)
from .bases import (
    BasisChange,
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
    classify_orbit,
    omega,
    r_matrix,
    schouten_square,
    tensor_exp,
    tensor_invert,
    wedge,
)
from .twist import TwistData, build_twist, verify_twist

__all__ = [
    "AlgebraElement",
    "BasisChange",
    "CheckResult",
    "DeformationContext",
    "GaussRational",
    "MRGenerators",
    "Metric",
    "MinkowskiElement",
    "OrbitClassification",
    "PoincareAlgebra",
    "TensorElement",
    "TwistData",
    "VectorTau",
    "VerificationReport",
    "act",
    "act_on_product",
    "adapted_context",
    "binom_half",
    "build_twist",
    "classify_orbit",
    "coordinate",
    "kappa_log",
    "lightcone_decompose",
    "mr_generators",
    "omega",
    "orthogonal_decompose",
    "pi_identities_report",
    "r_matrix",
    "schouten_square",
    "series_exp",
    "series_invert",
    "tensor_exp",
    "tensor_invert",
    "verify_covariance",
    "verify_hopf",
    "verify_mr",
    "verify_twist",
    "wedge",
]
