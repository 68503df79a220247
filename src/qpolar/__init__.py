"""Quaternionic linear algebra and the polar decomposition T = U0 |T|.

Operators are quaternion matrices acting on right H-module vectors, held
as complex planes A = A1 + A2 j. One kernel carries the numerics: a
quaternion Householder QR and a one-sided Jacobi iteration on the planes,
which give the SVD, the one factorization of every operator. The complex
block embedding chi_A = [[A1, A2], [-conj(A2), conj(A1)]] preserves norms,
null spaces, ranges, and every structural class; the battery checks both
sides.
"""

from .quaternion import Quaternion, q_mul
from .qlinalg import (OperatorClass, QMatrix, ShapeMismatch, classify,
                      frobenius_norm, gram_schmidt, null_range_bases,
                      operator_norm, projector_onto, quaternionic_rank)
from .slices import (BlockStructureViolation, chi, chi_pullback, embed_vector,
                     equivalence_suite, pullback_vector)
from .ckernel import (NegativeEigenvalue, NoConvergence, NotHermitian,
                      SingularMatrix, gauss_inv, hermitian_eig, psd_sqrt, svd)
from .polar import (BadPerturbation, NotPositive, NotStrictlyPositive,
                    PolarFactors, canonical_perturbation, modulus,
                    perturb_polar, polar_decompose, sqrt_positive_spectral,
                    sqrt_positive_composite, sqrt_strictly_positive)
from .transform import (DimensionTooSmall, NormTooLarge,
                        null_swap_perturbation, truncated_example,
                        weight_matrix, z_inverse, z_transform)
from .qmatio import (BadNumber, MalformedHeader, QMatFormatError,
                     WrongEntryCount, emit_qmat, parse_qmat)
from .rng import SplitMix64, stream

__version__ = "0.1.0"

__all__ = [
    "Quaternion", "q_mul",
    "QMatrix", "OperatorClass", "ShapeMismatch",
    "gram_schmidt", "operator_norm", "classify",
    "null_range_bases", "quaternionic_rank", "frobenius_norm",
    "projector_onto",
    "chi", "chi_pullback", "embed_vector", "pullback_vector",
    "equivalence_suite", "BlockStructureViolation",
    "hermitian_eig", "psd_sqrt", "svd", "gauss_inv",
    "NotHermitian", "NegativeEigenvalue",
    "SingularMatrix", "NoConvergence",
    "PolarFactors", "sqrt_positive_spectral", "sqrt_positive_composite",
    "sqrt_strictly_positive", "modulus", "polar_decompose",
    "perturb_polar", "canonical_perturbation",
    "NotPositive", "NotStrictlyPositive", "BadPerturbation",
    "z_transform", "z_inverse", "truncated_example",
    "weight_matrix", "null_swap_perturbation", "NormTooLarge",
    "DimensionTooSmall",
    "parse_qmat", "emit_qmat", "QMatFormatError", "MalformedHeader",
    "WrongEntryCount", "BadNumber",
    "SplitMix64", "stream",
]
