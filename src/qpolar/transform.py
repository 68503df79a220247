"""The bounded transform Z_T = T (I + T* T)^(-1/2) and its inversion.

Z_T is a contraction with the same null space, range, and polar isometry
as T; when ||Z|| < 1 the original operator is recovered as
T = Z (I - Z* Z)^(-1/2). A diagonal shift-and-weight operator family with
growing weights exercises the transform against closed-form values.
"""

from __future__ import annotations

import math

import numpy as np

from .polar import _inverse, _root
from .qlinalg import QMatrix, ShapeMismatch, operator_norm


class NormTooLarge(ValueError):
    pass


class DimensionTooSmall(ValueError):
    pass


# z_inverse needs ||Z|| below 1 - NORM_MARGIN
NORM_MARGIN = 1e-8


def inv_sqrt_shifted_gram(t: QMatrix) -> QMatrix:
    """(I + T* T)^(-1/2), the damping factor of the bounded transform.

    Computed as the PSD square root of the explicit inverse.
    """
    return _root(_inverse(QMatrix.identity(t.shape[1]) + t.adjoint() @ t))


def z_transform(t: QMatrix) -> QMatrix:
    """Bounded transform Z_T = T (I + T* T)^(-1/2), a contraction."""
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatch("the bounded transform needs a square operator")
    return t @ inv_sqrt_shifted_gram(t)


def z_inverse(z: QMatrix) -> QMatrix:
    """Recover T from its bounded transform: T = Z (I - Z* Z)^(-1/2).

    Requires ||Z|| < 1 - NORM_MARGIN; at norm one the preimage is unbounded
    and has no finite-dimensional representative, so NormTooLarge is raised.
    """
    if z.shape[0] != z.shape[1]:
        raise ShapeMismatch("the inverse transform needs a square operator")
    nz = operator_norm(z)
    if nz >= 1.0 - NORM_MARGIN:
        raise NormTooLarge(
            f"||Z|| = {nz:.12f} is not below 1 - {NORM_MARGIN:.1e}")
    return z @ _root(_inverse(QMatrix.identity(z.shape[0]) - z.adjoint() @ z))


def weight_matrix(n: int) -> QMatrix:
    """The contracted companion of the weight operator, built directly.

    Column 1 carries 1/sqrt(2) into row 2, column 2 carries 1/sqrt(2)
    into row 4, columns 3 to 5 vanish, and column k holds the diagonal
    weight k / sqrt(k^2 + 1) for k >= 6.
    """
    if n < 7:
        raise DimensionTooSmall("need dimension at least 7")
    a = np.zeros((n, n), dtype=complex)
    a[1, 0] = 1.0 / math.sqrt(2.0)
    a[3, 1] = 1.0 / math.sqrt(2.0)
    for k in range(6, n + 1):
        a[k - 1, k - 1] = k / math.sqrt(k * k + 1.0)
    return QMatrix(a)


def null_swap_perturbation(n: int) -> QMatrix:
    """The explicit partial isometry from the null space into the corange.

    Sends e3 -> e1, e4 -> e3, e5 -> e5 and vanishes elsewhere; combined
    with the polar isometry of the weight matrix it produces a second
    factorization.
    """
    if n < 7:
        raise DimensionTooSmall("need dimension at least 7")
    a = np.zeros((n, n), dtype=complex)
    a[0, 2] = 1.0
    a[2, 3] = 1.0
    a[4, 4] = 1.0
    return QMatrix(a)


def truncated_example(n: int) -> tuple[QMatrix, QMatrix]:
    """(S, Z_S): the truncation S of the diagonal shift-and-weight operator
    and its bounded transform.

    S sends e1 -> e2 and e2 -> e4, kills e3, e4, e5, and scales e_k by the
    weight k for 6 <= k <= N. The weights grow without bound with the
    truncation size, which is how unboundedness shows up at finite
    dimension.
    """
    if n < 7:
        raise DimensionTooSmall("need dimension at least 7")
    a = np.zeros((n, n), dtype=complex)
    a[1, 0] = 1.0
    a[3, 1] = 1.0
    for k in range(6, n + 1):
        a[k - 1, k - 1] = float(k)
    s = QMatrix(a)
    return s, z_transform(s)
