"""The bounded transform Z_T = T (I + T* T)^(-1/2) and its inversion.

Z_T is a contraction with the same null space, range, and polar isometry
as T; when ||Z|| < 1 the original operator is recovered as
T = Z (I - Z* Z)^(-1/2). Each damping factor is a function of a modulus,
V diag(d) V* on the operator's own SVD (Factorization.congruence), so
nothing forms T* T, and T may have any scale its SVD takes. A diagonal
shift-and-weight operator family with growing weights exercises the
transform against closed-form values.
"""

from __future__ import annotations

import math

import numpy as np

from .qlinalg import QMatrix, ShapeMismatch, operator_norm


class NormTooLarge(ValueError):
    pass


class DimensionTooSmall(ValueError):
    pass


# z_inverse needs ||Z|| below 1 - NORM_MARGIN
NORM_MARGIN = 1e-8


def inv_sqrt_shifted_gram(t: QMatrix) -> QMatrix:
    """(I + T* T)^(-1/2) = V diag(1 / hypot(1, s)) V*, the damping factor
    of the bounded transform, from T's SVD T.fac."""
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatch("the bounded transform needs a square operator")
    return QMatrix._adopt(t.fac.congruence(1.0 / np.hypot(1.0, t.fac.s)))


def z_transform(t: QMatrix) -> QMatrix:
    """Bounded transform Z_T = T (I + T* T)^(-1/2), a contraction."""
    return t @ inv_sqrt_shifted_gram(t)


def z_inverse(z: QMatrix) -> QMatrix:
    """Recover T from its bounded transform: T = Z (I - Z* Z)^(-1/2), the
    factor V diag(1 / sqrt((1 - s)(1 + s))) V* read from Z's SVD.

    Requires ||Z|| < 1 - NORM_MARGIN; at norm one the preimage is unbounded
    and has no finite-dimensional representative, so NormTooLarge is raised.
    """
    if z.shape[0] != z.shape[1]:
        raise ShapeMismatch("the inverse transform needs a square operator")
    nz = operator_norm(z)
    if nz >= 1.0 - NORM_MARGIN:
        raise NormTooLarge(
            f"||Z|| = {nz:.12f} is not below 1 - {NORM_MARGIN:.1e}")
    d = 1.0 / np.sqrt((1.0 - z.fac.s) * (1.0 + z.fac.s))
    return z @ QMatrix._adopt(z.fac.congruence(d))


def partial_permutation(n: int, moves) -> QMatrix:
    """The n x n matrix that sends e_k to e_j w for each (k, j, w) in
    moves, k and j counting from 1, and every other e_k to 0."""
    a = np.zeros((n, n), dtype=complex)
    for k, j, w in moves:
        a[j - 1, k - 1] = w
    return QMatrix(a)


def weight_matrix(n: int) -> QMatrix:
    """The contracted companion of the weight operator, built directly.

    Column 1 carries 1/sqrt(2) into row 2, column 2 carries 1/sqrt(2)
    into row 4, columns 3 to 5 vanish, and column k holds the diagonal
    weight k / sqrt(k^2 + 1) for k >= 6.
    """
    if n < 7:
        raise DimensionTooSmall("need dimension at least 7")
    half = 1.0 / math.sqrt(2.0)
    return partial_permutation(n, [(1, 2, half), (2, 4, half)] + [
        (k, k, k / math.sqrt(k * k + 1.0)) for k in range(6, n + 1)])


def null_swap_perturbation(n: int) -> QMatrix:
    """The explicit partial isometry from the null space into the corange.

    Sends e3 -> e1, e4 -> e3, e5 -> e5 and vanishes elsewhere; combined
    with the polar isometry of the weight matrix it produces a second
    factorization.
    """
    if n < 7:
        raise DimensionTooSmall("need dimension at least 7")
    return partial_permutation(n, [(3, 1, 1.0), (4, 3, 1.0), (5, 5, 1.0)])


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
    s = partial_permutation(n, [(1, 2, 1.0), (2, 4, 1.0)] + [
        (k, k, float(k)) for k in range(6, n + 1)])
    return s, z_transform(s)
