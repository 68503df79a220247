"""Random operator constructions, one per structural class.

Used by the verification suites and the tests. Every function takes an
explicit SplitMix64 generator, so a (seed, trial) pair pins the operator.
"""

from __future__ import annotations

import math

import numpy as np

from .polar import polar_decompose
from .qlinalg import QMatrix, gram_schmidt, operator_norm, projector_onto
from .quaternion import Quaternion
from .rng import SplitMix64


def rand_quaternion(r: SplitMix64) -> Quaternion:
    return Quaternion(r.uniform(-1, 1), r.uniform(-1, 1),
                      r.uniform(-1, 1), r.uniform(-1, 1))


def _draw_planes(r: SplitMix64, shape: tuple) -> np.ndarray:
    """Planes (2, *shape) of uniform(-1, 1) draws: a1 row-major, each entry
    drawn as its real then its imaginary part, then a2 likewise."""
    count = 2 * 2 * math.prod(shape)
    return r.uniforms(count, -1, 1).view(complex).reshape((2,) + shape)


def rand_qvector(r: SplitMix64, n: int) -> QMatrix:
    """A vector of H^n, the n x 1 draw of rand_qmatrix."""
    return rand_qmatrix(r, n, 1)


def rand_qmatrix(r: SplitMix64, n: int, cols: int | None = None) -> QMatrix:
    cols = n if cols is None else cols
    return QMatrix._adopt(_draw_planes(r, (n, cols)))


def hermitian(r: SplitMix64, n: int) -> QMatrix:
    h = rand_qmatrix(r, n)
    return h + h.adjoint()


def anti_self_adjoint(r: SplitMix64, n: int) -> QMatrix:
    h = rand_qmatrix(r, n)
    return h - h.adjoint()


def psd(r: SplitMix64, n: int) -> QMatrix:
    b = rand_qmatrix(r, n)
    return b.adjoint() @ b


def unitary(r: SplitMix64, n: int) -> QMatrix:
    """Polar isometry of a random draw, resampled until full rank."""
    while True:
        t = rand_qmatrix(r, n)
        f = polar_decompose(t)
        if f.null_rank == 0:
            return f.u0


def normal(r: SplitMix64, n: int) -> QMatrix:
    """Unitary conjugate of a diagonal with complex entries."""
    w = unitary(r, n)
    d = QMatrix(np.diag(r.uniforms(2 * n, -1, 1).view(complex)))
    return w @ d @ w.adjoint()


def projection(r: SplitMix64, n: int, rank: int | None = None) -> QMatrix:
    rank = r.randint(n + 1) if rank is None else rank
    if rank == 0:
        return QMatrix.zeros(n)
    # rank columns, each drawn as rand_qvector draws a vector
    cols = r.uniforms(4 * n * rank, -1, 1).view(complex).reshape(rank, 2, n)
    return projector_onto(gram_schmidt(QMatrix(*cols.transpose(1, 2, 0))))


def rank_deficient(r: SplitMix64, n: int, rank: int) -> QMatrix:
    """Random draw forced to the given rank by a rank-r projector."""
    if rank == 0:
        return QMatrix.zeros(n)
    g = rand_qmatrix(r, n)
    return g @ projection(r, n, rank)


def partial_isometry(r: SplitMix64, n: int,
                     rank: int | None = None) -> QMatrix:
    rank = (1 + r.randint(n)) if rank is None else rank
    if rank == 0:
        return QMatrix.zeros(n)
    return polar_decompose(rank_deficient(r, n, rank)).u0


def bounded_norm(r: SplitMix64, n: int, max_norm: float) -> QMatrix:
    """Random draw rescaled to a uniformly random norm below max_norm."""
    t = rand_qmatrix(r, n)
    nt = operator_norm(t)
    if nt == 0.0:
        return t
    return t * (r.uniform(0.05, 1.0) * max_norm / nt)
