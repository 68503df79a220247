"""Quaternion matrices and operator classification.

Vectors live in H^n with scalars acting on the right, so matrices acting by
left multiplication are right H-linear; a vector is an n x 1 QMatrix.
Every QMatrix holds its planes p, one read-only complex array (2, rows,
cols) with entries p[0] + p[1] * j, which the kernel in ckernel works on
as they are; regrouping between quaternion components and the complex
pair is exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import ckernel
from .ckernel import DEFAULT_CLASS_TOL
from .quaternion import Quaternion


class ShapeMismatch(ValueError):
    pass


class QMatrix:
    """Quaternion matrix A = a1 + a2 j, acting by left multiplication.

    A vector of H^n is an n x 1 QMatrix: the right scalar action x q is
    x @ QMatrix.diag([q]) and the inner product <x|y> is
    (x.adjoint() @ y).entry(0, 0). The planes p = (a1, a2) are read-only.
    """

    def __init__(self, a1, a2=None):
        a1 = np.asarray(a1, dtype=complex)
        shape2 = a1.shape if a2 is None else np.shape(a2)
        if a1.shape != shape2 or a1.ndim != 2:
            raise ShapeMismatch(f"component shapes {a1.shape} and {shape2} "
                                "are not one 2-d shape")
        self.p = np.empty((2,) + a1.shape, dtype=complex)  # views no input
        self.p[0] = a1
        self.p[1] = 0.0 if a2 is None else a2
        self.p.flags.writeable = False

    a1 = property(lambda self: self.p[0])
    a2 = property(lambda self: self.p[1])

    @classmethod
    def _adopt(cls, p):
        """A QMatrix over the planes p, uncopied and made read-only: p must
        be a new array, such as the ones ckernel._qmul and _qadj stack."""
        obj = cls.__new__(cls)
        obj.p = p
        p.flags.writeable = False
        return obj

    def __add__(self, other):
        return self._adopt(self.p + other.p)

    def __sub__(self, other):
        return self._adopt(self.p - other.p)

    def __neg__(self):
        return self._adopt(-self.p)

    def __mul__(self, r):
        """Scaling by a real number."""
        if isinstance(r, (int, float)):
            return self._adopt(self.p * r)
        return NotImplemented

    __rmul__ = __mul__

    def copy(self):
        return self._adopt(self.p.copy())

    @functools.cached_property
    def fac(self) -> ckernel.Factorization:
        """The one factorization of this matrix, which everything derived
        from it reads; the read-only planes keep it from going stale."""
        return ckernel.Factorization(self.p)

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "QMatrix":
        cols = rows if cols is None else cols
        return cls._adopt(np.zeros((2, rows, cols), dtype=complex))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(np.eye(n, dtype=complex))

    @classmethod
    def diag(cls, entries) -> "QMatrix":
        quats = []
        for e in entries:
            if isinstance(e, Quaternion):
                quats.append(e)
            elif isinstance(e, complex):
                quats.append(Quaternion(e.real, e.imag))
            else:
                quats.append(Quaternion(float(e)))
        a1 = np.diag([complex(q.w, q.x) for q in quats])
        a2 = np.diag([complex(q.y, q.z) for q in quats])
        return cls(a1, a2)

    @property
    def shape(self) -> tuple[int, int]:
        return self.p.shape[1:]

    def entry(self, r: int, s: int) -> Quaternion:
        alpha, beta = self.a1[r, s], self.a2[r, s]
        return Quaternion(alpha.real, alpha.imag, beta.real, beta.imag)

    def column(self, k: int) -> "QMatrix":
        """Column k, an n x 1 block."""
        return QMatrix._adopt(self.p[:, :, k:k + 1].copy())

    def adjoint(self) -> "QMatrix":
        """Entrywise conjugate transpose, the unique A* with
        <x|Ay> = <A*x|y>."""
        return QMatrix._adopt(ckernel._qadj(self.p))

    def __matmul__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.shape[1] != other.shape[0]:
            raise ShapeMismatch(
                f"shapes {self.shape} and {other.shape} do not chain")
        return QMatrix._adopt(ckernel._qmul(self.p, other.p))

    def frobenius_norm(self) -> float:
        return frobenius_norm(self)

    def __repr__(self):
        return f"QMatrix(shape={self.shape})"


def frobenius_norm(a) -> float:
    """Frobenius norm of a QMatrix; of an n x 1 block, the norm of the
    vector of H^n it holds."""
    return ckernel.frobenius(a.p)


def gram_schmidt(b: QMatrix) -> QMatrix:
    """Orthonormal basis of the right H-span of the columns of b, in order:
    the leading columns of ckernel.householder. A column whose part
    orthogonal to the ones before it is at most RANK_TOL times its own
    norm is dropped, so rank-deficient input gives fewer columns."""
    q, _, kept = ckernel.householder(b.p)
    return QMatrix(*q[:, :, :kept])


def projector_onto(b: QMatrix) -> QMatrix:
    """Orthogonal projection onto the right H-span of the orthonormal
    columns of b; zero if b has none."""
    return b @ b.adjoint()


def operator_norm(a: QMatrix) -> float:
    """Operator norm ||A||, the largest singular value of the Jacobi SVD."""
    return a.fac.sigma_max


@dataclass
class OperatorClass:
    """Structural flags of an operator with their residuals, and its rank."""

    self_adjoint: bool
    anti_self_adjoint: bool
    positive: bool
    normal: bool
    unitary: bool
    projection: bool
    partial_isometry: bool
    residuals: dict = field(default_factory=dict)
    rank: int = 0


def check_tol(tol: float, what: str = "tol") -> float:
    """tol, if it is finite and positive; otherwise ValueError. The one
    rule for a class tolerance, from the library or the command line."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"{what} must be finite and positive, got {tol!r}")
    return tol


def _check_square(a: QMatrix, tol: float, what: str):
    check_tol(tol)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"{what} needs a square operator")


def classify(a: QMatrix, tol: float = DEFAULT_CLASS_TOL) -> OperatorClass:
    """Classify a square operator by residuals below tol * max(1, ||A||).

    ||A|| here is sigma_max of the complex block image. Positivity is
    self-adjointness plus A = |A|, read as ||A - |A|||_F / 2 with
    |A| = a.fac.modulus (ckernel.positivity); the partial
    isometry check combines "A* A is an orthogonal projection" with a
    norm spot-check on an orthonormal basis of the orthogonal complement
    of the null space. Every class reads the one SVD, a.fac.
    """
    _check_square(a, tol, "classify")
    fac = a.fac
    res, flags = ckernel.class_residuals(a.p, fac, fac.v[:, :, :fac.rank],
                                         tol)
    return OperatorClass(**flags, residuals=res, rank=fac.rank)


def quaternionic_rank(a: QMatrix) -> int:
    """Count of singular values above the rank cut RANK_TOL * 2n * s[0]."""
    return a.fac.rank


def null_range_bases(a: QMatrix):
    """Orthonormal bases of N(A) and R(A), QMatrix blocks of A's SVD.

    The null basis is the right singular vectors at (numerically) zero
    singular values, the range basis the left singular vectors at nonzero
    ones; dim N(A) + dim R(A) = n.
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("null_range_bases needs a square operator")
    return _svd_bases(a.fac)[:2]


def _svd_bases(fac: ckernel.Factorization):
    """Orthonormal bases of N(A), R(A) and R(A)-perp, in that order, each
    a QMatrix copied from a column block of fac, which factors A.

    With r = fac.rank, they are V[:, r:], U[:, :r] and U[:, r:].
    """
    r = fac.rank
    return (QMatrix(*fac.v[:, :, r:]), QMatrix(*fac.u[:, :, :r]),
            QMatrix(*fac.u[:, :, r:]))
