"""Right H-module vectors, quaternion matrices, and operator classification.

Vectors live in H^n with scalars acting on the right, so matrices acting by
left multiplication are right H-linear. Internally every object is stored
as a pair of complex arrays (a1, a2) with entries a1 + a2 * j; regrouping
between quaternion components and the complex pair is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ckernel
from .ckernel import DEFAULT_CLASS_TOL
from .quaternion import ComplexPair, Quaternion


class ShapeMismatch(ValueError):
    pass


def _planes(a1, a2, ndim):
    a1 = np.array(a1, dtype=complex)
    a2 = np.zeros_like(a1) if a2 is None else np.array(a2, dtype=complex)
    if a1.shape != a2.shape or a1.ndim != ndim:
        raise ShapeMismatch(
            f"component shapes {a1.shape} and {a2.shape} do not match")
    return a1, a2


def _adopt(cls, planes):
    """cls over the planes that ckernel._qmul or _qadj stacked, uncopied."""
    obj = cls.__new__(cls)
    obj.a1, obj.a2 = planes
    return obj


class QVector:
    """Vector in H^n, entries a1[k] + a2[k] * j, scalars on the right."""

    __slots__ = ("a1", "a2")

    def __init__(self, a1, a2=None):
        self.a1, self.a2 = _planes(a1, a2, 1)

    @classmethod
    def zeros(cls, n: int) -> "QVector":
        return cls(np.zeros(n, dtype=complex), np.zeros(n, dtype=complex))

    @classmethod
    def basis(cls, n: int, k: int) -> "QVector":
        v = cls.zeros(n)
        v.a1[k] = 1.0
        return v

    @classmethod
    def from_quaternions(cls, quats) -> "QVector":
        quats = list(quats)
        a1 = np.array([complex(q.w, q.x) for q in quats], dtype=complex)
        a2 = np.array([complex(q.y, q.z) for q in quats], dtype=complex)
        return cls(a1, a2)

    def to_quaternions(self) -> list[Quaternion]:
        return [ComplexPair(self.a1[k], self.a2[k]).reassemble()
                for k in range(len(self))]

    def __len__(self):
        return self.a1.shape[0]

    def __add__(self, other: "QVector") -> "QVector":
        return QVector(self.a1 + other.a1, self.a2 + other.a2)

    def __sub__(self, other: "QVector") -> "QVector":
        return QVector(self.a1 - other.a1, self.a2 - other.a2)

    def __neg__(self) -> "QVector":
        return QVector(-self.a1, -self.a2)

    def __mul__(self, q):
        """Right scalar action x * q for q a Quaternion or a real number."""
        if isinstance(q, Quaternion):
            al, be = q.split().alpha, q.split().beta
            return QVector(self.a1 * al - self.a2 * np.conj(be),
                           self.a1 * be + self.a2 * np.conj(al))
        if isinstance(q, (int, float)):
            return QVector(self.a1 * q, self.a2 * q)
        return NotImplemented

    def norm(self) -> float:
        return frobenius_norm(self)

    def copy(self) -> "QVector":
        return QVector(self.a1.copy(), self.a2.copy())

    def __repr__(self):
        return f"QVector({self.to_quaternions()!r})"


def inner(x: QVector, y: QVector) -> Quaternion:
    """Quaternionic inner product <x|y> = sum conj(x_k) y_k.

    Right-linear in the second slot and conjugate-symmetric.
    """
    if len(x) != len(y):
        raise ShapeMismatch(f"lengths {len(x)} and {len(y)} differ")
    alpha = np.vdot(x.a1, y.a1) + np.vdot(y.a2, x.a2)
    beta = np.vdot(x.a1, y.a2) - np.vdot(y.a1, x.a2)
    return ComplexPair(complex(alpha), complex(beta)).reassemble()


class QMatrix:
    """Quaternion matrix acting on QVector by left multiplication."""

    __slots__ = ("a1", "a2")

    def __init__(self, a1, a2=None):
        self.a1, self.a2 = _planes(a1, a2, 2)

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "QMatrix":
        cols = rows if cols is None else cols
        return cls(np.zeros((rows, cols), dtype=complex),
                   np.zeros((rows, cols), dtype=complex))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))

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

    @classmethod
    def from_quaternions(cls, grid) -> "QMatrix":
        rows = [list(r) for r in grid]
        a1 = np.array([[complex(q.w, q.x) for q in r] for r in rows],
                      dtype=complex)
        a2 = np.array([[complex(q.y, q.z) for q in r] for r in rows],
                      dtype=complex)
        return cls(a1, a2)

    @classmethod
    def from_columns(cls, vectors) -> "QMatrix":
        vectors = list(vectors)
        a1 = np.stack([v.a1 for v in vectors], axis=1)
        a2 = np.stack([v.a2 for v in vectors], axis=1)
        return cls(a1, a2)

    def to_quaternions(self) -> list[list[Quaternion]]:
        r, c = self.shape
        return [[self.entry(i, j) for j in range(c)] for i in range(r)]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a1.shape

    def entry(self, r: int, s: int) -> Quaternion:
        return ComplexPair(complex(self.a1[r, s]),
                           complex(self.a2[r, s])).reassemble()

    def column(self, k: int) -> QVector:
        return QVector(self.a1[:, k].copy(), self.a2[:, k].copy())

    def adjoint(self) -> "QMatrix":
        return _adopt(QMatrix, ckernel._qadj((self.a1, self.a2)))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.a1 + other.a1, self.a2 + other.a2)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.a1 - other.a1, self.a2 - other.a2)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.a1, -self.a2)

    def __mul__(self, r):
        if isinstance(r, (int, float)):
            return QMatrix(self.a1 * r, self.a2 * r)
        return NotImplemented

    __rmul__ = __mul__

    def matvec(self, x: QVector) -> QVector:
        if self.shape[1] != len(x):
            raise ShapeMismatch(
                f"matrix {self.shape} cannot act on length {len(x)}")
        return _adopt(QVector,
                      ckernel._qmul((self.a1, self.a2), (x.a1, x.a2)))

    def __matmul__(self, other):
        if isinstance(other, QVector):
            return self.matvec(other)
        if isinstance(other, QMatrix):
            if self.shape[1] != other.shape[0]:
                raise ShapeMismatch(
                    f"shapes {self.shape} and {other.shape} do not chain")
            return _adopt(QMatrix, ckernel._qmul((self.a1, self.a2),
                                                 (other.a1, other.a2)))
        return NotImplemented

    def frobenius_norm(self) -> float:
        return frobenius_norm(self)

    def copy(self) -> "QMatrix":
        return QMatrix(self.a1.copy(), self.a2.copy())

    def __repr__(self):
        return f"QMatrix(shape={self.shape})"


def frobenius_norm(a) -> float:
    """Frobenius norm of a QMatrix, or the norm of a QVector, from the sums
    of squares of its planes; ckernel.rescaled_norm when that underflows to
    0 or overflows with every entry finite, so other values keep their
    bytes."""
    a1, a2 = a.a1, a.a2
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum(np.abs(a1) ** 2)
                             + np.sum(np.abs(a2) ** 2)))
    if norm in (0.0, np.inf) and np.isfinite(a1).all() \
            and np.isfinite(a2).all():
        norm = ckernel.rescaled_norm(np.stack([a1, a2]))
    return norm


def adjoint(a: QMatrix) -> QMatrix:
    """Entrywise conjugate transpose, the unique A* with <x|Ay> = <A*x|y>."""
    return a.adjoint()


def gram_schmidt(vectors) -> list[QVector]:
    """Orthonormal basis of the right H-span of vectors, in order: the
    leading columns of ckernel.householder. A vector whose part orthogonal
    to the ones before it is at most RANK_TOL times its own norm is
    dropped, so rank-deficient input shrinks the output."""
    vectors = list(vectors)
    if not vectors:
        return []
    f = QMatrix.from_columns(vectors)
    q, kept = ckernel.householder(np.stack([f.a1, f.a2]))
    return _columns(q, 0, kept)


def projector_onto(vectors) -> QMatrix:
    """Orthogonal projection onto the right H-span of orthonormal vectors."""
    if not vectors:
        raise ValueError("need the ambient dimension; use QMatrix.zeros")
    f = QMatrix.from_columns(vectors)
    return f @ f.adjoint()


def operator_norm(a: QMatrix) -> float:
    """Operator norm ||A||, the largest singular value of the Jacobi SVD."""
    return ckernel.Factorization(a.a1, a.a2).sigma_max


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


def _columns(w, start: int, stop: int) -> list[QVector]:
    """Columns start..stop-1 of the quaternion matrix held as planes w."""
    return [QVector(w[0][:, k], w[1][:, k]) for k in range(start, stop)]


QUATERNION = ckernel.Algebra(
    adjoint=adjoint, norm=frobenius_norm, identity=QMatrix.identity,
    rank=lambda fac: fac.rank,
    coimage=lambda fac, rank: _columns(fac.v, 0, rank))


def _check_square(a: QMatrix, tol: float, what: str):
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"{what} needs a square operator")


def classify(a: QMatrix, tol: float = DEFAULT_CLASS_TOL) -> OperatorClass:
    """Classify a square operator by residuals below tol * max(1, ||A||).

    ||A|| here is sigma_max of the complex block image. Positivity is
    self-adjointness plus a nonnegative spectrum of the block image, as
    in positivity(a, tol); the partial isometry check combines "A* A is
    an orthogonal projection" with a norm spot-check on an orthonormal
    basis of the orthogonal complement of the null space. Every class
    but positivity reads the SVD of the block image.
    """
    _check_square(a, tol, "classify")
    return _classify(a, ckernel.Factorization(a.a1, a.a2), tol)


def positivity(a: QMatrix, tol: float = DEFAULT_CLASS_TOL):
    """The positivity residual and flag of classify(a, tol), and the factors.

    Returns (residual, positive, fac), residual and positive equal to
    classify's, with fac the Factorization of a. A positive A costs one
    eigensolve, of the planes of its Hermitian part (fac.lam_min, then
    already computed); the SVD is taken only when a residual exceeds tol.
    """
    _check_square(a, tol, "positivity")
    fac = ckernel.Factorization(a.a1, a.a2)
    residual, positive = ckernel.positivity(
        frobenius_norm(a - adjoint(a)), fac, tol)
    return residual, positive, fac


def _classify(a: QMatrix, fac: ckernel.Factorization,
              tol: float) -> OperatorClass:
    """classify(a), reading the given factorization of a."""
    res, flags, rank, _ = ckernel.class_residuals(a, fac, QUATERNION, tol)
    return OperatorClass(**flags, residuals=res, rank=rank)


def quaternionic_rank(a: QMatrix) -> int:
    """Count of singular values above the rank cut RANK_TOL * 2n * s[0]."""
    return ckernel.Factorization(a.a1, a.a2).rank


def null_range_bases(a: QMatrix):
    """Orthonormal bases of N(A) and R(A) from the singular vectors of A.

    The null basis is the right singular vectors at (numerically) zero
    singular values, the range basis the left singular vectors at nonzero
    ones; dim N(A) + dim R(A) = n.
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("null_range_bases needs a square operator")
    fac = ckernel.Factorization(a.a1, a.a2)
    return _svd_bases(fac, a.shape[0] - fac.rank)[:2]


def _svd_bases(fac: ckernel.Factorization, null_rank: int):
    """Orthonormal bases of N(A), R(A) and R(A)-perp, in that order.

    fac factors A. With r = n - null_rank, they are the right singular
    vectors after the first r, and the left ones up to r and after r.
    """
    n, r = fac.s.size, fac.s.size - null_rank
    return (_columns(fac.v, r, n), _columns(fac.u, 0, r),
            _columns(fac.u, r, n))
