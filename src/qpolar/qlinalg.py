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
from .ckernel import RANK_TOL
from .quaternion import ComplexPair, Quaternion

DEFAULT_CLASS_TOL = 1e-9


class ShapeMismatch(ValueError):
    pass


def _planes(a1, a2, ndim):
    a1 = np.array(a1, dtype=complex)
    a2 = np.array(a2, dtype=complex)
    if a1.shape != a2.shape or a1.ndim != ndim:
        raise ShapeMismatch(
            f"component shapes {a1.shape} and {a2.shape} do not match")
    return a1, a2


class QVector:
    """Vector in H^n, entries a1[k] + a2[k] * j, scalars on the right."""

    __slots__ = ("a1", "a2")

    def __init__(self, a1, a2=None):
        if a2 is None:
            a2 = np.zeros_like(np.asarray(a1, dtype=complex))
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

    def __getitem__(self, k) -> Quaternion:
        return ComplexPair(complex(self.a1[k]), complex(self.a2[k])).reassemble()

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
        if a2 is None:
            a2 = np.zeros_like(np.asarray(a1, dtype=complex))
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
        return QMatrix(self.a1.conj().T.copy(), -self.a2.T.copy())

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

    def scale_left(self, q: Quaternion) -> "QMatrix":
        """Entrywise left multiplication q * A (right H-linear)."""
        al, be = q.split().alpha, q.split().beta
        return QMatrix(al * self.a1 - be * np.conj(self.a2),
                       al * self.a2 + be * np.conj(self.a1))

    def matvec(self, x: QVector) -> QVector:
        if self.shape[1] != len(x):
            raise ShapeMismatch(
                f"matrix {self.shape} cannot act on length {len(x)}")
        return QVector(self.a1 @ x.a1 - self.a2 @ np.conj(x.a2),
                       self.a1 @ x.a2 + self.a2 @ np.conj(x.a1))

    def __matmul__(self, other):
        if isinstance(other, QVector):
            return self.matvec(other)
        if isinstance(other, QMatrix):
            if self.shape[1] != other.shape[0]:
                raise ShapeMismatch(
                    f"shapes {self.shape} and {other.shape} do not chain")
            return QMatrix(
                self.a1 @ other.a1 - self.a2 @ np.conj(other.a2),
                self.a1 @ other.a2 + self.a2 @ np.conj(other.a1))
        return NotImplemented

    def frobenius_norm(self) -> float:
        return frobenius_norm(self)

    def copy(self) -> "QMatrix":
        return QMatrix(self.a1.copy(), self.a2.copy())

    def __repr__(self):
        return f"QMatrix(shape={self.shape})"


def frobenius_norm(a) -> float:
    """Frobenius norm of a QMatrix, or the norm of a QVector."""
    return float(np.sqrt(np.sum(np.abs(a.a1) ** 2)
                         + np.sum(np.abs(a.a2) ** 2)))


def adjoint(a: QMatrix) -> QMatrix:
    """Entrywise conjugate transpose, the unique A* with <x|Ay> = <A*x|y>."""
    return a.adjoint()


def _chi_block(a: QMatrix) -> np.ndarray:
    """Complex block image [[A1, A2], [-conj(A2), conj(A1)]] of A = A1 + A2 j."""
    return np.block([[a.a1, a.a2], [-np.conj(a.a2), np.conj(a.a1)]])


def _embed(x: QVector) -> np.ndarray:
    """Embed x = x1 + x2 j as the complex vector (x1, -conj(x2))."""
    return np.concatenate([x.a1, -np.conj(x.a2)])


def _pull_vector(u: np.ndarray) -> QVector:
    n = u.shape[0] // 2
    return QVector(u[:n].copy(), -np.conj(u[n:]))


def gram_schmidt(vectors, drop_tol: float = RANK_TOL) -> list[QVector]:
    """Orthonormalize over H with two-pass re-orthogonalization.

    Dependent inputs (residual norm below drop_tol relative to the input)
    are dropped, so rank-deficient input shrinks the output. The default
    drop_tol is the rank cut of the block-image singular values.
    """
    basis: list[QVector] = []
    for v in vectors:
        w = v.copy()
        orig = w.norm()
        for _ in range(2):
            for u in basis:
                w = w - u * inner(u, w)
        nw = w.norm()
        if nw > drop_tol * max(1.0, orig):
            basis.append(w * (1.0 / nw))
    return basis


def projector_onto(vectors) -> QMatrix:
    """Orthogonal projection onto the right H-span of orthonormal vectors."""
    if not vectors:
        raise ValueError("need the ambient dimension; use QMatrix.zeros")
    f = QMatrix.from_columns(vectors)
    return f @ f.adjoint()


def matrix_in_basis(a: QMatrix, basis) -> QMatrix:
    """Matrix of the operator w.r.t. an orthonormal basis: entries <f_r|A f_s>."""
    f = QMatrix.from_columns(basis)
    return f.adjoint() @ a @ f


def operator_norm(a: QMatrix) -> float:
    """Operator norm sqrt(lambda_max(A* A)), in quaternionic arithmetic.

    Power method on A* A with repeated squaring, so convergence does not
    depend on the spectral gap; the Rayleigh quotient of the dominant
    column of the squared iterate gives the top eigenvalue.
    """
    b = a.adjoint() @ a
    scale = b.frobenius_norm()
    if scale == 0.0:
        return 0.0
    c = b * (1.0 / scale)
    for _ in range(60):
        c2 = c @ c
        f = c2.frobenius_norm()
        if f == 0.0:
            break
        c2 = c2 * (1.0 / f)
        if (c2 - c).frobenius_norm() <= 1e-15:
            c = c2
            break
        c = c2
    col_mass = (np.sum(np.abs(c.a1) ** 2, axis=0)
                + np.sum(np.abs(c.a2) ** 2, axis=0))
    x = c.column(int(np.argmax(col_mass)))
    lam = inner(x, b.matvec(x)).w / (x.norm() ** 2)
    return float(np.sqrt(max(lam, 0.0)))


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


QUATERNION = ckernel.Algebra(
    adjoint=adjoint, norm=frobenius_norm, identity=QMatrix.identity,
    rank=lambda s: _pair_rank(s, s.size, RANK_TOL),
    coimage=lambda v, rank: gram_schmidt(
        [_pull_vector(v[:, k]) for k in range(2 * rank)]))


def classify(a: QMatrix, tol: float = DEFAULT_CLASS_TOL) -> OperatorClass:
    """Classify a square operator by residuals below tol * max(1, ||A||).

    Positivity is self-adjointness plus a nonnegative spectrum of the
    complex block image; the partial isometry check combines "A* A is an
    orthogonal projection" with a norm spot-check on an orthonormal basis
    of the orthogonal complement of the null space.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("classify needs a square operator")
    return _classify(a, ckernel.Factorization(_chi_block(a)), tol)


def _classify(a: QMatrix, fac: ckernel.Factorization,
              tol: float) -> OperatorClass:
    """classify(a), reading the given factorization of its block image."""
    res, flags, rank, _ = ckernel.class_residuals(a, fac, QUATERNION, tol)
    return OperatorClass(**flags, residuals=res, rank=rank)


def _pair_rank(s, dim: int, tol: float) -> int:
    """Quaternionic rank from the doubled complex singular values.

    Singular values of a block image come in equal pairs, so the
    quaternionic rank counts pairs above the cut (the larger of each pair
    decides, which keeps borderline ties deterministic).
    """
    return ckernel.rank_from_singular_values(np.asarray(s)[0::2], dim, tol)


def quaternionic_rank(a: QMatrix, tol: float = RANK_TOL) -> int:
    _, s, _ = ckernel.svd(_chi_block(a))
    return _pair_rank(s, 2 * a.shape[0], tol)


def null_range_bases(a: QMatrix, tol: float = RANK_TOL):
    """Orthonormal bases of N(A) and R(A), pulled back from the block image.

    The null basis comes from the right singular vectors of the embedded
    matrix at (numerically) zero singular values, the range basis from the
    left singular vectors at nonzero ones; dim N(A) + dim R(A) = n.
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("null_range_bases needs a square operator")
    n = a.shape[0]
    fac = ckernel.Factorization(_chi_block(a))
    return _svd_bases(fac, n - _pair_rank(fac.s, 2 * n, tol))


def _svd_bases(fac: ckernel.Factorization, null_rank: int):
    """null_range_bases of A from the factorization of its block image."""
    rc = fac.s.size - 2 * null_rank
    null_basis = gram_schmidt(
        [_pull_vector(fac.v[:, k]) for k in range(rc, fac.s.size)])
    range_basis = gram_schmidt(
        [_pull_vector(fac.u[:, k]) for k in range(rc)])
    return null_basis, range_basis
