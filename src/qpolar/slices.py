"""Slice decomposition of H^n and the complex block embedding.

With the anti-self-adjoint unitary J = i * I, the space splits as
H = H_plus + H_minus where H_plus holds the vectors with entries in C_i
and H_minus = H_plus * j. Every operator splits as A = A1 + A2 * j with
complex A1, A2, and embeds as the 2n x 2n complex block matrix

    chi_A = [[A1, A2], [-conj(A2), conj(A1)]],

an injective, norm-preserving, multiplicative map whose image is exactly
the set of block matrices of that shape. Null spaces, ranges, and all
structural operator classes transfer across the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ckernel
from .qlinalg import QMatrix, QUATERNION, QVector, _check_square

# the complex algebra as read from the factors of a quaternion A: chi(A)
# has each singular value of A twice, so twice its rank, and chi(V) holds
# embedded v_k and, up to sign, v_k j in columns k and n + k
CHI = ckernel.COMPLEX._replace(
    rank=lambda fac: 2 * fac.rank,
    coimage=lambda fac, rank: chi(QMatrix(*fac.v))[:, [
        j for k in range(rank // 2) for j in (k, fac.s.size + k)]].T)

# default relative tolerance on the block-structure invariants; Gauss-Jordan
# does not keep the block structure exactly, so pullbacks of its inverses
# use PULLBACK_SQRT_TOL
BLOCK_TOL = 1e-10
PULLBACK_SQRT_TOL = 1e-8


class BlockStructureViolation(ValueError):
    pass


def chi(a: QMatrix) -> np.ndarray:
    """Embed A = A1 + A2 j as the 2n x 2n [[A1, A2], [-conj(A2), conj(A1)]]."""
    return np.block([[a.a1, a.a2], [-np.conj(a.a2), np.conj(a.a1)]])


def chi_pullback(m, tol: float = BLOCK_TOL) -> QMatrix:
    """Invert the block embedding on its image.

    Takes a 2n x 2n complex array [[P, Q], [R, S]]. Raises
    BlockStructureViolation when (R, S) differs from (-conj(Q), conj(P))
    by more than tol relative to the input norm, which signals a matrix
    outside the image of the embedding.
    """
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise ValueError(f"expected an even square matrix, got {mat.shape}")
    n = mat.shape[0] // 2
    p, q, r, s = mat[:n, :n], mat[:n, n:], mat[n:, :n], mat[n:, n:]
    scale = max(1.0, ckernel.frobenius(mat))
    resid = ckernel.frobenius(np.stack([r + np.conj(q), s - np.conj(p)]))
    if resid > tol * scale:
        raise BlockStructureViolation(
            f"block residual {resid:.3e} exceeds {tol:.1e} * {scale:.3e}")
    # symmetrize across the redundant blocks before regrouping
    return QMatrix(0.5 * (p + np.conj(s)), 0.5 * (q - np.conj(r)))


def embed_vector(x: QVector) -> np.ndarray:
    """Embed x = x1 + x2 j as the complex vector (x1, -conj(x2)).

    The embedding is isometric, C_i-linear, and intertwines the action:
    embed(A x) = chi_A @ embed(x). Null spaces and ranges correspond.
    """
    return np.concatenate([x.a1, -np.conj(x.a2)])


def pullback_vector(u: np.ndarray) -> QVector:
    """Inverse of embed_vector."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 1 or u.shape[0] % 2:
        raise ValueError(f"expected an even-length vector, got {u.shape}")
    n = u.shape[0] // 2
    return QVector(u[:n].copy(), -np.conj(u[n:]))


@dataclass
class EquivalenceRow:
    name: str
    flag_quaternionic: bool
    flag_complex: bool
    residual_quaternionic: float
    residual_complex: float

    @property
    def agree(self) -> bool:
        return self.flag_quaternionic == self.flag_complex


@dataclass
class EquivalenceReport:
    rows: list

    @property
    def all_agree(self) -> bool:
        return all(r.agree for r in self.rows)

    def disagreements(self) -> list:
        return [r for r in self.rows if not r.agree]


_CLASS_NAMES = ("self_adjoint", "anti_self_adjoint", "positive", "normal",
                "unitary", "projection", "partial_isometry")


def equivalence_suite(a: QMatrix, tol: float = ckernel.DEFAULT_CLASS_TOL
                      ) -> EquivalenceReport:
    """Compare structural classes of A and of its complex block image.

    Covers the seven operator classes plus compatibility of the adjoint
    with the embedding (chi of A* equals the conjugate transpose of
    chi of A). Both sides read one factorization of A, the complex side
    as the SVD of chi of A it gives (CHI), but each computes its residuals
    in its own algebra. Disagreement is reported, not raised.
    """
    _check_square(a, tol, "equivalence_suite")
    fac = ckernel.Factorization(a.a1, a.a2)
    m = chi(a)
    res_q, flags_q, _, _ = ckernel.class_residuals(a, fac, QUATERNION, tol)
    res_c, flags_c, _, smax = ckernel.class_residuals(m, fac, CHI, tol)
    rows = [EquivalenceRow(name, flags_q[name], flags_c[name], res_q[name],
                           res_c[name])
            for name in _CLASS_NAMES]
    adj_res = ckernel.frobenius(chi(a.adjoint()) - m.conj().T)
    scale = max(1.0, smax)
    ok = adj_res <= tol * scale
    rows.append(EquivalenceRow("adjoint_compatible", ok, ok, adj_res, adj_res))
    return EquivalenceReport(rows)
