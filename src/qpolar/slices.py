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
from .qlinalg import (QMatrix, QUATERNION, QVector, ShapeMismatch, _chi_block,
                      _embed, _pull_vector)

# the complex algebra as read from the factors of a quaternion A: chi(A)
# has each singular value of A twice, so twice its rank, and chi(V) holds
# embedded v_k and, up to sign, v_k j in columns k and n + k
CHI = ckernel.COMPLEX._replace(
    rank=lambda fac: 2 * fac.rank,
    coimage=lambda fac, rank: ckernel.chi_image(*fac.v)[:, [
        j for k in range(rank // 2) for j in (k, fac.s.size + k)]].T)

# default relative tolerance on the block-structure invariants; square
# roots amplify rounding, so pullbacks after them use PULLBACK_SQRT_TOL
BLOCK_TOL = 1e-10
PULLBACK_SQRT_TOL = 1e-8


class BlockStructureViolation(ValueError):
    pass


@dataclass(frozen=True)
class ChiImage:
    """A 2n x 2n complex matrix with the block structure of an embedded operator."""

    m: np.ndarray

    @property
    def blocks(self):
        n = self.m.shape[0] // 2
        return (self.m[:n, :n], self.m[:n, n:],
                self.m[n:, :n], self.m[n:, n:])

    def structure_residual(self) -> float:
        """How far the lower blocks are from (-conj(A2), conj(A1))."""
        p, q, r, s = self.blocks
        return float(np.sqrt(
            np.sum(np.abs(r + np.conj(q)) ** 2)
            + np.sum(np.abs(s - np.conj(p)) ** 2)))


def chi(a: QMatrix) -> ChiImage:
    """Embed A = A1 + A2 j as [[A1, A2], [-conj(A2), conj(A1)]]."""
    return ChiImage(_chi_block(a))


def chi_pullback(m, tol: float = BLOCK_TOL) -> QMatrix:
    """Invert the block embedding on its image.

    Accepts a ChiImage or a raw 2n x 2n complex array. Raises
    BlockStructureViolation when the lower blocks differ from the
    conjugated upper blocks by more than tol relative to the input norm,
    which signals a matrix outside the image of the embedding.
    """
    mat = m.m if isinstance(m, ChiImage) else np.asarray(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise ValueError(f"expected an even square matrix, got {mat.shape}")
    img = ChiImage(mat)
    scale = max(1.0, ckernel.frobenius(mat))
    resid = img.structure_residual()
    if resid > tol * scale:
        raise BlockStructureViolation(
            f"block residual {resid:.3e} exceeds {tol:.1e} * {scale:.3e}")
    p, q, r, s = img.blocks
    # symmetrize across the redundant blocks before regrouping
    return QMatrix(0.5 * (p + np.conj(s)), 0.5 * (q - np.conj(r)))


def embed_vector(x: QVector) -> np.ndarray:
    """Embed x = x1 + x2 j as the complex vector (x1, -conj(x2)).

    The embedding is isometric, C_i-linear, and intertwines the action:
    embed(A x) = chi_A @ embed(x). Null spaces and ranges correspond.
    """
    return _embed(x)


def pullback_vector(u: np.ndarray) -> QVector:
    """Inverse of embed_vector."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 1 or u.shape[0] % 2:
        raise ValueError(f"expected an even-length vector, got {u.shape}")
    return _pull_vector(u)


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


def equivalence_suite(a: QMatrix, tol: float = 1e-9) -> EquivalenceReport:
    """Compare structural classes of A and of its complex block image.

    Covers the seven operator classes plus compatibility of the adjoint
    with the embedding (chi of A* equals the conjugate transpose of
    chi of A). Both sides read one factorization of A, the complex side
    as the SVD of chi of A it gives (CHI), but each computes its residuals
    in its own algebra. Disagreement is reported, not raised.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("equivalence_suite needs a square operator")
    fac = ckernel.Factorization(a.a1, a.a2)
    m = fac.m
    res_q, flags_q, _, _ = ckernel.class_residuals(a, fac, QUATERNION, tol)
    res_c, flags_c, _, smax = ckernel.class_residuals(m, fac, CHI, tol)
    rows = [EquivalenceRow(name, flags_q[name], flags_c[name], res_q[name],
                           res_c[name])
            for name in _CLASS_NAMES]
    adj_res = float(np.linalg.norm(_chi_block(a.adjoint()) - m.conj().T))
    scale = max(1.0, smax)
    ok = adj_res <= tol * scale
    rows.append(EquivalenceRow("adjoint_compatible", ok, ok, adj_res, adj_res))
    return EquivalenceReport(rows)
