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
from .qlinalg import QMatrix, _check_square

# default relative tolerance on the block-structure invariants; Gauss-Jordan
# does not keep the block structure exactly, so pullbacks of its inverses
# use PULLBACK_SQRT_TOL
BLOCK_TOL = 1e-10
PULLBACK_SQRT_TOL = 1e-8


class BlockStructureViolation(ValueError):
    pass


def chi(a: QMatrix) -> np.ndarray:
    """Embed A = A1 + A2 j as the 2n x 2n [[A1, A2], [-conj(A2), conj(A1)]]."""
    rows, cols = a.shape
    m = np.empty((2 * rows, 2 * cols), dtype=complex)
    m[:rows, :cols], m[:rows, cols:] = a.p
    lower = m[rows:, :cols]
    np.negative(np.conjugate(a.a2, out=lower), out=lower)
    np.conjugate(a.a1, out=m[rows:, cols:])
    return m


def chi_pullback(m, tol: float = BLOCK_TOL) -> QMatrix:
    """Invert the block embedding on its image.

    Takes a 2n x 2n complex array [[P, Q], [R, S]]. Raises
    BlockStructureViolation when (R, S) differs from (-conj(Q), conj(P))
    by more than tol times the input norm, which signals a matrix outside
    the image of the embedding.
    """
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise ValueError(f"expected an even square matrix, got {mat.shape}")
    n = mat.shape[0] // 2
    p, q, r, s = mat[:n, :n], mat[:n, n:], mat[n:, :n], mat[n:, n:]
    scale = ckernel.frobenius(mat)
    resid = ckernel.frobenius(np.stack([r + np.conj(q), s - np.conj(p)]))
    if resid > tol * scale:
        raise BlockStructureViolation(
            f"block residual {resid:.3e} exceeds {tol:.1e} * {scale:.3e}")
    # symmetrize across the redundant blocks before regrouping
    return QMatrix(0.5 * (p + np.conj(s)), 0.5 * (q - np.conj(r)))


def embed_vector(x: QMatrix) -> np.ndarray:
    """Embed the n x 1 block x = x1 + x2 j as the complex vector
    (x1, -conj(x2)), the first column of chi(x).

    The embedding is isometric, C_i-linear, and intertwines the action:
    embed(A x) = chi_A @ embed(x). Null spaces and ranges correspond.
    """
    return chi(x)[:, 0]


def pullback_vector(u: np.ndarray) -> QMatrix:
    """Inverse of embed_vector: an n x 1 block."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 1 or u.shape[0] % 2:
        raise ValueError(f"expected an even-length vector, got {u.shape}")
    n = u.shape[0] // 2
    return QMatrix(u[:n, None], -np.conj(u[n:, None]))


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

    Covers the seven operator classes plus compatibility of the adjoint with
    the embedding (chi of A* equals the conjugate transpose of chi of A).
    Both sides read A's one factorization, A.fac, each computing residuals in
    its own algebra: the complex side on the planes (chi(A), 0), positivity
    on chi(A) - chi(|A|), |A| = A.fac.modulus. Disagreement is reported.
    """
    _check_square(a, tol, "equivalence_suite")
    fac = a.fac
    m, coimage = chi(a), QMatrix(*fac.v[:, :, :fac.rank])
    res_q, flags_q = ckernel.class_residuals(a.p, fac, coimage.p, tol)
    # chi(A) has each singular value of A twice, and the chi image of the
    # coimage block holds embedded v_k and, up to sign, v_k j
    res_c, flags_c = ckernel.class_residuals(
        ckernel._as_planes(m), fac, ckernel._as_planes(chi(coimage)), tol,
        lambda p: ckernel._as_planes(chi(QMatrix._adopt(p))))
    rows = [EquivalenceRow(name, flags_q[name], flags_c[name], res_q[name],
                           res_c[name])
            for name in _CLASS_NAMES]
    adj_res = ckernel.frobenius(chi(a.adjoint()) - m.conj().T)
    ok = adj_res <= tol * max(1.0, fac.sigma_max)
    rows.append(EquivalenceRow("adjoint_compatible", ok, ok, adj_res, adj_res))
    return EquivalenceReport(rows)
