"""Positive square roots, the modulus, and the polar decomposition T = U0 |T|.

U0 is the partial isometry with initial space N(T)-perp and final space
R(T), uniquely determined by N(U0) = N(T). All heavy computation routes
through the complex block image: one trusted numerical path, with the
native quaternionic formula T pinv(|T|) kept as a cross-check for tests.

Besides the spectral square root there are two constructive routes for
positive operators: inversion of a strictly positive operator (take the
bounded square root of the inverse and invert back), and the composite
S^(1/2) C with S = I - (I+P)^(-1) and C = sqrt(I+P). All three agree
with each other, which is the uniqueness statement made executable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ckernel
from .qlinalg import (QMatrix, RANK_TOL, ShapeMismatch, classify, inner,
                      null_range_bases, projector_onto, _chi_block, _classify,
                      _pair_rank, _svd_bases)
from .quaternion import Quaternion
from .slices import PULLBACK_SQRT_TOL, chi_pullback


class NotPositive(ValueError):
    pass


class NotStrictlyPositive(ValueError):
    pass


class NotNormal(ValueError):
    pass


class BadPerturbation(ValueError):
    pass


@dataclass
class PolarFactors:
    """Factors of T = U0 |T| plus the rank bookkeeping behind uniqueness.

    unique is true exactly when the null space or the corange is trivial;
    otherwise distinct partial isometries U with U |T| = T exist. chi_svd
    factors the block image of T; what is later derived from T reads it.
    """

    u0: QMatrix
    abs_t: QMatrix
    null_rank: int
    unique: bool
    chi_svd: ckernel.Factorization

    @property
    def corange_rank(self) -> int:
        """dim R(T)-perp, which equals dim N(T) for a square T."""
        return self.null_rank


def _require_positive(p: QMatrix, tol: float):
    oc = classify(p, tol)
    if not oc.positive:
        raise NotPositive(
            f"positivity residual {oc.residuals['positive']:.3e} above tolerance")


def sqrt_positive_spectral(p: QMatrix, tol: float = 1e-8) -> QMatrix:
    """Positive square root through the eigendecomposition of the block image."""
    _require_positive(p, max(tol, 1e-9))
    r = ckernel.psd_sqrt(_chi_block(p))
    return chi_pullback(r, PULLBACK_SQRT_TOL)


def sqrt_positive_composite(p: QMatrix, tol: float = 1e-8) -> QMatrix:
    """Positive square root as S^(1/2) C with S = I - (I+P)^(-1), C = sqrt(I+P).

    I + P is strictly positive (bounded below by 1), so C comes from the
    strictly-positive route: invert, take the bounded square root, invert
    back. Agrees with the spectral route, which is the uniqueness of the
    positive square root in executable form.
    """
    _require_positive(p, max(tol, 1e-9))
    m = _chi_block(p)
    n2 = m.shape[0]
    eye = np.eye(n2, dtype=complex)
    k = eye + m
    k_inv = ckernel.gauss_inv(k)
    k_inv = 0.5 * (k_inv + k_inv.conj().T)
    s = eye - k_inv
    s = 0.5 * (s + s.conj().T)
    s_half = ckernel.psd_sqrt(s)
    # strictly-positive route for C = sqrt(I + P)
    inv_half = ckernel.psd_sqrt(k_inv)
    c = ckernel.gauss_inv(inv_half)
    out = s_half @ c
    out = 0.5 * (out + out.conj().T)
    return chi_pullback(out, PULLBACK_SQRT_TOL)


def sqrt_strictly_positive(p: QMatrix, lambda_min: float,
                           tol: float = 1e-8) -> QMatrix:
    """Square root of a strictly positive operator via its inverse.

    Requires an explicit lower bound lambda_min > 0 on the spectrum of the
    block image; raises NotStrictlyPositive when the computed minimum
    eigenvalue falls short.
    """
    if lambda_min <= 0.0:
        raise ValueError("lambda_min must be positive")
    _require_positive(p, max(tol, 1e-9))
    m = _chi_block(p)
    eig = ckernel.hermitian_eig(0.5 * (m + m.conj().T))
    if eig.values[-1] < lambda_min:
        raise NotStrictlyPositive(
            f"minimum eigenvalue {eig.values[-1]:.3e} below {lambda_min:.3e}")
    s = ckernel.gauss_inv(m)
    s = 0.5 * (s + s.conj().T)
    s_half = ckernel.psd_sqrt(s)
    c = ckernel.gauss_inv(s_half)
    c = 0.5 * (c + c.conj().T)
    return chi_pullback(c, PULLBACK_SQRT_TOL)


def modulus(t: QMatrix) -> QMatrix:
    """The modulus |T|, the unique positive square root of T* T."""
    m = _chi_block(t)
    r = ckernel.psd_sqrt(m.conj().T @ m)
    return chi_pullback(r, PULLBACK_SQRT_TOL)


def polar_decompose(t: QMatrix, tol: float = RANK_TOL) -> PolarFactors:
    """Polar decomposition T = U0 |T| with N(U0) = N(T).

    Computed as the classical complex polar decomposition of the block
    image, pulled back; tol is the rank cut for deciding the null and
    corange dimensions.
    """
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatch("polar decomposition needs a square operator")
    n = t.shape[0]
    fac = ckernel.Factorization(_chi_block(t))
    # block-image singular values come in pairs; cutting between the two
    # members of a pair would break the block structure of u0, so the
    # rank is decided per pair
    rank_h = _pair_rank(fac.s, 2 * n, tol)
    u0c, pc = fac.polar(2 * rank_h)
    null_rank = n - rank_h
    return PolarFactors(u0=chi_pullback(u0c, PULLBACK_SQRT_TOL),
                        abs_t=chi_pullback(pc, PULLBACK_SQRT_TOL),
                        null_rank=null_rank, unique=null_rank == 0,
                        chi_svd=fac)


@dataclass
class StructureRow:
    name: str
    applicable: bool
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return (not self.applicable) or self.residual <= self.threshold


@dataclass
class StructureReport:
    rows: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def structure_report(t: QMatrix, f: PolarFactors,
                     tol: float = 1e-8) -> StructureReport:
    """Check that U0 inherits the structure of T.

    Normal T: U0 is normal, commutes with |T|, and restricts to a unitary
    on the range of T. Self-adjoint or anti-self-adjoint T: so is U0.
    Failures are reported, not raised. f must be polar_decompose(t).
    """
    oc = _classify(t, f.chi_svd, max(tol, 1e-9))
    u0 = f.u0
    u0c = classify(u0, max(tol, 1e-9))
    thresh = tol * max(1.0, t.frobenius_norm())
    stay = 0.0
    gram = 0.0
    if oc.normal:
        _, range_basis = _svd_bases(f.chi_svd, f.null_rank)
        images = [u0.matvec(r) for r in range_basis]
        for idx, w in enumerate(images):
            # component outside the range of T
            w_out = w.copy()
            for r in range_basis:
                w_out = w_out - r * inner(r, w_out)
            stay = max(stay, w_out.norm())
            for jdx, w2 in enumerate(images):
                g = inner(w, w2)
                want = Quaternion(1.0 if idx == jdx else 0.0)
                gram = max(gram, (g - want).norm())
    return StructureReport([
        StructureRow("normal_u0_normal", oc.normal, u0c.residuals["normal"],
                     thresh),
        StructureRow("normal_u0_commutes_abs_t", oc.normal,
                     (u0 @ f.abs_t - f.abs_t @ u0).frobenius_norm(), thresh),
        StructureRow("normal_u0_unitary_on_range", oc.normal,
                     max(stay, gram), thresh),
        StructureRow("self_adjoint_u0_self_adjoint", oc.self_adjoint,
                     u0c.residuals["self_adjoint"], thresh),
        StructureRow("anti_self_adjoint_u0_anti_self_adjoint",
                     oc.anti_self_adjoint, u0c.residuals["anti_self_adjoint"],
                     thresh),
    ])


def unitary_extension(t: QMatrix, f: PolarFactors,
                      tol: float = 1e-9) -> QMatrix:
    """Extend U0 of a normal operator to a unitary W with W |T| = T.

    W acts as U0 on the range of |T| and as the identity on N(T). f must
    be polar_decompose(t).
    """
    if not _classify(t, f.chi_svd, max(tol, 1e-9)).normal:
        raise NotNormal("unitary extension needs a normal operator")
    null_basis, _ = _svd_bases(f.chi_svd, f.null_rank)
    if not null_basis:
        return f.u0.copy()
    return f.u0 + projector_onto(null_basis)


def perturb_polar(t: QMatrix, f: PolarFactors, v: QMatrix,
                  tol: float = 1e-9) -> QMatrix:
    """Second factorization U = U0 + V P from a partial isometry V.

    V must vanish on N(T)-perp (initial space inside N(T)) and map into
    the corange R(T)-perp; P projects onto N(T). Violations raise
    BadPerturbation. The zero V returns U0 itself. N(T) and R(T) are read
    from f, which must be polar_decompose(t).
    """
    scale = max(1.0, v.frobenius_norm())
    if v.frobenius_norm() == 0.0:
        return f.u0.copy()
    if f.null_rank == 0:
        raise BadPerturbation(
            "N(T) is trivial, only the zero perturbation is admissible")
    oc = classify(v, max(tol, 1e-9))
    if not oc.partial_isometry:
        raise BadPerturbation(
            f"perturbation is not a partial isometry "
            f"(residual {oc.residuals['partial_isometry']:.3e})")
    null_basis, range_basis = _svd_bases(f.chi_svd, f.null_rank)
    p_null = projector_onto(null_basis)
    off_initial = (v - v @ p_null).frobenius_norm()
    if off_initial > tol * scale:
        raise BadPerturbation(
            f"initial space leaks outside N(T) by {off_initial:.3e}")
    if range_basis:
        p_range = projector_onto(range_basis)
        into_range = (p_range @ v).frobenius_norm()
        if into_range > tol * scale:
            raise BadPerturbation(
                f"final space leaks into R(T) by {into_range:.3e}")
    return f.u0 + v @ p_null


def canonical_perturbation(t: QMatrix, tol: float = RANK_TOL) -> QMatrix:
    """Deterministic nonzero V for a non-unique decomposition.

    Maps the k-th null basis vector to the k-th corange basis vector, up
    to the smaller of the two ranks. Returns the zero matrix when either
    space is trivial.
    """
    n = t.shape[0]
    null_basis, _ = null_range_bases(t, tol)
    corange_basis = null_range_bases(t.adjoint(), tol)[0]
    k = min(len(null_basis), len(corange_basis))
    v = QMatrix.zeros(n)
    for idx in range(k):
        src = QMatrix.from_columns([null_basis[idx]])
        dst = QMatrix.from_columns([corange_basis[idx]])
        # rank-1 map x -> dst * <src|x>
        v = v + dst @ src.adjoint()
    return v


def uniqueness_verdict(t: QMatrix, tol: float = RANK_TOL) -> bool:
    """True when U0 is the only partial isometry U with U |T| = T."""
    f = polar_decompose(t, tol)
    return f.unique
