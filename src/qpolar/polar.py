"""Positive square roots, the modulus, and the polar decomposition T = U0 |T|.

U0 is the partial isometry with initial space N(T)-perp and final space
R(T), uniquely determined by N(U0) = N(T). polar_decompose reads T's one
factorization, the quaternion SVD T = U diag(s) V* (T.fac), forms
U0 = U_r V_r* and |T| = V diag(s) V* on the complex planes, and keeps the
factorization as PolarFactors.fac. The bases of N(T), R(T) and R(T)-perp
and the second factorizations U0 + V P all read it, and so does the
certificate that |T| is positive (PolarFactors.abs_positivity).

Besides the spectral square root there are two constructive routes for
positive operators: inversion of a strictly positive operator (take the
bounded square root of the inverse and invert back), and the composite
S^(1/2) C with S = (I+P)^(-1) P and C = sqrt(I+P). All three agree
with each other, which is the uniqueness statement made executable.
Every root, the constructive routes' included, is sqrt_positive_spectral:
one positivity gate (SQRT_TOL) and Factorization.root, both on the
operator's own fac. Every inverse is Gauss-Jordan on the complex image,
pulled back before a root is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ckernel
from .qlinalg import (DEFAULT_CLASS_TOL, QMatrix, ShapeMismatch, classify,
                      frobenius_norm, projector_onto, _svd_bases)
from .slices import PULLBACK_SQRT_TOL, chi, chi_pullback


class NotPositive(ValueError):
    pass


class NotStrictlyPositive(ValueError):
    pass


class BadPerturbation(ValueError):
    pass


@dataclass
class PolarFactors:
    """Factors of T = U0 |T| plus the rank bookkeeping behind uniqueness.

    unique is true exactly when the null space or the corange is trivial;
    otherwise distinct partial isometries U with U |T| = T exist. fac
    factors T; what is later derived from T reads it.
    """

    u0: QMatrix
    abs_t: QMatrix
    null_rank: int
    unique: bool
    fac: ckernel.Factorization

    @property
    def corange_rank(self) -> int:
        """dim R(T)-perp, which equals dim N(T) for a square T."""
        return self.null_rank

    def abs_positivity(self):
        """(residual, positive) of |T|, certified from the SVD that formed it.

        abs_t is P, V diag(s) V* as fac.polar() rounds it; exactly, that is
        positive semidefinite for any V, by congruence with diag(s). With
        R = P V - V diag(s) and eta = ||I - V* V|| < 1, (P - V diag(s) V*) V
        = R + V diag(s) (I - V* V), so Weyl's theorem (Parlett, The
        Symmetric Eigenvalue Problem, residual bounds) bounds every
        eigenvalue of chi(P) below by -delta, delta = (||R||_F + s0
        sqrt(1 + eta) eta) / sqrt(1 - eta), all norms on the planes, which
        bound the 2-norm of chi. The residual is max(sa, delta), sa the
        self-adjoint one; the flag is it within DEFAULT_CLASS_TOL *
        max(1, s0). At eta >= 1/2 the residual is inf and the flag false.
        Forming R and eta rounds them by up to about 2 n^2 u s0 (Higham,
        Accuracy and Stability of Numerical Algorithms, 3.5), 5e-13 s0 at
        n = 48, which delta does not add.
        """
        p, v, s0 = self.abs_t.p, self.fac.v, self.fac.sigma_max
        sa = frobenius_norm(self.abs_t - self.abs_t.adjoint())
        gram = ckernel._qmul(ckernel._qadj(v), v)
        gram[0] -= np.eye(v.shape[2])
        eta = ckernel.frobenius(gram)
        if eta >= 0.5:
            return math.inf, False
        r = ckernel.frobenius(ckernel._qmul(p, v) - v * self.fac.s)
        delta = (r + s0 * math.sqrt(1.0 + eta) * eta) / math.sqrt(1.0 - eta)
        residual = max(sa, delta)
        return residual, residual <= DEFAULT_CLASS_TOL * max(1.0, s0)


# positivity tolerance of the square-root routes
SQRT_TOL = 1e-8


def _require_positive(p: QMatrix) -> ckernel.Factorization:
    """p.fac.hermitian_part, which a root of p reads; NotPositive unless
    ckernel.positivity finds p positive on it within SQRT_TOL."""
    fac = p.fac.hermitian_part
    residual, positive = ckernel.positivity(
        frobenius_norm(p - p.adjoint()), fac, SQRT_TOL)
    if not positive:
        raise NotPositive(
            f"positivity residual {residual:.3e} above tolerance")
    return fac


def _inverse(h: QMatrix) -> QMatrix:
    """Inverse of the self-adjoint part of h, made exactly self-adjoint.

    Gauss-Jordan runs on the complex image, apart from the Jacobi kernel,
    and the inverse is pulled back to planes.
    """
    g = chi_pullback(ckernel.gauss_inv(chi(0.5 * (h + h.adjoint()))),
                     PULLBACK_SQRT_TOL)
    return 0.5 * (g + g.adjoint())


def sqrt_positive_spectral(p: QMatrix) -> QMatrix:
    """Root of the positive part of p's Hermitian part, from its one SVD."""
    return QMatrix._adopt(_require_positive(p).root)


def sqrt_positive_composite(p: QMatrix) -> QMatrix:
    """Positive square root as S^(1/2) C with S = (I+P)^(-1) P, C = sqrt(I+P).

    I + P is strictly positive (bounded below by 1), so C comes from the
    strictly-positive route: invert, take the bounded square root, invert
    back. S is a product, which keeps the relative accuracy of a small P
    (I - (I+P)^(-1) rounds to n eps). Agrees with the spectral route, which
    is the uniqueness of the positive square root in executable form.
    """
    _require_positive(p)
    eye = QMatrix.identity(p.shape[0])
    k_inv = _inverse(eye + p)
    s = k_inv @ p
    s_half = sqrt_positive_spectral(0.5 * (s + s.adjoint()))
    # strictly-positive route for C = sqrt(I + P)
    c = _inverse(sqrt_positive_spectral(k_inv))
    out = s_half @ c
    return 0.5 * (out + out.adjoint())


def sqrt_strictly_positive(p: QMatrix, lambda_min: float) -> QMatrix:
    """Square root of a strictly positive operator via its inverse.

    Requires an explicit lower bound lambda_min > 0 on the spectrum of p;
    raises NotStrictlyPositive when the bound s[-1] - ||H - |H|||_F (Weyl)
    on the lowest eigenvalue of p's Hermitian part H falls short.
    """
    if lambda_min <= 0.0:
        raise ValueError("lambda_min must be positive")
    fac = _require_positive(p)
    low = min(fac.s, default=0.0) - ckernel.frobenius(fac.p - fac.modulus)
    if low < lambda_min:
        raise NotStrictlyPositive(
            f"minimum eigenvalue bound {low:.3e} below {lambda_min:.3e}")
    return _inverse(sqrt_positive_spectral(_inverse(p)))


def modulus(t: QMatrix) -> QMatrix:
    """The modulus |T|, the unique positive square root of T* T."""
    return polar_decompose(t).abs_t


def polar_decompose(t: QMatrix) -> PolarFactors:
    """Polar decomposition T = U0 |T| with N(U0) = N(T).

    Read from the quaternion SVD of T (T.fac.polar()); its
    rank cut, RANK_TOL relative to 2n s[0], decides the null and corange
    dimensions. Raises ckernel.NoConvergence if the SVD does not converge.
    """
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatch("polar decomposition needs a square operator")
    fac = t.fac
    u0, p = fac.polar()
    null_rank = t.shape[0] - fac.rank
    return PolarFactors(u0=QMatrix._adopt(u0), abs_t=QMatrix._adopt(p),
                        null_rank=null_rank, unique=null_rank == 0, fac=fac)


def perturb_polar(f: PolarFactors, v: QMatrix) -> QMatrix:
    """Second factorization U = U0 + V P of T from a partial isometry V.

    f is polar_decompose(T). V must vanish on N(T)-perp (initial space
    inside N(T)) and map into the corange R(T)-perp; P projects onto
    N(T). Violations raise BadPerturbation. The zero V returns U0 itself.
    """
    v_norm = v.frobenius_norm()
    if v_norm == 0.0:
        return f.u0.copy()
    if f.null_rank == 0:
        raise BadPerturbation(
            "N(T) is trivial, only the zero perturbation is admissible")
    oc = classify(v)
    if not oc.partial_isometry:
        raise BadPerturbation(
            f"perturbation is not a partial isometry "
            f"(residual {oc.residuals['partial_isometry']:.3e})")
    scale = max(1.0, v_norm)
    null_basis, range_basis, _ = _svd_bases(f.fac)
    p_null = projector_onto(null_basis)
    off_initial = (v - v @ p_null).frobenius_norm()
    if off_initial > DEFAULT_CLASS_TOL * scale:
        raise BadPerturbation(
            f"initial space leaks outside N(T) by {off_initial:.3e}")
    into_range = (projector_onto(range_basis) @ v).frobenius_norm()
    if into_range > DEFAULT_CLASS_TOL * scale:
        raise BadPerturbation(
            f"final space leaks into R(T) by {into_range:.3e}")
    return f.u0 + v @ p_null


def canonical_perturbation(f: PolarFactors) -> QMatrix:
    """Deterministic nonzero V for a non-unique decomposition.

    Maps the k-th basis vector of N(T) to the k-th basis vector of
    R(T)-perp, both read from f = polar_decompose(T); for a square T both
    bases have n - rank columns. Returns the zero matrix when the
    decomposition is unique.
    """
    null_basis, _, corange_basis = _svd_bases(f.fac)
    return corange_basis @ null_basis.adjoint()
