"""Positive square roots, the modulus, and the polar decomposition T = U0 |T|.

U0 is the partial isometry with initial space N(T)-perp and final space
R(T), uniquely determined by N(U0) = N(T). polar_decompose factors T once
by the quaternion Jacobi SVD T = U diag(s) V*, forms U0 = U_r V_r* and
|T| = V diag(s) V* on the complex planes, and keeps the factorization as
PolarFactors.fac. The bases of N(T), R(T) and R(T)-perp, the unitary
extension and the second factorizations U0 + V P all read it.

Besides the spectral square root there are two constructive routes for
positive operators: inversion of a strictly positive operator (take the
bounded square root of the inverse and invert back), and the composite
S^(1/2) C with S = I - (I+P)^(-1) and C = sqrt(I+P). All three agree
with each other, which is the uniqueness statement made executable.
Every root is EigResult.sqrt of an eigensolve on the planes (the
spectral route reuses its positivity test's); every inverse is
Gauss-Jordan on the complex image, pulled back before a root is taken.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ckernel
from .qlinalg import (DEFAULT_CLASS_TOL, QMatrix, ShapeMismatch, classify,
                      frobenius_norm, positivity, projector_onto,
                      _classify, _svd_bases)
from .slices import PULLBACK_SQRT_TOL, chi, chi_pullback


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
        """(residual, positive), equal to positivity(abs_t)[:2].

        At full rank it needs no eigensolve. abs_t is the p of fac.polar(),
        so when fac.p_definite holds, the lowest eigenvalue of chi(abs_t)
        is above zero, and positivity's residual is the self-adjoint
        residual alone. Otherwise, or when that residual exceeds
        DEFAULT_CLASS_TOL (the flag then reads sigma_max of |T|), this is
        positivity(abs_t) itself.
        """
        if self.fac.p_definite:
            sa = frobenius_norm(self.abs_t - self.abs_t.adjoint())
            if sa <= DEFAULT_CLASS_TOL:
                return sa, True
        return positivity(self.abs_t)[:2]


# positivity tolerance of the square-root routes
SQRT_TOL = 1e-8


def _require_positive(p: QMatrix) -> ckernel.Factorization:
    """Raise NotPositive unless classify(p, SQRT_TOL) would find p positive.

    Returns the factorization of p, whose eig (of p's Hermitian part) is
    then computed.
    """
    residual, positive, fac = positivity(p, SQRT_TOL)
    if not positive:
        raise NotPositive(
            f"positivity residual {residual:.3e} above tolerance")
    return fac


def _root(h: QMatrix) -> QMatrix:
    """ckernel.psd_sqrt of the self-adjoint h, on its planes."""
    return QMatrix(*ckernel.psd_sqrt(h.a1, h.a2))


def _inverse(h: QMatrix) -> QMatrix:
    """Inverse of the self-adjoint part of h, made exactly self-adjoint.

    Gauss-Jordan runs on the complex image, apart from the Jacobi kernel,
    and the inverse is pulled back to planes.
    """
    g = chi_pullback(ckernel.gauss_inv(chi(0.5 * (h + h.adjoint()))),
                     PULLBACK_SQRT_TOL)
    return 0.5 * (g + g.adjoint())


def sqrt_positive_spectral(p: QMatrix) -> QMatrix:
    """Positive square root of p's Hermitian part, from the one
    eigendecomposition of its planes that the positivity test solved."""
    return QMatrix(*_require_positive(p).eig.sqrt())


def sqrt_positive_composite(p: QMatrix) -> QMatrix:
    """Positive square root as S^(1/2) C with S = I - (I+P)^(-1), C = sqrt(I+P).

    I + P is strictly positive (bounded below by 1), so C comes from the
    strictly-positive route: invert, take the bounded square root, invert
    back. Agrees with the spectral route, which is the uniqueness of the
    positive square root in executable form.
    """
    _require_positive(p)
    eye = QMatrix.identity(p.shape[0])
    k_inv = _inverse(eye + p)
    s_half = _root(eye - k_inv)
    # strictly-positive route for C = sqrt(I + P)
    c = _inverse(_root(k_inv))
    out = s_half @ c
    return 0.5 * (out + out.adjoint())


def sqrt_strictly_positive(p: QMatrix, lambda_min: float) -> QMatrix:
    """Square root of a strictly positive operator via its inverse.

    Requires an explicit lower bound lambda_min > 0 on the spectrum of p;
    raises NotStrictlyPositive when the computed minimum eigenvalue falls
    short.
    """
    if lambda_min <= 0.0:
        raise ValueError("lambda_min must be positive")
    fac = _require_positive(p)
    if fac.lam_min < lambda_min:
        raise NotStrictlyPositive(
            f"minimum eigenvalue {fac.lam_min:.3e} below {lambda_min:.3e}")
    return _inverse(_root(_inverse(p)))


def modulus(t: QMatrix) -> QMatrix:
    """The modulus |T|, the unique positive square root of T* T."""
    return polar_decompose(t).abs_t


def polar_decompose(t: QMatrix) -> PolarFactors:
    """Polar decomposition T = U0 |T| with N(U0) = N(T).

    Read from the quaternion SVD of T (ckernel.Factorization.polar); its
    rank cut, RANK_TOL relative to 2n s[0], decides the null and corange
    dimensions. Raises ckernel.NoConvergence if the SVD does not converge.
    """
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatch("polar decomposition needs a square operator")
    fac = ckernel.Factorization(t.a1, t.a2)
    u0, p = fac.polar(fac.rank)
    null_rank = t.shape[0] - fac.rank
    return PolarFactors(u0=QMatrix(*u0), abs_t=QMatrix(*p),
                        null_rank=null_rank, unique=null_rank == 0, fac=fac)


def unitary_extension(t: QMatrix, f: PolarFactors) -> QMatrix:
    """Extend U0 of a normal operator to a unitary W with W |T| = T.

    W acts as U0 on the range of |T| and as the identity on N(T). f must
    be polar_decompose(t).
    """
    if not _classify(t, f.fac, DEFAULT_CLASS_TOL).normal:
        raise NotNormal("unitary extension needs a normal operator")
    null_basis = _svd_bases(f.fac, f.null_rank)[0]
    if not null_basis:
        return f.u0.copy()
    return f.u0 + projector_onto(null_basis)


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
    null_basis, range_basis, _ = _svd_bases(f.fac, f.null_rank)
    p_null = projector_onto(null_basis)
    off_initial = (v - v @ p_null).frobenius_norm()
    if off_initial > DEFAULT_CLASS_TOL * scale:
        raise BadPerturbation(
            f"initial space leaks outside N(T) by {off_initial:.3e}")
    if range_basis:
        p_range = projector_onto(range_basis)
        into_range = (p_range @ v).frobenius_norm()
        if into_range > DEFAULT_CLASS_TOL * scale:
            raise BadPerturbation(
                f"final space leaks into R(T) by {into_range:.3e}")
    return f.u0 + v @ p_null


def canonical_perturbation(f: PolarFactors) -> QMatrix:
    """Deterministic nonzero V for a non-unique decomposition.

    Maps the k-th basis vector of N(T) to the k-th basis vector of
    R(T)-perp, both read from f = polar_decompose(T). Returns the zero
    matrix when the decomposition is unique.
    """
    null_basis, _, corange_basis = _svd_bases(f.fac, f.null_rank)
    k = min(len(null_basis), len(corange_basis))
    if k == 0:
        return QMatrix.zeros(f.u0.shape[0])
    return (QMatrix.from_columns(corange_basis[:k])
            @ QMatrix.from_columns(null_basis[:k]).adjoint())
