"""Self-contained complex-matrix numerical engine.

Everything quaternionic in this library is ultimately computed here:
a cyclic Jacobi eigensolver for Hermitian matrices, an SVD built from it,
the PSD square root, the Moore-Penrose pseudoinverse, and the classical
complex polar decomposition (Factorization.polar). All routines are
deterministic: fixed sweep order, no data-dependent threading, stable
tie-breaking.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

MAX_SWEEPS = 30
# off-diagonal Frobenius mass below this (relative) counts as diagonal
OFFDIAG_STOP = 1e-14
# singular values below RANK_TOL * sigma_max * dim are treated as zero
RANK_TOL = 1e-10
# negative eigenvalues within CLAMP_TOL * ||M|| are clamped to zero
CLAMP_TOL = 1e-10


class NotHermitian(ValueError):
    pass


class NegativeEigenvalue(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


class NonFiniteInput(ValueError):
    """A NaN or infinite entry, or a norm that overflows a double.

    For a finite operator this means overflow: with entries above about
    1e75, the norm of its Gram matrix exceeds the largest double.
    """


@dataclass
class EigResult:
    """Eigenvalues (real, descending) and the unitary matrix of eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def frobenius(m) -> float:
    """Frobenius norm; rescaled by the largest |entry| if the squares underflow."""
    a = np.asarray(m).ravel()
    norm = float(np.linalg.norm(a))
    if norm == 0.0 and a.size:
        big = float(np.max(np.abs(a)))
        if big > 0.0:
            norm = rescaled_norm(big, a)
    return norm


def rescaled_norm(big: float, *parts) -> float:
    """Frobenius norm of the arrays parts, whose largest |entry| is big.

    For 0 < big < inf. The real and imaginary parts are scaled by the
    exact power of two 2**-e, e the binary exponent of big, so no square
    underflows or overflows; dividing by a subnormal big would overflow.
    """
    e = int(np.frexp(big)[1])
    sq = sum(np.sum(np.ldexp(p.real, -e) ** 2 + np.ldexp(p.imag, -e) ** 2)
             for p in parts)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.sqrt(sq), e))


def _as_square(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _offdiag_mass(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return frobenius(off)


def _rotation_rounds(n: int):
    """Round-robin schedule of disjoint index pairs covering all (p, q).

    One sweep applies every pair exactly once; pairs within a round are
    disjoint, so their rotations commute and combine into one unitary.
    The schedule is a fixed function of n (circle method), which keeps
    the sweep order deterministic.
    """
    rounds = _ROUNDS_CACHE.get(n)
    if rounds is not None:
        return rounds
    m = n + (n % 2)
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [(min(players[i], players[m - 1 - i]),
                  max(players[i], players[m - 1 - i]))
                 for i in range(m // 2)
                 if players[i] < n and players[m - 1 - i] < n]
        rounds.append((np.array([p for p, _ in pairs], dtype=int),
                       np.array([q for _, q in pairs], dtype=int)))
        players = [players[0], players[-1]] + players[1:-1]
    _ROUNDS_CACHE[n] = rounds
    return rounds


_ROUNDS_CACHE: dict = {}


def hermitian_eig(m, tol: float = 1e-12) -> EigResult:
    """Diagonalize a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps visit every (p, q) pair once in a fixed round-robin order,
    rotating only entries above a small threshold, until the off-diagonal
    Frobenius mass drops below OFFDIAG_STOP relative to the input scale
    or MAX_SWEEPS is reached. Disjoint rotations of one round are applied
    together as a single unitary. Eigenvalues are returned in descending
    order (stable sort, so equal values keep the sweep output order).

    Raises NonFiniteInput if M has a NaN or infinite entry or its
    Frobenius norm overflows, and NotHermitian if
    ||M - M*|| > tol * max(1, ||M||).
    """
    a = _as_square(m)
    n = a.shape[0]
    scale = frobenius(a)
    if not np.isfinite(scale):
        raise NonFiniteInput(
            "matrix has a NaN or infinite entry, or its norm overflows")
    if frobenius(a - a.conj().T) > tol * max(1.0, scale):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    a = 0.5 * (a + a.conj().T)
    v = np.eye(n, dtype=complex)
    if n > 1 and scale > 0.0:
        skip = OFFDIAG_STOP * scale / (n * n)
        rounds = _rotation_rounds(n)
        for _ in range(MAX_SWEEPS):
            if _offdiag_mass(a) <= OFFDIAG_STOP * scale:
                break
            for p_all, q_all in rounds:
                apq = a[p_all, q_all]
                act = np.abs(apq) > skip
                if not act.any():
                    continue
                p, q, apq = p_all[act], q_all[act], apq[act]
                mag = np.abs(apq)
                phase = apq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = np.where(tau >= 0.0, 1.0, -1.0) \
                    / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # per pair: G[p,p] = c, G[p,q] = s*phase,
                #           G[q,p] = -s*conj(phase), G[q,q] = c
                g = np.eye(n, dtype=complex)
                g[p, p] = c
                g[p, q] = s * phase
                g[q, p] = -s * np.conj(phase)
                g[q, q] = c
                a = g.conj().T @ a @ g
                v = v @ g
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
    values = np.diag(a).real.copy()
    order = np.argsort(-values, kind="stable")
    return EigResult(values[order], v[:, order])


def svd(m, tol: float = RANK_TOL):
    """Singular value decomposition m = u @ diag(s) @ v.conj().T.

    Built from the Jacobi eigendecomposition of m* m. Eigenvalues of the
    Gram matrix cannot resolve singular values below about sqrt(eps) of
    the largest, which would swamp the rank cut, so the trailing cluster
    is refined one level: re-diagonalize the Gram matrix of m restricted
    to that cluster's right subspace. Left singular vectors are formed as
    m v / sigma for the numerically nonzero sigma, re-orthonormalized,
    and completed to a full unitary basis by standard basis vectors,
    each step taking the one with the largest residual against the span
    so far (deterministic).

    Returns (u, s, v) with u, v square unitary and s descending,
    len(s) = min(m.shape). Raises NonFiniteInput if m has a NaN or
    infinite entry, or if m* m or its norm overflows.
    """
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    rows, cols = a.shape
    g = a.conj().T @ a
    eig = hermitian_eig(g, tol=1e-8)
    s_full = np.sqrt(np.clip(eig.values, 0.0, None))
    v = eig.vectors
    smax = s_full[0] if cols else 0.0
    if smax > 0.0:
        small = np.nonzero(s_full <= 1e-6 * smax)[0]
        if small.size:
            k0 = int(small[0])
            b = a @ v[:, k0:]
            sub = hermitian_eig(b.conj().T @ b, tol=1e-8)
            s_full[k0:] = np.sqrt(np.clip(sub.values, 0.0, None))
            v[:, k0:] = v[:, k0:] @ sub.vectors
    # columns of u from a v / sigma, for sigma clearly above rounding noise
    form_cut = smax * max(rows, cols) * 1e-14
    u_cols = []
    for k in range(min(rows, cols)):
        if s_full[k] <= form_cut:
            break
        u_cols.append(a @ v[:, k] / s_full[k])
    u = _complete_unitary(u_cols, rows)
    s = s_full[:min(rows, cols)]
    return u, s, v


def _complete_unitary(cols, n: int) -> np.ndarray:
    """Orthonormalize `cols` (in order) and extend to an n x n unitary.

    Each completion step takes all n standard basis vectors at once, as
    the columns of the identity, removes their components along the
    current basis in two passes (w - Q (Q* w), twice), and appends the
    column with the largest residual norm (greedy, first index on ties
    within 1e-12), which always succeeds and is deterministic.
    """
    basis = []

    def _orthogonalize(w):
        for _ in range(2):
            for b in basis:
                w = w - b * np.vdot(b, w)
        return w

    for w in cols:
        w = _orthogonalize(w.astype(complex))
        nw = np.linalg.norm(w)
        if nw > 0.0:
            basis.append(w / nw)
    u = np.zeros((n, n), dtype=complex)
    for j, b in enumerate(basis):
        u[:, j] = b
    for j in range(len(basis), n):
        q = u[:, :j]
        w = np.eye(n, dtype=complex)
        for _ in range(2):
            w = w - q @ (q.conj().T @ w)
        norms = np.linalg.norm(w, axis=0)
        best, best_norm = 0, -1.0
        for k in range(n):
            if norms[k] > best_norm + 1e-12:
                best, best_norm = k, norms[k]
        u[:, j] = w[:, best] / best_norm
    return u


def rank_from_singular_values(s, dim: int, tol: float = RANK_TOL) -> int:
    s = np.asarray(s)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0] * dim))


def psd_sqrt(m, tol: float = CLAMP_TOL):
    """Positive semidefinite square root via eigendecomposition.

    Eigenvalues in [-tol * ||M||, 0) are clamped to zero; anything more
    negative raises NegativeEigenvalue. Raises NotHermitian for a
    non-Hermitian input.
    """
    a = _as_square(m)
    eig = hermitian_eig(a)
    scale = abs(eig.values[0]) if a.shape[0] else 0.0
    lo = eig.values[-1] if a.shape[0] else 0.0
    if lo < -tol * max(1.0, scale):
        raise NegativeEigenvalue(
            f"minimum eigenvalue {lo:.3e} below clamping window")
    vals = np.clip(eig.values, 0.0, None)
    v = eig.vectors
    r = (v * np.sqrt(vals)) @ v.conj().T
    return 0.5 * (r + r.conj().T)


def pinv(m, tol: float = RANK_TOL):
    """Moore-Penrose pseudoinverse with rank cut tol * sigma_max * dim."""
    a = np.array(m, dtype=complex)
    u, s, v = svd(a)
    dim = max(a.shape)
    cut = (s[0] * tol * dim) if s.size else 0.0
    inv_s = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    r = min(a.shape)
    return (v[:, :r] * inv_s) @ u[:, :r].conj().T


def gauss_inv(m, tol: float = 1e-13):
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting.

    Kept separate from the eigensolver so iterative cross-checks built on
    it do not share a code path with the spectral routines.
    """
    a = _as_square(m)
    n = a.shape[0]
    scale = max(np.max(np.abs(a)), 0.0) if n else 0.0
    aug = np.hstack([a, np.eye(n, dtype=complex)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) <= tol * max(1.0, scale):
            raise SingularMatrix(f"pivot {abs(aug[piv, col]):.3e} too small")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] / aug[col, col]
        for r in range(n):
            if r != col and aug[r, col] != 0.0:
                aug[r] = aug[r] - aug[r, col] * aug[col]
    return aug[:, n:]


def denman_beavers_sqrt(m, tol: float = 1e-13, max_iter: int = 100):
    """Square root of a positive definite matrix by coupled Newton iteration.

    Independent of the eigendecomposition route (uses only Gauss-Jordan
    inverses), which makes it a usable cross-check for psd_sqrt.
    """
    a = _as_square(m)
    y = a.copy()
    z = np.eye(a.shape[0], dtype=complex)
    scale = max(frobenius(a), 1.0)
    for _ in range(max_iter):
        y_next = 0.5 * (y + gauss_inv(z))
        z_next = 0.5 * (z + gauss_inv(y))
        delta = frobenius(y_next - y)
        y, z = y_next, z_next
        if delta <= tol * scale:
            break
    return 0.5 * (y + y.conj().T)


class Factorization:
    """Factors of a square complex matrix m, each computed on first use and kept.

    The SVD (u, s, v) is taken on the first read of u, s, v or sigma_max,
    so building a Factorization costs nothing. lam_min, the smallest
    eigenvalue of the Hermitian part of m, is a separate eigensolve.
    """

    def __init__(self, m):
        self.m = m

    @functools.cached_property
    def _svd(self):
        return svd(self.m)

    u = property(lambda self: self._svd[0])
    s = property(lambda self: self._svd[1])
    v = property(lambda self: self._svd[2])

    @property
    def sigma_max(self) -> float:
        return self.s[0] if self.s.size else 0.0

    @functools.cached_property
    def lam_min(self) -> float:
        values = hermitian_eig(0.5 * (self.m + self.m.conj().T)).values
        return values[-1] if values.size else 0.0

    def polar(self, rank: int):
        """Polar factors (u0, p) of m, with u0 of the given rank."""
        u0 = self.u[:, :rank] @ self.v[:, :rank].conj().T
        p = (self.v * self.s) @ self.v.conj().T
        return u0, 0.5 * (p + p.conj().T)

    @property
    def p_definite(self) -> bool:
        """Whether the p of polar() is positive definite beyond rounding.

        p is V diag(s) V* from this SVD. When every s is above the rank
        cut, s[-1] > RANK_TOL * dim * s[0], Weyl's theorem puts the lowest
        eigenvalue of p (and of any O(dim eps s[0]) perturbation of it,
        such as its rounding or a Jacobi solve for it) at s[-1] less that
        perturbation, so above zero: the cut exceeds it more than 1e3-fold.
        """
        return rank_from_singular_values(self.s, self.s.size) == self.s.size


# what class_residuals needs from a matrix algebra: adjoint, Frobenius
# norm, identity(n), rank(s) from the singular values of the complex image,
# and coimage(v, rank), an orthonormal basis of N(a)-perp built from its
# right singular vectors
Algebra = namedtuple("Algebra", "adjoint norm identity rank coimage")


COMPLEX = Algebra(adjoint=lambda a: a.conj().T, norm=frobenius,
                  identity=lambda n: np.eye(n, dtype=complex),
                  rank=lambda s: rank_from_singular_values(s, s.size),
                  coimage=lambda v, rank: v.T[:rank])


def positivity(sa: float, fac: Factorization, tol: float):
    """(residual, flag) of positivity for an operator with self-adjoint residual sa.

    fac factors its complex image. The residual is sa, or max(sa, -lam_min)
    when sa is within tol * max(1, sigma_max); the flag is the residual
    within that threshold. sigma_max (and so the SVD) is read only when a
    value exceeds tol, because a value within tol is within
    tol * max(1, sigma_max) too.
    """
    def within(x):
        return x <= tol or x <= tol * max(1.0, fac.sigma_max)

    if not within(sa):
        return sa, False
    res = max(sa, max(0.0, -fac.lam_min))
    return res, within(res)


def class_residuals(a, fac: Factorization, alg: Algebra, tol: float):
    """Structural class residuals of a square operator a in algebra alg.

    fac factors the complex image of a (a itself for a complex matrix).
    Returns (residuals, flags, rank, sigma_max), each flag meaning a
    residual within tol * max(1, sigma_max).
    """
    astar = alg.adjoint(a)
    g = astar @ a
    gg = a @ astar
    eye = alg.identity(a.shape[0])
    smax = fac.sigma_max
    res = {
        "self_adjoint": alg.norm(a - astar),
        "anti_self_adjoint": alg.norm(a + astar),
        "normal": alg.norm(g - gg),
        "unitary": max(alg.norm(g - eye), alg.norm(gg - eye)),
        "projection": max(alg.norm(a @ a - a), alg.norm(a - astar)),
    }
    thresh = tol * max(1.0, smax)
    res["positive"], _ = positivity(res["self_adjoint"], fac, tol)
    # partial isometry: a* a is an orthogonal projection, and a preserves
    # norms on the orthogonal complement of its null space
    pi_alg = max(alg.norm(g @ g - g), alg.norm(g - alg.adjoint(g)))
    rank = alg.rank(fac.s)
    spot = 0.0
    for w in alg.coimage(fac.v, rank):
        spot = max(spot, abs(alg.norm(a @ w) - 1.0))
    res["partial_isometry"] = max(pi_alg, spot)
    flags = {name: bool(val <= thresh) for name, val in res.items()}
    if flags["unitary"]:
        flags["normal"] = True
    return res, flags, rank, smax


def classify_cmatrix(m, tol: float = 1e-10) -> dict:
    """Structural class residuals of a complex square matrix.

    Returns a dict of residual magnitudes keyed by class name, plus the
    derived boolean flags under `tol * max(1, sigma_max)`. Used to compare
    a quaternionic operator with its complex block image.
    """
    a = _as_square(m)
    res, flags, rank, smax = class_residuals(a, Factorization(a), COMPLEX, tol)
    return {"residuals": res, "flags": flags, "rank": rank, "sigma_max": smax}
