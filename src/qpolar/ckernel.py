"""Self-contained numerical engine on complex matrices and quaternion planes.

Everything quaternionic in this library is ultimately computed here: one
one-sided Jacobi iteration (_jacobi) that works on the complex planes
(A1, A2) of A = A1 + A2 j with quaternion-structured rotations (a complex
matrix is the planes (M, 0)). It serves the SVD, the polar factors built
from it (Factorization.polar), the Hermitian eigensolver (through the
shift H + ||H||_F I) and the PSD square root. householder builds every
orthonormal basis, and the Gauss-Jordan inverse is the one complex routine.
All routines are deterministic: fixed sweep order, no data-dependent
threading, stable tie-breaking.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

MAX_SWEEPS = 30
# a Jacobi SVD rotates a column pair whose inner product exceeds ORTH_TOL
# times sqrt(rows) times the product of their norms, and stops when no
# pair exceeds twice that; the rounding of such an inner product is about
# eps sqrt(rows)
ORTH_TOL = 2 * np.finfo(float).eps
# singular values below RANK_TOL * sigma_max * dim are treated as zero
RANK_TOL = 1e-10
# negative eigenvalues within CLAMP_TOL * max(1, ||H||) are clamped to zero
CLAMP_TOL = 1e-10
# hermitian_eig refuses H with ||H - H*|| above HERMITIAN_TOL * max(1, ||H||)
HERMITIAN_TOL = 1e-12
# gauss_inv refuses a pivot of _prescale(m) at or below PIVOT_TOL
PIVOT_TOL = 1e-13


class NotHermitian(ValueError):
    pass


class NegativeEigenvalue(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


class NonFiniteInput(ValueError):
    """A NaN or infinite entry, a singular value or eigenvalue beyond the
    largest double, or a class residual that overflows to NaN."""


class NoConvergence(RuntimeError):
    """_jacobi still had a pair to rotate after MAX_SWEEPS sweeps."""


@dataclass
class EigResult:
    """Eigenvalues (real, descending) and the unitary matrix of eigenvectors,
    as planes (2, n, n) for a quaternion matrix."""

    values: np.ndarray
    vectors: np.ndarray

    def sqrt(self):
        """V diag(sqrt(values)) V*, exactly self-adjoint, in the form of
        vectors. Values in [-CLAMP_TOL * max(1, ||H||), 0) are clamped to
        zero; anything more negative raises NegativeEigenvalue."""
        lo, hi = ((self.values[-1], abs(self.values[0])) if self.values.size
                  else (0.0, 0.0))
        if lo < -CLAMP_TOL * max(1.0, hi):
            raise NegativeEigenvalue(
                f"minimum eigenvalue {lo:.3e} below clamping window")
        complex_ = self.vectors.ndim == 2
        v = _as_planes(self.vectors) if complex_ else self.vectors
        r = _qmul(v * np.sqrt(np.clip(self.values, 0.0, None)), _qadj(v))
        r = 0.5 * (r + _qadj(r))
        return r[0] if complex_ else r


def frobenius(m) -> float:
    """Frobenius norm; rescaled_norm if the sum of squares of the finite,
    nonzero entries underflows to 0 or overflows."""
    a = np.asarray(m).ravel()
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    return (rescaled_norm(a) if norm in (0.0, np.inf) and a.any()
            and np.isfinite(a).all() else norm)


def rescaled_norm(a) -> float:
    """Frobenius norm of the finite array a, taken on _prescale(a) so that
    no square underflows or overflows."""
    b, e = _prescale(a)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(b.ravel()), e))


def _prescale(a):
    """(2**-e a, e), e the binary exponent of the largest real or imaginary
    part of an entry, which the exact scaling brings into [0.5, 1).

    Raises NonFiniteInput on a NaN or infinite entry.
    """
    parts = np.ascontiguousarray(a, dtype=complex).view(float)
    big = float(np.max(np.abs(parts), initial=0.0))
    if not np.isfinite(big):
        raise NonFiniteInput("matrix has a NaN or infinite entry")
    e = int(np.frexp(big)[1])
    return np.ldexp(parts, -e).view(complex), e


def _as_square(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_planes(m, m2=None) -> np.ndarray:
    """Planes (2, rows, cols) of the complex matrix m, or of m + m2 j."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m, np.zeros_like(m) if m2 is None else m2])


@functools.cache
def _rotation_rounds(n: int) -> np.ndarray:
    """Round-robin schedule of disjoint index pairs covering all (p, q).

    Returns an (R, n // 2, 2) array: round i holds the pairs (p, q), p < q.
    One sweep applies every pair exactly once; pairs within a round are
    disjoint, so their rotations commute and combine into one unitary.
    The schedule is a fixed function of n (circle method), which keeps
    the sweep order deterministic; for odd n each round leaves out the
    column paired with the phantom player n.
    """
    m = n + (n % 2)
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        rounds.append([sorted((players[i], players[m - 1 - i]))
                       for i in range(m // 2)
                       if players[i] < n and players[m - 1 - i] < n])
        players = [players[0], players[-1]] + players[1:-1]
    return np.array(rounds, dtype=int).reshape(len(rounds), n // 2, 2)


def hermitian_eig(m, m2=None) -> EigResult:
    """Eigenvalues and eigenvectors of a Hermitian H by the Jacobi SVD kernel.

    H is the complex matrix m, or the quaternion matrix m + m2 j given by
    its planes. _jacobi factors B = H + ||H||_F I, which is positive
    semidefinite, so its right singular vectors are eigenvectors of H; the
    eigenvalues are their Rayleigh quotients, in descending order (stable
    sort), each quaternion eigenvalue once. The solve runs on _prescale(H),
    so hermitian_eig(2**k H) is hermitian_eig(H) with values times 2**k,
    bit for bit.

    Returns vectors as a complex unitary for a complex m, planes (2, n, n)
    for a quaternion H. Raises NonFiniteInput if H has a NaN or infinite
    entry or an eigenvalue overflows, NotHermitian if
    ||H - H*|| > HERMITIAN_TOL * max(1, ||H||), and NoConvergence.
    """
    a, e = _prescale(_as_planes(m, m2))
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape[1:]}")
    scale = frobenius(a)
    with np.errstate(over="ignore"):
        unit = np.ldexp(1.0, -e)  # 1 in the units of the scaled matrix
    if frobenius(a - _qadj(a)) > HERMITIAN_TOL * max(unit, scale):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    h = 0.5 * (a + _qadj(a))
    b = h.copy()
    b[0] += frobenius(h) * np.eye(h.shape[1])
    _, v = _jacobi(b)
    values = np.sum((v.conj() * _qmul(h, v)).real, axis=(0, 1))
    order = np.argsort(-values, kind="stable")
    with np.errstate(over="ignore"):
        values = np.ldexp(values[order], e)
    if not np.isfinite(values).all():
        raise NonFiniteInput("an eigenvalue overflows a double")
    v = v[:, :, order]
    return EigResult(values, v[0] if m2 is None else v)


def _qmul(x, y):
    """Product of quaternion matrices held as stacked planes x[0] + x[1] j."""
    return np.stack([x[0] @ y[0] - x[1] @ y[1].conj(),
                     x[0] @ y[1] + x[1] @ y[0].conj()])


def _qadj(x):
    return np.stack([x[0].conj().T, -x[1].T])


def svd(m, m2=None):
    """Singular value decomposition A = u diag(s) v* by one-sided Jacobi.

    A is the complex matrix m, or the quaternion matrix m + m2 j given by
    its planes; a complex m is the planes (m, 0), whose j-plane no rotation
    touches. Jacobi runs on _prescale(A), so svd(2**k A) is svd(A) with s
    times 2**k, bit for bit; a wide A is factored through its adjoint.
    Past the rank cut (dim the size of the complex image) the left
    singular vectors are the trailing columns of householder(u_r).

    Returns (u, s, v), u and v unitary and s descending: complex arrays
    for a complex m, planes (2, k, k) for a quaternion A, with each of its
    singular values once. Raises NonFiniteInput and NoConvergence.
    """
    a, e = _prescale(_as_planes(m, m2))
    if a.ndim != 3:
        raise ValueError("expected a 2-d array")
    wide = a.shape[2] > a.shape[1]
    w, v = _jacobi(_qadj(a) if wide else a)
    norm = np.sqrt(np.sum(w.real ** 2 + w.imag ** 2, axis=(0, 1)))
    order = np.argsort(-norm, kind="stable")
    w, v, norm = w[:, :, order], v[:, :, order], norm[order]
    with np.errstate(over="ignore"):
        s = np.ldexp(norm, e)
    if s.size and not np.isfinite(s[0]):
        raise NonFiniteInput("a singular value overflows a double")
    r = rank_from_singular_values(s, (1 if m2 is None else 2) * s.size)
    u = w[:, :, :r] / norm[:r]
    if r < u.shape[1]:
        u = np.concatenate([u, householder(u)[0][:, :, r:]], axis=2)
    u, v = (v, u) if wide else (u, v)
    return (u[0], s, v[0]) if m2 is None else (u, s, v)


def _jacobi(a):
    """(w, v), planes with w = a v, v unitary and w's columns orthogonal.

    For rows >= cols. A round of _rotation_rounds takes its disjoint pairs
    together: with gamma = <a_p, a_q>, column q times conj(gamma) / |gamma|
    makes gamma real, and a real Jacobi rotation makes it zero. x[k] holds
    column k of a over column k of v. Pairs of columns both below RANK_TOL
    times the largest, which hold singular values below the rank cut, are
    left alone. A sweep runs only while the Gram matrix finds a pair to
    rotate. Each pair's 4 x 4 complex map is written into one buffer.
    """
    rows, cols = a.shape[1:]
    x = np.zeros((cols, 2, rows + cols), dtype=complex)
    x[:, :, :rows] = a.transpose(2, 0, 1)
    x[:, 0, rows:] = np.eye(cols)
    tol = ORTH_TOL * np.sqrt(rows)
    rounds = _rotation_rounds(cols)
    maps = np.empty((rounds.shape[1], 4, 4), dtype=complex)
    r = np.empty((rounds.shape[1], 2, 2), dtype=complex)
    eye = np.eye(2)
    for sweep in range(MAX_SWEEPS + 1):
        c = x[:, :, :rows].transpose(1, 2, 0)
        g = _qmul(_qadj(c), c)  # alpha and beta of every pair
        norm = np.sqrt(np.diagonal(g[0]).real)
        big = norm > RANK_TOL * np.max(norm, initial=0.0)
        act = (np.hypot(np.abs(g[0]), np.abs(g[1]))
               > 2.0 * np.maximum(tol * np.outer(norm, norm), _TINY))
        act &= np.logical_or.outer(big, big) & ~np.eye(cols, dtype=bool)
        if not act.any():
            break
        if sweep == MAX_SWEEPS:
            raise NoConvergence(
                f"Jacobi iteration did not converge in {sweep} sweeps")
        # pairs with a column above the rank cut, one row per round
        live = big[rounds[..., 0]] | big[rounds[..., 1]]
        for pq, pair_live in zip(rounds, live):
            z = x[pq].reshape(len(pq), 4, -1)
            # h[i, j] = <z_i, z_j> over the rows (p1, p2, q1, q2)
            h = z[:, :, :rows].conj() @ z[:, :, :rows].transpose(0, 2, 1)
            alpha = h[:, 0, 2] + h[:, 1, 3].conj()
            beta = h[:, 0, 3] - h[:, 2, 1]
            npp = (h[:, 0, 0] + h[:, 1, 1]).real
            nqq = (h[:, 2, 2] + h[:, 3, 3]).real
            mag = np.hypot(np.abs(alpha), np.abs(beta))
            on = ((mag > np.maximum(tol * np.sqrt(npp) * np.sqrt(nqq), _TINY))
                  & pair_live)
            if not on.all():
                if not on.any():
                    continue
                pq, z, mag = pq[on], z[on], mag[on]
                alpha, beta, npp, nqq = alpha[on], beta[on], npp[on], nqq[on]
            d = nqq - npp
            # t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2)), zeta = d / (2 mag)
            t = (np.where(d >= 0.0, 2.0, -2.0) * mag
                 / (np.abs(d) + np.hypot(2.0 * mag, d)))
            cs = (1.0 / np.sqrt(1.0 + t * t))[:, None, None]
            sn = t[:, None, None] * cs
            # rk maps planes x to those of x mu: (x1 mu1 - x2 conj(mu2),
            # x1 mu2 + x2 conj(mu1)); then (x_p, x_q mu) is rotated by
            # m = [[cs I, -sn rk], [sn I, cs rk]]
            k = len(pq)
            mu1, mu2 = alpha.conj() / mag, -beta / mag
            rk, m = r[:k], maps[:k]
            rk[:, 0, 0], rk[:, 0, 1] = mu1, -mu2.conj()
            rk[:, 1, 0], rk[:, 1, 1] = mu2, mu1.conj()
            m[:, :2, :2] = cs * eye
            m[:, 2:, :2] = sn * eye
            m[:, :2, 2:] = -sn * rk
            m[:, 2:, 2:] = cs * rk
            x[pq] = (m @ z).reshape(k, 2, 2, -1)
    return x[:, :, :rows].transpose(1, 2, 0), x[:, :, rows:].transpose(1, 2, 0)


# pairs with a smaller inner product are left alone: products of entries
# lose precision there, and no singular value moves by 1e-250 of s[0]
_TINY = 2.0 ** -900


def householder(a):
    """(q, k_kept): the n x n unitary q, as planes, whose first k_kept
    columns are an orthonormal basis of the span of the columns of the
    planes a (2, n, k), in order, and whose other columns complete it.

    Householder QR of [_prescale(a), I] (Bunse-Gerstner, Byers and
    Mehrmann, 1989). A column's part x orthogonal to the columns kept
    before it is skipped if ||x|| <= RANK_TOL times the column's norm;
    otherwise u = x + e1 mu ||x||, mu = x1 / |x1| (1 if x1 = 0), makes u* x
    real, and B - u ((2 / ||u||**2) (u* B)), with u normalized, maps x to
    -e1 mu ||x|| in the shrinking block of later columns and of I (q*).
    """
    a, _ = _prescale(a)
    n, k = a.shape[1:]
    x = np.concatenate([a, _as_planes(np.eye(n))], axis=2)
    kept = 0
    for c in range(k):
        col = x[:, kept:, c:c + 1]
        norm = frobenius(col)
        if norm <= RANK_TOL * frobenius(a[:, :, c]):
            continue
        mag = np.hypot(abs(col[0, 0, 0]), abs(col[1, 0, 0]))
        u = col / norm
        u[:, 0, 0] += col[:, 0, 0] / mag if mag else (1.0, 0.0)
        u /= np.sqrt(2.0 * (1.0 + mag / norm))
        blk = x[:, kept:, c + 1:]
        blk -= _qmul(u, 2.0 * _qmul(_qadj(u), blk))
        kept += 1
    return _qadj(x[:, :, k:]), kept


def rank_from_singular_values(s, dim: int) -> int:
    s = np.asarray(s)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0] * dim))


def psd_sqrt(m, m2=None):
    """Positive semidefinite square root of a Hermitian H, given as for
    hermitian_eig, in the same form: hermitian_eig(m, m2).sqrt()."""
    return hermitian_eig(m, m2).sqrt()


def gauss_inv(m):
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting.

    Kept separate from the eigensolver so iterative cross-checks built on
    it do not share a code path with the spectral routines. It runs on
    _prescale(m), so gauss_inv(2**k A) is 2**-k gauss_inv(A) where exact.
    """
    a, e = _prescale(_as_square(m))
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n, dtype=complex)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) <= PIVOT_TOL:
            raise SingularMatrix(f"pivot {abs(aug[piv, col]):.3e} too small")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] / aug[col, col]
        for r in range(n):
            if r != col and aug[r, col] != 0.0:
                aug[r] = aug[r] - aug[r, col] * aug[col]
    return np.ldexp(aug[:, n:].view(float), -e).view(complex)


class Factorization:
    """Factors of a complex matrix m, or of the quaternion matrix m + m2 j.

    Each is computed on first use and kept: (u, s, v) = svd(m, m2), planes
    for a quaternion matrix, and eig, the hermitian_eig of its Hermitian
    part, solved on the planes, which lam_min and a square root read.
    """

    def __init__(self, m, m2=None):
        self.planes, self.quaternion = (m, m2), m2 is not None

    @functools.cached_property
    def _svd(self):
        return svd(*self.planes)

    u = property(lambda self: self._svd[0])
    s = property(lambda self: self._svd[1])
    v = property(lambda self: self._svd[2])
    sigma_max = property(lambda self: self.s[0] if self.s.size else 0.0)
    # the rank cut of the complex image, which has each s twice if quaternion
    rank = property(lambda self: rank_from_singular_values(
        self.s, (2 if self.quaternion else 1) * self.s.size))

    @functools.cached_property
    def eig(self) -> EigResult:
        x = _as_planes(*self.planes)
        h = 0.5 * (x + _qadj(x))
        return hermitian_eig(h[0], h[1] if self.quaternion else None)

    @property
    def lam_min(self) -> float:
        values = self.eig.values
        return values[-1] if values.size else 0.0

    def polar(self, rank: int):
        """Polar factors u0 = u_r v_r* and p = v diag(s) v* of a quaternion
        matrix, as planes, p exactly self-adjoint and u0 of the given rank."""
        u, v = self.u, self.v
        u0 = _qmul(u[:, :, :rank], _qadj(v[:, :, :rank]))
        p = _qmul(v * self.s, _qadj(v))
        return u0, 0.5 * (p + _qadj(p))

    @property
    def p_definite(self) -> bool:
        """Whether the p of polar(), V diag(s) V*, is positive definite.

        When every s is above the rank cut, Weyl's theorem puts the lowest
        eigenvalue of p, and of any O(dim eps s[0]) perturbation of it such
        as its rounding or a Jacobi solve for it, above zero: the cut
        exceeds that perturbation more than 1e3-fold.
        """
        return self.rank == self.s.size


# what class_residuals needs from a matrix algebra: adjoint, Frobenius
# norm, identity(n), rank(fac) from the factorization of the operator,
# and coimage(fac, rank), an orthonormal basis of N(a)-perp from it
Algebra = namedtuple("Algebra", "adjoint norm identity rank coimage")


COMPLEX = Algebra(adjoint=lambda a: a.conj().T, norm=frobenius,
                  identity=lambda n: np.eye(n, dtype=complex),
                  rank=lambda fac: fac.rank,
                  coimage=lambda fac, rank: fac.v.T[:rank])


def positivity(sa: float, fac: Factorization, tol: float):
    """(residual, flag) of positivity for an operator with self-adjoint residual sa.

    fac factors the operator. The residual is sa, or max(sa, -lam_min)
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


# the default tolerance of every class verdict, quaternion and complex
DEFAULT_CLASS_TOL = 1e-9


def class_residuals(a, fac: Factorization, alg: Algebra, tol: float):
    """Structural class residuals of a square operator a in algebra alg.

    fac factors a: the planes of a quaternion matrix, or a complex one.
    Returns (residuals, flags, rank, sigma_max), each flag meaning a
    residual within tol * max(1, sigma_max). A residual beyond the largest
    double is inf; one that overflows to NaN (inf - inf when a* a and a a*
    overflow) raises NonFiniteInput.
    """
    smax, rank = fac.sigma_max, alg.rank(fac)  # the SVD rejects NaN and inf
    with np.errstate(over="ignore", invalid="ignore"):
        astar = alg.adjoint(a)
        g = astar @ a
        gg = a @ astar
        eye = alg.identity(a.shape[0])
        # the norms each residual is the largest of
        parts = {
            "self_adjoint": [alg.norm(a - astar)],
            "anti_self_adjoint": [alg.norm(a + astar)],
            "normal": [alg.norm(g - gg)],
            "unitary": [alg.norm(g - eye), alg.norm(gg - eye)],
            "projection": [alg.norm(a @ a - a), alg.norm(a - astar)],
            # a* a is an orthogonal projection, and a preserves norms on
            # the orthogonal complement of its null space
            "partial_isometry": [alg.norm(g @ g - g),
                                 alg.norm(g - alg.adjoint(g))]
            + [abs(alg.norm(a @ w) - 1.0) for w in alg.coimage(fac, rank)],
        }
    if np.isnan(sum(parts.values(), [])).any():
        raise NonFiniteInput("a class residual overflows a double")
    res = {name: max(vals) for name, vals in parts.items()}
    res["positive"], _ = positivity(res["self_adjoint"], fac, tol)
    thresh = tol * max(1.0, smax)
    flags = {name: bool(val <= thresh) for name, val in res.items()}
    if flags["unitary"]:
        flags["normal"] = True
    return res, flags, rank, smax


def classify_cmatrix(m, tol: float = DEFAULT_CLASS_TOL) -> dict:
    """Structural class residuals of a complex square matrix.

    Returns a dict of residual magnitudes keyed by class name, plus the
    derived boolean flags under `tol * max(1, sigma_max)`. Used to compare
    a quaternionic operator with its complex block image.
    """
    a = _as_square(m)
    res, flags, rank, smax = class_residuals(a, Factorization(a), COMPLEX, tol)
    return {"residuals": res, "flags": flags, "rank": rank, "sigma_max": smax}
