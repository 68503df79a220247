"""Self-contained numerical engine on quaternion planes, in and out.

Every factorization takes and returns the planes (2, rows, cols) of
A = A1 + A2 j as QMatrix.p holds them (a complex M is QMatrix(M).p, a
zero j-plane), computed by one one-sided Jacobi iteration (_jacobi) and
one quaternion Householder QR (householder). The SVD, a pivoted QR,
then _jacobi on R*, is an operator's one factorization (Factorization):
the polar factors, the positivity test A = |A| and the root of the
positive part read it, and hermitian_eig is the SVD of H + ||H||_F I.
A Jacobi round computes its rotations in Python floats (_scalar_maps)
if it holds at most SCALAR_PAIRS pairs, else in numpy (_vector_maps),
with the same bits: the scalar engine takes |alpha| and |beta| from one
np.abs call, every other hypot as abs(complex(x, y)), divides by a real
d as numpy divides by d + 0j, and multiplies as numpy's fused complex
product (_fmul). The last two rules are those of numpy's SIMD loops on a
CPU with FMA3 and AVX2 (checked on numpy 2.4.6, x86-64 Xeon); where
numpy's complex multiply is not fused, the engines may differ in the sign
of a zero where a product underflows. Every orthonormal basis is
householder's. Gauss-Jordan is the one complex routine. All routines are
deterministic: fixed pivot and sweep order, no data-dependent threading,
stable ties.
"""

from __future__ import annotations

import functools
import math

import numpy as np

MAX_SWEEPS = 30
# a Jacobi SVD rotates a column pair whose inner product exceeds ORTH_TOL
# times sqrt(rows) times the product of their norms, and stops when no
# pair exceeds twice that; the rounding of such an inner product is about
# eps sqrt(rows)
ORTH_TOL = 2 * np.finfo(float).eps
# singular values below RANK_TOL * sigma_max * dim are zero, and _jacobi and
# householder skip columns below RANK_TOL times the largest: after a QR,
# one-sided Jacobi resolves each to about eps sqrt(rows) sigma_max (Demmel
# and Veselic, 1992; Drmac and Veselic, 2008)
RANK_TOL = 64 * np.finfo(float).eps
# psd_sqrt roots H within CLAMP_TOL * max(1, ||H||) of the PSD cone, the
# distance ||H - |H|||_F / 2: absolute below 1, where inverses round to n eps
CLAMP_TOL = 1e-10
# _hermitian_part refuses H with ||H - H*||_F above HERMITIAN_TOL * ||H||_F,
# so scaling H by a power of two never changes the verdict
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


def frobenius(m) -> float:
    """Frobenius norm of an array, such as planes. If the sum of squares
    of the finite, nonzero entries underflows to 0 or overflows, it is
    taken on _prescale(m), where no square does."""
    a = np.asarray(m).ravel()
    with np.errstate(over="ignore"):
        norm = _norm(a)
        if norm in (0.0, np.inf) and a.any() and np.isfinite(a).all():
            b, e = _prescale(a)
            norm = float(np.ldexp(_norm(b), e))
    return norm


def _norm(a) -> float:
    """What np.linalg.norm computes for the 1-d array a, without its
    generic dispatch: the square root of the dot products of the real and
    imaginary parts with themselves, summed."""
    if a.dtype.kind == "c":
        re, im = a.real, a.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    a = a if a.dtype.kind == "f" else a.astype(float)
    return math.sqrt(a.dot(a))


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


def _as_planes(m) -> np.ndarray:
    """Planes (2, rows, cols) of the complex matrix m: a zero j-plane."""
    m = np.asarray(m, dtype=complex)
    p = np.zeros((2,) + m.shape, dtype=complex)
    p[0] = m
    return p


def _planes(p) -> np.ndarray:
    """p as a complex array, if it holds planes (2, rows, cols)."""
    p = np.asarray(p, dtype=complex)
    if p.ndim != 3 or p.shape[0] != 2:
        raise ValueError(f"expected planes (2, rows, cols), got {p.shape}")
    return p


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


def _hermitian_part(p):
    """Planes 0.5 (H + H*) of the square H with planes p. Raises
    NotHermitian if ||H - H*||_F > HERMITIAN_TOL * ||H||_F."""
    a = _planes(p)
    if a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape[1:]}")
    if frobenius(a - _qadj(a)) > HERMITIAN_TOL * frobenius(a):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return 0.5 * (a + _qadj(a))


def hermitian_eig(p):
    """(values, vectors): eigenvalues and eigenvectors, as planes, of the
    Hermitian H with planes p.

    The right singular vectors of B = h + ||h||_F I, h = _prescale(H),
    which is positive semidefinite, are eigenvectors of H; the eigenvalues
    are their Rayleigh quotients, descending (stable sort), each
    quaternion eigenvalue once, and scale with H bit for bit. Raises
    NonFiniteInput (also if an eigenvalue overflows), NotHermitian and
    NoConvergence.
    """
    h, e = _prescale(_hermitian_part(p))
    b = h.copy()
    b[0] += frobenius(h) * np.eye(h.shape[1])
    v = svd(b)[2]
    values = np.sum((v.conj() * _qmul(h, v)).real, axis=(0, 1))
    order = np.argsort(-values, kind="stable")
    with np.errstate(over="ignore"):
        values = np.ldexp(values[order], e)
    if not np.isfinite(values).all():
        raise NonFiniteInput("an eigenvalue overflows a double")
    return values, v[:, :, order]


def _qmul(x, y):
    """Product of quaternion matrices held as stacked planes x[0] + x[1] j."""
    x0, x1, y0, y1 = x[0], x[1], y[0], y[1]
    a = x0 @ y0
    p = np.empty((2,) + a.shape, dtype=complex)
    np.subtract(a, x1 @ y1.conj(), out=p[0])
    np.add(x0 @ y1, x1 @ y0.conj(), out=p[1])
    return p


def _qadj(x):
    p = np.empty((2,) + x.shape[:0:-1], dtype=x.dtype)
    np.conjugate(x[0].T, out=p[0])
    np.negative(x[1].T, out=p[1])
    return p


def svd(p):
    """Singular value decomposition A = u diag(s) v*: a pivoted QR, then
    one-sided Jacobi (Drmac and Veselic, 2008).

    A is the quaternion matrix with planes p, whose zero j-plane nothing
    writes. It runs on _prescale(A), so svd(2**k A) is svd(A) with s times
    2**k, bit for bit; a wide A is factored through its adjoint. If the
    Gram matrix finds no pair of columns to rotate, u is A's columns
    normalized and v the identity, with no Jacobi call; else
    householder(A, pivot=True) = (Q, R, k), _jacobi(R*) = (W, V_x),
    u = [Q[:, :k] V_x, Q[:, k:]], v = W / s and s is 0 past k. Past the
    rank cut, dim 2 s.size for every A as for its complex image,
    householder completes v (u without a QR).

    Returns (u, s, v), u and v unitary planes and s descending, each
    singular value of A once (twice in its complex image). Raises
    NonFiniteInput and NoConvergence.
    """
    a, e = _prescale(_planes(p))
    wide = a.shape[2] > a.shape[1]
    a = _qadj(a) if wide else a
    qr = _live_columns(_qmul(_qadj(a), a), a.shape[1]) is not None
    if qr:
        q, r_k, k = householder(a, pivot=True)
        w, v = _jacobi(_qadj(r_k))
    else:  # what _jacobi(a) returns when it takes no sweep, in its layout
        # (column by column), so that the norms below sum in the same order
        w = np.ascontiguousarray(a.transpose(2, 0, 1)).transpose(1, 2, 0)
        v = _as_planes(np.eye(a.shape[2]))
    norm = np.sqrt(np.sum(w.real ** 2 + w.imag ** 2, axis=(0, 1)))
    order = np.argsort(-norm, kind="stable")
    w, v, norm = w[:, :, order], v[:, :, order], norm[order]
    with np.errstate(over="ignore"):
        s = np.ldexp(np.append(norm, np.zeros(a.shape[2] - norm.size)), e)
    if s.size and not np.isfinite(s[0]):
        raise NonFiniteInput("a singular value overflows a double")
    r = rank_from_singular_values(s, 2 * s.size)
    b = w[:, :, :r] / norm[:r]
    if r < b.shape[1]:
        b = np.concatenate([b, householder(b)[0][:, :, r:]], axis=2)
    u, v = ((np.concatenate([_qmul(q[:, :, :k], v), q[:, :, k:]], axis=2), b)
            if qr else (b, v))
    return (v, s, u) if wide else (u, s, v)


def _live_columns(g, rows):
    """The columns above RANK_TOL times the largest, from the Gram matrix g
    of rows rows, if _jacobi has a pair of columns to rotate; else None."""
    norm = np.sqrt(g[0].diagonal().real)
    big = norm > RANK_TOL * norm.max(initial=0.0)
    tol = ORTH_TOL * np.sqrt(rows) * np.multiply.outer(norm, norm)
    act = np.hypot(np.abs(g[0]), np.abs(g[1])) > 2.0 * np.maximum(tol, _TINY)
    act &= np.logical_or.outer(big, big)
    np.fill_diagonal(act, False)
    return big if act.any() else None


def _jacobi(a):
    """(w, v), planes with w = a v, v unitary and w's columns orthogonal.

    For rows >= cols. A round of _rotation_rounds takes its disjoint pairs
    together: with gamma = <a_p, a_q>, column q times conj(gamma) / |gamma|
    makes gamma real, and a real Jacobi rotation makes it zero. x[k] holds
    column k of a over column k of v. Pairs of columns both below RANK_TOL
    times the largest, which hold singular values below the rank cut, are
    left alone. A sweep runs only while the Gram matrix finds a pair to
    rotate. A round forms its 4 x 4 Gram blocks in one product and applies
    every pair's 4 x 4 complex map in one product.

    The maps have two engines, chosen per call from the pair count
    cols // 2: _scalar_maps in Python floats if it is at most SCALAR_PAIRS
    (the crossover of the per-call times tabled there), else _vector_maps
    in numpy. They give the same bits, as _scalar_maps keeps numpy's
    rounding: |alpha| and |beta| from one np.abs call, every other hypot
    as abs(complex(x, y)), division by a real d as numpy divides by d + 0j,
    and products as numpy's fused complex product (numpy's FMA3/AVX2
    loops; see the module docstring).
    """
    rows, cols = a.shape[1:]
    x = np.zeros((cols, 2, rows + cols), dtype=complex)
    x[:, :, :rows] = a.transpose(2, 0, 1)
    x[:, 0, rows:] = np.eye(cols)
    tol = float(ORTH_TOL * np.sqrt(rows))
    rounds = _rotation_rounds(cols)
    k = rounds.shape[1]
    scalar = k <= SCALAR_PAIRS
    maps_of = _scalar_maps if scalar else _vector_maps
    bufs = () if scalar else (np.empty((k, 4, 4), dtype=complex),
                              np.empty((k, 2, 2), dtype=complex), np.eye(2))
    for sweep in range(MAX_SWEEPS + 1):
        c = x[:, :, :rows].transpose(1, 2, 0)
        big = _live_columns(_qmul(_qadj(c), c), rows)
        if big is None:
            break
        if sweep == MAX_SWEEPS:
            raise NoConvergence(
                f"Jacobi iteration did not converge in {sweep} sweeps")
        # pairs with a column above the rank cut, one row per round
        live = big[rounds[..., 0]] | big[rounds[..., 1]]
        for pq, pair_live in zip(rounds, live.tolist() if scalar else live):
            z = x.take(pq, 0).reshape(len(pq), 4, -1)
            # h[i, j] = <z_i, z_j> over the rows (p1, p2, q1, q2)
            h = z[:, :, :rows].conj() @ z[:, :, :rows].transpose(0, 2, 1)
            on, m = maps_of(h, pair_live, tol, *bufs)
            if m is None:
                continue
            if on is not None:
                pq, z = pq.take(on, 0), z.take(on, 0)
            x[pq.ravel()] = (m @ z).reshape(-1, 2, rows + cols)
    return x[:, :, :rows].transpose(1, 2, 0), x[:, :, rows:].transpose(1, 2, 0)


# _jacobi computes the maps of a round of at most SCALAR_PAIRS pairs in
# Python floats, where numpy's dispatch on arrays of 4 values or fewer costs
# more than the arithmetic. CPU time of one _jacobi call on R* of a Gaussian
# quaternion matrix of 2 x pairs columns, every round on _scalar_maps over
# every round on _vector_maps: median and quartiles of the ratio over 30
# interleaved repeats (2-vCPU Xeon, numpy 2.4). Up to 6 pairs the third
# quartile is below 1 (also at the odd column counts, 0.93 at 13 columns);
# at 7 it reaches 0.99 (14 columns) and 1.17 (15):
#   pairs   1     2     3     4     5     6     7     8     9
#   median  0.78  0.66  0.73  0.76  0.82  0.90  0.95  1.04  1.10
#   Q1      0.76  0.64  0.68  0.70  0.77  0.86  0.93  0.96  1.04
#   Q3      0.82  0.68  0.76  0.80  0.92  0.91  0.99  1.13  1.18
SCALAR_PAIRS = 6


def _vector_maps(h, live, tol, maps, rk, eye):
    """(on, m) of a round with Gram blocks h (k, 4, 4): m the (j, 4, 4)
    maps of the j pairs that rotate, written into the buffer maps (rk a
    buffer of (k, 2, 2), eye the 2 x 2 identity), on the indices of those
    pairs (None if all k do), and m None if none does.

    A pair rotates if it is live and |gamma| exceeds tol times the product
    of its column norms (and _TINY). Each map is [[cs I, -sn rk], [sn I,
    cs rk]], rk the right multiplication by mu = conj(gamma) / |gamma|.
    """
    alpha = h[:, 0, 2] + h[:, 1, 3].conj()
    beta = h[:, 0, 3] - h[:, 2, 1]
    npp = (h[:, 0, 0] + h[:, 1, 1]).real
    nqq = (h[:, 2, 2] + h[:, 3, 3]).real
    mag = np.hypot(np.abs(alpha), np.abs(beta))
    on = ((mag > np.maximum(tol * np.sqrt(npp) * np.sqrt(nqq), _TINY))
          & live)
    if not on.all():
        if not on.any():
            return None, None
        mag, alpha, beta = mag[on], alpha[on], beta[on]
        npp, nqq = npp[on], nqq[on]
    d = nqq - npp
    # t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2)), zeta = d / (2 mag)
    t = (np.where(d >= 0.0, 2.0, -2.0) * mag
         / (np.abs(d) + np.hypot(2.0 * mag, d)))
    cs = (1.0 / np.sqrt(1.0 + t * t))[:, None, None]
    sn = t[:, None, None] * cs
    # rk maps planes x to those of x mu: (x1 mu1 - x2 conj(mu2),
    # x1 mu2 + x2 conj(mu1)); then (x_p, x_q mu) is rotated by
    # m = [[cs I, -sn rk], [sn I, cs rk]]
    k = len(mag)
    mu1, mu2 = alpha.conj() / mag, -beta / mag
    rk, m = rk[:k], maps[:k]
    rk[:, 0, 0], rk[:, 0, 1] = mu1, -mu2.conj()
    rk[:, 1, 0], rk[:, 1, 1] = mu2, mu1.conj()
    m[:, :2, :2] = cs * eye
    m[:, 2:, :2] = sn * eye
    m[:, :2, 2:] = -sn * rk
    m[:, 2:, 2:] = cs * rk
    return (None if k == len(h) else np.flatnonzero(on)), m


def _scalar_maps(h, live, tol):
    """What _vector_maps returns, in Python floats, bit for bit; live is a
    list of bools. numpy's rounding is kept by four rules: |alpha| and
    |beta| come from one np.abs call on the round's values (numpy's complex
    absolute, not libm's hypot); every other hypot is abs(complex(x, y)),
    libm's hypot as np.hypot; z / d is (re + im 0.0, im - re 0.0) times
    1.0 / d, as numpy divides by d + 0j; and complex(f, 0.0) times a map
    entry is _fmul, each part one fused multiply-add, as numpy multiplies.
    """
    # g[i][4 r + c] = h[i, r, c]
    g = h.reshape(len(h), 16).tolist()
    ab = []
    for hb in g:
        ab += (hb[2] + hb[7].conjugate(), hb[3] - hb[9])
    mods = np.abs(ab).tolist()
    sqrt = math.sqrt
    on, flat = [], []
    for i, (hb, alpha, beta, ma, mb) in enumerate(
            zip(g, ab[::2], ab[1::2], mods[::2], mods[1::2])):
        if not live[i]:
            continue
        mag = abs(complex(ma, mb))
        npp = hb[0].real + hb[5].real
        nqq = hb[10].real + hb[15].real
        if not (mag > tol * sqrt(npp) * sqrt(nqq) and mag > _TINY):
            continue
        d = nqq - npp
        t = ((2.0 if d >= 0.0 else -2.0) * mag
             / (abs(d) + abs(complex(2.0 * mag, d))))
        cs = 1.0 / sqrt(1.0 + t * t)
        sn = t * cs
        # mu1 = conj(alpha) / mag = (a, b), mu2 = -beta / mag = (c, e)
        inv = 1.0 / mag
        re, im = alpha.real, -alpha.imag
        a, b = (re + im * 0.0) * inv, (im - re * 0.0) * inv
        re, im = -beta.real, -beta.imag
        c, e = (re + im * 0.0) * inv, (im - re * 0.0) * inv
        # rk = [[mu1, -conj(mu2)], [mu2, conj(mu1)]] times -sn and cs: the
        # plain product is numpy's fused one unless f x underflows for a
        # nonzero part x, which cs >= 1 / sqrt(2) cannot
        r0, r1, r2, r3 = rk = (complex(a, b), complex(-c, e), complex(c, e),
                               complex(a, -b))
        if (a and not sn * a or b and not sn * b or c and not sn * c
                or e and not sn * e):
            t0, t1, t2, t3 = [_fmul(-sn, r) for r in rk]
        else:
            f = complex(-sn, 0.0)
            t0, t1, t2, t3 = f * r0, f * r1, f * r2, f * r3
        f = complex(cs, 0.0)
        sn0 = sn * 0.0  # -0.0 where sn < 0, as sn * I has it
        flat += (cs, 0.0, t0, t1, 0.0, cs, t2, t3,
                 sn, sn0, f * r0, f * r1, sn0, sn, f * r2, f * r3)
        on.append(i)
    if not on:
        return None, None
    m = np.array(flat, dtype=complex).reshape(len(on), 4, 4)
    return (None if len(on) == len(g) else on), m


def _fmul(f, r):
    """complex(f, 0.0) * r as numpy rounds it: each part one fused
    multiply-add, f x - 0.0 y and f y + 0.0 x, which is the product f x
    (f y) unless x (y) is zero. This is the rounding of numpy's FMA3/AVX2
    complex multiply (checked on numpy 2.4.6, x86-64 Xeon with FMA); a
    numpy build or CPU without a fused complex multiply rounds each part as
    two products and a sum, and where f x underflows the sign of that zero
    differs from this one."""
    x, y = r.real, r.imag
    re, im = f * x, f * y
    return complex(re if x else re - 0.0 * y, im if y else im + 0.0 * x)


# pairs with a smaller inner product are left alone: products of entries
# lose precision there, and no singular value moves by 1e-250 of s[0]
_TINY = 2.0 ** -900


def householder(a, pivot=False):
    """(q, r, kept): q the n x n unitary, as planes, whose first kept columns
    are an orthonormal basis of the span of the columns of the planes a
    (2, n, k) and whose other columns complete it; r the planes of the
    first kept rows of q* _prescale(a)[0].

    Householder QR of [_prescale(a), I] (Bunse-Gerstner, Byers and
    Mehrmann, 1989), the columns in order; one whose part x orthogonal to
    those kept has ||x|| <= RANK_TOL times its norm is skipped. With pivot
    (Businger and Golub, 1965) the largest part comes next until those
    left have a Frobenius norm of at most ORTH_TOL sqrt(n) ||a||_F <=
    2 n eps sigma_max, which bounds the singular values left out and the
    move of r's. u = x + e1 mu ||x||, mu = x1 / |x1| (1 if x1 = 0), makes
    u* x real, and B - u (u* B) (2 / ||u||**2) maps x to -e1 mu ||x||. An
    entry is held as the rows (b1, -conj b2) of the first block column of
    its complex image: a reflection is two products with the image of u.
    """
    a, _ = _prescale(a)
    n, k = a.shape[1:]
    x = np.zeros((n, 2, k + n), dtype=complex)
    x[:, 0, :k], x[:, 1, :k] = a[0], -a[1].conj()
    x[:, 0, k:] = np.eye(n)
    stop2 = (ORTH_TOL * math.sqrt(n) * frobenius(a)) ** 2
    kept = 0
    for c in range(k):
        if pivot:
            t = x[kept:, :, :k]
            norm2 = np.einsum("ijk,ijk->k", t.conj(), t).real
            if norm2.sum() <= stop2:
                break
            c = int(norm2.argmax())
            norm = math.sqrt(norm2[c])
        else:
            norm = frobenius(x[kept:, :, c])
            if norm <= RANK_TOL * frobenius(a[:, :, c]):
                continue
        u = np.array(x[kept:, :, c])  # the part x, made u in place
        x1 = u[0].tolist()
        mag = math.hypot(*map(abs, x1))
        u[0] += [z / mag * norm for z in x1] if mag else (norm, 0.0)
        # w holds the columns of the (2 n, 2) image of u sqrt(2) / ||u||,
        # divided as floats: numpy divides by a subnormal via its reciprocal
        w = np.empty((2, n - kept, 2), dtype=complex)
        scale = norm * math.sqrt(1.0 + mag / norm)
        np.divide(u.view(float), scale, out=w[0].view(float))
        w[1] = w[0, :, ::-1].conj() * (-1.0, 1.0)
        w = w.reshape(2, -1)
        blk = x[kept:].reshape(-1, k + n)
        blk -= w.T @ (w.conj() @ blk)
        x[kept + 1:, :, c] = 0.0
        kept += 1
    r = np.stack([x[:kept, 0, :k], -x[:kept, 1, :k].conj()])
    return x[:, :, k:].transpose(1, 2, 0).conj(), r, kept


def rank_from_singular_values(s, dim: int) -> int:
    """Count of the singular values s (descending) above RANK_TOL s[0] dim."""
    s = np.asarray(s)
    return int(np.count_nonzero(s > RANK_TOL * s[0] * dim)) if s.size else 0


def psd_sqrt(p):
    """Positive semidefinite square root, as planes, of the Hermitian H
    with planes p: the root of its positive part, Factorization.root.
    Raises NotHermitian, and NegativeEigenvalue beyond CLAMP_TOL."""
    fac = Factorization(_hermitian_part(p))
    residual, positive = positivity(0.0, fac, CLAMP_TOL)
    if not positive:
        raise NegativeEigenvalue(f"negative part {residual:.3e} too large")
    return fac.root


def gauss_inv(m):
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting.

    Kept separate from the eigensolver so iterative cross-checks built on
    it do not share a code path with the spectral routines. It runs on
    _prescale(m), so gauss_inv(2**k A) is 2**-k gauss_inv(A) where exact.
    Each pivot column is eliminated from all the other rows at once, row
    r - f_r * pivot row, except from the rows whose multiplier f_r is
    exactly zero: subtracting 0 * row would turn a -0.0 into +0.0.
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
        f = aug[:, col].copy()
        f[col] = 0.0
        rows = np.flatnonzero(f)
        aug[rows] -= f[rows, None] * aug[col]
    return np.ldexp(aug[:, n:].view(float), -e).view(complex)


class Factorization:
    """Factors of the quaternion matrix A with planes p, as QMatrix.p holds
    them; a complex matrix M is the planes (M, 0).

    (u, s, v) = svd(p), computed on first use and kept, is the one
    factorization everything derived from A reads: polar() and each
    v diag(f(s)) v* (congruence), the modulus |A| (kept), which decides
    positivity, and the root.
    rank is the cut of the complex image, which has each s twice.
    """

    def __init__(self, p):
        self.p = p

    _svd = functools.cached_property(lambda self: svd(self.p))

    u = property(lambda self: self._svd[0])
    s = property(lambda self: self._svd[1])
    v = property(lambda self: self._svd[2])
    sigma_max = property(lambda self: self.s[0] if self.s.size else 0.0)
    rank = property(lambda self: rank_from_singular_values(
        self.s, 2 * self.s.size))

    def congruence(self, d):
        """v diag(d) v* as planes, made exactly self-adjoint; d is padded
        with zeros to v's columns, which a wide A has more of than s."""
        v = self.v
        d = np.append(d, np.zeros(v.shape[2] - len(d)))
        r = _qmul(v * d, _qadj(v))
        return 0.5 * (r + _qadj(r))

    modulus = functools.cached_property(lambda self: self.congruence(self.s))

    @property
    def root(self):
        """((u + v) / 2) diag(sqrt(s)) v*, made exactly self-adjoint. For a
        self-adjoint A, v* u is the sign of A in v's basis, so this is
        v diag(sqrt(s)) ((I + v* u) / 2) v*: (I + v* u) / 2 projects onto
        A's positive eigenspace and commutes with diag(s) on every cluster
        of tied s, whichever basis of the cluster the SVD returns: the root
        of A's positive part, not of |A|.
        """
        r = _qmul((self.u + self.v) * (0.5 * np.sqrt(self.s)), _qadj(self.v))
        return 0.5 * (r + _qadj(r))

    @functools.cached_property
    def hermitian_part(self):
        """The Factorization of 0.5 (A + A*); this one if A = A* exactly."""
        h = 0.5 * (self.p + _qadj(self.p))
        return self if np.array_equal(h, self.p) else Factorization(h)

    def polar(self):
        """Polar factors u0 = u_r v_r*, r = rank, and p = modulus of a
        quaternion matrix, as planes."""
        u, v, r = self.u, self.v, self.rank
        return _qmul(u[:, :, :r], _qadj(v[:, :, :r])), self.modulus


def positivity(sa: float, fac: Factorization, tol: float, lift=np.asarray):
    """(residual, flag) of positivity for an operator with self-adjoint residual sa.

    fac factors the operator A. A self-adjoint A is positive semidefinite
    exactly when A = |A|, and ||A - |A|||_F / 2, the norm of its negative
    part, is its distance to that cone (Higham, Linear Algebra Appl. 103,
    1988). The residual is sa, or max(sa, ||A - |A|||_F / 2) when sa is
    within tol * max(1, sigma_max); the flag is the residual within that
    threshold. Reading A's own SVD, not its Hermitian part H's, is safe
    there: ||A - H||_F = sa / 2 and || |A| - |H| ||_F <= sqrt(2) ||A - H||_F
    (Araki and Yamagami, Comm. Math. Phys. 81, 1981), so the distance read
    moves by less than sa from H's. lift maps planes to those of the image
    of A where the distance is read (A's own by default), with no
    factorization of it: chi(A - |A|) is chi(A) - chi(|A|) entry for entry.
    """
    thresh = tol * max(1.0, fac.sigma_max)
    if sa > thresh:
        return sa, False
    res = max(sa, 0.5 * frobenius(lift(fac.p - fac.modulus)))
    return res, res <= thresh


# the default tolerance of every class verdict, quaternion and complex
DEFAULT_CLASS_TOL = 1e-9


def projection_residual(x) -> float:
    """How far the square planes x are from an orthogonal projection: the
    larger of ||x^2 - x||_F and ||x - x*||_F. NaN if either norm is NaN."""
    return float(np.max([frobenius(_qmul(x, x) - x), frobenius(x - _qadj(x))]))


def partial_isometry_residual(a, g, coimage) -> float:
    """How far the planes a are from a partial isometry whose initial space
    is spanned by the orthonormal columns v_k of the planes coimage, g =
    _qmul(_qadj(a), a): the larger of projection_residual(g) (a* a is an
    orthogonal projection) and of | ||a v_k|| - 1 | (a keeps the norm of
    each v_k). NaN if a norm overflows to NaN."""
    return float(np.max([projection_residual(g)]
                        + [abs(frobenius(col) - 1.0)
                           for col in np.moveaxis(_qmul(a, coimage), 2, 0)]))


def partial_isometry_rank(g) -> int:
    """The rank of a partial isometry a, round(Re tr g), g = a* a as planes.
    With delta = projection_residual(g), H^2 - H, H = (g + g*) / 2, is the
    Hermitian part of g^2 - g minus ((g - g*) / 2)^2, so each of the n
    eigenvalues of H lies within 2 (delta + delta^2 / 4) of 0 or 1; when
    n delta < 1/5, Re tr g, their sum rounded by about n eps, rounds to the
    count of those near 1."""
    return round(g[0].trace().real)


def class_residuals(a, fac: Factorization, coimage, tol, lift=np.asarray):
    """Structural class residuals of the square operator with planes a.

    fac factors the operator, or the one that lift, as in positivity, maps
    to a, and the columns of the planes coimage are an orthonormal basis of
    N(a)-perp read from it. Returns (residuals, flags), each flag meaning a
    residual within tol * max(1, sigma_max). A residual beyond the largest
    double is inf; one that overflows to NaN (inf - inf when a* a and a a*
    overflow) raises NonFiniteInput.
    """
    smax = fac.sigma_max  # the SVD rejects NaN and inf
    with np.errstate(over="ignore", invalid="ignore"):
        astar = _qadj(a)
        g = _qmul(astar, a)
        gg = _qmul(a, astar)
        eye = _as_planes(np.eye(a.shape[1]))
        # the norms each residual is the largest of
        parts = {
            "self_adjoint": [frobenius(a - astar)],
            "anti_self_adjoint": [frobenius(a + astar)],
            "normal": [frobenius(g - gg)],
            "unitary": [frobenius(g - eye), frobenius(gg - eye)],
            "projection": [projection_residual(a)],
            "partial_isometry": [partial_isometry_residual(a, g, coimage)],
        }
    if np.isnan(sum(parts.values(), [])).any():
        raise NonFiniteInput("a class residual overflows a double")
    res = {name: max(vals) for name, vals in parts.items()}
    res["positive"], _ = positivity(res["self_adjoint"], fac, tol, lift)
    thresh = tol * max(1.0, smax)
    flags = {name: bool(val <= thresh) for name, val in res.items()}
    if flags["unitary"]:
        flags["normal"] = True
    return res, flags


def classify_cmatrix(m, tol: float = DEFAULT_CLASS_TOL) -> dict:
    """Structural class residuals of a complex square matrix m, factored
    as the planes (m, 0), so its rank is cut as every other's.

    Returns a dict of residual magnitudes keyed by class name, plus the
    derived boolean flags under `tol * max(1, sigma_max)`. Used to compare
    a quaternionic operator with its complex block image.
    """
    fac = Factorization(_as_planes(_as_square(m)))
    res, flags = class_residuals(fac.p, fac, fac.v[:, :, :fac.rank], tol)
    return {"residuals": res, "flags": flags, "rank": fac.rank,
            "sigma_max": fac.sigma_max}
