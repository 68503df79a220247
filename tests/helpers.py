"""Brute-force oracles, independent of the library's numerical paths.

Matrix products here are expanded entrywise with scalar Hamilton
arithmetic, never through the complex-pair fast path, so agreement with
the library is a real check of the regrouped formulas. Two reference
paths only tests use sit here too: a pseudoinverse on the library SVD
and a coupled-Newton square root on Gauss-Jordan inverses. A recorder of
kernel inputs lets tests pin how often an operator is factored.

A vector of H^n is an n x 1 QMatrix; inner and right_mul spell out the
library's inner product and right scalar action on such blocks.
"""

import numpy as np

from qpolar import QMatrix, Quaternion, ckernel, q_mul
from qpolar.ckernel import RANK_TOL, frobenius, gauss_inv, svd
from qpolar.rng import SplitMix64, stream


def q_sum(quats):
    total = Quaternion()
    for q in quats:
        total = total + q
    return total


def entries(a: QMatrix) -> list:
    """The entries of a, row by row, each read through QMatrix.entry."""
    rows, cols = a.shape
    return [[a.entry(r, c) for c in range(cols)] for r in range(rows)]


def planes(grid) -> tuple:
    """The planes (a1, a2) of a grid of quaternions: a1 = w + x i and
    a2 = y + z i entrywise."""
    a1 = np.array([[complex(q.w, q.x) for q in row] for row in grid],
                  dtype=complex)
    a2 = np.array([[complex(q.y, q.z) for q in row] for row in grid],
                  dtype=complex)
    return a1, a2


def matvec_oracle(a: QMatrix, x: QMatrix) -> QMatrix:
    """A x for an n x 1 block x, entry by entry."""
    grid = entries(a)
    vec = [row[0] for row in entries(x)]
    rows, cols = a.shape
    out = [[q_sum(q_mul(grid[r][c], vec[c]) for c in range(cols))]
           for r in range(rows)]
    return QMatrix(*planes(out))


def matmul_oracle(a: QMatrix, b: QMatrix) -> QMatrix:
    ga = entries(a)
    gb = entries(b)
    rows, inner_dim = a.shape
    cols = b.shape[1]
    grid = [[q_sum(q_mul(ga[r][k], gb[k][c]) for k in range(inner_dim))
             for c in range(cols)] for r in range(rows)]
    return QMatrix(*planes(grid))


def inner_oracle(x: QMatrix, y: QMatrix) -> Quaternion:
    """<x|y> = sum conj(x_k) y_k for n x 1 blocks x and y, entry by entry."""
    return q_sum(q_mul(xq[0].conjugate(), yq[0])
                 for xq, yq in zip(entries(x), entries(y)))


def inner(x: QMatrix, y: QMatrix) -> Quaternion:
    """<x|y> of n x 1 blocks, the 1 x 1 product x* y."""
    return (x.adjoint() @ y).entry(0, 0)


def right_mul(x: QMatrix, q) -> QMatrix:
    """The right scalar action x q of the Quaternion q, x @ diag(q)."""
    return x @ QMatrix.diag([q])


def trial_rng(seed: int, k: int = 0) -> SplitMix64:
    return stream(seed, k)


def pinv(m, tol: float = RANK_TOL):
    """Moore-Penrose pseudoinverse with rank cut tol * sigma_max * dim."""
    a = np.array(m, dtype=complex)
    u, s, v = svd(QMatrix(a).p)
    u, v = u[0], v[0]
    dim = max(a.shape)
    cut = (s[0] * tol * dim) if s.size else 0.0
    inv_s = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    r = min(a.shape)
    return (v[:, :r] * inv_s) @ u[:, :r].conj().T


def denman_beavers_sqrt(m, tol: float = 1e-13, max_iter: int = 100):
    """Square root of a positive definite matrix by coupled Newton iteration.

    Independent of the eigendecomposition route (uses only Gauss-Jordan
    inverses), which makes it a usable cross-check for psd_sqrt.
    """
    a = np.array(m, dtype=complex)
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


def record_kernel_inputs(monkeypatch, name: str) -> list:
    """Patch ckernel.<name>, a factorization of one planes array, to keep a
    copy of every input; returns the copies."""
    inputs = []
    real = getattr(ckernel, name)

    def recording(p):
        inputs.append(np.array(p, dtype=complex))
        return real(p)

    monkeypatch.setattr(ckernel, name, recording)
    return inputs


def record_svd_inputs(monkeypatch) -> list:
    return record_kernel_inputs(monkeypatch, "svd")


def gaussian_qmatrix(g: np.random.Generator, n: int) -> QMatrix:
    """n x n quaternion matrix with independent standard normal components."""
    def plane():
        return g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    return QMatrix(plane(), plane())


def conditioned_qmatrix(seed: int, n: int, cond: float) -> QMatrix:
    """W1 diag(logspace(0, -log10(cond), n)) W2, each W the U0 of a Gaussian draw."""
    from qpolar import polar_decompose
    g = np.random.default_rng(seed)
    w1 = polar_decompose(gaussian_qmatrix(g, n)).u0
    w2 = polar_decompose(gaussian_qmatrix(g, n)).u0
    return w1 @ QMatrix.diag(list(np.logspace(0, -np.log10(cond), n))) @ w2


# The formulations the library's vectorized helpers replaced, kept as
# oracles: each must agree with its replacement byte for byte.

def rand_qvector_entrywise(r: SplitMix64, n: int) -> QMatrix:
    """random_ops.rand_qvector, one complex(uniform, uniform) per entry,
    as an n x 1 block."""
    a1 = np.array([[complex(r.uniform(-1, 1), r.uniform(-1, 1))]
                   for _ in range(n)])
    a2 = np.array([[complex(r.uniform(-1, 1), r.uniform(-1, 1))]
                   for _ in range(n)])
    return QMatrix(a1, a2)


def rand_qmatrix_entrywise(r: SplitMix64, n: int, cols=None) -> QMatrix:
    """random_ops.rand_qmatrix, one complex(uniform, uniform) per entry,
    row by row."""
    cols = n if cols is None else cols
    a1 = np.array([[complex(r.uniform(-1, 1), r.uniform(-1, 1))
                    for _ in range(cols)] for _ in range(n)], dtype=complex)
    a2 = np.array([[complex(r.uniform(-1, 1), r.uniform(-1, 1))
                    for _ in range(cols)] for _ in range(n)], dtype=complex)
    return QMatrix(a1, a2)


def normal_entrywise(r: SplitMix64, n: int) -> QMatrix:
    """random_ops.normal on rand_qmatrix_entrywise draws, its diagonal
    entry by entry."""
    from qpolar import polar_decompose
    while True:
        f = polar_decompose(rand_qmatrix_entrywise(r, n))
        if f.null_rank == 0:
            w = f.u0
            break
    d = QMatrix.diag([complex(r.uniform(-1, 1), r.uniform(-1, 1))
                      for _ in range(n)])
    return w @ d @ w.adjoint()


def gauss_inv_rowwise(m):
    """ckernel.gauss_inv, eliminating one row at a time."""
    a, e = ckernel._prescale(ckernel._as_square(m))
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n, dtype=complex)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) <= ckernel.PIVOT_TOL:
            raise ckernel.SingularMatrix("pivot too small")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] / aug[col, col]
        for r in range(n):
            if r != col and aug[r, col] != 0.0:
                aug[r] = aug[r] - aug[r, col] * aug[col]
    return np.ldexp(aug[:, n:].view(float), -e).view(complex)


def qmul_stacked(x, y):
    return np.stack([x[0] @ y[0] - x[1] @ y[1].conj(),
                     x[0] @ y[1] + x[1] @ y[0].conj()])


def qadj_stacked(x):
    return np.stack([x[0].conj().T, -x[1].T])


def chi_block(a: QMatrix):
    return np.block([[a.a1, a.a2], [-np.conj(a.a2), np.conj(a.a1)]])


def frobenius_linalg(m) -> float:
    """ckernel.frobenius through np.linalg.norm."""
    a = np.asarray(m).ravel()
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
        if norm in (0.0, np.inf) and a.any() and np.isfinite(a).all():
            b, e = ckernel._prescale(a)
            norm = float(np.ldexp(np.linalg.norm(b), e))
    return norm


def live_columns_eye(g, rows):
    """ckernel._live_columns with np.max, np.outer and a fresh np.eye."""
    norm = np.sqrt(np.diagonal(g[0]).real)
    big = norm > ckernel.RANK_TOL * np.max(norm, initial=0.0)
    tol = ckernel.ORTH_TOL * np.sqrt(rows) * np.outer(norm, norm)
    act = (np.hypot(np.abs(g[0]), np.abs(g[1]))
           > 2.0 * np.maximum(tol, ckernel._TINY))
    act &= np.logical_or.outer(big, big) & ~np.eye(len(norm), dtype=bool)
    return big if act.any() else None
