"""Brute-force oracles, independent of the library's numerical paths.

Matrix products here are expanded entrywise with scalar Hamilton
arithmetic, never through the complex-pair fast path, so agreement with
the library is a real check of the regrouped formulas. Two reference
paths only tests use sit here too: a pseudoinverse on the library SVD
and a coupled-Newton square root on Gauss-Jordan inverses. A recorder of
kernel inputs lets tests pin how often an operator is factored.
"""

import numpy as np

from qpolar import QMatrix, QVector, Quaternion, ckernel, q_mul
from qpolar.ckernel import RANK_TOL, frobenius, gauss_inv, svd
from qpolar.rng import SplitMix64, stream


def q_sum(quats):
    total = Quaternion()
    for q in quats:
        total = total + q
    return total


def matvec_oracle(a: QMatrix, x: QVector) -> QVector:
    grid = a.to_quaternions()
    vec = x.to_quaternions()
    rows, cols = a.shape
    out = [q_sum(q_mul(grid[r][c], vec[c]) for c in range(cols))
           for r in range(rows)]
    return QVector.from_quaternions(out)


def matmul_oracle(a: QMatrix, b: QMatrix) -> QMatrix:
    ga = a.to_quaternions()
    gb = b.to_quaternions()
    rows, inner_dim = a.shape
    cols = b.shape[1]
    grid = [[q_sum(q_mul(ga[r][k], gb[k][c]) for k in range(inner_dim))
             for c in range(cols)] for r in range(rows)]
    return QMatrix.from_quaternions(grid)


def inner_oracle(x: QVector, y: QVector) -> Quaternion:
    return q_sum(q_mul(xq.conjugate(), yq)
                 for xq, yq in zip(x.to_quaternions(), y.to_quaternions()))


def qmat_close(a: QMatrix, b: QMatrix, tol: float) -> bool:
    return (a - b).frobenius_norm() <= tol


def trial_rng(seed: int, k: int = 0) -> SplitMix64:
    return stream(seed, k)


def pinv(m, tol: float = RANK_TOL):
    """Moore-Penrose pseudoinverse with rank cut tol * sigma_max * dim."""
    a = np.array(m, dtype=complex)
    u, s, v = svd(a)
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
    """Patch ckernel.<name> to keep a copy of every input; returns the copies."""
    inputs = []
    real = getattr(ckernel, name)

    def recording(m, *args, **kwargs):
        inputs.append(np.array(m, dtype=complex))
        return real(m, *args, **kwargs)

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
