"""Brute-force oracles, independent of the library's numerical paths.

Matrix products here are expanded entrywise with scalar Hamilton
arithmetic, never through the complex-pair fast path, so agreement with
the library is a real check of the regrouped formulas. A recorder of
the kernel SVD inputs lets tests pin how often an operator is factored.
"""

import numpy as np

from qpolar import QMatrix, QVector, Quaternion, ckernel, q_mul
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


def record_svd_inputs(monkeypatch) -> list:
    """Patch ckernel.svd to keep a copy of every input; returns the copies."""
    inputs = []
    real = ckernel.svd

    def recording(m, *args, **kwargs):
        inputs.append(np.array(m, dtype=complex))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(ckernel, "svd", recording)
    return inputs
