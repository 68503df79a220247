"""The vectorized kernel helpers against the formulations they replaced
(kept in helpers.py), byte for byte: the same IEEE operations on the same
operands in the same order."""

import numpy as np
import pytest

from helpers import (chi_block, conditioned_qmatrix, frobenius_linalg,
                     gauss_inv_rowwise, live_columns_eye, qadj_stacked,
                     qmul_stacked)
from qpolar import QMatrix, chi, ckernel, random_ops
from qpolar.cli import SuiteConfig, cmd_verify
from qpolar.rng import SplitMix64


def _draw(g, *shape):
    return g.standard_normal(shape) + 1j * g.standard_normal(shape)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _gauss_inputs():
    g = np.random.default_rng(18)
    for n in range(1, 10):
        for _ in range(6):
            yield _draw(g, n, n)
    for n in (1, 2, 3, 5, 8):
        for seed in range(4):
            perm = np.random.default_rng(seed).permutation(n)
            p = np.eye(n, dtype=complex)[perm]
            yield p
            yield p * _draw(g, n)  # scaled columns, zeros off the pattern
    # exact 0.0 and -0.0 in the pivot columns, in both parts
    for n in (2, 3, 4, 6):
        for _ in range(10):
            m = _draw(g, n, n) + 3.0 * np.eye(n)
            zero = g.random((n, n)) < 0.4
            m[zero] = g.choice([0.0, -0.0, complex(-0.0, -0.0),
                                complex(0.0, -0.0)], size=int(zero.sum()))
            np.fill_diagonal(m, g.choice([1.0, -2.0, 1j], size=n))
            yield m
    for e in (-600, 600):
        for n in (1, 3, 7):
            yield _draw(g, n, n) * 2.0 ** e


def test_gauss_inv_matches_rowwise_elimination():
    for m in _gauss_inputs():
        assert _same(ckernel.gauss_inv(m), gauss_inv_rowwise(m)), m


def test_gauss_inv_skips_zero_multipliers():
    # [[0, 1], [-1, 0]]: after the swap, the row with the exact zero
    # multiplier is left alone; subtracting 0 * (pivot row) from it would
    # turn the -0.0 imaginary parts of the inverse's first row into +0.0
    m = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    got = ckernel.gauss_inv(m)
    assert _same(got, gauss_inv_rowwise(m))
    assert np.signbit(got.imag[0]).all()


def test_gauss_inv_singular_raises_as_before():
    m = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(ckernel.SingularMatrix):
        gauss_inv_rowwise(m)
    with pytest.raises(ckernel.SingularMatrix):
        ckernel.gauss_inv(m)


def _plane_inputs():
    """Planes (2, r, c), contiguous and strided."""
    g = np.random.default_rng(7)
    for r, c in ((1, 1), (2, 3), (4, 4), (7, 5), (16, 16)):
        x = _draw(g, 2, r, c)
        yield x
        yield x.transpose(0, 2, 1)
        yield x[:, ::2, :]
        yield x[:, :, 1:]
        yield np.asfortranarray(x)


def test_qmul_and_qadj_match_stacked():
    g = np.random.default_rng(8)
    for x in _plane_inputs():
        assert _same(ckernel._qadj(x), qadj_stacked(x))
        k = x.shape[2]
        for y in (_draw(g, 2, k, 3), _draw(g, 2, 3, k).transpose(0, 2, 1),
                  _draw(g, 2, k, 6)[:, :, ::2], _draw(g, 2, k)):
            assert _same(ckernel._qmul(x, y), qmul_stacked(x, y))
        # x times its own adjoint, as the Gram matrices are formed
        xa = ckernel._qadj(x)
        assert _same(ckernel._qmul(xa, x), qmul_stacked(xa, x))
        assert _same(ckernel._qmul(x, xa), qmul_stacked(x, xa))


def test_qadj_keeps_signed_zeros():
    x = np.array([[[complex(0.0, -0.0), -0.0]], [[0.0, complex(-0.0, 0.0)]]])
    assert _same(ckernel._qadj(x), qadj_stacked(x))


def test_as_planes_matches_stacked():
    for x in _plane_inputs():
        for m in (x[0], x[0].real):
            assert _same(ckernel._as_planes(m),
                         np.stack([m, np.zeros_like(m)]).astype(complex))
        assert _same(QMatrix(x[0], x[1]).p, np.stack([x[0], x[1]]))
        assert _same(QMatrix(x[0]).p, np.stack([x[0], np.zeros_like(x[0])]))
    with pytest.raises(ValueError):
        QMatrix(np.eye(2), np.eye(3))


def test_frobenius_matches_linalg_norm():
    g = np.random.default_rng(10)
    arrays = list(_plane_inputs())
    arrays += [x[0] for x in arrays] + [x[0].real for x in arrays]
    arrays += [x * 2.0 ** e for x in arrays[:10] for e in (-600, 600, -1074)]
    arrays += [np.zeros((3, 3), dtype=complex), np.array([1e300, 1e300j]),
               np.array([5e-324, -5e-324j]), np.array([np.inf, 1.0]),
               np.arange(6).reshape(2, 3), _draw(g, 0)]
    for a in arrays:
        want = frobenius_linalg(a)
        got = ckernel.frobenius(a)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), a


def test_chi_matches_block():
    g = np.random.default_rng(11)
    for x in _plane_inputs():
        for a in (QMatrix(x[0], x[1]), QMatrix._adopt(x.copy()),
                  QMatrix._adopt(x)):
            assert _same(chi(a), chi_block(a))
    signed = np.array([[[complex(-0.0, 0.0), 0.0]],
                       [[complex(0.0, -0.0), complex(-0.0, -0.0)]]])
    assert _same(chi(QMatrix._adopt(signed)), chi_block(QMatrix._adopt(signed)))
    a = QMatrix(_draw(g, 3, 3))  # a zero j-plane
    assert _same(chi(a), chi_block(a))


def test_live_columns_matches_eye_form():
    g = np.random.default_rng(12)
    for x in _plane_inputs():
        # columns at and below the rank cut, and a zero one
        scale = np.resize([1.0, 1e-12, 0.0, 1.0, 1e-300], x.shape[2])
        for a in (x, x * scale):
            gram = ckernel._qmul(ckernel._qadj(a), a)
            got = ckernel._live_columns(gram, a.shape[1])
            want = live_columns_eye(gram, a.shape[1])
            assert (got is None) == (want is None)
            if got is not None:
                assert _same(got, want)
    # orthogonal columns: no pair to rotate
    q = np.linalg.qr(_draw(g, 5, 5))[0]
    planes = ckernel._as_planes(q)
    gram = ckernel._qmul(ckernel._qadj(planes), planes)
    assert ckernel._live_columns(gram, 5) is None
    assert live_columns_eye(gram, 5) is None


def _svd_inputs():
    """Planes on which the two engines of _jacobi must agree."""
    for n in range(1, 21):  # the planted-rank cells of test_ckernel, n <= 20
        for r in range(1, n + 1):
            yield random_ops.rank_deficient(SplitMix64(1000 * n + r), n, r).p
    g = np.random.default_rng(27)
    for n in (2, 3, 5, 8, 12, 16):
        yield conditioned_qmatrix(0, n, 1e12).p
        x = _draw(g, 2, n, n)
        x[1] = 0.0  # a zero j-plane, as a complex matrix is held
        yield x
        yield _draw(g, 2, n + 3, n)
        yield _draw(g, 2, n, n + 3)
        # subnormal columns, and columns whose Gram entries are subnormal
        for e in (-1060, -530):
            x = _draw(g, 2, n, n)
            x[:, :, 1::2] *= 2.0 ** e
            yield x


_fmul = ckernel._fmul


def test_jacobi_engines_agree_byte_for_byte(monkeypatch):
    # every round on _vector_maps (0), then every round on _scalar_maps
    inputs = list(_svd_inputs())
    factors, reports = [], []
    for pairs in (0, 10 ** 9):
        monkeypatch.setattr(ckernel, "SCALAR_PAIRS", pairs)
        factors.append([ckernel.svd(p) for p in inputs])
        reports.append(cmd_verify(SuiteConfig(16, 6, 3, 1e-9)).format())
    for vector, scalar in zip(*factors):
        assert all(_same(a, b) for a, b in zip(vector, scalar))
    assert reports[0] == reports[1]


def _gram_rounds():
    """Gram blocks h (k, 4, 4) of rounds of k pairs."""
    g = np.random.default_rng(28)
    special = [0.0, -0.0, 2.0 ** -1074, -2.0 ** -1074, 2.0 ** -540, 1.0]
    for k in (1, 2, 3, 4, 8):
        for _ in range(300):
            # exact zeros of both signs, subnormal parts, rows 2**600 apart
            z = _draw(g, k, 4, 6) * 2.0 ** g.integers(-600, 1, (k, 4, 1))
            hit = g.random(z.shape) < 0.3
            z.real[hit] = g.choice(special, int(hit.sum()))
            hit = g.random(z.shape) < 0.5
            z.imag[hit] = g.choice(special, int(hit.sum()))
            yield z


def _underflow_rounds():
    """Rounds of one pair where sn * Im(mu1) underflows: a real column p
    against a column q of 2**-540 with one imaginary part the least
    subnormal, so sn and Im(mu1) are about 2**-540."""
    for sp in (1.0, -1.0):
        for sq in (1.0, -1.0):
            z = np.zeros((1, 4, 6), dtype=complex)
            z[0, 0] = 0.9 * sp
            z[0, 2] = 2.0 ** -540
            z[0, 2, 0] = complex(2.0 ** -540, sq * 2.0 ** -1074)
            yield z


# numpy's fused complex product keeps the sign of such a zero; _fmul copies
# it, which holds where numpy's multiply is its FMA3/AVX2 loop
FUSED = ("_fmul assumes numpy's fused (FMA3/AVX2) complex multiply, as "
         "numpy 2.4.6 on an x86-64 CPU with FMA has it")


def test_scalar_maps_match_vector_maps(monkeypatch):
    fused = []
    monkeypatch.setattr(ckernel, "_fmul", lambda f, r: fused.append(r)
                        or _fmul(f, r))
    g = np.random.default_rng(29)
    for z in _gram_rounds():
        _assert_engines_agree(z, g)
    assert not fused  # no random round takes the underflow branch
    for z in _underflow_rounds():
        _assert_engines_agree(z, g, FUSED)
    assert len(fused) == 4 * 4  # four map entries of each crafted round


def _assert_engines_agree(z, g, why=None):
    h = z.conj() @ z.transpose(0, 2, 1)
    k = len(h)
    live = g.random(k) < 0.9 if k > 1 else np.ones(1, bool)
    on, m = ckernel._vector_maps(
        h, live, 1e-15, np.empty((k, 4, 4), dtype=complex),
        np.empty((k, 2, 2), dtype=complex), np.eye(2))
    son, sm = ckernel._scalar_maps(h, live.tolist(), 1e-15)
    assert (m is None) == (sm is None)
    if m is not None:
        want = range(k) if on is None else on
        assert list(want) == list(range(k) if son is None else son)
        assert _same(m, sm), why
