import numpy as np
import pytest
import scipy.linalg

from qpolar import QMatrix, chi, ckernel, random_ops
from helpers import conditioned_qmatrix, denman_beavers_sqrt, pinv
from qpolar.ckernel import (NegativeEigenvalue, NoConvergence, NonFiniteInput,
                            NotHermitian, SingularMatrix, frobenius,
                            gauss_inv, hermitian_eig, psd_sqrt, svd)
from qpolar.rng import SplitMix64

RNG = np.random.default_rng(1234)


def rand_complex(rows, cols=None):
    cols = rows if cols is None else cols
    return RNG.uniform(-1, 1, (rows, cols)) + 1j * RNG.uniform(-1, 1, (rows, cols))


def rand_hermitian(n):
    h = rand_complex(n)
    return h + h.conj().T


def test_eig_diagonal_input():
    values, vectors = hermitian_eig(QMatrix(np.diag([3.0, 1.0])).p)
    assert np.allclose(values, [3.0, 1.0])
    assert np.allclose(vectors, QMatrix.identity(2).p)


def test_eig_pauli_type():
    values, vectors = hermitian_eig(QMatrix(np.array([[0, 1], [1, 0]])).p)
    assert np.allclose(values, [1.0, -1.0], atol=1e-14)


def test_eig_random_residuals():
    for _ in range(20):
        m = rand_hermitian(8)
        values, vectors = hermitian_eig(QMatrix(m).p)
        v = vectors[0]
        scale = frobenius(m)
        assert frobenius(m @ v - v * values) < 1e-11 * max(1.0, scale)
        assert frobenius(v.conj().T @ v - np.eye(8)) < 1e-12
        assert np.all(np.diff(values) <= 1e-12)
        # eigenvalues agree with an independent solver
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.max(np.abs(values - ref)) < 1e-11 * max(1.0, scale)


def test_eig_underflowing_norm():
    # every square of an entry near 1e-211 underflows to zero
    m = rand_hermitian(6)
    tiny = 2.0 ** -700 * m
    values, vectors = hermitian_eig(QMatrix(tiny).p)
    ref = np.linalg.eigvalsh(m)[::-1]
    assert np.max(np.abs(values / 2.0 ** -700 - ref)) \
        <= 1e-12 * np.max(np.abs(ref))
    d = vectors[0].conj().T @ m @ vectors[0]
    assert frobenius(d - np.diag(np.diag(d))) <= 1e-12 * frobenius(m)
    assert frobenius(tiny) == pytest.approx(2.0 ** -700 * frobenius(m),
                                            rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("e", [-1000, 1000])
def test_eig_scale_equivariant_bit_exact(e):
    m = rand_hermitian(6)
    b = quaternion_planes(np.random.default_rng(27), 6, 6)
    h = 0.5 * (b + ckernel._qadj(b))
    p = ckernel._qmul(b, ckernel._qadj(b))
    for x, psd in ((QMatrix(m).p, QMatrix(m @ m).p), (h, p)):
        values, vectors = hermitian_eig(x)
        scaled = hermitian_eig(2.0 ** e * x)
        assert np.array_equal(scaled[1], vectors)
        assert np.array_equal(scaled[0], 2.0 ** e * values)
        root = psd_sqrt(2.0 ** e * psd)
        assert np.array_equal(root, 2.0 ** (e // 2) * psd_sqrt(psd))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eig_subnormal_input():
    # a complex entry divided by a subnormal magnitude overflows unless the
    # matrix is scaled first
    m = np.full((4, 4), 3e-310 + 0j)
    values, vectors = hermitian_eig(QMatrix(m).p)
    assert values[0] == pytest.approx(1.2e-309, rel=1e-3)
    assert np.all(np.abs(values[1:]) <= 1e-320)


def test_eig_quaternion_against_numpy():
    # chi(H) has each quaternion eigenvalue twice
    g = np.random.default_rng(28)
    for n in (1, 2, 5, 8, 16, 32):
        b = quaternion_planes(g, n, n)
        h = 0.5 * (b + ckernel._qadj(b))
        values, vectors = hermitian_eig(h)
        assert values.shape == (n,) and vectors.shape == (2, n, n)
        ref = np.linalg.eigvalsh(chi(QMatrix(*h)))[::-1]
        assert np.max(np.abs(values - ref[0::2])) \
            <= 1e-12 * frobenius(h)
        v = vectors
        gram = ckernel._qmul(ckernel._qadj(v), v)
        assert np.max(np.abs(gram[0] - np.eye(n))) <= 1e-13
        assert np.max(np.abs(gram[1])) <= 1e-13
        assert np.max(np.abs(ckernel._qmul(h, v) - v * values)) \
            <= 1e-12 * frobenius(h)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(QMatrix(np.array([[0, 1], [0, 0]])).p)


def test_eig_deterministic():
    m = rand_hermitian(6)
    a = hermitian_eig(QMatrix(m).p)
    b = hermitian_eig(QMatrix(m.copy()).p)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_svd_values_match_reference():
    for rows, cols in ((6, 6), (5, 3), (3, 5)):
        m = rand_complex(rows, cols)
        u, s, v = svd(QMatrix(m).p)
        u, v = u[0], v[0]
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.max(np.abs(s - ref)) < 1e-11 * max(1.0, ref[0])
        k = min(rows, cols)
        assert frobenius(m - (u[:, :k] * s) @ v[:, :k].conj().T) \
            < 1e-11 * max(1.0, ref[0])
        assert frobenius(u.conj().T @ u - np.eye(rows)) < 1e-12
        assert frobenius(v.conj().T @ v - np.eye(cols)) < 1e-12


def test_svd_resolves_exact_zeros():
    m = rand_complex(6, 2) @ rand_complex(2, 6)
    _, s, _ = svd(QMatrix(m).p)
    assert np.all(s[2:] < 1e-12 * s[0])
    assert s[1] > 1e-3 * s[0]


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(QMatrix(np.diag([4.0, 9.0])).p)[0],
                       np.diag([2.0, 3.0]))
    assert np.allclose(psd_sqrt(QMatrix.identity(3).p),
                       QMatrix.identity(3).p)


def test_psd_sqrt_squares_back():
    for _ in range(10):
        b = rand_complex(6)
        m = b.conj().T @ b
        r = psd_sqrt(QMatrix(m).p)[0]
        assert frobenius(r @ r - m) < 1e-9 * max(1.0, frobenius(m))
        assert frobenius(r - r.conj().T) < 1e-12
        assert frobenius(r @ m - m @ r) < 1e-9 * max(1.0, frobenius(m))


def test_psd_sqrt_rejects():
    with pytest.raises(NotHermitian):
        psd_sqrt(QMatrix(np.array([[0, 1], [0, 0]])).p)
    with pytest.raises(NegativeEigenvalue):
        psd_sqrt(QMatrix.diag([1.0, -1.0]).p)
    # the window: a negative part of norm 1e-11 is admitted, and the root
    # is that of the positive part, diag(1, 0), up to the rounding of the
    # sign projector times sqrt(1e-11); one of 1e-9 is refused
    root = psd_sqrt(QMatrix.diag([1.0, -1e-11]).p)
    assert np.allclose(root[0], np.diag([1.0, 0.0]), atol=1e-15)
    assert abs(root[0][1, 1]) <= np.finfo(float).eps * 1e-11 ** 0.5
    with pytest.raises(NegativeEigenvalue):
        psd_sqrt(QMatrix.diag([1.0, -1e-9]).p)
    # an indefinite quaternion H given as planes
    from qpolar import classify
    b = quaternion_planes(np.random.default_rng(29), 5, 5)
    h = 0.5 * (b + ckernel._qadj(b))
    assert np.linalg.eigvalsh(chi(QMatrix(*h)))[0] < -0.1
    with pytest.raises(NegativeEigenvalue):
        psd_sqrt(h)
    assert not classify(QMatrix(h[0], h[1])).positive


@pytest.mark.parametrize("k", [-600, -40, 0, 600])
def test_hermitian_window_scales_with_h(k):
    # H + W, W skew-Hermitian at 1e-3 of ||H||, is not Hermitian at any
    # scale: the window does not turn absolute below norm 1
    from qpolar import random_ops
    from qpolar.rng import SplitMix64
    h = random_ops.hermitian(SplitMix64(4), 5).p
    w = random_ops.anti_self_adjoint(SplitMix64(5), 5).p
    a = (h + w * (1e-3 * frobenius(h) / frobenius(w))) * 2.0 ** k
    with pytest.raises(NotHermitian):
        hermitian_eig(a)
    with pytest.raises(NotHermitian):
        psd_sqrt(a)


def test_psd_sqrt_against_denman_beavers_and_scipy():
    for _ in range(10):
        b = rand_complex(5)
        # keep the draw comfortably invertible for the iterative route
        m = b.conj().T @ b + 0.05 * np.eye(5)
        r = psd_sqrt(QMatrix(m).p)[0]
        db = denman_beavers_sqrt(m)
        assert frobenius(r - db) < 1e-8 * max(1.0, frobenius(m))
        ref = scipy.linalg.sqrtm(m)
        assert frobenius(r - ref) < 1e-8 * max(1.0, frobenius(m))


def test_pinv_examples():
    assert np.allclose(pinv(np.diag([2.0, 0.0]).astype(complex)),
                       np.diag([0.5, 0.0]))
    assert np.allclose(pinv(np.zeros((3, 3), dtype=complex)), np.zeros((3, 3)))


def test_pinv_penrose_conditions():
    for _ in range(10):
        m = rand_complex(6, 3) @ rand_complex(3, 6)  # rank 3 of 6
        x = pinv(m)
        scale = max(1.0, frobenius(m))
        assert frobenius(m @ x @ m - m) < 1e-9 * scale
        assert frobenius(x @ m @ x - x) < 1e-9 * scale
        assert frobenius((m @ x).conj().T - m @ x) < 1e-9 * scale
        assert frobenius((x @ m).conj().T - x @ m) < 1e-9 * scale
        assert frobenius(x - np.linalg.pinv(m)) < 1e-8 * scale


def _polar_factors(m):
    """Classical polar factors (u0, p) of m, with u0 of the rank of m.

    Factors m as the quaternion matrix m + 0 j, whose factors have a zero
    j-plane, and returns their complex planes."""
    u0, p = QMatrix(m).fac.polar()
    assert not u0[1].any() and not p[1].any()
    return u0[0], p[0]


def test_complex_polar_examples():
    m = rand_complex(4) + 3 * np.eye(4)  # comfortably invertible
    u0, p = _polar_factors(m)
    assert frobenius(u0.conj().T @ u0 - np.eye(4)) < 1e-10
    assert frobenius(u0 @ p - m) < 1e-9 * max(1.0, frobenius(m))

    u0, p = _polar_factors(np.diag([2.0, 0.0]).astype(complex))
    assert np.allclose(u0, np.diag([1.0, 0.0]))
    assert np.allclose(p, np.diag([2.0, 0.0]))


def test_complex_polar_singular_and_identities():
    for _ in range(10):
        m = rand_complex(6, 4) @ rand_complex(4, 6)
        u0, p = _polar_factors(m)
        scale = max(1.0, frobenius(m))
        assert frobenius(u0 @ p - m) < 1e-9 * scale
        assert ckernel.rank_from_singular_values(
            np.linalg.svd(u0, compute_uv=False), 6) == 4
        # the three classical identities
        assert frobenius(u0.conj().T @ u0 @ p - p) < 1e-9 * scale
        assert frobenius(u0.conj().T @ m - p) < 1e-9 * scale
        assert frobenius(u0 @ u0.conj().T @ m - m) < 1e-9 * scale


def test_factorization_p_definite():
    # every singular value above the rank cut 64 eps * 2n * s[0] (8.5e-14
    # s[0] at n = 3): the rank is full and the p of polar() has a positive
    # lowest eigenvalue; one below the cut drops the rank, the verdict that
    # once read p definite
    g = np.random.default_rng(7)
    for n in (1, 4, 16):
        m = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        fac = QMatrix(m).fac
        assert fac.rank == n
        assert hermitian_eig(fac.polar()[1])[0][-1] > 0.0
    m = g.standard_normal((6, 3)) @ g.standard_normal((3, 6))
    assert QMatrix(m).fac.rank == 3
    for smallest, definite in ((1e-9, True), (1e-12, True), (1e-14, False)):
        m = np.diag([1.0, 1e-3, smallest])
        assert (QMatrix(m).fac.rank == 3) == definite


def test_complex_polar_hermitian_gives_hermitian_isometry():
    for _ in range(10):
        m = rand_hermitian(5)
        u0, _ = _polar_factors(m)
        assert frobenius(u0 - u0.conj().T) < 1e-9 * max(1.0, frobenius(m))


def test_gauss_inv():
    for _ in range(10):
        m = rand_complex(6) + 3 * np.eye(6)
        assert frobenius(gauss_inv(m) - np.linalg.inv(m)) < 1e-10
    with pytest.raises(SingularMatrix):
        gauss_inv(np.ones((3, 3), dtype=complex))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gauss_inv_scale_equivariant():
    # gauss_inv(2**k A) is 2**-k gauss_inv(A) bit for bit where both scalings
    # are exact; the pivot rule is relative, so tiny A is not singular
    m = rand_complex(6) + 3 * np.eye(6)
    inv = gauss_inv(m)
    for k in range(-1000, 1001, 50):
        scaled = np.ldexp(m.view(float), k).view(complex)
        want = np.ldexp(inv.view(float), -k).view(complex)
        assert np.array_equal(gauss_inv(scaled), want), k


def test_svd_deterministic():
    m = rand_complex(7)
    u1, s1, v1 = svd(QMatrix(m).p)
    u2, s2, v2 = svd(QMatrix(m.copy()).p)
    assert np.array_equal(u1, u2)
    assert np.array_equal(s1, s2)
    assert np.array_equal(v1, v2)


def test_classify_cmatrix_basics():
    out = ckernel.classify_cmatrix(np.eye(3, dtype=complex))
    assert out["flags"]["unitary"] and out["flags"]["positive"]
    assert out["flags"]["projection"] and out["flags"]["partial_isometry"]
    out = ckernel.classify_cmatrix(1j * np.eye(2))
    assert out["flags"]["anti_self_adjoint"] and out["flags"]["unitary"]
    assert not out["flags"]["self_adjoint"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    m = np.eye(4, dtype=complex)
    m[1, 2] = m[2, 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteInput):
        hermitian_eig(QMatrix(m).p)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteInput):
        svd(QMatrix(m).p)


def test_svd_overflow_rejected():
    # near 1e300 the exact pre-scaling factors m; only a singular value
    # beyond the largest double is refused
    m = QMatrix(rand_complex(4)).p
    u, s, v = svd(m)
    big_u, big_s, big_v = svd(2.0 ** 996 * m)
    assert np.array_equal(big_s, 2.0 ** 996 * s)
    assert np.array_equal(big_u, u) and np.array_equal(big_v, v)
    with pytest.raises(NonFiniteInput, match="singular value overflows"):
        svd(QMatrix(np.full((4, 4), 1e308 + 0j)).p)


def quaternion_planes(g, rows, cols, rank=None):
    """Planes of a Gaussian quaternion matrix, of the given rank if set."""
    def draw(r, c):
        return np.stack([g.standard_normal((r, c)) + 1j * g.standard_normal((r, c))
                         for _ in range(2)])
    if rank is None:
        return draw(rows, cols)
    return ckernel._qmul(draw(rows, rank), draw(rank, cols))


def check_quaternion_svd(a, rank=None):
    u, s, v = svd(a)
    rows, cols = a.shape[1:]
    k = min(rows, cols)
    assert u.shape == (2, rows, rows) and v.shape == (2, cols, cols)
    ref = np.linalg.svd(chi(QMatrix(*a)), compute_uv=False)
    scale = max(ref[0], 1.0)
    # chi(A) has each quaternion singular value twice
    assert np.max(np.abs(s - ref[0::2][:k]), initial=0.0) <= 1e-13 * scale
    assert np.array_equal(s, np.sort(s)[::-1])
    rec = ckernel._qmul(u[:, :, :k] * s, ckernel._qadj(v[:, :, :k]))
    assert np.max(np.abs(rec - a), initial=0.0) <= 1e-13 * scale
    for w, n in ((u, rows), (v, cols)):
        gram = ckernel._qmul(ckernel._qadj(w), w)
        assert np.max(np.abs(gram[0] - np.eye(n))) <= 1e-13
        assert np.max(np.abs(gram[1])) <= 1e-13
    if rank is not None:
        assert ckernel.rank_from_singular_values(s, 2 * s.size) == rank


def test_quaternion_svd_against_numpy():
    g = np.random.default_rng(21)
    for n in range(1, 33):
        check_quaternion_svd(quaternion_planes(g, n, n))
    for rows, cols in ((5, 3), (3, 5), (33, 8), (8, 33), (1, 4), (4, 1)):
        check_quaternion_svd(quaternion_planes(g, rows, cols))
    for n, rank in ((4, 1), (8, 3), (16, 8), (32, 8), (32, 24), (9, 0)):
        check_quaternion_svd(quaternion_planes(g, n, n, rank), rank)
    check_quaternion_svd(np.zeros((2, 6, 6), dtype=complex), 0)


def test_rotation_rounds_cover_every_pair_once():
    # one (R, n // 2, 2) array per n; at n = 1 its one round has no pairs
    for n in range(10):
        rounds = ckernel._rotation_rounds(n)
        assert rounds.shape == (max(n + n % 2 - 1, 0), n // 2, 2)
        assert sorted(map(tuple, rounds.reshape(-1, 2).tolist())) == [
            (p, q) for p in range(n) for q in range(p + 1, n)]
        for pairs in rounds:
            assert len(set(pairs.ravel().tolist())) == 2 * (n // 2)


def test_complex_svd_against_numpy_j_plane_exactly_zero():
    # a complex m is the planes (m, 0): no step, QR, rotation or
    # completion, writes the j-plane of the SVD, the eigenvectors or the
    # PSD root
    g = np.random.default_rng(22)
    for rows, cols in ((1, 1), (6, 6), (16, 16), (32, 32), (7, 3), (3, 7)):
        m = g.standard_normal((rows, cols)) + 1j * g.standard_normal((rows, cols))
        for mat in (m, m[:, :1] @ m[:1, :]):
            u, s, v = svd(QMatrix(mat).p)
            assert not u[1].any() and not v[1].any()
            u, v = u[0], v[0]
            ref = np.linalg.svd(mat, compute_uv=False)
            assert np.max(np.abs(s - ref)) <= 1e-13 * max(ref[0], 1.0)
            k = min(rows, cols)
            assert np.max(np.abs((u[:, :k] * s) @ v[:, :k].conj().T - mat)) \
                <= 1e-13 * max(ref[0], 1.0)
            h = QMatrix(mat @ mat.conj().T).p
            assert not hermitian_eig(h)[1][1].any()
            assert not psd_sqrt(h)[1].any()


def test_complex_factorization_is_svd_of_planes():
    # the one factorization of a complex m is svd of its planes (m, 0),
    # bit for bit, and no step writes their zero j-plane
    g = np.random.default_rng(31)
    for n in range(1, 9):
        a = QMatrix(g.standard_normal((n, n)) + 1j * g.standard_normal((n, n)))
        u, s, v = svd(a.p)
        fac = a.fac
        assert np.array_equal(fac.u, u) and np.array_equal(fac.s, s)
        assert np.array_equal(fac.v, v)
        assert not u[1].any() and not v[1].any(), n


@pytest.mark.parametrize("factor", [svd, hermitian_eig, psd_sqrt])
def test_factorizations_take_planes_only(factor):
    # a 2-d array is not planes: the error names the shape it expected
    for m in (np.eye(3, dtype=complex), np.eye(3), np.zeros((2, 2))):
        with pytest.raises(ValueError, match=r"planes \(2, rows, cols\)"):
            factor(m)
    with pytest.raises(ValueError, match=r"got \(3, 2, 2\)"):
        factor(np.zeros((3, 2, 2), dtype=complex))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_svd_subnormal_columns():
    # inner products of a column of subnormal entries lose precision; the
    # pair is left alone instead of dividing by a subnormal magnitude
    m = np.array([[1, 3e-310, 1], [2, 1e-310, 0.5], [0.3, 2e-311, 1]],
                 dtype=complex)
    ref = np.linalg.svd(m, compute_uv=False)
    for planes in (QMatrix(m).p, QMatrix(m, 1e-310 * np.ones_like(m)).p):
        u, s, v = svd(planes)
        assert np.max(np.abs(s[:2] - ref[:2])) <= 1e-14 * ref[0]
        assert s[2] <= 1e-300


@pytest.mark.parametrize("e", [-1000, -500, 500, 1000])
def test_svd_scale_equivariant_bit_exact(e):
    g = np.random.default_rng(23)
    a = quaternion_planes(g, 7, 7)
    for p in (a, QMatrix(a[0]).p):
        u, s, v = svd(p)
        su, ss, sv = svd(2.0 ** e * p)
        assert np.array_equal(su, u) and np.array_equal(sv, v)
        assert np.array_equal(ss, 2.0 ** e * s)


def test_svd_no_convergence(monkeypatch):
    # 16 columns take the vectorized rounds, 4 the scalar ones; the sweep
    # loop both share raises
    assert 4 // 2 <= ckernel.SCALAR_PAIRS < 16 // 2
    monkeypatch.setattr(ckernel, "MAX_SWEEPS", 1)
    for n in (16, 4):
        a = quaternion_planes(np.random.default_rng(24), n, n)
        with pytest.raises(NoConvergence, match="did not converge"):
            svd(a)


def test_eig_no_convergence(monkeypatch):
    b = quaternion_planes(np.random.default_rng(30), 16, 16)
    h = 0.5 * (b + ckernel._qadj(b))
    monkeypatch.setattr(ckernel, "MAX_SWEEPS", 1)
    for p in (h, QMatrix(h[0]).p):
        with pytest.raises(NoConvergence, match="did not converge"):
            hermitian_eig(p)


def test_polar_of_shift_section_and_its_adjoint():
    # the 7 x 6 section of the unilateral shift and its 6 x 7 adjoint: a
    # wide A has 7 columns in v and 6 singular values, which the modulus
    # pads with a zero
    shift = np.eye(7, 6, -1)
    for t in (QMatrix(shift).p, QMatrix(shift.T).p):
        fac = ckernel.Factorization(t)
        u0, modulus = fac.polar()
        assert fac.rank == 6
        assert modulus.shape == (2, t.shape[2], t.shape[2])
        assert frobenius(ckernel._qmul(u0, modulus) - t) == 0.0


def test_svd_orthogonal_input_takes_no_sweep():
    # the Gram check before the first sweep finds the columns of a unitary
    # orthogonal, so no rotation runs: v only sorts the columns
    a = quaternion_planes(np.random.default_rng(25), 12, 12)
    u, _, v = svd(a)
    w = ckernel._qmul(u, ckernel._qadj(v))
    _, s, vw = svd(w)
    assert set(np.unique(vw[0])) <= {0.0, 1.0} and not vw[1].any()
    assert np.array_equal(vw[0] @ vw[0].T, np.eye(12))
    assert np.max(np.abs(s - 1.0)) <= 1e-13


def test_svd_conditioned_input_converges_in_ten_sweeps(monkeypatch):
    # the pivoted QR grades R, so Jacobi on R* needs about 8 sweeps at
    # cond 1e8 where Jacobi on A itself needed up to 19 (n = 48)
    inputs = {n: conditioned_qmatrix(0, n, 1e8) for n in (16, 32, 48)}
    monkeypatch.setattr(ckernel, "MAX_SWEEPS", 10)
    for n, t in inputs.items():
        _, s, _ = svd(t.p)
        assert np.max(np.abs(s - np.logspace(0, -8, n))) <= 1e-13, n


def test_svd_planted_rank_solved_on_r_columns(monkeypatch):
    # the QR keeps exactly the r rows of the range, so _jacobi gets r
    # columns, the rank verdict is r, and every value it drops is 0, far
    # below the rank cut and below 64 eps 2n s[0] as well; a 1 x 1 has no
    # pair to rotate, so it takes no QR and no Jacobi call
    cols = []
    real = ckernel._jacobi
    monkeypatch.setattr(ckernel, "_jacobi",
                        lambda a: cols.append(a.shape[2]) or real(a))
    cells = [(n, r) for n in range(1, 33) for r in range(1, n + 1)]
    for n, r in cells + [(48, 1), (48, 12), (48, 24), (48, 47)]:
        t = random_ops.rank_deficient(SplitMix64(1000 * n + r), n, r)
        del cols[:]
        _, s, _ = svd(t.p)
        assert ckernel.rank_from_singular_values(s, 2 * n) == r, (n, r)
        assert cols == ([r] if n > 1 else []), (n, r)
        cut = 64 * np.finfo(float).eps * 2 * n * s[0]
        assert np.all(s[r:] <= 1e-2 * cut), (n, r)


def range_columns(a):
    """Planes of the columns a v_k / s_k up to the rank cut."""
    _, s, v = svd(a)
    rank = ckernel.rank_from_singular_values(s, 2 * s.size)
    w = ckernel._qmul(a, v[:, :, :rank]) / s[:rank]
    return w, [w[:, :, k] for k in range(rank)]


def check_unitary(w, tol=1e-12):
    n = w.shape[2]
    gram = ckernel._qmul(ckernel._qadj(w), w)
    assert frobenius(gram[0] - np.eye(n)) < tol
    assert frobenius(gram[1]) < tol


def check_completion(b_r, n):
    """householder(b_r) keeps every orthonormal column of b_r, and b_r
    followed by the trailing columns of q, as svd completes it, is
    unitary to 1e-12."""
    r = b_r.shape[2]
    q, _, kept = ckernel.householder(b_r)
    assert q.shape == (2, n, n) and kept == r
    b = np.concatenate([b_r, q[:, :, r:]], axis=2)
    for w in (b, q):
        check_unitary(w)
    return b


def check_svd_completion(a):
    """svd's u is unitary to 1e-12 and its first r columns are a v_r / s_r
    within 1e-12; its v is v_r followed by the trailing columns of
    householder of v_r, the null basis, bit for bit."""
    u, s, v = svd(a)
    r = ckernel.rank_from_singular_values(s, 2 * s.size)
    check_unitary(u)
    assert np.max(np.abs(u[:, :, :r] - range_columns(a)[0]),
                  initial=0.0) < 1e-12
    assert np.array_equal(v, check_completion(v[:, :, :r], v.shape[1]))
    return u, r


@pytest.mark.parametrize("n2", [8, 16, 32, 64])
def test_complete_unitary_rank_deficient_square(n2):
    g = np.random.default_rng(n2)
    n = n2 // 2
    for rank in (n // 4, n // 2, 3 * n // 4):
        a = quaternion_planes(g, n, n, rank)
        u_r, cols = range_columns(a)
        assert len(cols) == rank
        check_completion(u_r, n)
        assert check_svd_completion(a)[1] == rank


def test_complete_unitary_rank_one_n48():
    a = quaternion_planes(np.random.default_rng(48), 48, 48, 1)
    u, r = check_svd_completion(a)
    assert r == 1
    assert np.max(np.abs(u[:, :, :1] - range_columns(a)[0])) < 1e-12


@pytest.mark.parametrize("rows, cols", [(5, 3), (33, 8)])
def test_complete_unitary_tall(rows, cols):
    a = quaternion_planes(np.random.default_rng(rows), rows, cols)
    u_r, range_cols = range_columns(a)
    assert len(range_cols) == cols
    u, r = check_svd_completion(a)
    assert r == cols
    assert np.max(np.abs(u[:, :, :cols] - u_r)) < 1e-12


def test_complete_unitary_zero_matrix_and_empty_cols():
    eye = np.stack([np.eye(6), np.zeros((6, 6))])
    assert np.array_equal(svd(np.zeros((2, 6, 6)))[0], eye)
    assert np.array_equal(svd(QMatrix.zeros(6).p)[0], eye)
    for cols in (0, 3):
        q, _, kept = ckernel.householder(np.zeros((2, 5, cols), dtype=complex))
        assert np.array_equal(q, eye[:, :5, :5]) and kept == 0
    check_completion(np.zeros((2, 5, 0), dtype=complex), 5)


def test_complete_unitary_deterministic():
    g = np.random.default_rng(26)
    u_r, _ = range_columns(quaternion_planes(g, 16, 16, 6))
    q, _, kept = ckernel.householder(u_r)
    again = ckernel.householder(u_r)
    assert np.array_equal(q, again[0]) and kept == again[2] == 6


def test_householder_r_reconstructs_a():
    # a = q[:, :kept] r, with or without pivoting; on a rank-6 product
    # both keep 6 rows, and on (m, 0) the j-plane stays zero
    g = np.random.default_rng(28)
    for a, rank in ((quaternion_planes(g, 9, 7), 7),
                    (quaternion_planes(g, 16, 16, 6), 6),
                    (np.stack([quaternion_planes(g, 8, 8)[0],
                               np.zeros((8, 8))]), 8)):
        a = ckernel._prescale(a)[0]
        for pivot in (False, True):
            q, r, kept = ckernel.householder(a, pivot)
            assert kept == rank
            rec = ckernel._qmul(q[:, :, :kept], r)
            assert frobenius(rec - a) < 1e-14 * frobenius(a) * a.shape[1]
        if not a[1].any():
            assert not q[1].any() and not r[1].any()


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.3 - 0.4j, 0.5 + 0.2j)])
def test_householder_reflects_onto_e1(alpha, beta):
    # one column x with x1 = alpha + beta j: q is the reflection H, H* = H,
    # and H x = -e1 mu ||x|| with mu = x1 / |x1|, or 1 when x1 = 0
    x = quaternion_planes(np.random.default_rng(27), 6, 1)
    x[:, 0, 0] = alpha, beta
    q, _, kept = ckernel.householder(x)
    assert kept == 1
    norm = frobenius(x)
    mag = np.hypot(abs(alpha), abs(beta))
    mu = np.array([alpha, beta]) / mag if mag else np.array([1.0, 0.0])
    want = np.zeros_like(x)
    want[:, 0, 0] = -mu * norm
    hx = ckernel._qmul(ckernel._qadj(q), x)
    assert np.max(np.abs(hx - want)) < 1e-14 * norm
    assert np.max(np.abs(q - ckernel._qadj(q))) < 1e-15


def test_projection_residual_is_the_one_projection_test():
    # class_residuals' projection entry and the g part of a partial
    # isometry's residual are both projection_residual, bit for bit
    rr = SplitMix64(29)
    for n in (1, 3, 6):
        p = random_ops.projection(rr, n, rank=1 + rr.randint(n)).p
        res, flags = ckernel.class_residuals(p, ckernel.Factorization(p),
                                             np.zeros((2, n, 0)), 1e-9)
        assert res["projection"] == ckernel.projection_residual(p) < 1e-13
        assert flags["projection"]
        assert ckernel.projection_residual(2.0 * p) > 0.5
        v = random_ops.partial_isometry(rr, n, rank=n - 1)
        g = ckernel._qmul(ckernel._qadj(v.p), v.p)
        assert ckernel.partial_isometry_residual(
            v.p, g, np.zeros((2, n, 0))) == ckernel.projection_residual(g)
        assert ckernel.partial_isometry_rank(g) == n - 1
