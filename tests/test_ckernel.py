import numpy as np
import pytest
import scipy.linalg

from qpolar import ckernel
from qpolar.ckernel import (NegativeEigenvalue, NonFiniteInput, NotHermitian,
                            SingularMatrix, complex_polar, denman_beavers_sqrt,
                            frobenius, gauss_inv, hermitian_eig, pinv,
                            psd_sqrt, svd)

RNG = np.random.default_rng(1234)


def rand_complex(rows, cols=None):
    cols = rows if cols is None else cols
    return RNG.uniform(-1, 1, (rows, cols)) + 1j * RNG.uniform(-1, 1, (rows, cols))


def rand_hermitian(n):
    h = rand_complex(n)
    return h + h.conj().T


def test_eig_diagonal_input():
    out = hermitian_eig(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(out.values, [3.0, 1.0])
    assert np.allclose(out.vectors, np.eye(2))


def test_eig_pauli_type():
    out = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(out.values, [1.0, -1.0], atol=1e-14)


def test_eig_random_residuals():
    for _ in range(20):
        m = rand_hermitian(8)
        out = hermitian_eig(m)
        scale = frobenius(m)
        assert frobenius(m @ out.vectors - out.vectors * out.values) \
            < 1e-11 * max(1.0, scale)
        assert frobenius(out.vectors.conj().T @ out.vectors - np.eye(8)) < 1e-12
        assert np.all(np.diff(out.values) <= 1e-12)
        # eigenvalues agree with an independent solver
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.max(np.abs(out.values - ref)) < 1e-11 * max(1.0, scale)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_deterministic():
    m = rand_hermitian(6)
    a = hermitian_eig(m)
    b = hermitian_eig(m.copy())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_svd_values_match_reference():
    for rows, cols in ((6, 6), (5, 3), (3, 5)):
        m = rand_complex(rows, cols)
        u, s, v = svd(m)
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.max(np.abs(s - ref)) < 1e-11 * max(1.0, ref[0])
        k = min(rows, cols)
        assert frobenius(m - (u[:, :k] * s) @ v[:, :k].conj().T) \
            < 1e-11 * max(1.0, ref[0])
        assert frobenius(u.conj().T @ u - np.eye(rows)) < 1e-12
        assert frobenius(v.conj().T @ v - np.eye(cols)) < 1e-12


def test_svd_resolves_exact_zeros():
    m = rand_complex(6, 2) @ rand_complex(2, 6)
    _, s, _ = svd(m)
    assert np.all(s[2:] < 1e-12 * s[0])
    assert s[1] > 1e-3 * s[0]


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0]).astype(complex)),
                       np.diag([2.0, 3.0]))
    assert np.allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3))


def test_psd_sqrt_squares_back():
    for _ in range(10):
        b = rand_complex(6)
        m = b.conj().T @ b
        r = psd_sqrt(m)
        assert frobenius(r @ r - m) < 1e-9 * max(1.0, frobenius(m))
        assert frobenius(r - r.conj().T) < 1e-12
        assert frobenius(r @ m - m @ r) < 1e-9 * max(1.0, frobenius(m))


def test_psd_sqrt_rejects():
    with pytest.raises(NotHermitian):
        psd_sqrt(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(NegativeEigenvalue):
        psd_sqrt(np.diag([1.0, -1.0]).astype(complex))


def test_psd_sqrt_against_denman_beavers_and_scipy():
    for _ in range(10):
        b = rand_complex(5)
        # keep the draw comfortably invertible for the iterative route
        m = b.conj().T @ b + 0.05 * np.eye(5)
        r = psd_sqrt(m)
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


def test_complex_polar_examples():
    m = rand_complex(4) + 3 * np.eye(4)  # comfortably invertible
    u0, p = complex_polar(m)
    assert frobenius(u0.conj().T @ u0 - np.eye(4)) < 1e-10
    assert frobenius(u0 @ p - m) < 1e-9 * max(1.0, frobenius(m))

    u0, p = complex_polar(np.diag([2.0, 0.0]).astype(complex))
    assert np.allclose(u0, np.diag([1.0, 0.0]))
    assert np.allclose(p, np.diag([2.0, 0.0]))


def test_complex_polar_singular_and_identities():
    for _ in range(10):
        m = rand_complex(6, 4) @ rand_complex(4, 6)
        u0, p = complex_polar(m)
        scale = max(1.0, frobenius(m))
        assert frobenius(u0 @ p - m) < 1e-9 * scale
        assert ckernel.rank_from_singular_values(
            np.linalg.svd(u0, compute_uv=False), 6) == 4
        # the three classical identities
        assert frobenius(u0.conj().T @ u0 @ p - p) < 1e-9 * scale
        assert frobenius(u0.conj().T @ m - p) < 1e-9 * scale
        assert frobenius(u0 @ u0.conj().T @ m - m) < 1e-9 * scale


def test_complex_polar_hermitian_gives_hermitian_isometry():
    for _ in range(10):
        m = rand_hermitian(5)
        u0, _ = complex_polar(m)
        assert frobenius(u0 - u0.conj().T) < 1e-9 * max(1.0, frobenius(m))


def test_gauss_inv():
    for _ in range(10):
        m = rand_complex(6) + 3 * np.eye(6)
        assert frobenius(gauss_inv(m) - np.linalg.inv(m)) < 1e-10
    with pytest.raises(SingularMatrix):
        gauss_inv(np.ones((3, 3), dtype=complex))


def test_svd_deterministic():
    m = rand_complex(7)
    u1, s1, v1 = svd(m)
    u2, s2, v2 = svd(m.copy())
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
        hermitian_eig(m)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteInput):
        svd(m)


def test_svd_gram_overflow_rejected():
    # every entry is finite, but m* m overflows
    m = 2.0 ** 996 * rand_complex(4)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteInput):
        svd(m)


def complete_unitary_per_candidate(cols, n):
    """Reference completion: every standard basis candidate built and
    orthogonalized on its own, one basis vector at a time."""
    basis = []

    def orthogonalize(w):
        for _ in range(2):
            for b in basis:
                w = w - b * np.vdot(b, w)
        return w

    for w in cols:
        w = orthogonalize(w.astype(complex))
        nw = np.linalg.norm(w)
        if nw > 0.0:
            basis.append(w / nw)
    while len(basis) < n:
        best, best_norm = None, -1.0
        for k in range(n):
            w = np.zeros(n, dtype=complex)
            w[k] = 1.0
            w = orthogonalize(w)
            nw = np.linalg.norm(w)
            if nw > best_norm + 1e-12:
                best, best_norm = w, nw
        basis.append(best / best_norm)
    return np.stack(basis, axis=1)


def range_columns(m):
    """The columns m v / sigma that svd hands to the completion."""
    _, s, v = svd(m)
    rank = ckernel.rank_from_singular_values(s, max(m.shape))
    return [m @ v[:, k] / s[k] for k in range(rank)]


def check_completion(cols, n):
    u = ckernel._complete_unitary(cols, n)
    assert u.shape == (n, n)
    # within 1e-12 of the reference means the same candidate at every step
    assert np.max(np.abs(u - complete_unitary_per_candidate(cols, n))) < 1e-12
    assert frobenius(u.conj().T @ u - np.eye(n)) < 1e-12
    return u


@pytest.mark.parametrize("n2", [8, 16, 32, 64])
def test_complete_unitary_rank_deficient_square(n2):
    for rank in (n2 // 4, n2 // 2, 3 * n2 // 4):
        m = rand_complex(n2, rank) @ rand_complex(rank, n2)
        cols = range_columns(m)
        assert len(cols) == rank
        check_completion(cols, n2)


@pytest.mark.parametrize("rows, cols", [(5, 3), (33, 8)])
def test_complete_unitary_tall(rows, cols):
    m = rand_complex(rows, cols)
    range_cols = range_columns(m)
    assert len(range_cols) == cols
    u = check_completion(range_cols, rows)
    assert np.array_equal(svd(m)[0], u)


def test_complete_unitary_zero_matrix_and_empty_cols():
    assert np.array_equal(svd(np.zeros((6, 6), dtype=complex))[0], np.eye(6))
    assert np.array_equal(ckernel._complete_unitary([], 5), np.eye(5))
    check_completion([], 5)


def test_complete_unitary_deterministic():
    cols = range_columns(rand_complex(16, 6) @ rand_complex(6, 16))
    assert np.array_equal(ckernel._complete_unitary(cols, 16),
                          ckernel._complete_unitary(cols, 16))
