import numpy as np
import pytest

from helpers import (inner, matvec_oracle, planes, record_svd_inputs,
                     right_mul, trial_rng)
from qpolar import (BlockStructureViolation, QMatrix, Quaternion,
                    chi, chi_pullback, classify, embed_vector,
                    equivalence_suite, operator_norm, pullback_vector,
                    quaternionic_rank, weight_matrix)
from qpolar import ckernel, random_ops
from qpolar.quaternion import I, J, K
from qpolar.rng import SplitMix64


# The slice device of the paper, in the arithmetic of QMatrix, a vector
# being an n x 1 block: J = i * I acts as x -> i x, the plus slice holds
# the vectors with entries in C_i (a2 = 0), the minus slice its image
# under x -> x * j (a1 = 0), and A = A1 + A2 * j splits into the planes
# (a1, a2).

def _plus_minus(x: QMatrix):
    return QMatrix(x.a1), QMatrix(np.zeros_like(x.a2), x.a2)


def test_standard_j_invariants():
    m = QMatrix(1j * np.eye(4, dtype=complex))
    assert (m.adjoint() + m).frobenius_norm() == 0.0
    assert (m.adjoint() @ m - QMatrix.identity(4)).frobenius_norm() == 0.0
    rr = trial_rng(31)
    x = random_ops.rand_qvector(rr, 4)
    q = random_ops.rand_quaternion(rr)
    assert (m @ right_mul(x, q)
            - right_mul(m @ x, q)).frobenius_norm() < 1e-13
    assert (m @ x - QMatrix(1j * x.a1, 1j * x.a2)).frobenius_norm() == 0.0


def test_slice_project_examples():
    x = QMatrix(*planes([[Quaternion(1)], [Quaternion(-2)]]))
    plus, minus = _plus_minus(x)
    assert (plus - x).frobenius_norm() == 0.0
    assert minus.frobenius_norm() == 0.0

    y = right_mul(QMatrix.identity(3).column(0), J)
    plus, minus = _plus_minus(y)
    assert plus.frobenius_norm() == 0.0
    assert (minus - y).frobenius_norm() == 0.0


def test_slice_project_structure():
    rr = trial_rng(32)
    j = QMatrix(1j * np.eye(5, dtype=complex))
    for _ in range(50):
        x = random_ops.rand_qvector(rr, 5)
        plus, minus = _plus_minus(x)
        # bit-exact regrouping
        assert (plus + minus - x).frobenius_norm() == 0.0
        assert (j @ plus - right_mul(plus, I)).frobenius_norm() == 0.0
        assert (j @ minus + right_mul(minus, I)).frobenius_norm() == 0.0
        # opposite-slice inner products anticommute with conjugation
        cross = inner(plus, minus) + inner(minus, plus)
        assert cross.norm() <= 1e-13


def test_anti_iso_phi():
    # phi(x) = x * j carries the plus slice onto the minus slice
    e1 = QMatrix.identity(2).column(0)
    e1j = right_mul(e1, J)
    assert np.all(e1j.a1 == 0) and np.all(e1j.a2 == e1.a1)
    # phi(x * i) = phi(x) * (-i), and e1 * i * j = e1 * k
    lhs = right_mul(right_mul(e1, I), J)
    assert (lhs - right_mul(e1, K)).frobenius_norm() == 0.0
    assert (lhs - right_mul(e1j, -I)).frobenius_norm() == 0.0
    assert right_mul(QMatrix.zeros(3, 1), J).frobenius_norm() == 0.0


def test_anti_iso_phi_antilinear():
    rr = trial_rng(33)
    for _ in range(50):
        x = QMatrix(np.array([[complex(rr.uniform(-1, 1), rr.uniform(-1, 1))]
                              for _ in range(4)]))
        lam = Quaternion(rr.uniform(-1, 1), rr.uniform(-1, 1))
        lhs = right_mul(right_mul(x, lam), J)
        rhs = right_mul(right_mul(x, J), lam.conjugate())
        assert (lhs - rhs).frobenius_norm() < 1e-13


def test_split_operator_examples():
    s = QMatrix.diag([J])
    assert s.a1[0, 0] == 0 and s.a2[0, 0] == 1
    c = QMatrix(np.array([[1 + 2j, 0], [0, 3j]]))
    assert np.all(c.a2 == 0)
    assert (QMatrix(c.a1, c.a2) - c).frobenius_norm() == 0.0


def test_split_operator_action_identity():
    # A(x1 + x2 j) = (A1 x1 - A2 conj(x2)) + (A1 x2 + A2 conj(x1)) j,
    # checked against plain entrywise Hamilton multiplication
    rr = trial_rng(34)
    for _ in range(25):
        a = random_ops.rand_qmatrix(rr, 3)
        x = random_ops.rand_qvector(rr, 3)
        y1 = a.a1 @ x.a1 - a.a2 @ np.conj(x.a2)
        y2 = a.a1 @ x.a2 + a.a2 @ np.conj(x.a1)
        direct = matvec_oracle(a, x)
        assert (QMatrix(y1, y2) - direct).frobenius_norm() < 1e-12
        assert (QMatrix(a.a1, a.a2) - a).frobenius_norm() == 0.0


def test_chi_examples():
    img = chi(QMatrix.diag([J]))
    assert np.allclose(img, np.array([[0, 1], [-1, 0]]))
    eye = chi(QMatrix.identity(3))
    assert np.allclose(eye, np.eye(6))


def test_chi_homomorphism():
    rr = trial_rng(35)
    for _ in range(25):
        a = random_ops.rand_qmatrix(rr, 4)
        b = random_ops.rand_qmatrix(rr, 4)
        ca, cb = chi(a), chi(b)
        assert ckernel.frobenius(chi(a + b) - (ca + cb)) < 1e-12
        assert ckernel.frobenius(chi(a @ b) - ca @ cb) < 1e-12
        assert ckernel.frobenius(chi(a.adjoint()) - ca.conj().T) < 1e-12
        lam = complex(rr.uniform(-1, 1), rr.uniform(-1, 1))
        lam_op = QMatrix(lam * np.eye(4, dtype=complex))
        assert ckernel.frobenius(chi(lam_op @ a) - chi(lam_op) @ ca) < 1e-12
        # real scalars scale through directly
        assert ckernel.frobenius(chi(a * 0.5) - 0.5 * ca) < 1e-14


def test_chi_norm_equality():
    rr = trial_rng(36)
    for _ in range(200):
        n = 1 + rr.randint(5)
        a = random_ops.rand_qmatrix(rr, n)
        sigma = np.linalg.svd(chi(a), compute_uv=False)
        top = sigma[0] if sigma.size else 0.0
        assert abs(operator_norm(a) - top) <= 1e-9 * max(1.0, top)


def test_chi_pullback_roundtrip_and_violation():
    assert (chi_pullback(np.array([[0, 1], [-1, 0]], dtype=complex))
            - QMatrix.diag([J])).frobenius_norm() == 0.0
    rr = trial_rng(37)
    for _ in range(25):
        a = random_ops.rand_qmatrix(rr, 3)
        assert (chi_pullback(chi(a)) - a).frobenius_norm() < 1e-13
    with pytest.raises(BlockStructureViolation):
        chi_pullback(np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(ValueError):
        chi_pullback(np.zeros((3, 3), dtype=complex))


@pytest.mark.parametrize("k", [-600, -40, 0, 600])
def test_chi_pullback_block_check_is_relative(k):
    # the block residual of diag(1, 2) is 1/sqrt(5) of its norm at every
    # scale, and chi(A) pulls back exactly at every scale
    with pytest.raises(BlockStructureViolation):
        chi_pullback(2.0 ** k * np.diag([1.0, 2.0]).astype(complex))
    a = random_ops.rand_qmatrix(trial_rng(39), 3) * 2.0 ** k
    assert np.array_equal(chi_pullback(chi(a)).p, a.p)


def test_chi_injective_via_roundtrip():
    rr = trial_rng(38)
    a = random_ops.rand_qmatrix(rr, 3)
    b = random_ops.rand_qmatrix(rr, 3)
    assert ckernel.frobenius(chi(a) - chi(b)) > 1e-3  # distinct draws
    assert (chi_pullback(chi(a)) - a).frobenius_norm() < 1e-13
    assert (chi_pullback(chi(b)) - b).frobenius_norm() < 1e-13


def test_embed_vector_examples():
    e1 = QMatrix.identity(2).column(0)
    assert np.allclose(embed_vector(e1), [1, 0, 0, 0])
    assert np.allclose(embed_vector(right_mul(e1, J)), [0, 0, -1, 0])
    rr = trial_rng(39)
    x = random_ops.rand_qvector(rr, 3)
    assert abs(np.linalg.norm(embed_vector(x)) - x.frobenius_norm()) < 1e-13
    # the embedding of an n x 1 block is the first column of its chi
    # image, (x1, -conj(x2)) bit for bit, and the pullback gives back the
    # planes exactly
    for n in range(1, 49):
        x = random_ops.rand_qvector(rr, n)
        u = embed_vector(x)
        assert u.tobytes() == chi(x)[:, 0].tobytes()
        want = np.concatenate([x.a1[:, 0], -np.conj(x.a2[:, 0])])
        assert u.tobytes() == want.tobytes()
        assert pullback_vector(u).p.tobytes() == x.p.tobytes()


def test_embed_intertwines_action():
    rr = trial_rng(40)
    for _ in range(25):
        a = random_ops.rand_qmatrix(rr, 4)
        x = random_ops.rand_qvector(rr, 4)
        lhs = embed_vector(a @ x)
        rhs = chi(a) @ embed_vector(x)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_embed_null_vector_of_weight_matrix():
    a = weight_matrix(10)
    e4 = QMatrix.identity(10).column(3)
    assert np.linalg.norm(chi(a) @ embed_vector(e4)) < 1e-12


def test_null_dimension_doubles():
    rr = trial_rng(41)
    for _ in range(200):
        n = 1 + rr.randint(5)
        rank = rr.randint(n + 1)
        a = (random_ops.rand_qmatrix(rr, n) if rank == n
             else random_ops.rank_deficient(rr, n, rank))
        s = np.linalg.svd(chi(a), compute_uv=False)
        null_c = 2 * n - ckernel.rank_from_singular_values(s, 2 * n)
        assert null_c == 2 * (n - quaternionic_rank(a))


def test_chi_image_rank_is_twice_the_rank():
    # what chi.null_dim_mismatches reads: the chi image factored as the
    # quaternion matrix chi(A) + 0 j, cut at 2 * 2n as every factorization
    # is, has twice A's rank at every planted rank
    for n in range(1, 17):
        for rank in range(n + 1):
            a = random_ops.rank_deficient(SplitMix64(100 * n + rank), n, rank)
            assert QMatrix(chi(a)).fac.rank == 2 * quaternionic_rank(a) \
                == 2 * rank, (n, rank)


def test_equivalence_suite_examples():
    assert equivalence_suite(QMatrix.identity(3)).all_agree
    rep = equivalence_suite(QMatrix.diag([J]))
    assert rep.all_agree
    byname = {r.name: r for r in rep.rows}
    assert byname["anti_self_adjoint"].flag_quaternionic
    assert byname["unitary"].flag_quaternionic
    assert not byname["self_adjoint"].flag_quaternionic


def test_equivalence_suite_class_constructions():
    rr = trial_rng(42)
    builders = (random_ops.rand_qmatrix, random_ops.hermitian,
                random_ops.anti_self_adjoint, random_ops.psd,
                random_ops.unitary, random_ops.normal,
                random_ops.projection, random_ops.partial_isometry)
    for trial in range(15):
        n = 1 + rr.randint(5)
        for build in builders:
            rep = equivalence_suite(build(rr, n))
            assert rep.all_agree, [r.name for r in rep.disagreements()]


def test_equivalence_positivity_row_reads_chi(monkeypatch):
    # the complex side reads the negative part of chi(A) itself, as
    # chi(A) - chi(|A|): chi holds every entry twice, so it is sqrt(2)
    # times the quaternion residual, with no factorization of chi(A)
    h = random_ops.hermitian(SplitMix64(3), 4)
    assert operator_norm(h) > 0.0  # factors h before the suite runs
    inputs = record_svd_inputs(monkeypatch)
    rep = equivalence_suite(h)
    assert inputs == []
    row = {r.name: r for r in rep.rows}["positive"]
    assert not row.flag_quaternionic and not row.flag_complex
    assert row.residual_complex == pytest.approx(
        np.sqrt(2.0) * row.residual_quaternionic, rel=1e-12)


def test_classify_positive_matches_complex_side():
    rr = trial_rng(43)
    p = random_ops.psd(rr, 4)
    assert classify(p).positive
    cc = ckernel.classify_cmatrix(chi(p))
    assert cc["flags"]["positive"]


def test_equivalence_suite_factors_chi_once(monkeypatch):
    # both classifiers read one SVD of chi(A), each computing its own
    # residuals: chi holds every entry twice, so Frobenius residuals grow
    # by sqrt(2) on the complex side
    a = random_ops.rand_qmatrix(trial_rng(44), 4)
    inputs = record_svd_inputs(monkeypatch)
    rep = equivalence_suite(a)
    assert rep.all_agree
    assert len(inputs) == 1
    byname = {r.name: r for r in rep.rows}
    for name in ("self_adjoint", "anti_self_adjoint", "normal", "unitary",
                 "projection"):
        assert byname[name].residual_complex == pytest.approx(
            np.sqrt(2.0) * byname[name].residual_quaternionic, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_class_residual_overflow_is_rejected():
    # entries near 1e300: a* a and a a* overflow, so the normal residual is
    # inf - inf; that is an error, not a flag read from a NaN
    a = random_ops.rand_qmatrix(SplitMix64(3), 4)
    big = a * 2.0 ** 996
    assert ckernel.svd(big.p)[1][0] < np.inf  # the SVD still factors
    with pytest.raises(ckernel.NonFiniteInput):
        equivalence_suite(big)
    with pytest.raises(ckernel.NonFiniteInput):
        classify(QMatrix.identity(3) * 2.0 ** 996)
    with pytest.raises(ckernel.NonFiniteInput):
        ckernel.classify_cmatrix(np.eye(3) * 2.0 ** 996)
    # entries near 1e75: (a* a)^2 is near the largest double, and its
    # residual is read without a warning
    rep = equivalence_suite(a * 2.0 ** 250)
    assert rep.all_agree
    byname = {r.name: r for r in rep.rows}
    assert byname["partial_isometry"].residual_complex > 1e300
    assert not byname["partial_isometry"].flag_quaternionic
    c = classify(QMatrix.identity(3) * 2.0 ** 250)
    assert c.normal and c.self_adjoint and c.positive and not c.unitary
