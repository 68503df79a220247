import numpy as np
import pytest

from helpers import matvec_oracle, record_svd_inputs, trial_rng
from qpolar import (BlockStructureViolation, NotInPlusSlice, QMatrix, QVector,
                    Quaternion, StandardJ, adjoint, anti_iso_phi, chi,
                    chi_pullback, classify, embed_vector, equivalence_suite,
                    inner, operator_norm, pullback_vector, quaternionic_rank,
                    slice_project, split_operator, weight_matrix)
from qpolar import ckernel, random_ops
from qpolar.quaternion import I, J, K


def test_standard_j_invariants():
    j = StandardJ(4)
    m = j.matrix
    assert (adjoint(m) + m).frobenius_norm() == 0.0
    assert (adjoint(m) @ m - QMatrix.identity(4)).frobenius_norm() == 0.0
    rr = trial_rng(31)
    x = random_ops.rand_qvector(rr, 4)
    q = random_ops.rand_quaternion(rr)
    assert (j.apply(x * q) - j.apply(x) * q).norm() < 1e-13
    assert (j.apply(x) - m.matvec(x)).norm() == 0.0


def test_slice_project_examples():
    x = QVector.from_quaternions([Quaternion(1), Quaternion(-2)])
    plus, minus = slice_project(x)
    assert (plus - x).norm() == 0.0 and minus.norm() == 0.0

    y = QVector.basis(3, 0) * J
    plus, minus = slice_project(y)
    assert plus.norm() == 0.0 and (minus - y).norm() == 0.0


def test_slice_project_structure():
    rr = trial_rng(32)
    j = StandardJ(5)
    for _ in range(50):
        x = random_ops.rand_qvector(rr, 5)
        plus, minus = slice_project(x)
        assert (plus + minus - x).norm() == 0.0  # bit-exact regrouping
        assert (j.apply(plus) - plus * I).norm() == 0.0
        assert (j.apply(minus) + minus * I).norm() == 0.0
        # opposite-slice inner products anticommute with conjugation
        cross = inner(plus, minus) + inner(minus, plus)
        assert cross.norm() <= 1e-13


def test_anti_iso_phi():
    e1 = QVector.basis(2, 0)
    assert (anti_iso_phi(e1) - e1 * J).norm() == 0.0
    # phi(x * i) = phi(x) * (-i), and e1 * i * j = e1 * k
    lhs = anti_iso_phi(e1 * I)
    assert (lhs - e1 * K).norm() == 0.0
    assert (lhs - (anti_iso_phi(e1) * (-I))).norm() == 0.0
    assert anti_iso_phi(QVector.zeros(3)).norm() == 0.0
    with pytest.raises(NotInPlusSlice):
        anti_iso_phi(e1 * J)


def test_anti_iso_phi_antilinear():
    rr = trial_rng(33)
    for _ in range(50):
        x = QVector(np.array([complex(rr.uniform(-1, 1), rr.uniform(-1, 1))
                              for _ in range(4)]))
        lam = Quaternion(rr.uniform(-1, 1), rr.uniform(-1, 1))
        lhs = anti_iso_phi(x * lam)
        rhs = anti_iso_phi(x) * lam.conjugate()
        assert (lhs - rhs).norm() < 1e-13


def test_split_operator_examples():
    s = split_operator(QMatrix.from_quaternions([[J]]))
    assert s.a1[0, 0] == 0 and s.a2[0, 0] == 1
    c = QMatrix(np.array([[1 + 2j, 0], [0, 3j]]))
    sc = split_operator(c)
    assert np.all(sc.a2 == 0)
    assert (sc.reassemble() - c).frobenius_norm() == 0.0


def test_split_operator_action_identity():
    # A(x1 + x2 j) = (A1 x1 - A2 conj(x2)) + (A1 x2 + A2 conj(x1)) j,
    # checked against plain entrywise Hamilton multiplication
    rr = trial_rng(34)
    for _ in range(25):
        a = random_ops.rand_qmatrix(rr, 3)
        s = split_operator(a)
        x = random_ops.rand_qvector(rr, 3)
        y1 = s.a1 @ x.a1 - s.a2 @ np.conj(x.a2)
        y2 = s.a1 @ x.a2 + s.a2 @ np.conj(x.a1)
        direct = matvec_oracle(a, x)
        assert (QVector(y1, y2) - direct).norm() < 1e-12
        assert (s.reassemble() - a).frobenius_norm() == 0.0


def test_chi_examples():
    img = chi(QMatrix.from_quaternions([[J]]))
    assert np.allclose(img.m, np.array([[0, 1], [-1, 0]]))
    eye = chi(QMatrix.identity(3))
    assert np.allclose(eye.m, np.eye(6))


def test_chi_homomorphism():
    rr = trial_rng(35)
    for _ in range(25):
        a = random_ops.rand_qmatrix(rr, 4)
        b = random_ops.rand_qmatrix(rr, 4)
        ca, cb = chi(a).m, chi(b).m
        assert ckernel.frobenius(chi(a + b).m - (ca + cb)) < 1e-12
        assert ckernel.frobenius(chi(a @ b).m - ca @ cb) < 1e-12
        assert ckernel.frobenius(chi(adjoint(a)).m - ca.conj().T) < 1e-12
        lam = complex(rr.uniform(-1, 1), rr.uniform(-1, 1))
        lam_op = QMatrix(lam * np.eye(4, dtype=complex))
        assert ckernel.frobenius(chi(lam_op @ a).m - chi(lam_op).m @ ca) < 1e-12
        # real scalars scale through directly
        assert ckernel.frobenius(chi(a * 0.5).m - 0.5 * ca) < 1e-14


def test_chi_norm_equality():
    rr = trial_rng(36)
    for _ in range(200):
        n = 1 + rr.randint(5)
        a = random_ops.rand_qmatrix(rr, n)
        sigma = np.linalg.svd(chi(a).m, compute_uv=False)
        top = sigma[0] if sigma.size else 0.0
        assert abs(operator_norm(a) - top) <= 1e-9 * max(1.0, top)


def test_chi_pullback_roundtrip_and_violation():
    assert (chi_pullback(np.array([[0, 1], [-1, 0]], dtype=complex))
            - QMatrix.from_quaternions([[J]])).frobenius_norm() == 0.0
    rr = trial_rng(37)
    for _ in range(25):
        a = random_ops.rand_qmatrix(rr, 3)
        assert (chi_pullback(chi(a)) - a).frobenius_norm() < 1e-13
    with pytest.raises(BlockStructureViolation):
        chi_pullback(np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(ValueError):
        chi_pullback(np.zeros((3, 3), dtype=complex))


def test_chi_injective_via_roundtrip():
    rr = trial_rng(38)
    a = random_ops.rand_qmatrix(rr, 3)
    b = random_ops.rand_qmatrix(rr, 3)
    assert ckernel.frobenius(chi(a).m - chi(b).m) > 1e-3  # distinct draws
    assert (chi_pullback(chi(a)) - a).frobenius_norm() < 1e-13
    assert (chi_pullback(chi(b)) - b).frobenius_norm() < 1e-13


def test_embed_vector_examples():
    e1 = QVector.basis(2, 0)
    assert np.allclose(embed_vector(e1), [1, 0, 0, 0])
    assert np.allclose(embed_vector(e1 * J), [0, 0, -1, 0])
    rr = trial_rng(39)
    x = random_ops.rand_qvector(rr, 3)
    assert abs(np.linalg.norm(embed_vector(x)) - x.norm()) < 1e-13
    assert (pullback_vector(embed_vector(x)) - x).norm() == 0.0


def test_embed_intertwines_action():
    rr = trial_rng(40)
    for _ in range(25):
        a = random_ops.rand_qmatrix(rr, 4)
        x = random_ops.rand_qvector(rr, 4)
        lhs = embed_vector(a.matvec(x))
        rhs = chi(a).m @ embed_vector(x)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_embed_null_vector_of_weight_matrix():
    a = weight_matrix(10)
    e4 = QVector.basis(10, 3)
    assert np.linalg.norm(chi(a).m @ embed_vector(e4)) < 1e-12


def test_null_dimension_doubles():
    rr = trial_rng(41)
    for _ in range(200):
        n = 1 + rr.randint(5)
        rank = rr.randint(n + 1)
        a = (random_ops.rand_qmatrix(rr, n) if rank == n
             else random_ops.rank_deficient(rr, n, rank))
        s = np.linalg.svd(chi(a).m, compute_uv=False)
        null_c = 2 * n - ckernel.rank_from_singular_values(s, 2 * n)
        assert null_c == 2 * (n - quaternionic_rank(a))


def test_equivalence_suite_examples():
    assert equivalence_suite(QMatrix.identity(3)).all_agree
    rep = equivalence_suite(QMatrix.from_quaternions([[J]]))
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


def test_classify_positive_matches_complex_side():
    rr = trial_rng(43)
    p = random_ops.psd(rr, 4)
    assert classify(p).positive
    cc = ckernel.classify_cmatrix(chi(p).m)
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
