import math

import numpy as np
import pytest

from helpers import inner_oracle, matmul_oracle, matvec_oracle, trial_rng
from qpolar import (QMatrix, QVector, Quaternion, ShapeMismatch, adjoint,
                    classify, gram_schmidt, inner, null_range_bases,
                    operator_norm, projector_onto, quaternionic_rank,
                    weight_matrix)
from qpolar.qlinalg import frobenius_norm, positivity
from qpolar.slices import chi, pullback_vector
from qpolar.quaternion import I, J, K
from qpolar import ckernel, random_ops


def test_inner_examples():
    e1 = QVector.basis(2, 0)
    assert inner(e1, e1 * J) == J
    x = QVector.from_quaternions([I, J])
    assert inner(x, x) == Quaternion(2)
    with pytest.raises(ShapeMismatch):
        inner(QVector.zeros(2), QVector.zeros(3))


def test_inner_conjugate_symmetry_bulk():
    rr = trial_rng(11)
    for _ in range(10_000):
        x = random_ops.rand_qvector(rr, 3)
        y = random_ops.rand_qvector(rr, 3)
        lhs = inner(x, y)
        rhs = inner(y, x).conjugate()
        assert (lhs - rhs).norm() <= 1e-13 * max(1.0, lhs.norm())


def test_inner_right_linearity():
    rr = trial_rng(12)
    for _ in range(200):
        u = random_ops.rand_qvector(rr, 4)
        v = random_ops.rand_qvector(rr, 4)
        w = random_ops.rand_qvector(rr, 4)
        q = random_ops.rand_quaternion(rr)
        lhs = inner(u, v + w * q)
        rhs = inner(u, v) + inner(u, w) * q
        assert (lhs - rhs).norm() <= 1e-13 * max(1.0, lhs.norm())


def test_inner_matches_direct_summation():
    rr = trial_rng(13)
    for _ in range(100):
        x = random_ops.rand_qvector(rr, 5)
        y = random_ops.rand_qvector(rr, 5)
        assert (inner(x, y) - inner_oracle(x, y)).norm() <= 1e-13


def test_cauchy_schwarz_bulk():
    rr = trial_rng(14)
    for _ in range(10_000):
        x = random_ops.rand_qvector(rr, 3)
        y = random_ops.rand_qvector(rr, 3)
        assert inner(x, y).norm() <= x.norm() * y.norm() * (1 + 1e-13)


def test_right_module_action():
    rr = trial_rng(15)
    for _ in range(100):
        a = random_ops.rand_qmatrix(rr, 4)
        x = random_ops.rand_qvector(rr, 4)
        y = random_ops.rand_qvector(rr, 4)
        q = random_ops.rand_quaternion(rr)
        lhs = a.matvec(x * q + y)
        rhs = a.matvec(x) * q + a.matvec(y)
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_matmul_matches_hamilton_oracle():
    rr = trial_rng(16)
    for _ in range(25):
        a = random_ops.rand_qmatrix(rr, 3)
        b = random_ops.rand_qmatrix(rr, 3)
        assert (a @ b - matmul_oracle(a, b)).frobenius_norm() <= 1e-13
        x = random_ops.rand_qvector(rr, 3)
        assert (a.matvec(x) - matvec_oracle(a, x)).norm() <= 1e-13


def test_adjoint_examples():
    assert adjoint(QMatrix.from_quaternions([[J]])).entry(0, 0) == -J
    eye = QMatrix.identity(3)
    assert (adjoint(eye) - eye).frobenius_norm() == 0.0


def test_adjoint_identity_random_pairs():
    rr = trial_rng(17)
    a = random_ops.rand_qmatrix(rr, 4)
    astar = adjoint(a)
    worst = 0.0
    for _ in range(100):
        x = random_ops.rand_qvector(rr, 4)
        y = random_ops.rand_qvector(rr, 4)
        diff = inner(x, a.matvec(y)) - inner(astar.matvec(x), y)
        worst = max(worst, diff.norm())
    assert worst < 1e-12
    assert (adjoint(astar) - a).frobenius_norm() == 0.0


def test_gram_schmidt_examples():
    e1 = QVector.basis(2, 0)
    e2 = QVector.basis(2, 1)
    out = gram_schmidt([e1, e1 * K, e2])
    assert len(out) == 2
    # spans e1, e2 up to right unit scalars
    p = projector_onto(out)
    want = QMatrix.identity(2)
    assert (p - want).frobenius_norm() < 1e-12

    pair = gram_schmidt([QVector.from_quaternions([Quaternion(1), Quaternion(1)]),
                         QVector.from_quaternions([Quaternion(1), Quaternion(0)])])
    assert len(pair) == 2
    for r, u in enumerate(pair):
        for s, v in enumerate(pair):
            want_q = Quaternion(1.0 if r == s else 0.0)
            assert (inner(u, v) - want_q).norm() < 1e-12

    assert gram_schmidt([]) == []


def test_gram_schmidt_rank_deficient_shrinks():
    rr = trial_rng(18)
    vs = [random_ops.rand_qvector(rr, 3) for _ in range(2)]
    vs.append(vs[0] * random_ops.rand_quaternion(rr)
              + vs[1] * random_ops.rand_quaternion(rr))
    out = gram_schmidt(vs)
    assert len(out) == 2


def gram_schmidt_objects(vectors, drop_tol=1e-10):
    """Reference: two-pass Gram-Schmidt over QVector and Quaternion
    objects, dropping a vector whose residual is at most drop_tol times
    its norm."""
    basis = []
    for v in vectors:
        w = v.copy()
        orig = w.norm()
        for _ in range(2):
            for u in basis:
                w = w - u * inner(u, w)
        nw = w.norm()
        if nw > drop_tol * orig:
            basis.append(w * (1.0 / nw))
    return basis


def _gram_schmidt_cases():
    rr = trial_rng(19)
    yield []
    for n in (1, 3, 8):
        yield [random_ops.rand_qvector(rr, n) for _ in range(n)]
        yield [random_ops.rand_qvector(rr, n) for _ in range(n + 2)]
    # pulled-back singular vectors of block images come in dependent
    # pairs, as in the coimage and null/range bases
    for n, rank in ((2, 2), (5, 3), (8, 8), (8, 1)):
        v = ckernel.svd(chi(random_ops.rank_deficient(rr, n, rank)))[2]
        yield [pullback_vector(v[:, k]) for k in range(2 * n)]
        yield [pullback_vector(v[:, k]) for k in range(2 * rank, 2 * n)]


def test_gram_schmidt_matches_object_loop_bytes():
    # the Householder basis spans what the object loop spans, and keeps as
    # many vectors; the basis vectors themselves differ by unit scalars
    for vectors in _gram_schmidt_cases():
        got = gram_schmidt(vectors)
        want = gram_schmidt_objects(vectors)
        assert len(got) == len(want)
        if want:
            diff = projector_onto(got) - projector_onto(want)
            assert diff.frobenius_norm() < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gram_schmidt_keeps_independent_vectors_at_any_scale():
    # the drop rule is relative to each vector's norm, and the basis of
    # 2**k v is that of v, bit for bit; dependent vectors are still dropped
    rr = trial_rng(20)
    vs = [random_ops.rand_qvector(rr, 4) for _ in range(3)]
    vs.append(vs[0] * random_ops.rand_quaternion(rr) + vs[2])
    units = [QVector.basis(3, 0), QVector.basis(3, 1)]
    want = gram_schmidt(vs)
    assert len(want) == 3
    for k in (-600, -40, 0, 600):
        assert len(gram_schmidt([v * 2.0 ** k for v in units])) == 2
        got = gram_schmidt([v * 2.0 ** k for v in vs])
        assert len(got) == 3
        for g, w in zip(got, want):
            assert np.array_equal(g.a1, w.a1) and np.array_equal(g.a2, w.a2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent", [-600, 600])
def test_frobenius_norm_extreme_scales(exponent):
    rr = trial_rng(20)
    a = random_ops.rand_qmatrix(rr, 3)
    scaled = a * 2.0 ** exponent
    # scaling by a power of two is exact, so the norm scales exactly too
    assert frobenius_norm(scaled) == pytest.approx(
        frobenius_norm(a) * 2.0 ** exponent, rel=1e-14, abs=0.0)
    x = random_ops.rand_qvector(rr, 4)
    assert (x * 2.0 ** exponent).norm() == pytest.approx(
        x.norm() * 2.0 ** exponent, rel=1e-14, abs=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", [3e-310 + 1e-310j, 3e-300 + 1e-300j])
def test_frobenius_norms_tiny_entries(entry):
    # a subnormal largest entry, then squares that underflow to 0: both
    # norms rescale by a power of two, never by dividing by the entry
    want = math.hypot(*[entry.real, entry.imag] * 4)
    a = np.full((2, 2), entry)
    assert ckernel.frobenius(a) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert frobenius_norm(QMatrix(a)) == pytest.approx(want, rel=1e-12,
                                                       abs=0.0)


def test_operator_norm_examples():
    a = QMatrix.diag([J, Quaternion(0)])
    assert abs(operator_norm(a) - 1.0) < 1e-12
    assert operator_norm(QMatrix.zeros(3)) == 0.0
    # truncated weight matrix norms are the largest diagonal weight
    assert abs(operator_norm(weight_matrix(7)) - 7 / math.sqrt(50)) < 1e-12
    assert abs(operator_norm(weight_matrix(10)) - 10 / math.sqrt(101)) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_operator_norm_scale_equivariant():
    # scaling by an exact power of two scales the norm exactly, at every
    # exponent where the scaled entries are exact
    a = random_ops.rand_qmatrix(trial_rng(21), 3)
    norm = operator_norm(a)
    checked = 0
    for k in range(-1000, 1001):
        scaled = a * 2.0 ** k
        if (scaled * 2.0 ** -k - a).frobenius_norm() != 0.0:
            continue
        assert operator_norm(scaled) == 2.0 ** k * norm, k
        checked += 1
    assert checked == 2001


def test_operator_norm_matches_block_svd():
    rr = trial_rng(19)
    for _ in range(20):
        a = random_ops.rand_qmatrix(rr, 6)
        sigma = np.linalg.svd(chi(a), compute_uv=False)[0]
        assert abs(operator_norm(a) - sigma) <= 1e-9 * max(1.0, sigma)
        assert abs(operator_norm(a) - operator_norm(adjoint(a))) \
            <= 1e-9 * max(1.0, sigma)


def test_classify_identity():
    oc = classify(QMatrix.identity(3))
    assert oc.unitary and oc.self_adjoint and oc.positive
    assert oc.projection and oc.partial_isometry and oc.normal
    assert not oc.anti_self_adjoint


def test_classify_j_scalar():
    oc = classify(QMatrix.from_quaternions([[J]]))
    assert oc.anti_self_adjoint and oc.unitary and oc.normal
    assert not oc.self_adjoint and not oc.positive


def test_classify_weight_isometry():
    from qpolar import polar_decompose
    u0 = polar_decompose(weight_matrix(10)).u0
    oc = classify(u0)
    assert oc.partial_isometry
    assert not oc.unitary


def test_classify_flag_implications():
    rr = trial_rng(20)
    builders = [
        lambda: random_ops.rand_qmatrix(rr, 4),
        lambda: random_ops.hermitian(rr, 4),
        lambda: random_ops.anti_self_adjoint(rr, 4),
        lambda: random_ops.psd(rr, 4),
        lambda: random_ops.unitary(rr, 4),
        lambda: random_ops.normal(rr, 4),
        lambda: random_ops.projection(rr, 4),
        lambda: random_ops.partial_isometry(rr, 4),
    ]
    for build in builders:
        oc = classify(build())
        if oc.unitary:
            assert oc.normal
        if oc.projection:
            assert oc.self_adjoint
        if oc.positive:
            assert oc.self_adjoint
        with pytest.raises(ValueError):
            classify(build(), tol=0.0)


def test_classify_expected_flags_per_class():
    rr = trial_rng(21)
    assert classify(random_ops.psd(rr, 4)).positive
    assert classify(random_ops.hermitian(rr, 4)).self_adjoint
    assert classify(random_ops.anti_self_adjoint(rr, 4)).anti_self_adjoint
    assert classify(random_ops.unitary(rr, 4)).unitary
    assert classify(random_ops.normal(rr, 4)).normal
    assert classify(random_ops.projection(rr, 4, rank=2)).projection
    assert classify(random_ops.partial_isometry(rr, 4, rank=2)).partial_isometry


def test_positivity_matches_classify():
    rr = trial_rng(22)
    h = random_ops.hermitian(rr, 4)
    ops = [h, random_ops.psd(rr, 4), random_ops.projection(rr, 4, rank=2),
           random_ops.anti_self_adjoint(rr, 4), random_ops.rand_qmatrix(rr, 4),
           QMatrix.zeros(3), QMatrix.diag([2.0, -1e-3]),
           # lowest eigenvalue -5e-8: within 1e-9 * sigma_max, not within 1e-9
           QMatrix.diag([100.0, -5e-8])]
    flags = []
    for a in ops:
        for tol in (1e-9, 1e-6):
            oc = classify(a, tol)
            residual, positive, _ = positivity(a, tol)
            assert residual == oc.residuals["positive"]
            assert positive == oc.positive
            flags.append(positive)
    assert True in flags and False in flags
    assert positivity(QMatrix.diag([100.0, -5e-8]), 1e-9)[1]
    with pytest.raises(ShapeMismatch):
        positivity(QMatrix.zeros(2, 3))
    with pytest.raises(ValueError):
        positivity(h, tol=0.0)


def test_null_range_bases_zero_matrix():
    null_basis, range_basis = null_range_bases(QMatrix.zeros(3))
    assert len(null_basis) == 3 and range_basis == []
    p = projector_onto(null_basis)
    assert (p - QMatrix.identity(3)).frobenius_norm() < 1e-12


def test_null_range_bases_weight_matrix():
    a = weight_matrix(10)
    null_basis, range_basis = null_range_bases(a)
    assert len(null_basis) == 3 and len(range_basis) == 7
    want = QMatrix.zeros(10)
    for k in (2, 3, 4):
        want.a1[k, k] = 1.0
    assert (projector_onto(null_basis) - want).frobenius_norm() < 1e-10
    for v in null_basis:
        assert a.matvec(v).norm() <= 1e-10 * operator_norm(a)


def test_null_range_bases_planted_rank():
    rr = trial_rng(22)
    a = random_ops.rank_deficient(rr, 4, 2)
    null_basis, range_basis = null_range_bases(a)
    assert len(null_basis) == 2 and len(range_basis) == 2
    assert quaternionic_rank(a) == 2
    assert classify(a).rank == 2


def test_rank_nullity_and_corange_orthogonality():
    rr = trial_rng(23)
    for k in range(200):
        n = 1 + rr.randint(6)
        rank = rr.randint(n + 1)
        a = (random_ops.rand_qmatrix(rr, n) if rank == n
             else random_ops.rank_deficient(rr, n, rank))
        null_basis, range_basis = null_range_bases(a)
        assert len(null_basis) + len(range_basis) == n
        # R(A)-perp equals N(A*): mutual orthogonality of computed bases
        null_star = null_range_bases(adjoint(a))[0]
        for u in null_star:
            for v in range_basis:
                assert inner(u, v).norm() < 1e-10


def test_matrix_in_basis():
    # F* A F, F the columns of an orthonormal basis, has entries <f_r|A f_s>
    def matrix_in_basis(a, basis):
        f = QMatrix.from_columns(basis)
        return f.adjoint() @ a @ f

    rr = trial_rng(24)
    a = random_ops.rand_qmatrix(rr, 4)
    std = [QVector.basis(4, k) for k in range(4)]
    assert (matrix_in_basis(a, std) - a).frobenius_norm() < 1e-13
    basis = gram_schmidt([random_ops.rand_qvector(rr, 4) for _ in range(4)])
    b = matrix_in_basis(a, basis)
    # entries are <f_r | A f_s>
    for r in range(4):
        for s in range(4):
            want = inner(basis[r], a.matvec(basis[s]))
            assert (b.entry(r, s) - want).norm() < 1e-12
    # conjugation by a unitary basis preserves the operator norm
    assert abs(operator_norm(b) - operator_norm(a)) < 1e-9
