import math

import numpy as np
import pytest

from helpers import (inner, inner_oracle, matmul_oracle, matvec_oracle,
                     planes, right_mul, trial_rng)
from qpolar import (QMatrix, Quaternion, ShapeMismatch,
                    classify, emit_qmat, gram_schmidt,
                    null_range_bases, operator_norm, parse_qmat,
                    polar_decompose, projector_onto, quaternionic_rank,
                    weight_matrix)
from qpolar.qlinalg import _svd_bases, frobenius_norm
from qpolar.slices import chi, pullback_vector
from qpolar.quaternion import I, J, K
from qpolar import ckernel, qlinalg, random_ops
from qpolar.rng import SplitMix64

# A vector of H^n is an n x 1 QMatrix: <x|y> is the 1 x 1 product x* y,
# and x q is x @ diag(q).


def _hstack(*blocks) -> QMatrix:
    """The QMatrix whose columns are those of the given blocks, in order."""
    return QMatrix(*np.concatenate([b.p for b in blocks], axis=2))


def test_inner_examples():
    e1 = QMatrix.identity(2).column(0)
    assert inner(e1, right_mul(e1, J)) == J
    x = QMatrix(*planes([[I], [J]]))
    assert inner(x, x) == Quaternion(2)
    with pytest.raises(ShapeMismatch):
        QMatrix.zeros(2, 1).adjoint() @ QMatrix.zeros(3, 1)
    # a vector is a 2-d block; 1-d planes are refused
    with pytest.raises(ShapeMismatch, match="not one 2-d shape"):
        QMatrix(np.ones(2), np.zeros(2))


def test_inner_conjugate_symmetry_bulk():
    rr = trial_rng(11)
    for _ in range(10_000):
        x = random_ops.rand_qvector(rr, 3)
        y = random_ops.rand_qvector(rr, 3)
        lhs = x.adjoint() @ y
        rhs = (y.adjoint() @ x).adjoint()
        assert (lhs - rhs).frobenius_norm() \
            <= 1e-13 * max(1.0, lhs.frobenius_norm())


def test_inner_right_linearity():
    rr = trial_rng(12)
    for _ in range(200):
        u = random_ops.rand_qvector(rr, 4)
        v = random_ops.rand_qvector(rr, 4)
        w = random_ops.rand_qvector(rr, 4)
        q = QMatrix.diag([random_ops.rand_quaternion(rr)])
        lhs = u.adjoint() @ (v + w @ q)
        rhs = u.adjoint() @ v + (u.adjoint() @ w) @ q
        assert (lhs - rhs).frobenius_norm() \
            <= 1e-13 * max(1.0, lhs.frobenius_norm())


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
        assert (x.adjoint() @ y).frobenius_norm() \
            <= x.frobenius_norm() * y.frobenius_norm() * (1 + 1e-13)


def test_right_module_action():
    rr = trial_rng(15)
    for _ in range(100):
        a = random_ops.rand_qmatrix(rr, 4)
        x = random_ops.rand_qvector(rr, 4)
        y = random_ops.rand_qvector(rr, 4)
        q = QMatrix.diag([random_ops.rand_quaternion(rr)])
        lhs = a @ (x @ q + y)
        rhs = (a @ x) @ q + a @ y
        assert (lhs - rhs).frobenius_norm() \
            <= 1e-12 * max(1.0, lhs.frobenius_norm())


def test_matmul_matches_hamilton_oracle():
    rr = trial_rng(16)
    for _ in range(25):
        a = random_ops.rand_qmatrix(rr, 3)
        b = random_ops.rand_qmatrix(rr, 3)
        assert (a @ b - matmul_oracle(a, b)).frobenius_norm() <= 1e-13
        x = random_ops.rand_qvector(rr, 3)
        assert (a @ x - matvec_oracle(a, x)).frobenius_norm() <= 1e-13


def test_vector_product_bytes_match_one_dimensional_product():
    # a vector is an n x 1 block; its product with a matrix has the bits
    # of the product with the 1-d planes, which the closed-form example
    # reports and the polar battery's annihilation line were pinned on
    rr = trial_rng(97)
    for n in range(1, 49):
        a = random_ops.rand_qmatrix(rr, n)
        x = random_ops.rand_qvector(rr, n)
        want = ckernel._qmul(a.p, x.p[:, :, 0])
        assert (a @ x).p.tobytes() == want.tobytes(), n


def test_adjoint_examples():
    assert QMatrix.diag([J]).adjoint().entry(0, 0) == -J
    eye = QMatrix.identity(3)
    assert (eye.adjoint() - eye).frobenius_norm() == 0.0


def test_adjoint_identity_random_pairs():
    rr = trial_rng(17)
    a = random_ops.rand_qmatrix(rr, 4)
    astar = a.adjoint()
    worst = 0.0
    for _ in range(100):
        x = random_ops.rand_qvector(rr, 4)
        y = random_ops.rand_qvector(rr, 4)
        diff = inner(x, a @ y) - inner(astar @ x, y)
        worst = max(worst, diff.norm())
    assert worst < 1e-12
    assert (astar.adjoint() - a).frobenius_norm() == 0.0


def test_gram_schmidt_examples():
    e1, e2 = QMatrix.identity(2).column(0), QMatrix.identity(2).column(1)
    out = gram_schmidt(_hstack(e1, right_mul(e1, K), e2))
    assert out.shape == (2, 2)
    # spans e1, e2 up to right unit scalars
    p = projector_onto(out)
    want = QMatrix.identity(2)
    assert (p - want).frobenius_norm() < 1e-12

    one, zero = Quaternion(1), Quaternion(0)
    pair = gram_schmidt(QMatrix(*planes([[one, one], [one, zero]])))
    assert pair.shape == (2, 2)
    for r in range(2):
        for s in range(2):
            want_q = Quaternion(1.0 if r == s else 0.0)
            assert (inner(pair.column(r), pair.column(s))
                    - want_q).norm() < 1e-12

    assert gram_schmidt(QMatrix.zeros(2, 0)).shape == (2, 0)


def test_gram_schmidt_rank_deficient_shrinks():
    rr = trial_rng(18)
    vs = [random_ops.rand_qvector(rr, 3) for _ in range(2)]
    vs.append(right_mul(vs[0], random_ops.rand_quaternion(rr))
              + right_mul(vs[1], random_ops.rand_quaternion(rr)))
    out = gram_schmidt(_hstack(*vs))
    assert out.shape == (3, 2)


def gram_schmidt_objects(b: QMatrix, drop_tol=1e-10):
    """Reference: two-pass Gram-Schmidt over the columns of b, one n x 1
    block and one Quaternion coefficient at a time, dropping a column
    whose residual is at most drop_tol times its norm."""
    basis = []
    for k in range(b.shape[1]):
        w = b.column(k)
        orig = w.frobenius_norm()
        for _ in range(2):
            for u in basis:
                w = w - right_mul(u, inner(u, w))
        nw = w.frobenius_norm()
        if nw > drop_tol * orig:
            basis.append(w * (1.0 / nw))
    return basis


def _gram_schmidt_cases():
    rr = trial_rng(19)
    yield QMatrix.zeros(3, 0)
    for n in (1, 3, 8):
        yield _hstack(*[random_ops.rand_qvector(rr, n) for _ in range(n)])
        yield _hstack(*[random_ops.rand_qvector(rr, n)
                        for _ in range(n + 2)])
    # pulled-back singular vectors of block images come in dependent
    # pairs, as in the coimage and null/range bases
    for n, rank in ((2, 2), (5, 3), (8, 8), (8, 1)):
        image = QMatrix(chi(random_ops.rank_deficient(rr, n, rank)))
        v = ckernel.svd(image.p)[2][0]
        b = _hstack(*[pullback_vector(v[:, k]) for k in range(2 * n)])
        yield b
        yield QMatrix(*b.p[:, :, 2 * rank:])


def test_gram_schmidt_matches_object_loop_bytes():
    # the Householder basis spans what the object loop spans, and keeps as
    # many vectors; the basis vectors themselves differ by unit scalars
    for b in _gram_schmidt_cases():
        got = gram_schmidt(b)
        want = gram_schmidt_objects(b)
        assert got.shape == (b.shape[0], len(want))
        if want:
            diff = projector_onto(got) - projector_onto(_hstack(*want))
            assert diff.frobenius_norm() < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gram_schmidt_keeps_independent_vectors_at_any_scale():
    # the drop rule is relative to each vector's norm, and the basis of
    # 2**k v is that of v, bit for bit; dependent vectors are still dropped
    rr = trial_rng(20)
    vs = [random_ops.rand_qvector(rr, 4) for _ in range(3)]
    vs.append(right_mul(vs[0], random_ops.rand_quaternion(rr)) + vs[2])
    b, unit_b = _hstack(*vs), QMatrix(*QMatrix.identity(3).p[:, :, :2])
    want = gram_schmidt(b)
    assert want.shape == (4, 3)
    for k in (-600, -40, 0, 600):
        assert gram_schmidt(unit_b * 2.0 ** k).shape == (3, 2)
        got = gram_schmidt(b * 2.0 ** k)
        assert got.p.tobytes() == want.p.tobytes()


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
    assert (x * 2.0 ** exponent).frobenius_norm() == pytest.approx(
        x.frobenius_norm() * 2.0 ** exponent, rel=1e-14, abs=0.0)


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
        assert abs(operator_norm(a) - operator_norm(a.adjoint())) \
            <= 1e-9 * max(1.0, sigma)


def test_classify_identity():
    oc = classify(QMatrix.identity(3))
    assert oc.unitary and oc.self_adjoint and oc.positive
    assert oc.projection and oc.partial_isometry and oc.normal
    assert not oc.anti_self_adjoint


def test_classify_j_scalar():
    oc = classify(QMatrix.diag([J]))
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
    # classify's positivity residual and flag are ckernel.positivity's on
    # the one SVD, a.fac, with the self-adjoint residual of a
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
            residual, positive = ckernel.positivity(
                frobenius_norm(a - a.adjoint()), a.fac, tol)
            assert residual == oc.residuals["positive"]
            assert positive == oc.positive
            flags.append(oc.positive)
    assert True in flags and False in flags
    assert classify(QMatrix.diag([100.0, -5e-8]), 1e-9).positive
    with pytest.raises(ShapeMismatch):
        classify(QMatrix.zeros(2, 3))
    with pytest.raises(ValueError):
        classify(h, tol=0.0)


def test_classify_takes_one_factorization(monkeypatch):
    # classify of a PSD and of an indefinite Hermitian h reads one SVD and
    # solves no eigenproblem; its positivity residual ||h - |h|||_F / 2 is
    # the norm of the negative part of h, which chi(h) has twice
    from helpers import record_kernel_inputs, record_svd_inputs
    svds = record_svd_inputs(monkeypatch)
    eigs = record_kernel_inputs(monkeypatch, "hermitian_eig")
    for seed in range(6):
        for n in (1, 2, 3, 5, 8):
            rr = SplitMix64(100 * seed + n)
            for h in (random_ops.psd(rr, n), random_ops.hermitian(rr, n)):
                del svds[:]
                residual = classify(h).residuals["positive"]
                assert len(svds) == 1 and eigs == []
                lam = np.linalg.eigvalsh(chi(h))
                negative = np.linalg.norm(np.minimum(lam, 0.0)) / math.sqrt(2)
                assert (abs(residual - negative)
                        <= 1e-12 * h.frobenius_norm()), (seed, n)


def test_null_range_bases_zero_matrix():
    null_basis, range_basis = null_range_bases(QMatrix.zeros(3))
    assert null_basis.shape == (3, 3) and range_basis.shape == (3, 0)
    p = projector_onto(null_basis)
    assert (p - QMatrix.identity(3)).frobenius_norm() < 1e-12


def test_zero_column_blocks():
    # a basis of no columns still carries its ambient dimension; its
    # projector is the zero matrix and Gram-Schmidt keeps it empty
    for n in (1, 3, 8):
        empty = QMatrix.zeros(n, 0)
        assert projector_onto(empty).p.tobytes() == \
            QMatrix.zeros(n).p.tobytes()
        assert gram_schmidt(empty).shape == (n, 0)


def test_null_range_bases_weight_matrix():
    a = weight_matrix(10)
    null_basis, range_basis = null_range_bases(a)
    assert null_basis.shape == (10, 3) and range_basis.shape == (10, 7)
    want = np.zeros((10, 10), dtype=complex)
    for k in (2, 3, 4):
        want[k, k] = 1.0
    assert (projector_onto(null_basis) - QMatrix(want)).frobenius_norm() \
        < 1e-10
    for k in range(3):
        assert (a @ null_basis.column(k)).frobenius_norm() \
            <= 1e-10 * operator_norm(a)


def test_null_range_bases_planted_rank():
    rr = trial_rng(22)
    a = random_ops.rank_deficient(rr, 4, 2)
    null_basis, range_basis = null_range_bases(a)
    assert null_basis.shape == range_basis.shape == (4, 2)
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
        assert null_basis.shape[1] + range_basis.shape[1] == n
        # R(A)-perp equals N(A*): mutual orthogonality of computed bases
        null_star = null_range_bases(a.adjoint())[0]
        cross = null_star.adjoint() @ range_basis
        assert np.all(np.hypot(abs(cross.a1), abs(cross.a2)) < 1e-10)


def test_matrix_in_basis():
    # F* A F, F the columns of an orthonormal basis, has entries <f_r|A f_s>
    def matrix_in_basis(a, f):
        return f.adjoint() @ a @ f

    rr = trial_rng(24)
    a = random_ops.rand_qmatrix(rr, 4)
    assert (matrix_in_basis(a, QMatrix.identity(4)) - a).frobenius_norm() \
        < 1e-13
    basis = gram_schmidt(_hstack(*[random_ops.rand_qvector(rr, 4)
                                   for _ in range(4)]))
    b = matrix_in_basis(a, basis)
    # entries are <f_r | A f_s>
    for r in range(4):
        for s in range(4):
            want = inner(basis.column(r), a @ basis.column(s))
            assert (b.entry(r, s) - want).norm() < 1e-12
    # conjugation by a unitary basis preserves the operator norm
    assert abs(operator_norm(b) - operator_norm(a)) < 1e-9


def test_values_share_no_memory(monkeypatch):
    # values are immutable after construction: a QMatrix, n x 1 vectors
    # included, holds its planes p, and none may view the arrays it was
    # built from, an operand's planes, or the factors its bases were read
    # from
    a1, a2 = np.eye(3, dtype=complex), np.ones((3, 3), dtype=complex)
    for built, parts in ((QMatrix(a1, a2), (a1, a2)), (QMatrix(a1), (a1,)),
                         (QMatrix(a1[:, :1], a2[:, :1]), (a1, a2)),
                         (QMatrix(a1[:, :1]), (a1,)),
                         (pullback_vector(a1[0, :2]), (a1,))):
        assert not any(np.shares_memory(built.p, x) for x in parts)
    rr = trial_rng(95)
    a, b = random_ops.rand_qmatrix(rr, 3), random_ops.rand_qmatrix(rr, 3)
    x = random_ops.rand_qvector(rr, 3)
    results = [
        (a + b, (a, b)), (a - b, (a, b)), (-a, (a,)), (a * 2.0, (a,)),
        (2.0 * a, (a,)), (a @ b, (a, b)), (a @ x, (a, x)),
        (a.adjoint(), (a,)), (a.copy(), (a,)), (a.column(1), (a,)),
        (x + x, (x,)), (x * 2.0, (x,)), (right_mul(x, J), (x,)),
        (x.copy(), (x,)),
    ]
    for k, (result, operands) in enumerate(results):
        assert not any(np.shares_memory(result.p, o.p) for o in operands), k
    # every Factorization's u and v, and every householder q
    factors, facs = [], []
    real_householder = ckernel.householder

    def householder(w, pivot=False):
        q, r, kept = real_householder(w, pivot)
        factors.append(q)
        return q, r, kept

    class Recorded(ckernel.Factorization):
        def __init__(self, p):
            super().__init__(p)
            facs.append(self)

    monkeypatch.setattr(ckernel, "householder", householder)
    monkeypatch.setattr(ckernel, "Factorization", Recorded)
    t = random_ops.rank_deficient(rr, 5, 2)
    bases = [*null_range_bases(t), gram_schmidt(t),
             *_svd_bases(ckernel.Factorization(t.p))]
    factors += [m for f in facs for m in (f.u, f.v)]
    assert len(bases) == 6 and all(b.shape[1] for b in bases)
    assert len(facs) == 2
    for basis in bases:
        assert basis.p.flags.c_contiguous
        assert not any(np.shares_memory(basis.p, m) for m in factors)
        assert not np.shares_memory(basis.p, t.p)


def _built_values():
    rr = trial_rng(74)
    a, b = random_ops.rand_qmatrix(rr, 3), random_ops.rand_qmatrix(rr, 3)
    f = polar_decompose(a)
    return {
        "QMatrix": QMatrix(np.eye(2), np.ones((2, 2))),
        "zeros": QMatrix.zeros(2),
        "identity": QMatrix.identity(2),
        "diag": QMatrix.diag([1.0, J]),
        "basis": QMatrix.identity(3).column(1),
        "sum": a + b,
        "product": a @ b,
        "adjoint": a.adjoint(),
        "copy": a.copy(),
        "column": a.column(0),
        "null_basis": null_range_bases(weight_matrix(7))[0],
        "parse_qmat": parse_qmat(emit_qmat(a)),
        "u0": f.u0,
        "abs_t": f.abs_t,
        "gram_schmidt": gram_schmidt(a),
    }


@pytest.mark.parametrize("name", list(_built_values()))
def test_planes_are_read_only(name):
    value = _built_values()[name]
    for plane in (value.a1, value.a2, value.p):
        with pytest.raises(ValueError):
            plane[(0,) * plane.ndim] = 1.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_class_tolerance_must_be_finite_and_positive(tol):
    # every comparison with a nan tolerance is false, so the identity
    # would read not self-adjoint; with inf a random draw reads unitary
    from qpolar import cli
    from qpolar.slices import equivalence_suite
    a = random_ops.rand_qmatrix(SplitMix64(1), 3)
    for check in (classify, equivalence_suite):
        for m in (QMatrix.identity(2), a):
            with pytest.raises(ValueError, match="finite and positive"):
                check(m, tol)
    # the command line applies the same rule
    assert cli.check_tol is qlinalg.check_tol
    with pytest.raises(ValueError, match="finite and positive"):
        cli.check_tol(tol)
