import math

import numpy as np
import pytest

from helpers import trial_rng
from qpolar import (DimensionTooSmall, NormTooLarge, QMatrix, modulus,
                    null_range_bases, operator_norm,
                    polar_decompose, quaternionic_rank, truncated_example,
                    weight_matrix, z_inverse, z_transform)
from qpolar import ckernel, random_ops
from qpolar.transform import inv_sqrt_shifted_gram
from qpolar.quaternion import J


def test_z_transform_zero_and_scalar():
    assert z_transform(QMatrix.zeros(3)).frobenius_norm() < 1e-14
    z = z_transform(QMatrix.diag([6.0]))
    assert abs(z.entry(0, 0).w - 6.0 / math.sqrt(37.0)) < 1e-12


def test_z_transform_contraction_and_adjoint():
    rr = trial_rng(70)
    for _ in range(20):
        n = 1 + rr.randint(5)
        t = random_ops.bounded_norm(rr, n, 10.0)
        z = z_transform(t)
        assert operator_norm(z) <= 1.0 + 1e-10
        assert (z_transform(t.adjoint()) - z.adjoint()).frobenius_norm() < 1e-9
        # null spaces and ranks carry over
        assert quaternionic_rank(z) == quaternionic_rank(t)
        null_t, _ = null_range_bases(t)
        for k in range(null_t.shape[1]):
            assert (z @ null_t.column(k)).frobenius_norm() \
                < 1e-10 * max(1.0, t.frobenius_norm())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_z_inverse_examples():
    assert z_inverse(QMatrix.zeros(2)).frobenius_norm() < 1e-14
    back = z_inverse(QMatrix.diag([6.0 / math.sqrt(37.0)]))
    assert abs(back.entry(0, 0).w - 6.0) < 1e-10
    # a partial isometry has norm one, so its preimage is unbounded
    with pytest.raises(NormTooLarge):
        z_inverse(QMatrix.diag([J]))
    # a huge operator has a finite norm, which the same check refuses
    with pytest.raises(NormTooLarge):
        z_inverse(random_ops.rand_qmatrix(trial_rng(76), 4) * 2.0 ** 520)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("e", [600, 1000])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_z_transform_of_a_huge_operator_is_its_isometry(n, e):
    # T* T overflows a double here; the damping factor reads T's SVD,
    # which takes T at any finite scale, and every s / hypot(1, s) rounds
    # to 1, so Z_T is the polar isometry of T, whose preimage z_inverse
    # refuses as unbounded
    t = random_ops.rand_qmatrix(trial_rng(77), n) * 2.0 ** e
    z = z_transform(t)
    assert np.isfinite(z.p).all()
    assert operator_norm(z) <= 1.0 + 1e-12
    assert (z - polar_decompose(t).u0).frobenius_norm() < 1e-13
    with pytest.raises(NormTooLarge):
        z_inverse(z)


def test_roundtrip():
    rr = trial_rng(71)
    for _ in range(50):
        n = 1 + rr.randint(5)
        t = random_ops.bounded_norm(rr, n, 10.0)
        back = z_inverse(z_transform(t))
        assert (back - t).frobenius_norm() <= 1e-7 * max(1.0, t.frobenius_norm())


def test_roundtrip_forward_direction():
    # z_transform(z_inverse(Z)) recovers a contraction Z
    rr = trial_rng(75)
    for _ in range(20):
        n = 1 + rr.randint(5)
        z = random_ops.bounded_norm(rr, n, 0.9)
        again = z_transform(z_inverse(z))
        assert (again - z).frobenius_norm() <= 1e-8 * max(1.0, z.frobenius_norm())


def test_modulus_identity():
    rr = trial_rng(72)
    for _ in range(20):
        n = 1 + rr.randint(5)
        t = random_ops.bounded_norm(rr, n, 10.0)
        z = z_transform(t)
        rhs = modulus(t) @ inv_sqrt_shifted_gram(t)
        assert (modulus(z) - rhs).frobenius_norm() < 1e-8


def test_polar_transport():
    rr = trial_rng(73)
    for _ in range(20):
        n = 1 + rr.randint(5)
        rank = rr.randint(n + 1)
        t = (random_ops.rand_qmatrix(rr, n) if rank == n
             else random_ops.rank_deficient(rr, n, rank))
        z = z_transform(t)
        assert (polar_decompose(z).u0 - polar_decompose(t).u0).frobenius_norm() \
            < 1e-8


def test_normality_preserved():
    rr = trial_rng(74)
    for _ in range(10):
        t = random_ops.normal(rr, 4)
        z = z_transform(t)
        assert (z @ z.adjoint() - z.adjoint() @ z).frobenius_norm() \
            <= 1e-9 * max(1.0, t.frobenius_norm())


def test_truncated_weight_op_pattern():
    m = truncated_example(10)[0]
    assert m.entry(1, 0).w == 1.0   # e1 -> e2
    assert m.entry(3, 1).w == 1.0   # e2 -> e4
    for col in (2, 3, 4):
        assert np.all(m.a1[:, col] == 0)
    for k in range(6, 11):
        assert m.entry(k - 1, k - 1).w == float(k)


def test_truncated_example_coincides_with_weight_matrix():
    _, z = truncated_example(10)
    a = weight_matrix(10)
    assert (z - a).frobenius_norm() < 1e-12
    assert abs(z.entry(1, 0).w - 1 / math.sqrt(2)) < 1e-12
    assert abs(z.entry(6, 6).w - 7 / math.sqrt(50)) < 1e-12
    for col in (2, 3, 4):
        assert np.all(np.abs(z.a1[:, col]) < 1e-12)
        assert np.all(np.abs(z.a2[:, col]) < 1e-12)
    with pytest.raises(DimensionTooSmall):
        truncated_example(6)
    with pytest.raises(DimensionTooSmall):
        weight_matrix(5)


def test_weight_matrix_norm_grows_with_truncation():
    # the top weight N/sqrt(N^2+1) creeps up to 1 as N grows, the
    # finite-dimensional shadow of unboundedness
    for n in (7, 9, 12):
        assert abs(operator_norm(weight_matrix(n)) - n / math.sqrt(n * n + 1)) \
            < 1e-12
