import math

import pytest
from hypothesis import given, strategies as st

from qpolar import ComplexPair, Quaternion, q_mul
from qpolar.quaternion import I, J, K, ONE
from qpolar.rng import SplitMix64

components = st.floats(min_value=-1e6, max_value=1e6,
                       allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, components, components,
                        components, components)


def test_hamilton_table():
    assert q_mul(I, J) == K
    assert q_mul(J, K) == I
    assert q_mul(K, I) == J
    assert q_mul(I, I) == -ONE
    assert q_mul(J, J) == -ONE
    assert q_mul(K, K) == -ONE
    # i * j * k = -1
    assert q_mul(q_mul(I, J), K) == -ONE


def test_identity_and_hand_expansion():
    q = Quaternion(1, 2, 3, 4)
    assert q_mul(q, ONE) == q
    assert q_mul(ONE, q) == q
    # (1 + i)(1 + j) = 1 + j + i + ij = 1 + i + j + k
    assert q_mul(Quaternion(1, 1, 0, 0), Quaternion(1, 0, 1, 0)) \
        == Quaternion(1, 1, 1, 1)


def test_anticommuting_slice_units():
    assert q_mul(I, J) == -q_mul(J, I)


def test_conj_norm_examples():
    q = Quaternion(1, 1, 1, 1)
    assert q.conjugate() == Quaternion(1, -1, -1, -1)
    assert q.norm() == 2.0
    assert (Quaternion().conjugate(), Quaternion().norm()) == (Quaternion(), 0.0)
    assert q_mul(I, J).conjugate() == -K
    assert q_mul(I, J).norm() == 1.0


def test_split_examples():
    pair = Quaternion(1, 2, 3, 4).split()
    assert pair == ComplexPair(1 + 2j, 3 + 4j)
    assert Quaternion(5).split() == ComplexPair(5 + 0j, 0j)
    assert J.split() == ComplexPair(0j, 1 + 0j)


def test_split_roundtrip_bit_exact():
    rr = SplitMix64(7)
    for _ in range(1000):
        q = Quaternion(rr.uniform(-1e8, 1e8), rr.uniform(-1e8, 1e8),
                       rr.uniform(-1e8, 1e8), rr.uniform(-1e8, 1e8))
        assert q.split().reassemble() == q


@given(quaternions, quaternions)
def test_norm_multiplicative(p, q):
    prod = q_mul(p, q)
    lhs = prod.norm()
    rhs = p.norm() * q.norm()
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, rhs)


@given(quaternions, quaternions)
def test_conj_anti_homomorphism(p, q):
    lhs = q_mul(p, q).conjugate()
    rhs = q_mul(q.conjugate(), p.conjugate())
    assert (lhs - rhs).norm() <= 1e-13 * max(1.0, lhs.norm())


@given(quaternions)
def test_conj_involution_and_norm_square(q):
    assert q.conjugate().conjugate() == q
    prod = q_mul(q, q.conjugate())
    want = Quaternion(q.norm() ** 2)
    assert (prod - want).norm() <= 1e-12 * max(1.0, want.w)


@given(quaternions, quaternions, quaternions)
def test_mul_associative(p, q, r):
    lhs = q_mul(q_mul(p, q), r)
    rhs = q_mul(p, q_mul(q, r))
    scale = max(1.0, p.norm() * q.norm() * r.norm())
    assert (lhs - rhs).norm() <= 1e-12 * scale


def test_bulk_random_pairs():
    # ten thousand pairs, relative 1e-13 on both scalar laws
    rr = SplitMix64(2024)
    for _ in range(10_000):
        p = Quaternion(rr.uniform(-1, 1), rr.uniform(-1, 1),
                       rr.uniform(-1, 1), rr.uniform(-1, 1))
        q = Quaternion(rr.uniform(-1, 1), rr.uniform(-1, 1),
                       rr.uniform(-1, 1), rr.uniform(-1, 1))
        prod = q_mul(p, q)
        assert abs(prod.norm() - p.norm() * q.norm()) \
            <= 1e-13 * max(1.0, p.norm() * q.norm())
        anti = q_mul(q.conjugate(), p.conjugate())
        assert (prod.conjugate() - anti).norm() \
            <= 1e-13 * max(1.0, prod.norm())


def test_parse_format_roundtrip():
    q = Quaternion(1.5, -2.25, 1 / 3, math.pi)
    assert Quaternion.parse(q.format()) == q
    assert Quaternion.parse("0 0 1 0") == J
    with pytest.raises(ValueError):
        Quaternion.parse("1 2 3")


def test_real_scalar_multiplication():
    q = Quaternion(1, 2, 3, 4)
    assert 2 * q == Quaternion(2, 4, 6, 8)
    assert q * 0.5 == Quaternion(0.5, 1, 1.5, 2)
