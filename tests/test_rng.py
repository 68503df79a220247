"""The bulk SplitMix64 draw and the random constructions built on it,
against the scalar draws they replaced, byte for byte."""

import warnings

import numpy as np
import pytest

from helpers import (normal_entrywise, rand_qmatrix_entrywise,
                     rand_qvector_entrywise)
from qpolar import random_ops
from qpolar.rng import SplitMix64, mix64

SEEDS = (0, 1, 2 ** 64 - 1, mix64(42))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", (0, 1, 7, 4096))
@pytest.mark.parametrize("lo, hi", ((0.0, 1.0), (-1, 1), (0.05, 1.0)))
def test_uniforms_equal_scalar_draws(seed, count, lo, hi):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    with warnings.catch_warnings():
        # numpy warns on a scalar uint64 overflow; the bulk draw must not
        warnings.simplefilter("error")
        got = bulk.uniforms(count, lo, hi)
    want = np.array([scalar.uniform(lo, hi) for _ in range(count)],
                    dtype=float)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert got.tobytes() == want.tobytes()
    # the same state: the next draws agree, scalar and bulk
    assert bulk.next_u64() == scalar.next_u64()
    assert bulk.uniforms(3).tobytes() == np.array(
        [scalar.uniform() for _ in range(3)]).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_top_bits_are_next_u64(seed):
    # uniform() is the top 53 bits of next_u64() times 2**-53, exactly
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    got = bulk.uniforms(64) * 2.0 ** 53
    assert [int(x) for x in got] == [scalar.next_u64() >> 11
                                     for _ in range(64)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, cols", ((1, None), (2, None), (5, None),
                                     (8, None), (3, 1), (2, 5), (4, 7)))
def test_rand_qmatrix_equals_entrywise(seed, n, cols):
    r, oracle = SplitMix64(seed), SplitMix64(seed)
    a = random_ops.rand_qmatrix(r, n, cols)
    b = rand_qmatrix_entrywise(oracle, n, cols)
    assert a.shape == b.shape == (n, n if cols is None else cols)
    assert a.p.tobytes() == b.p.tobytes()
    assert a.p.flags.c_contiguous and not a.p.flags.writeable
    assert r.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", (1, 2, 7, 16))
def test_rand_qvector_equals_entrywise(seed, n):
    r, oracle = SplitMix64(seed), SplitMix64(seed)
    x = random_ops.rand_qvector(r, n)
    y = rand_qvector_entrywise(oracle, n)
    assert x.shape == y.shape == (n, 1)
    assert x.p.tobytes() == y.p.tobytes()
    assert r.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", (1, 2, 7, 16))
def test_rand_qmatrix_one_column_equals_rand_qvector(seed, n):
    # the dichotomy suite draws its rank-one perturbations as one-column
    # matrices, with the bits rand_qvector drew for them
    r, oracle = SplitMix64(seed), SplitMix64(seed)
    a = random_ops.rand_qmatrix(r, n, 1)
    x = random_ops.rand_qvector(oracle, n)
    assert a.shape == (n, 1)
    assert a.p.tobytes() == x.p.tobytes()
    assert r.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", (1, 3, 4))
def test_normal_equals_entrywise(seed, n):
    r, oracle = SplitMix64(seed), SplitMix64(seed)
    a = random_ops.normal(r, n)
    b = normal_entrywise(oracle, n)
    assert a.p.tobytes() == b.p.tobytes()
    assert r.next_u64() == oracle.next_u64()
