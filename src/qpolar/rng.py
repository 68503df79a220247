"""Seedable 64-bit generator for the verification suites.

SplitMix64: state advances by the golden-ratio increment and each output
is the finalizer mix of the new state. Trial k of a suite seeded with s
draws from an independent stream with initial state mix64(s ^ (k+1) * GAMMA),
so serial and parallel runs see identical values.

Draw k after state s comes from state s + k * GAMMA mod 2**64, so a block
of draws (SplitMix64.uniforms) is formed at once: the states as uint64
array arithmetic, which wraps mod 2**64 without a warning, the same mix
elementwise, and the same float steps (u >> 11) * 2**-53 and
lo + (hi - lo) * u. It equals as many scalar draws, bit for bit, and
leaves the same state.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return mix64(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * (2.0 ** -53)
        return lo + (hi - lo) * u

    def uniforms(self, count: int, lo: float = 0.0,
                 hi: float = 1.0) -> np.ndarray:
        """The next count values of uniform(lo, hi), as a float array."""
        # uint64 arrays throughout: numpy warns on scalar overflow only
        z = (np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GAMMA)
             + np.uint64(self._state))
        self._state = (self._state + count * GAMMA) & MASK64
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        u = ((z ^ (z >> 31)) >> 11).astype(float) * (2.0 ** -53)
        return lo + (hi - lo) * u

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n); desk-scale n, modulo bias negligible."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n


def stream(seed: int, index: int) -> SplitMix64:
    """Independent generator for trial `index` of a run seeded with `seed`."""
    return SplitMix64(mix64((seed ^ ((index + 1) * GAMMA)) & MASK64))
