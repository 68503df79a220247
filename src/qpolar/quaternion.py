"""Scalar quaternion arithmetic and the complex slice split.

A quaternion q = w + x*i + y*j + z*k is stored as four real components.
The library fixes the slice plane C_i (complex numbers alpha = w + x*i)
and the anti-commuting unit j, so every quaternion splits uniquely as
q = alpha + beta * j with alpha = w + x*i and beta = y + z*i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ComplexPair:
    """The split q = alpha + beta * j, both parts in C_i."""

    alpha: complex
    beta: complex

    def reassemble(self) -> "Quaternion":
        """Regroup the pair back into a quaternion, bit-exact."""
        return Quaternion(self.alpha.real, self.alpha.imag,
                          self.beta.real, self.beta.imag)


@dataclass(frozen=True)
class Quaternion:
    """A real quaternion w + x*i + y*j + z*k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return q_mul(self, other)
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        # real scalars commute with everything
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x
                         + self.y * self.y + self.z * self.z)

    __abs__ = norm

    def split(self) -> ComplexPair:
        """Return (alpha, beta) with self = alpha + beta * j exactly."""
        return ComplexPair(complex(self.w, self.x), complex(self.y, self.z))

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def q_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p * q (i^2 = j^2 = k^2 = ijk = -1)."""
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )
