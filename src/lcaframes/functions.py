"""Finitely supported functions on discrete groups (Z, Z_N, and Z as a dual).

These carry the time-domain generators, the dual-side indicator generators,
and the test functions fed to the verification identities.  Inner products
and norms respect the group's Haar point mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from .exceptions import DomainParameterError, VariantMismatchError
from .groups import GroupSpec


@dataclass(frozen=True)
class DiscreteFunction:
    group: GroupSpec
    start: int  # support offset; cyclic functions store the full period with start 0
    values: np.ndarray  # complex values, a read-only copy of what was passed in

    def __post_init__(self):
        if not self.group.is_discrete:
            raise VariantMismatchError("discrete functions need a discrete group")
        values = np.array(self.values, dtype=complex)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.group.is_finite and (self.start != 0 or len(values) != self.group.modulus):
            raise DomainParameterError("cyclic functions store one full period starting at 0")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteFunction):
            return NotImplemented
        return (self.group, self.start) == (other.group, other.start) and np.array_equal(self.values, other.values)

    @property
    def array(self) -> np.ndarray:
        return self.values

    @property
    def stop(self) -> int:
        return self.start + len(self.values)

    @property
    def weight(self) -> float:
        return float(self.group.point_mass)

    def norm2(self) -> float:
        return self.weight * float(np.sum(self.values.real**2 + self.values.imag**2))

    def inner(self, other: "DiscreteFunction") -> complex:
        """<self, other> with the group's Haar weight."""
        lo = max(self.start, other.start)
        hi = min(self.stop, other.stop)
        if hi <= lo:
            return 0j
        a = self.array[lo - self.start : hi - self.start]
        b = other.array[lo - other.start : hi - other.start]
        return self.weight * complex(np.vdot(b, a))

    def translate(self, y: int) -> "DiscreteFunction":
        if self.group.is_finite:
            return DiscreteFunction(self.group, 0, np.roll(self.array, y))
        return DiscreteFunction(self.group, self.start + y, self.values)

    def support(self) -> tuple[int, int]:
        """Smallest [first, last] window of nonzero values (cyclic: in 0..N-1)."""
        nz = np.nonzero(np.abs(self.array) > 0)[0]
        if len(nz) == 0:
            raise DomainParameterError("zero function has no support")
        return self.start + int(nz[0]), self.start + int(nz[-1])


def delta(group: GroupSpec, at: int = 0) -> DiscreteFunction:
    if group.is_finite:
        return DiscreteFunction(group, 0, np.arange(group.modulus) == at % group.modulus)
    return DiscreteFunction(group, at, [1])


def uniform(rng: Random, shape) -> np.ndarray:
    """Uniform doubles in [0, 1): the top 53 bits of 8 bytes of the stdlib generator (no numpy.random import)."""
    bits = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8") >> np.uint64(11)
    return (bits * 2.0**-53).reshape(shape)


def random_test_function(group: GroupSpec, window: tuple[int, int], rng: Random) -> DiscreteFunction:
    """Uniform complex entries in the unit square on [window[0], window[1]], each a real then an imaginary draw."""
    lo, hi = window
    vals = uniform(rng, (hi - lo + 1, 2)).view(complex)[:, 0]
    if group.is_finite:
        full = np.zeros(group.modulus, dtype=complex)
        np.add.at(full, np.arange(lo, hi + 1) % group.modulus, vals)
        return DiscreteFunction(group, 0, full)
    return DiscreteFunction(group, lo, vals)
