"""Finitely supported functions on discrete groups (Z, Z_N, and Z as a dual).

These carry the time-domain generators, the dual-side indicator generators,
and the test functions fed to the verification identities.  Inner products
and norms respect the group's Haar point mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainParameterError, VariantMismatchError
from .groups import CYCLIC, GroupSpec, pairing_phase


@dataclass(frozen=True)
class DiscreteFunction:
    group: GroupSpec
    start: int  # support offset; cyclic functions store the full period with start 0
    values: tuple  # complex values

    def __post_init__(self):
        if not self.group.is_discrete:
            raise VariantMismatchError("discrete functions need a discrete group")
        if self.group.kind == CYCLIC and (self.start != 0 or len(self.values) != self.group.modulus):
            raise DomainParameterError("cyclic functions store one full period starting at 0")

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=complex)

    @property
    def stop(self) -> int:
        return self.start + len(self.values)

    @property
    def weight(self) -> float:
        return float(self.group.point_mass)

    def norm2(self) -> float:
        a = self.array
        return self.weight * float(np.sum(a.real**2 + a.imag**2))

    def inner(self, other: "DiscreteFunction") -> complex:
        """<self, other> with the group's Haar weight."""
        if self.group.kind == CYCLIC:
            return self.weight * complex(np.vdot(other.array, self.array))
        lo = max(self.start, other.start)
        hi = min(self.stop, other.stop)
        if hi <= lo:
            return 0j
        a = self.array[lo - self.start : hi - self.start]
        b = other.array[lo - other.start : hi - other.start]
        return self.weight * complex(np.vdot(b, a))

    def translate(self, y: int) -> "DiscreteFunction":
        if self.group.kind == CYCLIC:
            return DiscreteFunction(self.group, 0, tuple(np.roll(self.array, y)))
        return DiscreteFunction(self.group, self.start + y, self.values)

    def value_at(self, x: int) -> complex:
        if self.group.kind == CYCLIC:
            return complex(self.values[x % self.group.modulus])
        if self.start <= x < self.stop:
            return complex(self.values[x - self.start])
        return 0j

    def hat(self, gamma) -> complex:
        """Fourier transform sum_x f(x) (-x, gamma) under the group weight."""
        total = 0j
        for i, v in enumerate(self.values):
            x = self.start + i
            t = pairing_phase(self.group, x, gamma)
            total += complex(v) * np.exp(-2j * np.pi * (float(t) % 1.0))
        return self.weight * total

    def moment(self, p: int) -> complex:
        xs = np.arange(self.start, self.stop)
        return self.weight * complex(np.sum(self.array * xs**p))

    def support(self) -> tuple[int, int]:
        """Smallest [first, last] window of nonzero values (cyclic: in 0..N-1)."""
        nz = np.nonzero(np.abs(self.array) > 0)[0]
        if len(nz) == 0:
            raise DomainParameterError("zero function has no support")
        return self.start + int(nz[0]), self.start + int(nz[-1])


def delta(group: GroupSpec, at: int = 0) -> DiscreteFunction:
    if group.kind == CYCLIC:
        vals = [0j] * group.modulus
        vals[at % group.modulus] = 1 + 0j
        return DiscreteFunction(group, 0, tuple(vals))
    return DiscreteFunction(group, at, (1 + 0j,))


def random_test_function(group: GroupSpec, window: tuple[int, int], rng) -> DiscreteFunction:
    """Uniform complex entries in the unit square on [window[0], window[1]]."""
    lo, hi = window
    n = hi - lo + 1
    vals = rng.random(n) + 1j * rng.random(n)
    if group.kind == CYCLIC:
        full = np.zeros(group.modulus, dtype=complex)
        np.add.at(full, (lo + np.arange(n)) % group.modulus, vals)
        return DiscreteFunction(group, 0, tuple(full))
    return DiscreteFunction(group, lo, tuple(vals))


def function_to_json(fn: DiscreteFunction) -> dict:
    return {
        "support_start": fn.start,
        "values": [[complex(v).real, complex(v).imag] for v in fn.values],
    }


def function_from_json(group: GroupSpec, data: dict) -> DiscreteFunction:
    vals = tuple(complex(re, im) for re, im in data["values"])
    return DiscreteFunction(group, data["support_start"], vals)
