"""Uniform lattices in elementary LCA groups as scaled integer grids.

Every lattice in scope is {j * step : j} per axis, either over all of Z
(integers, Euclidean axes, annihilators in Z) or over range(order) for the
finite subgroups of Z_N and T.  Steps are exact rationals so membership and
coset arithmetic never rely on tolerances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exceptions import DomainParameterError, UnboundedWindowError
from .groups import GroupSpec, dual_group


@dataclass(frozen=True)
class ScaledLattice:
    group: GroupSpec
    step: tuple
    order: tuple | None = None  # per-axis point count, None = infinite

    def __post_init__(self):
        if any(s <= 0 for s in self.step):
            raise DomainParameterError("lattice steps must be positive")

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    @property
    def size(self) -> int:
        if self.order is None:
            raise DomainParameterError("infinite lattice has no size")
        return math.prod(self.order)

    def _point(self, js) -> object:
        vals = [j * Fraction(s) for j, s in zip(js, self.step)]
        return self.group.element([int(v) if v.denominator == 1 else v for v in vals])

    def contains(self, p) -> bool:
        # finite lattices live in compact groups whose canonical coordinates
        # make the range check automatic; only divisibility matters
        cs = self.group.coords(p)
        if len(cs) != len(self.step):
            return False
        for x, s in zip(cs, self.step):
            q = Fraction(x) / Fraction(s)
            if q.denominator != 1:
                return False
        return True

    def points(self) -> list:
        """The points of a finite lattice, in increasing order of j."""
        if self.order is None:
            raise UnboundedWindowError("an infinite lattice has no finite point list")
        return [self._point(js) for js in itertools.product(*(range(n) for n in self.order))]


def cyclic_annihilator(lat: ScaledLattice) -> ScaledLattice:
    """Annihilator of a cyclic sublattice, inside the dual copy of Z_N."""
    if not lat.group.is_finite:
        raise DomainParameterError("cyclic_annihilator needs a Z_N lattice")
    n = lat.group.modulus
    g = int(lat.step[0])
    dual = dual_group(lat.group)
    return ScaledLattice(dual, (Fraction(n // g),), (g,))
