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
        return self.coordinates(p) is not None

    def coordinates(self, p) -> tuple | None:
        """The integers j with p = j * step per axis (centred mod a finite order), or None off the lattice."""
        cs = self.group.coords(p)
        qs = [Fraction(x) / Fraction(s) for x, s in zip(cs, self.step)]
        if len(cs) != len(self.step) or any(q.denominator != 1 for q in qs):
            return None
        return self.centred([int(q) for q in qs])

    def centred(self, js) -> tuple:
        """Integer coordinates js, each reduced mod a finite order into [-order/2, order/2)."""
        orders = self.order or [None] * len(js)
        return tuple(j if o is None else (j + o // 2) % o - o // 2 for j, o in zip(js, orders))

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
