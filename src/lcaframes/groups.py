"""Elementary LCA groups, their duals, Haar normalizations and characters.

Four group variants are modeled concretely: the cyclic group Z_N, the
integers Z, the circle T = [0,1) and Euclidean space R^s.  Each fixes a dual
(Z_N <-> Z_N, Z <-> T, R^s <-> R^s) and a Haar normalization chosen so the
Fourier inversion formula holds with no extra constants:

    Z    counting            T (dual)    Lebesgue, total mass 1
    Z_N  counting            Z_N (dual)  counting / N
    T    Lebesgue, mass 1    Z (dual)    counting
    R^s  Lebesgue            R^s (dual)  Lebesgue

Element coordinates: int for Z and Z_N (reduced mod N), rational-or-float in
[0,1) for T, tuples for R^s.  Lattice data stays rational for exactness.
Everything else a group kind implies is decided here and read off the
`GroupSpec`: whether it is discrete or finite, the period its coordinates
reduce by, and the conversion between elements and coordinate tuples.
`point_array` holds many points of one group as an array, and `pairing` is
the one evaluation of the character (x, gamma): one x, an array of gammas,
through its `phase`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

import numpy as np

from .exact import cis_many
from .exceptions import LcaError, SchemaError

CYCLIC = "cyclic"
INTEGERS = "integers"
TORUS = "torus"
EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class GroupSpec:
    """One elementary LCA group together with its Haar normalization.

    point_mass is the Haar measure of a single point for discrete groups
    (None for T and R^s); it distinguishes Z_N as a primal group (mass 1)
    from Z_N as a dual group (mass 1/N).
    """

    kind: str
    modulus: int | None = None
    dimension: int = 1
    point_mass: Fraction | None = None

    @property
    def is_discrete(self) -> bool:
        return self.point_mass is not None

    @property
    def is_finite(self) -> bool:
        return self.kind == CYCLIC

    @property
    def period(self) -> int | None:
        """The period every coordinate reduces by: N on Z_N, 1 on T, None on Z and R^s."""
        return {CYCLIC: self.modulus, TORUS: 1}.get(self.kind)

    def coords(self, x) -> tuple:
        """The coordinates of an element: one on Z, Z_N and T, s on R^s."""
        return tuple(x) if self.kind == EUCLIDEAN else (x,)

    def element(self, cs):
        """The element with coordinates cs (the inverse of `coords`)."""
        return tuple(cs) if self.kind == EUCLIDEAN else cs[0]

    def describe(self) -> str:
        if self.kind == CYCLIC:
            return f"Z_{self.modulus}"
        if self.kind == EUCLIDEAN:
            return f"R^{self.dimension}"
        return {INTEGERS: "Z", TORUS: "T"}[self.kind]


def cyclic_group(modulus: int, point_mass=1) -> GroupSpec:
    if not isinstance(modulus, int) or modulus < 2:
        raise LcaError(f"cyclic modulus must be an integer >= 2, got {modulus}")
    return GroupSpec(CYCLIC, modulus=modulus, point_mass=Fraction(point_mass))


def integer_group() -> GroupSpec:
    return GroupSpec(INTEGERS, point_mass=Fraction(1))


def torus_group() -> GroupSpec:
    return GroupSpec(TORUS)


def euclidean_group(dimension: int) -> GroupSpec:
    if not isinstance(dimension, int) or dimension < 1:
        raise LcaError(f"euclidean dimension must be a positive integer, got {dimension}")
    return GroupSpec(EUCLIDEAN, dimension=dimension)


def dual_group(group: GroupSpec) -> GroupSpec:
    """The dual group, normalized so Fourier inversion holds."""
    if group.kind == CYCLIC:
        return cyclic_group(group.modulus, point_mass=Fraction(1, group.modulus))
    if group.kind == INTEGERS:
        return torus_group()
    if group.kind == TORUS:
        return integer_group()
    return euclidean_group(group.dimension)


def _is_real(x) -> bool:
    return isinstance(x, Real) and (not isinstance(x, float) or math.isfinite(x))


def check_element(group: GroupSpec, x, what: str = "element"):
    """Validate and canonicalize a coordinate for this group."""
    if group.kind in (CYCLIC, INTEGERS):
        if type(x) is not int:
            raise SchemaError(f"{what} of {group.describe()} must be an integer, got {x!r}")
        return x % group.modulus if group.kind == CYCLIC else x
    if group.kind == TORUS:
        if not _is_real(x):
            raise SchemaError(f"{what} of T must be a finite real number, got {x!r}")
        return Fraction(x) % 1 if isinstance(x, (int, Fraction)) else float(x) % 1.0
    if not (isinstance(x, tuple) and len(x) == group.dimension and all(_is_real(c) for c in x)):
        raise SchemaError(f"{what} of {group.describe()} must be a {group.dimension}-tuple of finite reals, got {x!r}")
    return x


def _reduced(group: GroupSpec, cs) -> object:
    """The element with coordinates cs, each reduced by the group's period."""
    p = group.period
    return group.element(cs if p is None else [c % p for c in cs])


def element_add(group: GroupSpec, a, b):
    return _reduced(group, [x + y for x, y in zip(group.coords(a), group.coords(b))])


def element_neg(group: GroupSpec, a):
    return _reduced(group, [-x for x in group.coords(a)])


def element_scale(group: GroupSpec, n: int, a):
    """n-fold group sum of a (n may be negative)."""
    return _reduced(group, [n * x for x in group.coords(a)])


def point_array(points, group: GroupSpec) -> np.ndarray:
    """Points of `group` as one array: int64 on discrete groups, float64 else.

    The shape is (n,) on Z, Z_N and T and (n, s) on R^s; a single point
    (a scalar, or a tuple on R^s) becomes an array with n = 1.
    """
    if group.kind == EUCLIDEAN:
        return np.asarray(points, dtype=float).reshape(-1, group.dimension)
    return np.asarray(points, dtype=np.int64 if group.is_discrete else float).reshape(-1)


def residue(group: GroupSpec, x, pts: np.ndarray) -> tuple[np.ndarray, int]:
    """(r, D) with (x, gamma) = e^{2 pi i r / D} and 0 <= r < D, in integers.

    The group has a discrete dual (Z_N, or T at a rational x), and pts holds
    integer points gamma of it.
    """
    if group.is_finite:
        return x * pts % group.modulus, group.modulus
    x = Fraction(x)
    return x.numerator * pts % x.denominator, x.denominator


def phase(group: GroupSpec, x, gammas) -> tuple[np.ndarray, int | None]:
    """(t, D) with (x, gamma) = e^{2 pi i t / D} for x in the group, at an array of dual points.

    On the discrete duals (of Z_N, and of T at a rational x) t is the integer
    residue of `residue`, reduced mod D exactly; on T and R^s it is a float
    product in turns, and D is None.
    """
    x = check_element(group, x, "group element")
    pts = point_array(gammas, dual_group(group))
    if group.is_finite or isinstance(x, Fraction):
        return residue(group, x, pts)
    if group.kind == EUCLIDEAN:
        return pts @ np.array([float(c) for c in x]), None
    return float(x) * pts, None


def pairing(group: GroupSpec, x, gammas) -> np.ndarray:
    """Character values (x, gamma) for x in the group, at an array of dual points.

    The phase is `phase`'s, so on the discrete duals quarter turns come out
    as exactly 1, i, -1 and -i.
    """
    t, d = phase(group, x, gammas)
    return cis_many(t if d is None else np.divide(t, d))
